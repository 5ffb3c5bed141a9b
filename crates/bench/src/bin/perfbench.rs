//! `perfbench` — the hot-path microbenchmark harness.
//!
//! Dependency-free, fixed-seed, median-of-k wall-clock benchmarks over the
//! engine's hot loops: end-to-end episode throughput on the synthetic chain
//! workload, STeM insert and the tiled probe operator (through a dense-key
//! view in and out of cache, and along the hash chains), windowed-relation expiry (the
//! streaming layer's reclamation path), three data-parallel kernels (filter
//! masking, bulk query-set intersection, survivor compaction — DESIGN.md
//! §14), the router in its count-only, one-class projected and
//! three-class projected shapes, and the
//! control plane: admitting a 256-query batch, planning a 256-query join
//! phase, and Q-table lookups. Emits `BENCH_perf.json` so successive PRs
//! accumulate a performance trajectory.
//!
//! Usage:
//!
//! ```text
//! perfbench [--quick] [--out <path>] [--baseline <path>] [--gate] [--gate-floor <f>]
//! ```
//!
//! `--quick` shrinks workload sizes and the repetition count for CI smoke
//! runs. `--baseline` points at a `BENCH_perf.json` produced by an earlier
//! build: its episode-throughput anchor is carried forward, and every
//! bench whose name and work count match gets a `ratio` (current/baseline)
//! in the output. `--gate` turns those ratios into a pass/fail check —
//! the process exits nonzero if any ratio drops below the floor
//! (`--gate-floor`, default 0.85), which is how CI catches regressions.

use roulette_core::{ColId, EngineConfig, QueryId, QuerySet, QuerySetColumn, RelId, RowMask};
use roulette_bench::routing::{routing_fixture, SHAPES};
use roulette_exec::planner::plan_join_phase;
use roulette_exec::{
    kernels, route, EpisodeSink, GroupedFilter, JoinSpace, LiveSet, MatchTile, Outputs,
    ProbeScratch, RouletteEngine, RouteScratch, Stem, Walk, VERSION_ALL,
};
use roulette_policy::{QTable, RandomPolicy, Scope};
use roulette_query::generator::{chains_queries, tpcds_pool, SensitivityParams};
use roulette_query::QueryBatch;
use roulette_storage::datagen::chains::{self, ChainsParams};
use roulette_storage::datagen::tpcds;
use std::sync::atomic::AtomicU32;
use std::time::{Duration, Instant};

/// One benchmark's result: the median wall-clock of `runs` repetitions over
/// `work` items.
struct BenchResult {
    name: &'static str,
    /// What one work item is (for the JSON's `unit` field).
    unit: &'static str,
    work: u64,
    runs: usize,
    median: Duration,
    /// Matched baseline throughput (same name, same work count).
    baseline_per_sec: Option<f64>,
}

impl BenchResult {
    fn per_sec(&self) -> f64 {
        self.work as f64 / self.median.as_secs_f64().max(1e-12)
    }

    /// current/baseline throughput, when a comparable baseline matched.
    fn ratio(&self) -> Option<f64> {
        self.baseline_per_sec.filter(|&b| b > 0.0).map(|b| self.per_sec() / b)
    }
}

/// Runs `f` `runs` times and keeps the median elapsed time. `f` returns the
/// number of work items it processed (must be identical across runs —
/// everything is fixed-seed).
fn bench(
    name: &'static str,
    unit: &'static str,
    runs: usize,
    mut f: impl FnMut() -> u64,
) -> BenchResult {
    let mut times = Vec::with_capacity(runs);
    let mut work = 0;
    for _ in 0..runs {
        let t0 = Instant::now();
        work = f();
        times.push(t0.elapsed());
    }
    times.sort_unstable();
    let median = times[times.len() / 2];
    let r = BenchResult { name, unit, work, runs, median, baseline_per_sec: None };
    println!(
        "{:<28} {:>12.0} {}/s   (median of {} over {} items, {:.1} ms)",
        r.name,
        r.per_sec(),
        r.unit,
        r.runs,
        r.work,
        r.median.as_secs_f64() * 1e3
    );
    r
}

/// The fixed-seed value stream shared by the kernel benches.
#[inline]
fn lcg(v: &mut i64) -> i64 {
    *v = v.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *v >> 33
}

/// End-to-end episode throughput on the Fig. 15 chain workload: the number
/// the tentpole's ≥1.3× acceptance criterion is measured on.
fn bench_episode_chains(quick: bool, runs: usize) -> BenchResult {
    let params = ChainsParams {
        chains: 4,
        relations: 9,
        domain: if quick { 1024 } else { 4096 },
        hub_rows: if quick { 1 << 14 } else { 1 << 18 },
    };
    let ds = chains::generate(params, 7);
    let queries = chains_queries(&ds, 8, 11).expect("chain query generation");
    bench("episode_chains", "episodes", runs, || {
        let engine = RouletteEngine::new(&ds.catalog, EngineConfig::default());
        let out = engine.execute_batch(&queries).expect("chains batch");
        assert!(out.per_query.iter().all(|r| r.is_complete()));
        out.stats.episodes
    })
}

/// STeM build side: vectors of 1024 tuples inserted into one hash index.
fn bench_stem_insert(quick: bool, runs: usize) -> BenchResult {
    let n: u32 = if quick { 1 << 16 } else { 1 << 19 };
    let q = QuerySet::full(64);
    let mut qsets = QuerySetColumn::new(q.width());
    for _ in 0..1024 {
        qsets.push(q.words());
    }
    bench("stem_insert", "tuples", runs, || {
        let stem = Stem::new(RelId(0), vec![ColId(0)], q.width());
        let global = AtomicU32::new(0);
        let mut vids = vec![0u32; 1024];
        let mut keys = vec![0i64; 1024];
        for base in (0..n).step_by(1024) {
            for i in 0..1024u32 {
                vids[i as usize] = base + i;
                // ~4 entries per key so probe chains have realistic length.
                keys[i as usize] = ((base + i) % (n / 4)) as i64;
            }
            stem.insert_vector(&vids, &qsets, std::slice::from_ref(&keys), &global);
        }
        n as u64
    })
}

/// One contended-insert pass: `threads` workers concurrently push their
/// own vector streams into the shared STeM (chain length ≈ 4, per-thread
/// key streams decorrelated), following the engine's episode hot path:
/// the whole vector in one `insert_vector` critical section. Returns total
/// tuples inserted.
fn contended_insert_pass(stem: &Stem, threads: usize, n_per: u32, width: usize) -> u64 {
    let global = &AtomicU32::new(0);
    let q = QuerySet::full(64);
    let domain = (threads as u32 * n_per / 4).max(1);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let q = &q;
            scope.spawn(move || {
                let mut vids = vec![0u32; 1024];
                let mut keys = vec![0i64; 1024];
                let mut qsets = QuerySetColumn::new(width);
                qsets.push_repeat(q.words(), 1024);
                for base in (0..n_per).step_by(1024) {
                    for i in 0..1024u32 {
                        let row = t as u32 * n_per + base + i;
                        vids[i as usize] = row;
                        keys[i as usize] = (row.wrapping_mul(0x9e37_79b1) % domain) as i64;
                    }
                    stem.insert_vector(&vids, &qsets, std::slice::from_ref(&keys), global);
                }
            });
        }
    });
    threads as u64 * n_per as u64
}

/// Contended STeM build side: 4 threads inserting concurrently, every
/// insert serializing on the STeM's one write latch.
fn bench_stem_contended_insert(quick: bool, runs: usize) -> BenchResult {
    const THREADS: usize = 4;
    // Threaded medians swing more than single-threaded ones (scheduler
    // placement); extra runs keep the CI gate's back-to-back ratio stable.
    let runs = runs.max(5);
    let n_per: u32 = if quick { 1 << 14 } else { 1 << 16 };
    let width = QuerySet::full(64).width();
    bench("stem_contended_insert", "tuples", runs, || {
        let stem = Stem::new(RelId(0), vec![ColId(0)], width);
        contended_insert_pass(&stem, THREADS, n_per, width)
    })
}

/// STeM probe side, through the operator `exec_probe` drives: 1024-key
/// vectors into `Stem::probe_tiles` (tiled walk + pair AND-select),
/// gathering the probe-row and target-vID columns of every surviving pair.
/// Four entries per key over a dense key range, half the keys miss, every
/// pair's query-sets intersect. At `VERSION_ALL` the walk goes through the
/// index's dense-key view (built by the first probe); `hide_last` probes
/// at the version of the last inserted vector instead, which the view
/// cannot serve, so the same STeM is walked along its hash chains.
/// `entries` × `capacity` picks the regime: the in-cache runs keep ~1 MB
/// of STeM state with one-word query-sets (the join-heavy benchmark's
/// shape); the out-of-cache run keeps ~30 MB with four-word
/// query-sets — a regime **no benchmark workload reaches**: the large STeM
/// of a batch belongs to the relation scanned last, whose builds are
/// elided, so every probe of `batch-shared` lands in a STeM of ≤ 16 k
/// entries (3.2 MB for all of them). The entry stays as the walker's
/// memory-bound floor, e.g. for a fact table joined with a larger one.
fn bench_stem_probe(
    name: &'static str,
    entries: u32,
    capacity: usize,
    probes: u32,
    hide_last: bool,
    runs: usize,
) -> BenchResult {
    let q = QuerySet::full(capacity);
    let stem = Stem::with_capacity_hint(RelId(0), vec![ColId(0)], q.width(), entries as usize);
    let global = AtomicU32::new(0);
    let mut qsets = QuerySetColumn::new(q.width());
    qsets.push_repeat(q.words(), 1024);
    let mut vids = vec![0u32; 1024];
    let mut keys = vec![0i64; 1024];
    let mut last_version = VERSION_ALL;
    for base in (0..entries).step_by(1024) {
        for i in 0..1024u32 {
            vids[i as usize] = base + i;
            keys[i as usize] = ((base + i) % (entries / 4)) as i64;
        }
        last_version = stem.insert_vector(&vids, &qsets, std::slice::from_ref(&keys), &global);
    }
    let version = if hide_last { last_version } else { VERSION_ALL };
    let row_masks = qsets;
    let mut scratch = ProbeScratch::new();
    let mut out = QuerySetColumn::new(q.width());
    let (mut out_rows, mut out_vids) = (Vec::new(), Vec::new());
    bench(name, "probes", runs, || {
        let mut matches = 0u64;
        // SplitMix-style stride so probe keys are not sequential.
        let mut k = 0x9E37_79B9u32;
        for _ in 0..probes / 1024 {
            for key in keys.iter_mut() {
                k = k.wrapping_mul(0x01000193).wrapping_add(1);
                *key = (k % (entries / 2)) as i64; // half the keys miss
            }
            out.clear();
            out_rows.clear();
            out_vids.clear();
            let on_tile = |tile: MatchTile<'_>, _: &mut QuerySetColumn| {
                out_rows.extend_from_slice(tile.rows());
                tile.extend_vids(&mut out_vids);
                Walk::Continue
            };
            let (masks, scratch, out) = (&row_masks, &mut scratch, &mut out);
            stem.probe_tiles(0, &keys, version, masks, scratch, out, None, on_tile);
            matches += out.len() as u64;
        }
        std::hint::black_box((matches, &out_rows, &out_vids));
        probes as u64
    })
}

/// Window expiry: sliding a one-tick window over a pre-built windowed
/// relation, measuring tuples reclaimed per second through the prefix
/// compaction that backs the streaming layer's STeM reclamation.
fn bench_stem_expiry(quick: bool, runs: usize) -> BenchResult {
    let ticks: u64 = 64;
    let per_tick: usize = if quick { 1 << 10 } else { 1 << 13 };
    let total = ticks * per_tick as u64;
    let rows: Vec<Vec<i64>> = (0..per_tick)
        .map(|i| vec![i as i64, (i as i64).wrapping_mul(31), i as i64 % 97, -(i as i64)])
        .collect();
    let mut base = roulette_stream::WindowedRelation::new("t", &["a", "b", "c", "d"]);
    for t in 1..=ticks {
        base.append(t, &rows).expect("append");
    }
    bench("stem_expiry", "tuples", runs, || {
        let mut rel = base.clone();
        let mut reclaimed = 0u64;
        // Slide a one-tick window across the buffer: each advance expires
        // exactly one tick's tuples and compacts the live prefix.
        for now in 2..=ticks + 1 {
            reclaimed += rel.expire(now, 1);
        }
        assert_eq!(reclaimed, total);
        std::hint::black_box(rel.len());
        reclaimed
    })
}

/// Filter-mask kernel: whole-column grouped-filter evaluation (four-lane
/// segment lookup + qset AND + packed keep mask) over 1024-row chunks of a
/// pre-gathered value column, the shape the selection phase feeds it.
fn bench_filter_mask(quick: bool, runs: usize) -> BenchResult {
    let n: usize = if quick { 1 << 18 } else { 1 << 21 };
    let capacity = 64;
    let preds: Vec<(QueryId, i64, i64)> = (0..capacity)
        .map(|i| {
            let lo = (i as i64 * 13) % 1000;
            (QueryId(i as u32), lo, lo + 150)
        })
        .collect();
    let filter = GroupedFilter::build(&preds, capacity);
    let full = QuerySet::full(capacity);
    let mut v = 1i64;
    let values: Vec<i64> = (0..n).map(|_| lcg(&mut v) % 1200).collect();
    bench("filter_mask", "values", runs, || {
        let mut qsets = QuerySetColumn::new(full.width());
        let mut keep = RowMask::new();
        let mut acc = 0u64;
        for chunk in values.chunks(1024) {
            qsets.clear();
            qsets.push_repeat(full.words(), chunk.len());
            kernels::filter_grouped(&filter, chunk, &mut qsets, &mut keep);
            acc += keep.count() as u64;
        }
        std::hint::black_box(acc);
        n as u64
    })
}

/// Bulk query-set intersection kernel: per-row masks ANDed into 4-word
/// (256-query) sets, 1024 rows per chunk — the semi-join prune shape.
fn bench_qset_and(quick: bool, runs: usize) -> BenchResult {
    let n: usize = if quick { 1 << 17 } else { 1 << 20 };
    let wps = 4;
    let mut v = 99i64;
    // Row template and per-row masks: dense-ish sets, ~half bits survive.
    let template: Vec<u64> = (0..1024 * wps).map(|_| lcg(&mut v) as u64 | 1).collect();
    let masks: Vec<u64> = (0..1024 * wps).map(|_| lcg(&mut v) as u64).collect();
    bench("qset_and", "rows", runs, || {
        let mut qsets = QuerySetColumn::new(wps);
        let mut keep = RowMask::new();
        let mut acc = 0u64;
        for _ in 0..n / 1024 {
            qsets.clear();
            qsets.push_rows(&template);
            kernels::qset_and(&mut qsets, &masks, &mut keep);
            acc += keep.count() as u64;
        }
        std::hint::black_box(acc);
        n as u64
    })
}

/// Survivor-compaction kernel: mask-driven gather of two vID columns plus
/// the query-set column at ~55% selectivity, 1024 rows per chunk — the
/// `retain_mask` shape after a filter or prune pass.
fn bench_compaction(quick: bool, runs: usize) -> BenchResult {
    let n: usize = if quick { 1 << 17 } else { 1 << 20 };
    let mut v = 7i64;
    let tv0: Vec<u32> = (0..1024u32).collect();
    let tv1: Vec<u32> = (0..1024u32).map(|i| i.wrapping_mul(2654435761)).collect();
    let tq: Vec<u64> = (0..1024).map(|_| lcg(&mut v) as u64 | 1).collect();
    let mut keep = RowMask::new();
    keep.clear_resize(1024);
    for i in 0..1024 {
        // ~55% survivors with run structure (runs are what the wide
        // kernel's `copy_within` path exploits).
        if (lcg(&mut v) & 0b1101) != 0 {
            keep.set(i);
        }
    }
    bench("compaction", "rows", runs, || {
        let mut v0 = Vec::new();
        let mut v1 = Vec::new();
        let mut qsets = QuerySetColumn::new(1);
        let mut acc = 0u64;
        for _ in 0..n / 1024 {
            v0.clear();
            v0.extend_from_slice(&tv0);
            v1.clear();
            v1.extend_from_slice(&tv1);
            qsets.clear();
            qsets.push_rows(&tq);
            kernels::compact_u32(&mut v0, &keep);
            kernels::compact_u32(&mut v1, &keep);
            kernels::compact_qsets(&mut qsets, &keep);
            acc += v0.len() as u64;
        }
        std::hint::black_box(acc);
        n as u64
    })
}

/// Admission alone: a 256-query batch of `batch-selective`'s shape (4-join
/// TPC-DS-like queries at 0.1% selectivity) admitted into fresh sessions,
/// with no episode run. Selection filters are built by the first episode
/// that uses them (DESIGN.md §6), so they are not in this number.
fn bench_admit_batch(quick: bool, runs: usize) -> BenchResult {
    let ds = tpcds::generate(0.05, 5);
    let params = SensitivityParams { selectivity: 0.001, ..SensitivityParams::default() };
    let queries = tpcds_pool(&ds, params, 256, 17).expect("tpcds query generation");
    let sessions = if quick { 4 } else { 16 };
    let engine = RouletteEngine::new(&ds.catalog, EngineConfig::default());
    bench("admit_batch_256", "queries", runs, || {
        for _ in 0..sessions {
            let mut session = engine.session(queries.len());
            for q in &queries {
                session.admit(q.clone()).expect("admission");
            }
            std::hint::black_box(session.n_queries());
        }
        (sessions * queries.len()) as u64
    })
}

/// Join-phase planning alone: `plan_join_phase` (Algorithm 1) for the
/// fact table of a 256-query TPC-DS-like batch carrying every query, with
/// `RandomPolicy` making the decisions, so the number is the planner's
/// own cost — plan-tree construction and query-set work — not a learner's.
fn bench_plan_join(quick: bool, runs: usize) -> BenchResult {
    let ds = tpcds::generate(0.05, 3);
    let queries =
        tpcds_pool(&ds, SensitivityParams::default(), 256, 5).expect("tpcds query generation");
    let batch = QueryBatch::from_queries(ds.catalog.len(), &queries).expect("query batch");
    let space = JoinSpace::new(&batch);
    let root = ds.meta.store().fact;
    let all = QuerySet::full(queries.len());
    let plans = if quick { 64 } else { 512 };
    bench("plan_join_256", "plans", runs, || {
        // A fresh, fixed-seed policy per run: every run plans the same trees.
        let mut policy = RandomPolicy::new(9);
        let mut nodes = 0;
        for _ in 0..plans {
            nodes += plan_join_phase(&batch, &space, &mut policy, root, &all).probe_count();
        }
        std::hint::black_box(nodes);
        plans
    })
}

/// Q-table lookups: a table of 8 192 entries keyed by 4-word (256-query)
/// query-sets — about the size `batch-selective` learns — probed by a fixed
/// stream of half hits, half misses.
fn bench_qtable_lookup(quick: bool, runs: usize) -> BenchResult {
    let n: usize = if quick { 1 << 18 } else { 1 << 21 };
    let mut v = 7i64;
    let mut key = || {
        let scope = if lcg(&mut v) % 4 == 0 { Scope(lcg(&mut v) as u32 % 8) } else { Scope::JOIN };
        let lineage = lcg(&mut v) as u64 & 0xff;
        let op = (lcg(&mut v) % 16) as u16;
        let words = [lcg(&mut v) as u64, lcg(&mut v) as u64, lcg(&mut v) as u64, 1];
        (scope, lineage, op, words)
    };
    let keys: Vec<_> = (0..2 * 8192).map(|_| key()).collect();
    let mut table = QTable::new();
    for (i, &(scope, lineage, op, words)) in keys.iter().enumerate().step_by(2) {
        table.update(scope, lineage, op, &words, |_| -(i as f64));
    }
    bench("qtable_lookup", "lookups", runs, || {
        let mut acc = 0.0;
        for &(scope, lineage, op, words) in keys.iter().cycle().take(n) {
            acc += table.get(scope, lineage, op, &words);
        }
        std::hint::black_box(acc);
        n as u64
    })
}

/// The engine's router ([`roulette_exec::route`], the body leaf probes and
/// direct vectors both run) over 1024-row vectors carrying three or four
/// vID columns, routed into an [`EpisodeSink`] that is flushed once at
/// the end, in one of the leaf shapes of `routing::SHAPES`. Work items are
/// emitted `(query, row)` pairs, checked against the sink's row counts.
fn bench_routing(name: &'static str, shape: usize, quick: bool, runs: usize) -> BenchResult {
    let (_, capacity, density, relations, orders) = SHAPES[shape];
    const ROWS: usize = 1024;
    let n: usize = if quick { 1 << 15 } else { 1 << 18 };
    let fx = routing_fixture(capacity, density, relations, orders, ROWS);
    let live = LiveSet::new(capacity);
    for q in fx.leaf.queries.iter() {
        live.activate(q);
    }
    bench(name, "rows", runs, || {
        let mut sink = EpisodeSink::new(false);
        let mut scratch = RouteScratch::default();
        let outputs = Outputs::new(capacity, false);
        for _ in 0..n / ROWS {
            let (leaf, qsets, cols) = (&fx.leaf, &fx.qsets, &fx.cols);
            route(&fx.catalog, true, leaf, qsets, cols, &mut sink, &mut scratch);
        }
        sink.flush(&outputs, &live);
        let emitted: u64 = outputs.results(capacity).iter().map(|r| r.rows).sum();
        assert_eq!(emitted, fx.emitted * (n / ROWS) as u64);
        std::hint::black_box(outputs.result(QueryId(0)).checksum);
        emitted
    })
}

/// A bench row parsed back out of a previous `BENCH_perf.json`.
struct BaselineBench {
    name: String,
    work: u64,
    per_sec: f64,
}

/// Parsed baseline artifact: the episode-throughput anchor plus every
/// bench's `(name, work_items, per_sec)` (own format — a targeted scan
/// beats a JSON parser).
struct BaselineFile {
    /// The original anchor, carried forward so episode-throughput drift is
    /// always measured against the same fixed point, not a ratchet of
    /// rebaselines. Falls back to the file's own `episode_chains` rate.
    anchor_eps: Option<f64>,
    benches: Vec<BaselineBench>,
}

fn parse_f64_after(text: &str, key: &str) -> Option<f64> {
    let v = &text[text.find(key)? + key.len()..];
    let end = v.find([',', '\n', '}'])?;
    v[..end].trim().parse().ok()
}

fn read_baseline(path: &str) -> Option<BaselineFile> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut benches = Vec::new();
    let mut rest = text.as_str();
    let name_key = "\"name\": \"";
    while let Some(at) = rest.find(name_key) {
        let tail = &rest[at + name_key.len()..];
        let Some(name_end) = tail.find('"') else { break };
        let name = tail[..name_end].to_string();
        let work = parse_f64_after(tail, "\"work_items\": ");
        let per_sec = parse_f64_after(tail, "\"per_sec\": ");
        if let (Some(w), Some(p)) = (work, per_sec) {
            benches.push(BaselineBench { name, work: w as u64, per_sec: p });
        }
        rest = tail;
    }
    let anchor_eps = parse_f64_after(&text, "\"baseline_eps\": ")
        .or_else(|| benches.iter().find(|b| b.name == "episode_chains").map(|b| b.per_sec));
    Some(BaselineFile { anchor_eps, benches })
}

/// Attaches a matched baseline throughput to each result: same bench name
/// AND same work count (a changed work count means the bench itself was
/// reshaped, so the rates are not comparable — skipped with a warning).
fn attach_baselines(results: &mut [BenchResult], baseline: &BaselineFile) {
    for r in results.iter_mut() {
        match baseline.benches.iter().find(|b| b.name == r.name) {
            Some(b) if b.work == r.work => r.baseline_per_sec = Some(b.per_sec),
            Some(b) => println!(
                "note: {} baseline has work_items {} vs current {}; skipping ratio",
                r.name, b.work, r.work
            ),
            None => println!("note: {} not in baseline; skipping ratio", r.name),
        }
    }
}

fn json_f64(v: f64) -> String {
    if v.is_finite() { format!("{v:.3}") } else { "null".to_string() }
}

fn write_json(
    path: &str,
    quick: bool,
    results: &[BenchResult],
    baseline_eps: Option<f64>,
) -> std::io::Result<()> {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"roulette-perfbench/v1\",\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    s.push_str(&format!("  \"nproc\": {nproc},\n"));
    let current_eps = results
        .iter()
        .find(|r| r.name == "episode_chains")
        .map(|r| r.per_sec());
    s.push_str("  \"episode_throughput\": {\n");
    s.push_str(&format!(
        "    \"baseline_eps\": {},\n",
        baseline_eps.map_or("null".to_string(), json_f64)
    ));
    s.push_str(&format!(
        "    \"current_eps\": {},\n",
        current_eps.map_or("null".to_string(), json_f64)
    ));
    let ratio = match (baseline_eps, current_eps) {
        (Some(b), Some(c)) if b > 0.0 => Some(c / b),
        _ => None,
    };
    s.push_str(&format!(
        "    \"ratio\": {}\n",
        ratio.map_or("null".to_string(), json_f64)
    ));
    s.push_str("  },\n");
    s.push_str("  \"benches\": [\n");
    for (i, r) in results.iter().enumerate() {
        s.push_str("    {\n");
        s.push_str(&format!("      \"name\": \"{}\",\n", r.name));
        s.push_str(&format!("      \"unit\": \"{}\",\n", r.unit));
        s.push_str(&format!("      \"work_items\": {},\n", r.work));
        s.push_str(&format!("      \"runs\": {},\n", r.runs));
        s.push_str(&format!(
            "      \"median_ms\": {},\n",
            json_f64(r.median.as_secs_f64() * 1e3)
        ));
        s.push_str(&format!("      \"per_sec\": {},\n", json_f64(r.per_sec())));
        s.push_str(&format!(
            "      \"baseline_per_sec\": {},\n",
            r.baseline_per_sec.map_or("null".to_string(), json_f64)
        ));
        s.push_str(&format!(
            "      \"ratio\": {}\n",
            r.ratio().map_or("null".to_string(), json_f64)
        ));
        s.push_str(if i + 1 == results.len() { "    }\n" } else { "    },\n" });
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let gate = args.iter().any(|a| a == "--gate");
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out = flag("--out").unwrap_or_else(|| "BENCH_perf.json".to_string());
    let gate_floor: f64 = flag("--gate-floor").and_then(|s| s.parse().ok()).unwrap_or(0.85);
    let baseline = flag("--baseline").and_then(|p| read_baseline(&p));
    let runs = if quick { 3 } else { 5 };

    println!("perfbench (quick={quick}, median of {runs})");
    // The threaded bench runs first: the benches after it read the heap
    // state it and `episode_chains` leave, so a fixed order keeps their
    // numbers comparable across commits.
    let contended = bench_stem_contended_insert(quick, runs);
    let probes_in_cache = if quick { 1 << 18 } else { 1 << 21 };
    let mut results = vec![
        bench_episode_chains(quick, runs),
        bench_stem_insert(quick, runs),
        contended,
        bench_stem_probe("stem_probe", 1 << 15, 64, probes_in_cache, false, runs),
        bench_stem_probe("stem_probe_chained", 1 << 15, 64, probes_in_cache, true, runs),
        bench_stem_probe(
            "stem_probe_out_of_cache",
            1 << 19,
            256,
            if quick { 1 << 17 } else { 1 << 20 },
            false,
            runs,
        ),
        bench_stem_expiry(quick, runs),
        bench_filter_mask(quick, runs),
        bench_qset_and(quick, runs),
        bench_compaction(quick, runs),
        bench_routing("routing_count_only", 0, quick, runs),
        bench_routing("routing_projected", 1, quick, runs),
        bench_routing("routing_projected_classes", 2, quick, runs),
        bench_admit_batch(quick, runs),
        bench_plan_join(quick, runs),
        bench_qtable_lookup(quick, runs),
    ];

    let mut baseline_eps = None;
    if let Some(b) = &baseline {
        attach_baselines(&mut results, b);
        baseline_eps = b.anchor_eps;
        if let Some(anchor) = baseline_eps {
            let cur = results[0].per_sec();
            println!(
                "episode_chains: anchor {:.1}/s -> current {:.1}/s ({:.2}x)",
                anchor,
                cur,
                cur / anchor
            );
        }
    }
    write_json(&out, quick, &results, baseline_eps).expect("write BENCH_perf.json");
    println!("wrote {out}");

    if gate {
        let mut failures = Vec::new();
        for r in &results {
            if let Some(ratio) = r.ratio() {
                if ratio < gate_floor {
                    failures.push(format!("{}: ratio {ratio:.3} < floor {gate_floor}", r.name));
                }
            }
        }
        if let (Some(anchor), Some(cur)) =
            (baseline_eps, results.iter().find(|r| r.name == "episode_chains"))
        {
            let ratio = cur.per_sec() / anchor;
            if anchor > 0.0 && ratio < gate_floor {
                failures
                    .push(format!("episode_throughput: ratio {ratio:.3} < floor {gate_floor}"));
            }
        }
        if failures.is_empty() {
            println!("gate: ok (floor {gate_floor})");
        } else {
            for f in &failures {
                eprintln!("gate FAILED: {f}");
            }
            std::process::exit(1);
        }
    }
}
