//! Differential tests for the data-parallel kernel layer.
//!
//! The wide (and, when compiled, AVX2) kernels are pure mechanical
//! transformations of the scalar reference path: for every kernel, every
//! row width, and every tail length they must produce *byte-identical*
//! query-set words, survivor masks, compacted columns, and partition
//! layouts. The suite sweeps the kernel API directly across
//! `Kernels::all_modes()`, pins the tiled probe operator (AND-select,
//! `Stem::probe_tiles`, column gathers) to the per-key `Stem::probe` +
//! `and_into` reference, then closes the loop end-to-end: a full engine
//! run with wide kernels must match a `with_wide_kernels(false)` run
//! row-for-row at one and four workers, including under deterministic
//! fault injection.

use roulette::core::queryset::and_into;
use roulette::core::{ColId, EngineConfig, QueryId, QuerySet, QuerySetColumn, RelId, RowMask};
use roulette::exec::kernels::pairs;
use roulette::exec::{
    CompletionStatus, FaultInjector, FaultSite, GroupedFilter, Kernels, Partition, PlainFilter,
    ProbeScratch, QueryResult, RouletteEngine, Stem, PROBE_TILE, VERSION_ALL,
};
use std::sync::atomic::AtomicU32;
use roulette::query::SpjQuery;
use roulette::storage::{Catalog, RelationBuilder};

/// Deterministic value stream (same constants as the perf harness).
fn lcg(v: &mut i64) -> i64 {
    *v = v.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *v >> 33
}

/// Row counts covering empty input, sub-word tails, exact word multiples,
/// one-past-a-word, and a multi-word body with a tail.
const ROWS: [usize; 7] = [0, 1, 5, 63, 64, 65, 200];

/// Query capacities spanning row widths of 1, 1, 2, 3, and 5 words.
const CAPACITIES: [usize; 5] = [7, 64, 65, 130, 300];

/// Builds a column of `n` rows at the width implied by `capacity`:
/// pseudo-random words with occasional all-zero and all-ones rows so the
/// empty- and full-qset paths are hit inside one batch.
fn make_qsets(capacity: usize, n: usize, seed: i64) -> QuerySetColumn {
    let words = QuerySet::full(capacity).width();
    let mut col = QuerySetColumn::new(words);
    let mut s = seed;
    for i in 0..n {
        let row: Vec<u64> = (0..words)
            .map(|_| match i % 7 {
                0 => 0,
                1 => u64::MAX,
                _ => lcg(&mut s) as u64,
            })
            .collect();
        col.push(&row);
    }
    col
}

/// Per-row masks matching `col`'s shape, from the same generator.
fn make_masks(words: usize, n: usize, seed: i64) -> Vec<u64> {
    let mut s = seed;
    (0..n * words)
        .map(|i| match (i / words.max(1)) % 5 {
            0 => 0,
            1 => u64::MAX,
            _ => lcg(&mut s) as u64,
        })
        .collect()
}

/// Asserts a non-reference mode produced byte-identical column + mask.
fn assert_same(
    tag: &str,
    mode: &str,
    reference: (&QuerySetColumn, &RowMask),
    candidate: (&QuerySetColumn, &RowMask),
) {
    assert_eq!(
        reference.0.raw(),
        candidate.0.raw(),
        "{tag}: {mode} qset words diverged from scalar"
    );
    assert_eq!(
        (reference.1.len(), reference.1.words()),
        (candidate.1.len(), candidate.1.words()),
        "{tag}: {mode} keep mask diverged from scalar"
    );
}

#[test]
fn filter_kernels_match_scalar_for_all_widths_and_tails() {
    let scalar = Kernels::scalar();
    for &capacity in &CAPACITIES {
        // Predicates staggered so values hit disjoint, overlapping, and
        // unbounded ranges; a couple of queries get no predicate at all.
        let preds: Vec<(QueryId, i64, i64)> = (0..capacity.min(80))
            .filter(|i| i % 9 != 4)
            .map(|i| {
                let lo = (i as i64 * 13) % 500 - 250;
                let hi = if i % 11 == 3 { i64::MAX } else { lo + 40 + (i as i64 % 90) };
                (QueryId(i as u32), lo, hi)
            })
            .collect();
        let grouped = GroupedFilter::build(&preds, capacity);
        let plain = PlainFilter::new(&preds, capacity);
        for &n in &ROWS {
            let mut s = 41;
            let values: Vec<i64> = (0..n)
                .map(|i| match i % 13 {
                    0 => i64::MIN,
                    1 => i64::MAX,
                    _ => lcg(&mut s) % 700,
                })
                .collect();
            let base = make_qsets(capacity, n, 7);
            let mut ref_q = base.clone();
            let mut ref_k = RowMask::new();
            scalar.filter_grouped(&grouped, &values, &mut ref_q, &mut ref_k);
            let mut ref_pq = base.clone();
            let mut ref_pk = RowMask::new();
            let mut buf = Vec::new();
            scalar.filter_plain(&plain, &values, &mut buf, &mut ref_pq, &mut ref_pk);
            for k in Kernels::all_modes() {
                let tag = format!("filter cap={capacity} rows={n}");
                let mut q = base.clone();
                let mut keep = RowMask::new();
                k.filter_grouped(&grouped, &values, &mut q, &mut keep);
                assert_same(&tag, k.mode_name(), (&ref_q, &ref_k), (&q, &keep));
                let mut pq = base.clone();
                let mut pk = RowMask::new();
                k.filter_plain(&plain, &values, &mut buf, &mut pq, &mut pk);
                assert_same(&tag, k.mode_name(), (&ref_pq, &ref_pk), (&pq, &pk));
            }
        }
    }
}

#[test]
fn qset_kernels_match_scalar_for_all_widths_and_tails() {
    let scalar = Kernels::scalar();
    for &capacity in &CAPACITIES {
        let words = QuerySet::full(capacity).width();
        for &n in &ROWS {
            let base = make_qsets(capacity, n, 11);
            let masks = make_masks(words, n, 13);
            let one_mask = &make_masks(words, 1, 17)[..words];
            let tag = format!("qset cap={capacity} rows={n}");

            let mut ref_and = base.clone();
            let mut ref_and_k = RowMask::new();
            scalar.qset_and(&mut ref_and, &masks, &mut ref_and_k);
            let mut ref_bc = base.clone();
            let mut ref_bc_k = RowMask::new();
            scalar.qset_and_broadcast(&mut ref_bc, one_mask, &mut ref_bc_k);
            let mut ref_sub = base.clone();
            let mut ref_sub_k = RowMask::new();
            scalar.qset_subtract_broadcast(&mut ref_sub, one_mask, &mut ref_sub_k);
            let mut ref_or = base.clone();
            scalar.qset_or(&mut ref_or, &masks);

            for k in Kernels::all_modes() {
                let mut q = base.clone();
                let mut keep = RowMask::new();
                k.qset_and(&mut q, &masks, &mut keep);
                assert_same(&tag, k.mode_name(), (&ref_and, &ref_and_k), (&q, &keep));

                let mut q = base.clone();
                let mut keep = RowMask::new();
                k.qset_and_broadcast(&mut q, one_mask, &mut keep);
                assert_same(&tag, k.mode_name(), (&ref_bc, &ref_bc_k), (&q, &keep));

                let mut q = base.clone();
                let mut keep = RowMask::new();
                k.qset_subtract_broadcast(&mut q, one_mask, &mut keep);
                assert_same(&tag, k.mode_name(), (&ref_sub, &ref_sub_k), (&q, &keep));

                let mut q = base.clone();
                k.qset_or(&mut q, &masks);
                assert_eq!(ref_or.raw(), q.raw(), "{tag}: {} qset_or diverged", k.mode_name());
            }
        }
    }
}

/// Survivor patterns: none, all, alternating, sparse, dense, and random —
/// the run-based compaction must match row-at-a-time exactly on each.
fn keep_patterns(n: usize) -> Vec<RowMask> {
    let mut out = Vec::new();
    let mut s = 29;
    for pat in 0..6 {
        let mut m = RowMask::new();
        m.clear_resize(n);
        for i in 0..n {
            let bit = match pat {
                0 => false,
                1 => true,
                2 => i % 2 == 0,
                3 => i % 37 == 5,
                4 => i % 19 != 3,
                _ => lcg(&mut s) & 1 == 1,
            };
            if bit {
                m.set(i);
            }
        }
        out.push(m);
    }
    out
}

#[test]
fn compaction_kernels_match_scalar_for_all_patterns() {
    let scalar = Kernels::scalar();
    for &capacity in &[64usize, 130] {
        for &n in &ROWS {
            for (pi, keep) in keep_patterns(n).iter().enumerate() {
                let base_q = make_qsets(capacity, n, 19);
                let mut s = 23;
                let base_c: Vec<u32> = (0..n).map(|_| lcg(&mut s) as u32).collect();
                let tag = format!("compact cap={capacity} rows={n} pat={pi}");

                let mut ref_c = base_c.clone();
                scalar.compact_u32(&mut ref_c, keep);
                let mut ref_q = base_q.clone();
                scalar.compact_qsets(&mut ref_q, keep);

                for k in Kernels::all_modes() {
                    let mut c = base_c.clone();
                    k.compact_u32(&mut c, keep);
                    assert_eq!(ref_c, c, "{tag}: {} compact_u32 diverged", k.mode_name());
                    let mut q = base_q.clone();
                    k.compact_qsets(&mut q, keep);
                    assert_eq!(
                        ref_q.raw(),
                        q.raw(),
                        "{tag}: {} compact_qsets diverged",
                        k.mode_name()
                    );
                    assert_eq!(ref_q.len(), q.len(), "{tag}: {} compacted len", k.mode_name());
                }
            }
        }
    }
}

#[test]
fn partition_kernels_match_scalar_row_for_row() {
    let scalar = Kernels::scalar();
    for &capacity in &CAPACITIES {
        for &n in &ROWS {
            let qsets = make_qsets(capacity, n, 31);
            // Route a strict subset of queries so masked-out bits matter.
            let mut routed = QuerySet::empty(capacity);
            for q in (0..capacity).step_by(3) {
                routed.insert(QueryId(q as u32));
            }
            let tag = format!("partition cap={capacity} rows={n}");
            let mut ref_p = Partition::new();
            let ref_total = scalar.partition(&qsets, &routed, &mut ref_p);
            for k in Kernels::all_modes() {
                let mut p = Partition::new();
                let total = k.partition(&qsets, &routed, &mut p);
                assert_eq!(ref_total, total, "{tag}: {} total diverged", k.mode_name());
                for q in 0..capacity {
                    assert_eq!(
                        ref_p.rows_of(q),
                        p.rows_of(q),
                        "{tag}: {} rows of query {q} diverged",
                        k.mode_name()
                    );
                }
            }
        }
    }
}

// --- the tiled probe operator vs the per-key reference ---

/// One probe output tuple: (probe-vector row, matched entry vID, ANDed
/// query-set words).
type ProbeRow = (u32, u32, Vec<u64>);

/// A STeM over `keys` (entry `i` has vID `i` and a pseudo-random
/// query-set), inserted in three vectors so there are three versions.
/// Returns the STeM and the versions of the first and second vector.
fn build_stem(keys: &[i64], capacity: usize, shards: usize) -> (Stem, u32, u32) {
    let width = QuerySet::full(capacity).width();
    let stem = Stem::with_shards(RelId(0), vec![ColId(0)], width, keys.len(), shards);
    let global = AtomicU32::new(0);
    let qsets = make_qsets(capacity, keys.len(), 53);
    let third = keys.len().div_ceil(3).max(1);
    let mut versions = Vec::new();
    for (c, chunk) in keys.chunks(third).enumerate() {
        let start = c * third;
        let vids: Vec<u32> = (start..start + chunk.len()).map(|i| i as u32).collect();
        let mut q = QuerySetColumn::new(width);
        for i in start..start + chunk.len() {
            q.push_row_from(&qsets, i);
        }
        // Per-vector inserts on a sharded STeM return the last shard's
        // version; every version of this vector is ≤ it and > the
        // previous vector's, which is all the version sweep needs.
        versions.push(stem.insert_vector(&vids, &q, &[chunk.to_vec()], &global));
    }
    let v0 = versions.first().copied().unwrap_or(0);
    let v_mid = versions.get(1).copied().unwrap_or(v0) + 1;
    (stem, v0, v_mid)
}

/// Row-at-a-time reference for one probe step: per-key `Stem::probe` +
/// `and_into`, main branch then divergence branch.
fn reference_probe(
    stem: &Stem,
    qsets: &QuerySetColumn,
    keys: &[i64],
    version: u32,
    main: &[u64],
    div: Option<&[u64]>,
) -> (Vec<ProbeRow>, Vec<(u32, Vec<u64>)>) {
    let w = qsets.words_per_set();
    let mut main_out = Vec::new();
    let mut div_out = Vec::new();
    let (mut row_mask, mut hit) = (vec![0u64; w], vec![0u64; w]);
    for (i, &key) in keys.iter().enumerate() {
        if and_into(&mut row_mask, qsets.row(i), main) {
            stem.probe(0, key, version, |entry_q, vid| {
                if and_into(&mut hit, &row_mask, entry_q) {
                    main_out.push((i as u32, vid, hit.clone()));
                }
            });
        }
        if let Some(div) = div {
            if and_into(&mut hit, qsets.row(i), div) {
                div_out.push((i as u32, hit.clone()));
            }
        }
    }
    (main_out, div_out)
}

/// The operator as `exec_probe` composes it: AND-select the main rows,
/// gather their keys, probe tile by tile gathering the source row and
/// target vID columns, then AND-select the divergence rows.
fn tiled_probe(
    stem: &Stem,
    qsets: &QuerySetColumn,
    keys: &[i64],
    version: u32,
    main: &[u64],
    div: Option<&[u64]>,
) -> (Vec<ProbeRow>, Vec<(u32, Vec<u64>)>) {
    let w = qsets.words_per_set();
    let mut row_masks = QuerySetColumn::new(w);
    let mut active_rows = vec![77; 3]; // stale contents must not leak
    pairs::and_select_rows(qsets, main, &mut row_masks, &mut active_rows);
    let active_keys: Vec<i64> = active_rows.iter().map(|&i| keys[i as usize]).collect();
    let mut scratch = ProbeScratch::new();
    let mut out = QuerySetColumn::new(w);
    let (mut src_rows, mut vids) = (Vec::new(), Vec::new());
    stem.probe_tiles(0, &active_keys, version, &row_masks, &mut scratch, &mut out, |tile| {
        assert!(!tile.is_empty() && tile.len() <= PROBE_TILE);
        pairs::gather_u32(&active_rows, tile.rows(), &mut src_rows);
        tile.extend_vids(&mut vids);
        true
    });
    assert_eq!((src_rows.len(), vids.len()), (out.len(), out.len()));
    let main_out =
        (0..out.len()).map(|k| (src_rows[k], vids[k], out.row(k).to_vec())).collect();
    let mut div_out = Vec::new();
    if let Some(div) = div {
        let mut dq = QuerySetColumn::new(w);
        pairs::and_select_rows(qsets, div, &mut dq, &mut active_rows);
        assert_eq!(dq.len(), active_rows.len());
        div_out = (0..dq.len()).map(|k| (active_rows[k], dq.row(k).to_vec())).collect();
    }
    (main_out, div_out)
}

fn assert_probe_equivalent(
    tag: &str,
    entry_keys: &[i64],
    probe_keys: &[i64],
    capacity: usize,
    main: &QuerySet,
    div: Option<&QuerySet>,
) {
    let probe_qsets = make_qsets(capacity, probe_keys.len(), 59);
    for shards in [1usize, 2, 8] {
        let (stem, v0, v_mid) = build_stem(entry_keys, capacity, shards);
        for version in [v0, v_mid, VERSION_ALL] {
            let div_words = div.map(|d| d.words());
            let (mut want, want_div) =
                reference_probe(&stem, &probe_qsets, probe_keys, version, main.words(), div_words);
            let (mut got, got_div) =
                tiled_probe(&stem, &probe_qsets, probe_keys, version, main.words(), div_words);
            if shards > 1 {
                // Sharded probes visit shard-grouped: same multiset.
                want.sort_unstable();
                got.sort_unstable();
            }
            let tag = format!("{tag} cap={capacity} shards={shards} version={version}");
            assert_eq!(want.len(), got.len(), "{tag}: match count diverged");
            assert_eq!(want, got, "{tag}: main branch diverged from per-key probing");
            assert_eq!(want_div, got_div, "{tag}: divergence branch diverged");
        }
    }
}

/// Every third query in the main branch, the rest in the divergence one.
fn split_queries(capacity: usize) -> (QuerySet, QuerySet) {
    let mut main = QuerySet::empty(capacity);
    let mut div = QuerySet::empty(capacity);
    for q in 0..capacity {
        if q % 3 == 0 { main.insert(QueryId(q as u32)) } else { div.insert(QueryId(q as u32)) }
    }
    (main, div)
}

#[test]
fn tiled_probe_matches_per_key_probe_for_all_widths_versions_and_shards() {
    // Widths 1, 1, 2, 3, 4, and 5 words.
    for &capacity in &[7usize, 64, 65, 130, 256, 300] {
        let (main, div) = split_queries(capacity);
        // ~6 entries per key; probe keys hit, miss, and repeat.
        let entry_keys: Vec<i64> = (0..600i64).map(|i| i * 7 % 101).collect();
        for &n in &ROWS {
            let mut s = 61;
            let probe_keys: Vec<i64> = (0..n).map(|_| lcg(&mut s).rem_euclid(140)).collect();
            assert_probe_equivalent("mixed", &entry_keys, &probe_keys, capacity, &main, Some(&div));
            assert_probe_equivalent("no-div", &entry_keys, &probe_keys, capacity, &main, None);
        }
    }
}

#[test]
fn tiled_probe_tile_edges() {
    for &capacity in &[64usize, 130] {
        let full = QuerySet::full(capacity);
        let (main, div) = split_queries(capacity);
        let entry_keys: Vec<i64> = (0..600i64).map(|i| i * 7 % 101).collect();
        let probe_keys: Vec<i64> = (0..200i64).map(|i| i % 140).collect();

        // Empty batch.
        assert_probe_equivalent("empty", &entry_keys, &[], capacity, &main, Some(&div));
        // All rows filtered by the main mask: nothing is probed, the
        // divergence branch still selects.
        let none = QuerySet::empty(capacity);
        assert_probe_equivalent("main-filtered", &entry_keys, &probe_keys, capacity, &none, Some(&full));
        // The other way round: an empty divergence mask keeps no row.
        assert_probe_equivalent("div-filtered", &entry_keys, &probe_keys, capacity, &full, Some(&none));

        // One key whose chain is longer than the tile cap, probed by one
        // row and then by a few rows among misses.
        let mut hot: Vec<i64> = vec![5; PROBE_TILE + 100];
        hot.extend((0..50).map(|i| 1000 + i));
        assert_probe_equivalent("long-chain", &hot, &[5], capacity, &full, None);
        assert_probe_equivalent("long-chain-x3", &hot, &[9, 5, 1001, 5, 5, 7], capacity, &main, Some(&div));

        // Matches landing exactly on the cap: 1024 entries per key, four
        // (then eight) probe rows → exactly one (two) full tile(s) of
        // pairs before the query-set AND.
        let quarter: Vec<i64> = (0..2 * PROBE_TILE as i64 / 4).map(|i| i % 2).collect();
        assert_eq!(quarter.iter().filter(|&&k| k == 0).count(), PROBE_TILE / 4);
        assert_probe_equivalent("exact-cap", &quarter, &[0, 1, 0, 1], capacity, &full, None);
        assert_probe_equivalent(
            "exact-2cap",
            &quarter,
            &[0, 1, 0, 1, 1, 1, 0, 0],
            capacity,
            &full,
            Some(&div),
        );
    }
}

#[test]
fn tiled_probe_stops_when_the_consumer_says_so() {
    let capacity = 64;
    let hot: Vec<i64> = vec![5; 3 * PROBE_TILE];
    let (stem, _, _) = build_stem(&hot, capacity, 1);
    let mut masks = QuerySetColumn::new(1);
    masks.push_repeat(&[u64::MAX], 4);
    let mut scratch = ProbeScratch::new();
    let mut out = QuerySetColumn::new(1);
    let mut tiles = 0;
    stem.probe_tiles(0, &[5, 5, 5, 5], VERSION_ALL, &masks, &mut scratch, &mut out, |_| {
        tiles += 1;
        tiles < 2
    });
    assert_eq!(tiles, 2, "the walk must stop at the tile that returned false");
    assert!(out.len() <= 2 * PROBE_TILE);
}

// --- end-to-end: wide vs scalar engines must agree byte-for-byte ---

/// fact(fk → dim.pk, v) with dangling fks; `scale` repeats the pattern.
fn catalog(scale: usize) -> Catalog {
    let mut c = Catalog::new();
    let pattern_fk = [0i64, 1, 2, 0, 1, 9, 9, 2];
    let mut fk = Vec::with_capacity(pattern_fk.len() * scale);
    let mut v = Vec::with_capacity(pattern_fk.len() * scale);
    for i in 0..scale {
        for (j, &f) in pattern_fk.iter().enumerate() {
            fk.push(f);
            v.push((i * pattern_fk.len() + j) as i64);
        }
    }
    let mut f = RelationBuilder::new("fact");
    f.int64("fk", fk);
    f.int64("v", v);
    c.add(f.build()).unwrap();
    let mut d = RelationBuilder::new("dim");
    d.int64("pk", vec![0, 1, 2, 3]);
    d.int64("w", vec![10, 11, 12, 13]);
    c.add(d.build()).unwrap();
    c
}

/// Projecting join, filtered projecting join, and a count-style query —
/// together they exercise selection, semijoin pruning, compaction, and
/// both routing paths.
fn workload(c: &Catalog) -> Vec<SpjQuery> {
    vec![
        SpjQuery::builder(c)
            .relation("fact")
            .relation("dim")
            .join(("fact", "fk"), ("dim", "pk"))
            .project("dim", "w")
            .project("fact", "v")
            .build()
            .unwrap(),
        SpjQuery::builder(c)
            .relation("fact")
            .relation("dim")
            .join(("fact", "fk"), ("dim", "pk"))
            .range("fact", "v", 3, 40)
            .project("fact", "v")
            .build()
            .unwrap(),
        SpjQuery::builder(c)
            .relation("fact")
            .relation("dim")
            .join(("fact", "fk"), ("dim", "pk"))
            .range("fact", "v", 0, 11)
            .build()
            .unwrap(),
    ]
}

/// Runs the workload; returns per-query results plus sorted collected rows.
fn run(
    c: &Catalog,
    cfg: &EngineConfig,
    injector: Option<FaultInjector>,
) -> (Vec<QueryResult>, Vec<Vec<Vec<i64>>>) {
    let engine = RouletteEngine::new(c, cfg.clone());
    let queries = workload(c);
    let n = queries.len();
    let mut session = engine.session(n);
    session.collect_rows().unwrap();
    if let Some(inj) = injector {
        session.set_fault_injector(inj);
    }
    for q in queries {
        session.admit(q).unwrap();
    }
    session.run();
    // Collected row order is schedule-dependent; sort before comparing.
    let rows = (0..n)
        .map(|i| {
            let mut r = session.take_collected(QueryId(i as u32));
            r.sort_unstable();
            r
        })
        .collect();
    (session.finish().per_query, rows)
}

fn assert_engines_equivalent(
    cfg: &EngineConfig,
    injector: impl Fn() -> Option<FaultInjector>,
    tag: &str,
) {
    let c = catalog(8);
    let wide = cfg.clone().with_wide_kernels(true);
    let scalar = cfg.clone().with_wide_kernels(false);
    let (w_res, w_rows) = run(&c, &wide, injector());
    let (s_res, s_rows) = run(&c, &scalar, injector());
    for (i, (w, s)) in w_res.iter().zip(&s_res).enumerate() {
        assert_eq!(w.status, s.status, "{tag}: query {i} status diverged");
        if w.status != CompletionStatus::Complete {
            continue; // quarantined outputs are explicitly untrusted
        }
        assert_eq!(
            (w.rows, w.checksum),
            (s.rows, s.checksum),
            "{tag}: query {i} result diverged between wide and scalar kernels"
        );
        assert_eq!(w_rows[i], s_rows[i], "{tag}: query {i} collected rows diverged");
    }
}

#[test]
fn engine_wide_kernels_byte_identical_single_worker() {
    let cfg = EngineConfig::default().with_vector_size(3).unwrap();
    assert_engines_equivalent(&cfg, || None, "1 worker");
}

#[test]
fn engine_wide_kernels_byte_identical_four_workers() {
    let cfg = EngineConfig::default()
        .with_vector_size(7)
        .unwrap()
        .with_workers(4)
        .unwrap();
    assert_engines_equivalent(&cfg, || None, "4 workers");
}

#[test]
fn engine_wide_kernels_byte_identical_under_faults() {
    let cfg = EngineConfig::default().with_vector_size(3).unwrap();
    for site in [FaultSite::StemInsert, FaultSite::StemProbe, FaultSite::Route] {
        assert_engines_equivalent(
            &cfg,
            || Some(FaultInjector::new().fail_at(site, Some(QueryId(1)), 2)),
            &format!("fault at {site:?}"),
        );
    }
}
