//! Telemetry end-to-end tests (tier 1).
//!
//! The observability contract is twofold: (1) a seeded engine run with the
//! full [`Telemetry`] sink attached produces a non-empty Prometheus
//! snapshot and JSONL event log whose counters agree with the engine's own
//! statistics, and (2) attaching a recorder — null or real — must not
//! perturb execution: identical results, identical episode counts, and
//! null-recorder overhead within noise of the uninstrumented engine.

use std::sync::Arc;
use std::time::Instant;

use roulette::core::EngineConfig;
use roulette::exec::RouletteEngine;
use roulette::query::SpjQuery;
use roulette::storage::{Catalog, RelationBuilder};
use roulette::telemetry::{NullRecorder, Recorder, Telemetry};

/// fact(fk → dim.pk, v) with dangling fks; `scale` repeats the pattern.
fn catalog(scale: usize) -> Catalog {
    catalog_with_dim(scale, 4)
}

/// [`catalog`] with `dim_rows` dimension rows; a `dim` larger than `fact`
/// makes `fact` the build side the session really needs (it is scanned
/// first, while `dim` can still arrive), so a memory budget has state to
/// govern.
fn catalog_with_dim(scale: usize, dim_rows: usize) -> Catalog {
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
    d.int64("pk", (0..dim_rows as i64).collect());
    d.int64("w", (10..10 + dim_rows as i64).collect());
    c.add(d.build()).unwrap();
    c
}

fn workload(c: &Catalog) -> Vec<SpjQuery> {
    let join = SpjQuery::builder(c)
        .relation("fact")
        .relation("dim")
        .join(("fact", "fk"), ("dim", "pk"))
        .build()
        .unwrap();
    let filtered = |lo, hi| {
        SpjQuery::builder(c)
            .relation("fact")
            .relation("dim")
            .join(("fact", "fk"), ("dim", "pk"))
            .range("fact", "v", lo, hi)
            .build()
            .unwrap()
    };
    vec![join, filtered(0, 11), filtered(4, 100)]
}

fn config() -> EngineConfig {
    EngineConfig::default().with_vector_size(16).unwrap().with_workers(1).unwrap()
}

/// Runs the workload with an optional recorder; returns
/// `(per-query (rows, checksum), episodes)`.
fn run(
    c: &Catalog,
    cfg: &EngineConfig,
    recorder: Option<Arc<dyn Recorder>>,
) -> (Vec<(u64, u64)>, u64) {
    let mut engine = RouletteEngine::new(c, cfg.clone());
    if let Some(r) = recorder {
        engine.set_recorder(r);
    }
    let out = engine.execute_batch(&workload(c)).expect("batch");
    (out.per_query.iter().map(|r| (r.rows, r.checksum)).collect(), out.stats.episodes)
}

fn prom(t: &Telemetry) -> String {
    let mut out = Vec::new();
    t.render_prometheus(&mut out).expect("render");
    String::from_utf8(out).expect("utf8")
}

/// Extracts the value of an un-labelled sample from Prometheus text.
fn prom_value(text: &str, metric: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(&format!("{metric} ")))
        .unwrap_or_else(|| panic!("metric {metric} missing"))
        .parse()
        .unwrap_or_else(|_| panic!("metric {metric} not an integer"))
}

#[test]
fn recorders_do_not_perturb_execution() {
    let c = catalog(200);
    let cfg = config();
    let (bare, bare_eps) = run(&c, &cfg, None);
    let (null, null_eps) = run(&c, &cfg, Some(Arc::new(NullRecorder)));
    let sink = Telemetry::with_defaults();
    let (full, full_eps) = run(&c, &cfg, Some(sink.clone()));

    assert_eq!(bare, null, "NullRecorder changed results");
    assert_eq!(bare, full, "Telemetry sink changed results");
    assert_eq!(bare_eps, null_eps, "NullRecorder changed episode count");
    assert_eq!(bare_eps, full_eps, "Telemetry sink changed episode count");

    // The sink's episode counter agrees with the engine's own statistic,
    // and every query was seen admitted and completed.
    let text = prom(&sink);
    assert_eq!(prom_value(&text, "roulette_episodes_total"), full_eps);
    assert_eq!(prom_value(&text, "roulette_queries_admitted_total"), 3);
    assert_eq!(prom_value(&text, "roulette_queries_completed_total"), 3);
    assert_eq!(prom_value(&text, "roulette_queries_quarantined_total"), 0);
}

#[test]
fn seeded_run_produces_nonempty_snapshots() {
    let c = catalog(200);
    let sink = Telemetry::with_defaults();
    let (results, episodes) = run(&c, &config(), Some(sink.clone()));
    assert!(results.iter().all(|&(rows, _)| rows > 0));
    assert!(episodes > 0);

    let text = prom(&sink);
    for metric in [
        "roulette_episodes_total",
        "roulette_episode_latency_ns_count",
        "roulette_stem_insert_batch_tuples_count",
        "roulette_stem_probe_batch_tuples_count",
        "roulette_vector_fill_permille_count",
        "roulette_query_latency_us_count",
    ] {
        assert!(prom_value(&text, metric) > 0, "{metric} never recorded:\n{text}");
    }
    // Histograms expose cumulative buckets.
    assert!(text.contains("roulette_episode_latency_ns_bucket{le=\"+Inf\"}"));

    let mut jsonl = Vec::new();
    sink.write_events_jsonl(&mut jsonl).expect("jsonl");
    let jsonl = String::from_utf8(jsonl).expect("utf8");
    let lines: Vec<&str> = jsonl.lines().collect();
    assert!(lines.len() >= 6, "expected >= 3 admissions + 3 completions:\n{jsonl}");
    assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
    assert_eq!(lines.iter().filter(|l| l.contains("\"kind\":\"admission\"")).count(), 3);
    assert_eq!(lines.iter().filter(|l| l.contains("\"kind\":\"completion\"")).count(), 3);
}

#[test]
fn policy_probe_reaches_exporter() {
    let c = catalog(400);
    let cfg = {
        let mut cfg = config();
        // Probe often so even a short run samples the policy.
        cfg.telemetry.policy_probe_every = 8;
        cfg
    };
    let sink = Telemetry::with_defaults();
    let _ = run(&c, &cfg, Some(sink.clone()));
    let text = prom(&sink);
    assert!(prom_value(&text, "roulette_policy_observations") > 0, "probe never sampled:\n{text}");
    assert!(text.contains("roulette_policy_q_entries"));
    assert!(text.contains("roulette_policy_exploration_share"));
}

#[test]
fn eviction_ladder_reaches_event_stream() {
    // Same tight-budget setup as the fault-injection ladder test: the
    // governor must climb the pressure ladder and evict someone, and the
    // sink must see the transitions and the terminal quarantine.
    let c = catalog_with_dim(2000, 16_001);
    let cfg = EngineConfig::default().with_vector_size(256).unwrap();
    let unbounded = {
        let engine = RouletteEngine::new(&c, cfg.clone());
        engine.execute_batch(&workload(&c)).expect("batch").stats.stem_bytes
    };
    let budget = (unbounded / 4).max(64 * 1024) as usize;

    let sink = Telemetry::with_defaults();
    let mut engine = RouletteEngine::new(&c, cfg.with_memory_budget(budget).unwrap());
    engine.set_recorder(sink.clone());
    let out = engine.execute_batch(&workload(&c)).expect("batch");
    assert!(out.stats.quarantined > 0, "budget this tight must evict someone");

    let events = sink.events().snapshot();
    assert!(
        events.iter().any(|e| e.kind.name() == "memory-pressure"),
        "no pressure transition recorded"
    );
    assert!(
        events.iter().any(|e| e.kind.name() == "quarantine"),
        "no quarantine event recorded"
    );
    let text = prom(&sink);
    assert!(prom_value(&text, "roulette_queries_quarantined_total") > 0);
}

#[test]
fn null_recorder_overhead_within_noise() {
    // Smoke bound, not a benchmark: the disabled recorder is one branch on
    // an Option per hook, so even debug builds under CI jitter stay well
    // inside this generous ratio.
    let c = catalog(400);
    let cfg = config();
    // Warm up allocators and page cache.
    let _ = run(&c, &cfg, None);
    let _ = run(&c, &cfg, Some(Arc::new(NullRecorder)));

    const REPS: u32 = 3;
    let t0 = Instant::now();
    for _ in 0..REPS {
        let _ = run(&c, &cfg, None);
    }
    let bare = t0.elapsed();
    let t0 = Instant::now();
    for _ in 0..REPS {
        let _ = run(&c, &cfg, Some(Arc::new(NullRecorder)));
    }
    let with_null = t0.elapsed();

    let ratio = with_null.as_secs_f64() / bare.as_secs_f64().max(1e-9);
    assert!(ratio < 3.0, "null recorder overhead ratio {ratio:.2} out of bounds");
}
