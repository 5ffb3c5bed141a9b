//! Worker-ladder scaling guard for workers sharing one ingestion cursor.
//!
//! The fig19 harness plots the speedup curve; this test pins its shape:
//! with every worker taking one vector per episode under the ingestion
//! latch, adding workers must never *degrade* batch throughput. On a many-core machine the
//! ladder climbs; on a starved single-core CI box the best we can demand
//! is that extra workers cost no more than scheduling overhead — so each
//! rung is measured best-of-3 and held to a generous floor of the best
//! throughput seen at any smaller worker count, rather than to strict
//! monotone growth that would flake under load.

use roulette::core::EngineConfig;
use roulette::exec::RouletteEngine;
use roulette::query::generator::chains_queries;
use roulette::query::SpjQuery;
use roulette::storage::datagen::chains::{self, ChainsParams};
use roulette::storage::Catalog;
use std::time::{Duration, Instant};

/// A rung must keep at least this fraction of the best smaller-rung
/// throughput. 0.5 absorbs scheduler noise on loaded or single-core CI
/// hosts while still catching a real collapse.
const FLOOR: f64 = 0.5;

fn workload() -> (Catalog, Vec<SpjQuery>) {
    // Sized so a batch takes tens of milliseconds in release mode: long
    // enough that a rung's best-of-3 reflects engine throughput rather
    // than timer jitter, short enough for tier-1 budgets.
    let ds = chains::generate(
        ChainsParams { chains: 3, relations: 7, domain: 2000, hub_rows: 30_000 },
        71,
    );
    let queries = chains_queries(&ds, 10, 73).expect("chain workload");
    (ds.catalog, queries)
}

/// Best-of-3 wall time for one batch at `workers` workers.
fn best_time(c: &Catalog, queries: &[SpjQuery], workers: usize) -> Duration {
    let cfg = EngineConfig::default().with_workers(workers).unwrap();
    let engine = RouletteEngine::new(c, cfg);
    let mut best = Duration::MAX;
    for _ in 0..3 {
        let start = Instant::now();
        engine.execute_batch(queries).expect("batch");
        best = best.min(start.elapsed());
    }
    best
}

#[test]
fn worker_ladder_throughput_is_non_degrading() {
    let (c, queries) = workload();
    let rungs = [1usize, 2, 4];
    let mut best_so_far = 0.0f64;
    let mut report = Vec::new();
    for &w in &rungs {
        let t = best_time(&c, &queries, w);
        let thr = 1.0 / t.as_secs_f64().max(1e-9);
        report.push(format!("{w} workers: {:.1} ms", t.as_secs_f64() * 1e3));
        assert!(
            thr >= best_so_far * FLOOR,
            "throughput degraded at {w} workers: {thr:.2} batches/s vs best {best_so_far:.2} \
             (floor {FLOOR}) — ladder so far: {report:?}"
        );
        best_so_far = best_so_far.max(thr);
    }
}
