//! Differential tests for sharded STeMs.
//!
//! Hash-partitioning a STeM into S shards (`with_stem_shards`) is a pure
//! mechanical transformation of the storage layout: versions still come
//! from the one global counter, so the strictly-older-version probe
//! invariant — and therefore every per-query result — must be preserved
//! bit for bit. These tests pin sharded runs (S = 1, 2, 8) against the
//! unsharded engine: byte-identical `(status, rows, checksum)` and
//! collected output rows, at one and four workers, on chain and star
//! workloads, with scratch reuse on and off, and under mid-session fault
//! quarantine. The same matrix pins build elision against the
//! build-everything engine (`pruning = false`).

use rand::rngs::StdRng;
use rand::SeedableRng;
use roulette::core::{EngineConfig, QueryId};
use roulette::exec::{
    CompletionStatus, EngineStats, FaultInjector, FaultSite, QueryResult, RouletteEngine, Session,
};
use roulette::query::generator::{chains_queries, sample_batch, tpcds_pool, SchemaMode,
    SensitivityParams};
use roulette::query::SpjQuery;
use roulette::storage::datagen::chains::{self, ChainsParams};
use roulette::storage::datagen::tpcds;
use roulette::storage::{Catalog, RelationBuilder};

/// Chain-join workload: long paths of FK joins, the shape where probe
/// routing walks a different shard per hop.
fn chain_workload() -> (Catalog, Vec<SpjQuery>) {
    let ds = chains::generate(
        ChainsParams { chains: 3, relations: 7, domain: 200, hub_rows: 600 },
        41,
    );
    let queries = chains_queries(&ds, 5, 43).expect("chain workload");
    (ds.catalog, queries)
}

/// Star-join workload: one fact relation probed by every dimension, the
/// shape where a single STeM absorbs all the insert traffic.
fn star_workload() -> (Catalog, Vec<SpjQuery>) {
    let ds = tpcds::generate(0.03, 47);
    let params =
        SensitivityParams { schema: SchemaMode::SnowflakeStore, ..Default::default() };
    let pool = tpcds_pool(&ds, params, 12, 51).expect("star workload");
    let mut rng = StdRng::seed_from_u64(53);
    let queries = sample_batch(&pool, 6, &mut rng);
    (ds.catalog, queries)
}

/// Runs the workload through a session; returns per-query results plus
/// sorted collected rows (worker interleavings permute row order).
fn run(
    c: &Catalog,
    queries: &[SpjQuery],
    cfg: &EngineConfig,
    injector: Option<FaultInjector>,
) -> (Vec<QueryResult>, Vec<Vec<Vec<i64>>>) {
    let (res, rows, _, _) = run_with_stats(c, queries, cfg, injector, None, |_| {});
    (res, rows)
}

/// [`run`], also returning the engine statistics and how many entries the
/// STeM of relation `stem_of` (if named) held at the end. `warm_up` gets the
/// session after admission and before the workers start.
fn run_with_stats(
    c: &Catalog,
    queries: &[SpjQuery],
    cfg: &EngineConfig,
    injector: Option<FaultInjector>,
    stem_of: Option<&str>,
    warm_up: impl FnOnce(&mut Session<'_>),
) -> (Vec<QueryResult>, Vec<Vec<Vec<i64>>>, EngineStats, usize) {
    let engine = RouletteEngine::new(c, cfg.clone());
    let mut session = engine.session(queries.len());
    session.collect_rows().unwrap();
    if let Some(inj) = injector {
        session.set_fault_injector(inj);
    }
    for q in queries {
        session.admit(q.clone()).unwrap();
    }
    warm_up(&mut session);
    session.run();
    let rows = (0..queries.len())
        .map(|i| {
            let mut r = session.take_collected(QueryId(i as u32));
            r.sort_unstable();
            r
        })
        .collect();
    let stats = session.stats();
    let stem_len = stem_of.map_or(0, |r| session.stem_len(c.relation_id(r).expect("relation")));
    (session.finish().per_query, rows, stats, stem_len)
}

/// Pins every sharded variant against the unsharded reference run.
fn assert_shard_equivalent(
    c: &Catalog,
    queries: &[SpjQuery],
    base: &EngineConfig,
    injector: impl Fn() -> Option<FaultInjector>,
    tag: &str,
) {
    let (ref_res, ref_rows) = run(c, queries, base, injector());
    assert!(
        ref_res.iter().any(|r| r.status == CompletionStatus::Complete),
        "{tag}: reference run completed nothing — workload too degenerate to differentiate"
    );
    for shards in [1usize, 2, 8] {
        let cfg = base.clone().with_stem_shards(shards).unwrap();
        let (res, rows) = run(c, queries, &cfg, injector());
        for (i, (s, r)) in res.iter().zip(&ref_res).enumerate() {
            assert_eq!(s.status, r.status, "{tag}: S={shards} query {i} status diverged");
            if r.status != CompletionStatus::Complete {
                continue; // quarantined outputs are explicitly untrusted
            }
            assert_eq!(
                (s.rows, s.checksum),
                (r.rows, r.checksum),
                "{tag}: S={shards} query {i} result diverged from unsharded"
            );
            assert_eq!(
                rows[i], ref_rows[i],
                "{tag}: S={shards} query {i} collected rows diverged"
            );
        }
    }
}

fn base_cfg(workers: usize) -> EngineConfig {
    EngineConfig::default()
        .with_vector_size(64)
        .unwrap()
        .with_workers(workers)
        .unwrap()
}

#[test]
fn sharded_chains_match_unsharded_single_worker() {
    let (c, q) = chain_workload();
    assert_shard_equivalent(&c, &q, &base_cfg(1), || None, "chains, 1 worker");
}

#[test]
fn sharded_chains_match_unsharded_four_workers() {
    let (c, q) = chain_workload();
    assert_shard_equivalent(&c, &q, &base_cfg(4), || None, "chains, 4 workers");
}

#[test]
fn sharded_star_match_unsharded_single_worker() {
    let (c, q) = star_workload();
    assert_shard_equivalent(&c, &q, &base_cfg(1), || None, "star, 1 worker");
}

#[test]
fn sharded_star_match_unsharded_four_workers() {
    let (c, q) = star_workload();
    assert_shard_equivalent(&c, &q, &base_cfg(4), || None, "star, 4 workers");
}

#[test]
fn sharded_runs_match_with_scratch_reuse_off() {
    // The allocate-fresh scratch path goes through the same shard routing;
    // equivalence must not depend on arena pooling.
    let (c, q) = chain_workload();
    for workers in [1usize, 4] {
        let cfg = base_cfg(workers).with_scratch_reuse(false);
        assert_shard_equivalent(
            &c,
            &q,
            &cfg,
            || None,
            &format!("chains, scratch off, {workers} workers"),
        );
    }
}

#[test]
fn single_oversized_shard_still_trips_eviction_ladder() {
    // Accounting-seam regression: every fact key is identical, so with
    // S = 8 all insert traffic routes to ONE shard. `dim` is the larger
    // relation, so `fact` is scanned first and all of it has to be built
    // (a smaller `dim` would complete first and elide every fact insert,
    // leaving the budget nothing to govern). The memory governor
    // gates on the *sum* of per-shard projected bytes; if it averaged
    // across shards (or only consulted the probed shard) the hot shard
    // would sail past the budget without the ladder ever engaging.
    let n = 6000usize;
    let mut c = Catalog::new();
    let mut f = RelationBuilder::new("fact");
    f.int64("fk", vec![7; n]);
    f.int64("v", (0..n as i64).collect());
    c.add(f.build()).unwrap();
    let mut d = RelationBuilder::new("dim");
    d.int64("pk", (0..=n as i64).collect());
    d.int64("w", (100..=100 + n as i64).collect());
    c.add(d.build()).unwrap();
    let queries: Vec<SpjQuery> = (0..3)
        .map(|i| {
            SpjQuery::builder(&c)
                .relation("fact")
                .relation("dim")
                .join(("fact", "fk"), ("dim", "pk"))
                .range("fact", "v", i, n as i64)
                .project("fact", "v")
                .build()
                .unwrap()
        })
        .collect();
    let budget = 96 * 1024;
    let cfg = EngineConfig::default()
        .with_vector_size(64)
        .unwrap()
        .with_stem_shards(8)
        .unwrap()
        .with_memory_budget(budget)
        .unwrap();
    let engine = RouletteEngine::new(&c, cfg);
    let mut session = engine.session(queries.len());
    for q in queries {
        session.admit(q).unwrap();
    }
    let mut max_pressure = 0u8;
    while session.step() {
        let stats = session.stats();
        max_pressure = max_pressure.max(stats.memory_pressure);
        assert!(
            stats.stem_bytes <= budget as u64,
            "oversized shard blew past the budget: {} > {budget}",
            stats.stem_bytes
        );
    }
    let stats = session.stats();
    assert!(stats.stem_bytes <= budget as u64);
    assert!(max_pressure >= 1, "single hot shard never engaged the pressure ladder");
    assert!(stats.quarantined > 0, "budget this tight must evict someone");
}

#[test]
fn elided_builds_match_the_build_everything_oracle() {
    // With pruning off the engine sets no scan ranks, scans round-robin and
    // inserts every selected tuple: the plain symmetric join. With pruning
    // on, `store_sales` is ranked last and scanned once every dimension is
    // complete, so its builds are elided — same results, byte for byte, and
    // every selected tuple accounted for exactly once. (At this scale
    // `store_sales` is larger than every dimension; below 0.1 `date_dim` is
    // and the fact table is built.)
    let ds = tpcds::generate(0.2, 47);
    for (tag, schema) in
        [("star", SchemaMode::StoreDirect), ("snowflake", SchemaMode::SnowflakeStore)]
    {
        let params = SensitivityParams { schema, ..Default::default() };
        let pool = tpcds_pool(&ds, params, 12, 51).expect("workload");
        let queries = sample_batch(&pool, 6, &mut StdRng::seed_from_u64(53));
        for workers in [1usize, 4] {
            for shards in [1usize, 8] {
                let tag = format!("{tag}, {workers} workers, S={shards}");
                let cfg = base_cfg(workers).with_stem_shards(shards).unwrap();
                let mut oracle_cfg = cfg.clone();
                oracle_cfg.pruning = false;
                let fact_rel = Some("store_sales");
                let (ref_res, ref_rows, ref_stats, ref_fact) =
                    run_with_stats(&ds.catalog, &queries, &oracle_cfg, None, fact_rel, |_| {});
                assert!(ref_res.iter().any(|r| r.rows > 0), "{tag}: degenerate workload");
                assert_eq!((ref_stats.elided_tuples, ref_stats.pruned_tuples), (0, 0), "{tag}");
                assert!(ref_fact > 0, "{tag}: the oracle must build the fact table");

                // Two ways into the fact scan. Started cold, several workers
                // race the dimensions' last episodes against the first fact
                // vectors: a fact vector that starts while a dimension episode
                // is still pending is built, one that starts later is elided
                // — possibly none, if a worker is descheduled holding a queued
                // dimension vector for the whole (short) fact scan. Stepped to
                // the first elision, every dimension has retired before the
                // workers start, so all of them elide, concurrently.
                for stepped in [false, true] {
                    let tag = format!("{tag}, {}", if stepped { "stepped" } else { "cold" });
                    let (res, rows, stats, fact) =
                        run_with_stats(&ds.catalog, &queries, &cfg, None, fact_rel, |s| {
                            while stepped && s.stats().elided_tuples == 0 {
                                assert!(s.step(), "{tag}: the batch ended before any elision");
                            }
                        });
                    assert_eq!(res, ref_res, "{tag}: results diverged from the oracle");
                    assert_eq!(rows, ref_rows, "{tag}: collected rows diverged from the oracle");
                    assert_eq!(
                        stats.inserted_tuples + stats.elided_tuples + stats.pruned_tuples,
                        ref_stats.inserted_tuples,
                        "{tag}: a selected tuple was lost or counted twice"
                    );
                    if workers == 1 || stepped {
                        // Every dimension episode retired before the first
                        // fact vector ran, so no fact tuple is ever built.
                        assert!(stats.elided_tuples > 0, "{tag}: nothing was elided");
                        assert_eq!(fact, 0, "{tag}: the last-ranked STeM was built");
                    }
                }
            }
        }
    }
}

#[test]
fn sharded_runs_match_under_fault_quarantine() {
    // An injected error quarantines one query mid-session; survivors'
    // results must stay identical to the unsharded reference, for faults
    // on both sides of the symmetric join.
    let (c, q) = chain_workload();
    for site in [FaultSite::StemInsert, FaultSite::StemProbe, FaultSite::Route] {
        assert_shard_equivalent(
            &c,
            &q,
            &base_cfg(1),
            || Some(FaultInjector::new().fail_at(site, Some(QueryId(1)), 2)),
            &format!("chains, quarantine at {site:?}"),
        );
    }
}
