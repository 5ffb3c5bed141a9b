//! Fault-isolation end-to-end tests.
//!
//! The engine's quarantine guarantee follows from history independence
//! (§2.2) plus query-bit independence: evicting a query only clears its
//! bits, so every surviving query's `(rows, checksum)` must be *identical*
//! to a clean run of the same workload — not merely "correct-looking".
//! These tests drive deterministic faults (errors and panics) into every
//! execution site and assert exactly that, then exercise the
//! memory-budget degradation ladder and the episode watchdog.
//!
//! All sessions here run single-worker so fault firing points are
//! reproducible functions of the schedule.

use roulette::core::{EngineConfig, Error, QueryId};
use roulette::exec::{
    CompletionStatus, FaultInjector, FaultSite, QueryResult, RouletteEngine,
};
use roulette::query::SpjQuery;
use roulette::storage::{Catalog, RelationBuilder};

/// fact(fk → dim.pk, v) with dangling fks; `scale` repeats the pattern.
fn catalog(scale: usize) -> Catalog {
    catalog_with_dim(scale, 4)
}

/// [`catalog`] with `dim_rows` dimension rows. A `dim` *larger* than `fact`
/// turns the join's build side around: §5.2's ranking scans `fact` first,
/// while `dim` can still arrive, so all of `fact` has to be built (and the
/// `dim` vectors that follow are elided). With the 4-row `dim` the only
/// STeM state the session needs is four entries — nothing for a memory
/// budget to govern.
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

fn join_query(c: &Catalog) -> SpjQuery {
    SpjQuery::builder(c)
        .relation("fact")
        .relation("dim")
        .join(("fact", "fk"), ("dim", "pk"))
        .build()
        .unwrap()
}

fn filtered_query(c: &Catalog, lo: i64, hi: i64) -> SpjQuery {
    SpjQuery::builder(c)
        .relation("fact")
        .relation("dim")
        .join(("fact", "fk"), ("dim", "pk"))
        .range("fact", "v", lo, hi)
        .build()
        .unwrap()
}

fn workload(c: &Catalog) -> Vec<SpjQuery> {
    vec![join_query(c), filtered_query(c, 0, 11), filtered_query(c, 4, 100)]
}

fn small_config() -> EngineConfig {
    EngineConfig::default().with_vector_size(3).unwrap()
}

/// Runs the workload with an optional injector; returns per-query results.
fn run(c: &Catalog, cfg: &EngineConfig, injector: Option<FaultInjector>) -> Vec<QueryResult> {
    let engine = RouletteEngine::new(c, cfg.clone());
    let queries = workload(c);
    let mut session = engine.session(queries.len());
    if let Some(inj) = injector {
        session.set_fault_injector(inj);
    }
    for q in queries {
        session.admit(q).unwrap();
    }
    session.run();
    session.finish().per_query
}

#[test]
fn error_fault_at_each_site_quarantines_only_the_target() {
    let c = catalog(4);
    let cfg = small_config();
    let clean = run(&c, &cfg, None);
    assert!(clean.iter().all(|r| r.is_complete()));

    for site in [
        FaultSite::Ingestion,
        FaultSite::Filter,
        FaultSite::StemInsert,
        FaultSite::StemProbe,
        FaultSite::Route,
    ] {
        let target = QueryId(1);
        let inj = FaultInjector::new().fail_at(site, Some(target), 1);
        let faulted = run(&c, &cfg, Some(inj));
        assert_eq!(
            faulted[1].status,
            CompletionStatus::Quarantined,
            "{site:?}: target not quarantined"
        );
        for (i, (f, cl)) in faulted.iter().zip(&clean).enumerate() {
            if i == 1 {
                continue;
            }
            assert!(f.is_complete(), "{site:?}: survivor {i} not complete");
            assert_eq!(
                (f.rows, f.checksum),
                (cl.rows, cl.checksum),
                "{site:?}: survivor {i} diverged from clean run"
            );
        }
    }
}

#[test]
fn fault_error_is_attributed_to_the_faulting_query() {
    let c = catalog(2);
    let engine = RouletteEngine::new(&c, small_config());
    let mut session = engine.session(2);
    session
        .set_fault_injector(FaultInjector::new().fail_at(FaultSite::StemInsert, Some(QueryId(0)), 0));
    session.admit(join_query(&c)).unwrap();
    session.admit(filtered_query(&c, 0, 7)).unwrap();
    session.run();
    let err = session.query_error(QueryId(0)).expect("target has an error");
    match err {
        Error::QueryFault { query, ref message } => {
            assert_eq!(query, QueryId(0));
            assert!(message.contains("stem-insert"), "{message}");
        }
        other => panic!("unexpected error kind: {other:?}"),
    }
    assert!(session.query_error(QueryId(1)).is_none());
    assert_eq!(session.stats().quarantined, 1);
}

#[test]
fn seeded_fault_sweep_preserves_survivor_results() {
    let c = catalog(4);
    let cfg = small_config();
    let clean = run(&c, &cfg, None);
    for seed in 0..32u64 {
        let inj = FaultInjector::seeded(seed, 3);
        let faulted = run(&c, &cfg, Some(inj));
        for (i, (f, cl)) in faulted.iter().zip(&clean).enumerate() {
            match f.status {
                CompletionStatus::Complete => assert_eq!(
                    (f.rows, f.checksum),
                    (cl.rows, cl.checksum),
                    "seed {seed}: complete query {i} diverged"
                ),
                CompletionStatus::Quarantined => {
                    // The injector only fires against one query per plan.
                    assert_eq!(
                        faulted.iter().filter(|r| !r.is_complete()).count(),
                        1,
                        "seed {seed}: more than one quarantine"
                    );
                }
            }
        }
    }
}

#[test]
fn panic_fault_is_contained_at_the_episode_boundary() {
    // Silence the default panic hook for the injected panic; restore after.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = std::panic::catch_unwind(|| {
        let c = catalog(4);
        let cfg = small_config();
        let clean = run(&c, &cfg, None);
        let inj = FaultInjector::new().panic_at(FaultSite::StemProbe, 2);
        let engine = RouletteEngine::new(&c, cfg);
        let mut session = engine.session(3);
        session.set_fault_injector(inj);
        for q in workload(&c) {
            session.admit(q).unwrap();
        }
        session.run(); // must NOT propagate the panic
        let results = session.finish().per_query;
        let quarantined: Vec<usize> = results
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.is_complete())
            .map(|(i, _)| i)
            .collect();
        assert!(!quarantined.is_empty(), "the panic quarantined nobody");
        for (i, (f, cl)) in results.iter().zip(&clean).enumerate() {
            if f.is_complete() {
                assert_eq!(
                    (f.rows, f.checksum),
                    (cl.rows, cl.checksum),
                    "survivor {i} diverged after contained panic"
                );
            }
        }
        (clean, results)
    });
    std::panic::set_hook(prev);
    let (_, results) = outcome.expect("panic escaped the isolation boundary");
    assert!(results.iter().any(|r| !r.is_complete()));
}

#[test]
fn panic_quarantine_reports_internal_error() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = std::panic::catch_unwind(|| {
        let c = catalog(2);
        let engine = RouletteEngine::new(&c, small_config());
        let mut session = engine.session(1);
        session.set_fault_injector(FaultInjector::new().panic_at(FaultSite::Ingestion, 0));
        session.admit(join_query(&c)).unwrap();
        session.run();
        session.query_error(QueryId(0))
    });
    std::panic::set_hook(prev);
    match outcome.expect("panic escaped") {
        Some(Error::Internal(msg)) => assert!(msg.contains("injected panic"), "{msg}"),
        other => panic!("expected Internal error, got {other:?}"),
    }
}

#[test]
fn host_quarantine_mid_session_leaves_other_results_unchanged() {
    let c = catalog(4);
    let cfg = small_config();
    let clean = run(&c, &cfg, None);

    let engine = RouletteEngine::new(&c, cfg);
    let mut session = engine.session(3);
    for q in workload(&c) {
        session.admit(q).unwrap();
    }
    // A few episodes of shared progress, then the host cancels query 2.
    for _ in 0..3 {
        assert!(session.step());
    }
    session.quarantine(
        QueryId(2),
        Error::QueryFault { query: QueryId(2), message: "cancelled by host".into() },
    );
    assert!(!session.query_active(QueryId(2)), "scans descheduled on quarantine");
    session.run();
    let results = session.finish().per_query;
    assert_eq!(results[2].status, CompletionStatus::Quarantined);
    for i in [0usize, 1] {
        assert!(results[i].is_complete());
        assert_eq!((results[i].rows, results[i].checksum), (clean[i].rows, clean[i].checksum));
    }
}

#[test]
fn watchdog_trips_and_preserves_results() {
    let c = catalog(16);
    let cfg = small_config();
    let clean = run(&c, &cfg, None);

    // A 1-tuple join budget trips on the very first productive probe. The
    // only productive probes here are `fact` vectors probing the complete
    // `dim` — vectors whose own build is elided, so the trip, the discarded
    // outputs and the fallback replan all run on the insert-free path (no
    // version drawn, `VERSION_ALL` probes), routed and unrouted.
    for shards in [1usize, 8] {
        let tight = cfg
            .clone()
            .with_episode_budget(Some(1), None)
            .unwrap()
            .with_stem_shards(shards)
            .unwrap();
        let engine = RouletteEngine::new(&c, tight);
        let mut session = engine.session(3);
        for q in workload(&c) {
            session.admit(q).unwrap();
        }
        session.run();
        let stats = session.stats();
        assert!(stats.watchdog_trips > 0, "tight budget never tripped the watchdog");
        assert_eq!(stats.inserted_tuples, 4, "S={shards}: only `dim` is ever built");
        assert!(stats.elided_tuples > 0, "S={shards}: the tripped vectors were not elided");
        let results = session.finish().per_query;
        for (i, (r, cl)) in results.iter().zip(&clean).enumerate() {
            assert!(r.is_complete(), "watchdog must not quarantine query {i}");
            assert_eq!(
                (r.rows, r.checksum),
                (cl.rows, cl.checksum),
                "S={shards} query {i}: fallback replan changed results"
            );
        }
    }
}

#[test]
fn memory_budget_is_never_exceeded() {
    // Large enough that the unbudgeted STeM footprint far exceeds the
    // budget; the governor must keep resident bytes under it at every
    // step by forcing pruning, pausing admissions, and finally evicting.
    let c = catalog_with_dim(2000, 16_001); // 16k fact rows, all of them built
    let cfg = EngineConfig::default().with_vector_size(256).unwrap();
    let unbounded = {
        let engine = RouletteEngine::new(&c, cfg.clone());
        let mut s = engine.session(3);
        for q in workload(&c) {
            s.admit(q).unwrap();
        }
        s.run();
        s.stats().stem_bytes
    };
    let budget = (unbounded / 4).max(64 * 1024) as usize;

    let engine = RouletteEngine::new(&c, cfg.with_memory_budget(budget).unwrap());
    let mut session = engine.session(3);
    for q in workload(&c) {
        session.admit(q).unwrap();
    }
    let mut max_pressure = 0u8;
    while session.step() {
        let stats = session.stats();
        max_pressure = max_pressure.max(stats.memory_pressure);
        assert!(
            stats.stem_bytes <= budget as u64,
            "stem bytes {} exceeded budget {budget}",
            stats.stem_bytes
        );
    }
    let stats = session.stats();
    assert!(stats.stem_bytes <= budget as u64);
    assert!(max_pressure >= 1, "pressure ladder never engaged");
    assert!(stats.quarantined > 0, "budget this tight must evict someone");
    let results = session.finish().per_query;
    assert!(results.iter().any(|r| !r.is_complete()));
}

#[test]
fn memory_pressure_pauses_admissions() {
    let c = catalog_with_dim(2000, 16_001);
    let cfg = EngineConfig::default().with_vector_size(256).unwrap();
    // The footprint the first query's ingestion really needs — all of
    // `fact`, built while `dim` can still arrive — measured unbudgeted; the
    // budget then leaves it 5% of headroom, so the query completes and
    // leaves the budget saturated past the 90% admission rung.
    let needed = {
        let engine = RouletteEngine::new(&c, cfg.clone());
        engine.execute_batch(&[join_query(&c)]).unwrap().stats.stem_bytes as usize
    };
    let engine = RouletteEngine::new(&c, cfg.with_memory_budget(needed + needed / 20).unwrap());
    let mut session = engine.session(3);
    session.admit(join_query(&c)).unwrap();
    session.run();
    assert!(session.result(QueryId(0)).is_complete(), "the budget must fit the first query");
    match session.admit(filtered_query(&c, 0, 100)) {
        Err(Error::ResourceExhausted(msg)) => assert!(msg.contains("admissions paused"), "{msg}"),
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
}

#[test]
fn closed_session_refuses_admissions() {
    let c = catalog(2);
    let engine = RouletteEngine::new(&c, small_config());
    let mut session = engine.session(2);
    session.admit(join_query(&c)).unwrap();
    session.close();
    match session.admit(join_query(&c)) {
        Err(Error::Capacity(msg)) => assert!(msg.contains("closed"), "{msg}"),
        other => panic!("expected Capacity error, got {other:?}"),
    }
    // The already-admitted query still runs to completion.
    session.run();
    let results = session.finish().per_query;
    assert_eq!(results[0].rows, 12);
    assert!(results[0].is_complete());
}

#[test]
fn watchdog_stops_an_exploding_probe_within_one_tile() {
    use roulette::exec::PROBE_TILE;

    // Every fact row matches all 1000 dim rows, so one 128-row vector's
    // probe produces 128 000 tuples — far past budget + tile. Both vID
    // columns are carried (both sides project), so every materialised
    // tuple is two cells.
    let mut c = Catalog::new();
    let mut f = RelationBuilder::new("fact");
    f.int64("k", vec![0; 256]);
    f.int64("v", (0..256).collect());
    c.add(f.build()).unwrap();
    let mut d = RelationBuilder::new("dim");
    d.int64("k", vec![0; 1000]);
    d.int64("w", (0..1000).collect());
    c.add(d.build()).unwrap();
    let q = SpjQuery::builder(&c)
        .relation("fact")
        .relation("dim")
        .join(("fact", "k"), ("dim", "k"))
        .project("fact", "v")
        .project("dim", "w")
        .build()
        .unwrap();

    let run = |cfg: EngineConfig| {
        let engine = RouletteEngine::new(&c, cfg);
        let mut session = engine.session(1);
        session.admit(q.clone()).unwrap();
        session.run();
        let stats = session.stats();
        (session.finish().per_query, stats)
    };
    let cfg = EngineConfig::default().with_vector_size(128).unwrap();
    let (clean, clean_stats) = run(cfg.clone());
    assert_eq!(clean[0].rows, 256_000);
    assert_eq!(clean_stats.materialized_cells, 2 * 256_000);

    const BUDGET: u64 = 1000;
    let (guarded, stats) = run(cfg.with_episode_budget(Some(BUDGET), None).unwrap());
    assert!(stats.watchdog_trips > 0, "the exploding probes never tripped the watchdog");
    // The single join admits one plan, so the greedy replan redoes exactly
    // the clean run's work; whatever was materialised beyond that was
    // materialised by tripped probes before they stopped.
    let overshoot = stats.materialized_cells - clean_stats.materialized_cells;
    let bound = stats.watchdog_trips * 2 * (BUDGET + PROBE_TILE as u64);
    assert!(overshoot > 0);
    assert!(
        overshoot <= bound,
        "{} trips materialised {overshoot} cells before stopping (bound {bound})",
        stats.watchdog_trips
    );
    assert!(guarded[0].is_complete());
    assert_eq!((guarded[0].rows, guarded[0].checksum), (clean[0].rows, clean[0].checksum));
}

/// One hot key and a `fact` side that is the larger table (so it is
/// scanned once `dim` is fully inserted) of which only rows `v < 8` pass
/// selection: a single episode's leaf probe walks 8 chains of all of
/// `dim` — more than three tiles each — and routes them tile by tile.
/// Both queries project from both sides, so what the leaf stages has a
/// non-trivial checksum; Q1 keeps the fifth of the dim rows that Q0 does
/// not, so every pair survives for exactly one of them. Returns the
/// catalog, the queries and their clean row counts.
fn fused_leaf_scenario() -> (Catalog, Vec<SpjQuery>, [u64; 2]) {
    use roulette::exec::PROBE_TILE;
    let n_dim = 3 * PROBE_TILE as i64 + 100;
    let mut c = Catalog::new();
    let mut f = RelationBuilder::new("fact");
    f.int64("k", vec![0; n_dim as usize + 1]);
    f.int64("v", (0..=n_dim).collect());
    c.add(f.build()).unwrap();
    let mut d = RelationBuilder::new("dim");
    d.int64("k", vec![0; n_dim as usize]);
    d.int64("w", (0..n_dim).map(|i| i % 5).collect());
    c.add(d.build()).unwrap();
    let query = |w_lo: i64, w_hi: i64| {
        SpjQuery::builder(&c)
            .relation("fact")
            .relation("dim")
            .join(("fact", "k"), ("dim", "k"))
            .range("fact", "v", 0, 7)
            .range("dim", "w", w_lo, w_hi)
            .project("dim", "w")
            .project("fact", "v")
            .build()
            .unwrap()
    };
    let queries = vec![query(1, 4), query(0, 0)];
    let w0 = (n_dim as u64).div_ceil(5);
    (c, queries, [8 * (n_dim as u64 - w0), 8 * w0])
}

/// Runs the fused-leaf scenario collecting rows; returns per-query results,
/// sorted collected rows and the engine stats.
fn run_fused_leaf(
    cfg: EngineConfig,
    injector: Option<FaultInjector>,
) -> (Vec<QueryResult>, Vec<Vec<Vec<i64>>>, roulette::exec::EngineStats) {
    let (c, queries, _) = fused_leaf_scenario();
    let engine = RouletteEngine::new(&c, cfg);
    let mut session = engine.session(queries.len());
    session.collect_rows().unwrap();
    if let Some(inj) = injector {
        session.set_fault_injector(inj);
    }
    for q in &queries {
        session.admit(q.clone()).unwrap();
    }
    session.run();
    let rows = (0..queries.len())
        .map(|i| {
            let mut r = session.take_collected(QueryId(i as u32));
            r.sort_unstable();
            r
        })
        .collect();
    let stats = session.stats();
    (session.finish().per_query, rows, stats)
}

#[test]
fn watchdog_trip_mid_leaf_discards_the_tiles_already_routed() {
    use roulette::exec::PROBE_TILE;
    let (_, _, rows) = fused_leaf_scenario();
    let cfg = EngineConfig::default().with_vector_size(4096).unwrap();
    let (clean, clean_rows, clean_stats) = run_fused_leaf(cfg.clone(), None);
    assert_eq!([clean[0].rows, clean[1].rows], rows);
    assert_eq!(clean_rows[0].len() as u64, rows[0]);
    assert_eq!(clean_stats.materialized_cells, 2 * (rows[0] + rows[1]));

    // The budget admits the leaf's first tile and trips on its second:
    // when the watchdog fires, one tile's rows, checksums and collected
    // rows are already staged in the episode's sink.
    let budget = PROBE_TILE as u64 + 1;
    let (guarded, guarded_rows, stats) =
        run_fused_leaf(cfg.with_episode_budget(Some(budget), None).unwrap(), None);
    assert!(stats.watchdog_trips > 0, "the leaf never tripped the watchdog");
    let overshoot = stats.materialized_cells - clean_stats.materialized_cells;
    assert!(
        overshoot >= stats.watchdog_trips * 2 * 2 * PROBE_TILE as u64,
        "a tripped leaf stopped before its second tile ({overshoot} cells over)"
    );
    // Had the staged tile survived the trip, the replan's full re-run would
    // stack on top of it: more rows, another checksum, duplicate rows.
    for (q, (g, cl)) in guarded.iter().zip(&clean).enumerate() {
        assert!(g.is_complete(), "watchdog must not quarantine query {q}");
        assert_eq!((g.rows, g.checksum), (cl.rows, cl.checksum), "query {q}");
        assert_eq!(guarded_rows[q], clean_rows[q], "query {q}: collected rows");
    }
}

#[test]
fn query_quarantined_mid_episode_is_masked_at_flush_of_a_fused_leaf() {
    let cfg = EngineConfig::default().with_vector_size(4096).unwrap();
    let (clean, clean_rows, clean_stats) = run_fused_leaf(cfg.clone(), None);
    // The `Route` site is checked once per leaf probe, before the walk:
    // the dim vectors' (empty) probes come first, then the one episode
    // that produces all the output. Sweeping the occurrence fires the
    // fault before that episode (Q1 is masked out of its vector, so the
    // pairs only Q1 keeps are never materialised), in it (they are routed
    // and staged, then masked at the flush), and never. Whenever it
    // fires, nothing of Q1 may have been published.
    let mut masked_at_flush = false;
    for after in 0..8 {
        let inj = FaultInjector::new().fail_at(FaultSite::Route, Some(QueryId(1)), after);
        let (res, rows, stats) = run_fused_leaf(cfg.clone(), Some(inj));
        assert!(res[0].is_complete());
        assert_eq!((res[0].rows, res[0].checksum), (clean[0].rows, clean[0].checksum));
        assert_eq!(rows[0], clean_rows[0], "after={after}: survivor's collected rows");
        match res[1].status {
            CompletionStatus::Quarantined => {
                assert_eq!((res[1].rows, res[1].checksum), (0, 0), "after={after}");
                assert!(rows[1].is_empty(), "after={after}: partial rows published");
                masked_at_flush |= stats.materialized_cells == clean_stats.materialized_cells;
            }
            CompletionStatus::Complete => {
                assert_eq!((res[1].rows, res[1].checksum), (clean[1].rows, clean[1].checksum));
            }
        }
    }
    assert!(masked_at_flush, "no occurrence fired the fault inside the output episode");
}
