//! Dynamic admission correctness and sharing behavior (§6.2's dynamic
//! workloads): queries admitted mid-run must complete with exactly the
//! same results as if run alone, regardless of admission timing, because
//! circular scans produce every (row, query) pair exactly once.

use rand::rngs::StdRng;
use rand::SeedableRng;
use roulette::baselines::{ExecMode, QatEngine};
use roulette::core::{EngineConfig, QueryId};
use roulette::exec::{EngineStats, QueryResult, RouletteEngine, Session};
use roulette::query::generator::{sample_batch, tpcds_pool, SchemaMode, SensitivityParams};
use roulette::query::SpjQuery;
use roulette::storage::datagen::tpcds;
use roulette::storage::{Catalog, RelationBuilder};

#[test]
fn staggered_admissions_match_isolated_execution() {
    let ds = tpcds::generate(0.04, 5);
    let params = SensitivityParams::default();
    let pool = tpcds_pool(&ds, params, 6, 77).expect("workload generation");
    let qat = QatEngine::new(&ds.catalog, ExecMode::Vectorized, 1);
    let expected: Vec<_> = qat.execute_serial(&pool);

    let engine = RouletteEngine::new(&ds.catalog, EngineConfig::default().with_vector_size(128).unwrap());
    let mut session = engine.session(pool.len());
    // Admit one query, run a handful of episodes, admit the next, etc.
    for q in &pool {
        session.admit(q.clone()).unwrap();
        for _ in 0..5 {
            if !session.step() {
                break;
            }
        }
    }
    session.run();
    let out = session.finish();
    assert_eq!(out.per_query, expected);
}

#[test]
fn admission_rides_the_next_episode() {
    // Every episode hands out one vector stamped with the query-set of
    // that moment, so a query admitted between two steps rides the second
    // step's vector: its progress moves at once. A scheduler that stamps
    // vectors ahead of running them (a prefetch queue) leaves q2 at 0
    // here. Both queries must still end with isolated execution's rows.
    let c = fact_dim_catalog();
    let template = fact_dim_query(&c, (100, 600), (0, 500), true);
    let qat = QatEngine::new(&c, ExecMode::Vectorized, 1);
    let (solo, mut solo_rows) = qat.execute_collect(&template);
    solo_rows.sort_unstable();
    assert!(solo.rows > 0, "degenerate workload");
    for workers in [1usize, 4] {
        let cfg =
            EngineConfig::default().with_vector_size(128).unwrap().with_workers(workers).unwrap();
        let engine = RouletteEngine::new(&c, cfg);
        let mut session = engine.session(2);
        session.collect_rows().unwrap();
        let q1 = session.admit(template.clone()).unwrap();
        assert!(session.step());
        let q2 = session.admit(template.clone()).unwrap();
        assert!(session.step());
        assert!(session.progress(q2) > 0.0, "{workers} workers: q2 missed the next episode");
        session.run();
        for q in [q1, q2] {
            let mut rows = session.take_collected(q);
            rows.sort_unstable();
            assert_eq!(rows, solo_rows, "{workers} workers: {q:?}'s rows");
        }
        assert_eq!(session.finish().per_query, [solo, solo], "{workers} workers");
    }
}

#[test]
fn admission_based_on_scan_progress() {
    // Fig. 14's pacing: admit the next instance when the previous one's
    // input is X% consumed. All instances of the same query must agree.
    let ds = tpcds::generate(0.04, 9);
    let params = SensitivityParams::default();
    let template = tpcds_pool(&ds, params, 1, 3).expect("workload generation").pop().unwrap();
    let n_instances = 4;

    let engine = RouletteEngine::new(&ds.catalog, EngineConfig::default().with_vector_size(64).unwrap());
    let mut session = engine.session(n_instances);
    let mut admitted = vec![session.admit(template.clone()).unwrap()];
    while admitted.len() < n_instances {
        let last = *admitted.last().unwrap();
        // Admit the next instance at ~50% overlap.
        while session.progress(last) < 0.5 {
            assert!(session.step(), "ran out of work before reaching 50%");
        }
        admitted.push(session.admit(template.clone()).unwrap());
    }
    session.run();
    let out = session.finish();
    let first = out.per_query[0];
    assert!(first.rows > 0);
    for (i, r) in out.per_query.iter().enumerate() {
        assert_eq!(*r, first, "instance {i} diverged");
    }
    // And they match the isolated result.
    let solo = QatEngine::new(&ds.catalog, ExecMode::Vectorized, 1).execute(&template);
    assert_eq!(first, solo);
}

#[test]
fn late_query_shares_ongoing_state() {
    // A second identical query admitted mid-run must not rescan from
    // scratch in terms of total episodes: the engine's episode count for
    // (batched two queries) is far below 2× (serial two queries).
    let ds = tpcds::generate(0.04, 13);
    let params = SensitivityParams::default();
    let q = tpcds_pool(&ds, params, 1, 31).expect("workload generation").pop().unwrap();

    let engine = RouletteEngine::new(&ds.catalog, EngineConfig::default().with_vector_size(128).unwrap());
    let solo = engine.execute_batch(std::slice::from_ref(&q)).unwrap();

    let both = engine.execute_batch(&[q.clone(), q.clone()]).unwrap();
    assert_eq!(both.per_query[0], both.per_query[1]);
    assert_eq!(both.per_query[0], solo.per_query[0]);
    // Perfect sharing: one batched pass costs the same episodes as solo.
    assert_eq!(both.stats.episodes, solo.stats.episodes);
}

#[test]
fn query_completion_is_tracked_per_query() {
    let ds = tpcds::generate(0.04, 21);
    let params = SensitivityParams::default();
    let pool = tpcds_pool(&ds, params, 2, 51).expect("workload generation");
    let engine = RouletteEngine::new(&ds.catalog, EngineConfig::default().with_vector_size(128).unwrap());
    let mut session = engine.session(2);
    let q0 = session.admit(pool[0].clone()).unwrap();
    assert!(session.query_active(q0));
    session.run();
    assert!(!session.query_active(q0));
    let q1 = session.admit(pool[1].clone()).unwrap();
    assert!(session.query_active(q1));
    assert_eq!(session.progress(q1), 0.0);
    session.run();
    assert!(!session.query_active(q1));
    assert_eq!(session.progress(q1), 1.0);
    let r1 = session.result(QueryId(1));
    let solo = QatEngine::new(&ds.catalog, ExecMode::Vectorized, 1).execute(&pool[1]);
    assert_eq!(r1, solo);
}

#[test]
fn query_admitted_after_builds_were_elided_matches_isolated_execution() {
    // `store_sales` is ranked last, so by the time it scans every dimension
    // is complete and its vectors are joined without being built. A query
    // admitted *then* finds a fact STeM with those tuples missing — which
    // must not matter: it brings its own query bits and its own circular
    // scans, and the fact vectors it shares from here on carry both
    // queries while the dimensions it re-opened are incomplete again.
    let ds = tpcds::generate(0.2, 29);
    let pool = tpcds_pool(&ds, SensitivityParams::default(), 2, 61).expect("workload generation");
    let fact = ds.catalog.relation_id("store_sales").unwrap();
    assert!(pool.iter().all(|q| q.relations.contains(fact)));
    let qat = QatEngine::new(&ds.catalog, ExecMode::Vectorized, 1);
    let expected: Vec<_> = qat.execute_serial(&pool);

    for workers in [1usize, 4] {
        let cfg = EngineConfig::default()
            .with_vector_size(128)
            .unwrap()
            .with_workers(workers)
            .unwrap();
        let engine = RouletteEngine::new(&ds.catalog, cfg);
        let mut session = engine.session(2);
        let q0 = session.admit(pool[0].clone()).unwrap();
        // Step into the fact scan: some of its vectors have been elided,
        // most are still to come.
        while session.stats().elided_tuples == 0 {
            assert!(session.step(), "{workers} workers: q0 finished without eliding a build");
        }
        assert!(session.query_active(q0), "admission must land mid-scan");
        assert_eq!(session.stem_len(fact), 0, "the elided vectors were built after all");
        session.admit(pool[1].clone()).unwrap();
        session.run();
        let out = session.finish();
        assert_eq!(out.per_query, expected, "{workers} workers");
    }
}

#[test]
fn views_of_complete_stems_thaw_on_readmission_and_rebuild() {
    // The elided fact vectors probe complete dimension STeMs at
    // `VERSION_ALL`, which builds their dense-key views. A query admitted
    // then re-scans those dimensions for its own bits: its inserts drop the
    // views (a thaw), and once the dimensions are complete again the fact
    // vectors' probes build new ones. Results stay those of isolated
    // execution; the chained index alone is the reference semantics.
    let ds = tpcds::generate(0.2, 29);
    let pool = tpcds_pool(&ds, SensitivityParams::default(), 2, 61).expect("workload generation");
    let qat = QatEngine::new(&ds.catalog, ExecMode::Vectorized, 1);
    let expected: Vec<_> = qat.execute_serial(&pool);

    for workers in [1usize, 4] {
        let cfg =
            EngineConfig::default().with_vector_size(128).unwrap().with_workers(workers).unwrap();
        let engine = RouletteEngine::new(&ds.catalog, cfg);
        let mut session = engine.session(2);
        session.admit(pool[0].clone()).unwrap();
        // `step()` runs one episode on the calling thread, so the phases
        // below do not depend on scheduling; `run()` then uses `workers`.
        step_until(&mut session, "a view was built", |s| s.elided_tuples > 0 && s.view_bytes > 0);
        let frozen = session.stats();
        session.admit(pool[1].clone()).unwrap();
        step_until(&mut session, "a re-scan thawed a view", |s| s.view_bytes < frozen.view_bytes);
        let thawed = session.stats();
        step_until(&mut session, "views were rebuilt", |s| {
            s.elided_tuples > thawed.elided_tuples && s.view_bytes > 0
        });
        session.run();
        let out = session.finish();
        assert_eq!(out.per_query, expected, "{workers} workers");
    }
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
            let tag = format!("{tag}, {workers} workers");
            let cfg =
                EngineConfig::default().with_vector_size(64).unwrap().with_workers(workers).unwrap();
            let mut oracle_cfg = cfg.clone();
            oracle_cfg.pruning = false;
            let fact_rel = "store_sales";
            let (ref_res, ref_rows, ref_stats, ref_fact) =
                run_with_stats(&ds.catalog, &queries, &oracle_cfg, fact_rel, |_| {});
            assert!(ref_res.iter().any(|r| r.rows > 0), "{tag}: degenerate workload");
            assert_eq!((ref_stats.elided_tuples, ref_stats.pruned_tuples), (0, 0), "{tag}");
            assert!(ref_fact > 0, "{tag}: the oracle must build the fact table");

            // Two ways into the fact scan. Started cold, several workers race
            // the dimensions' last episodes against the first fact vectors: a
            // fact vector that starts while a dimension episode is still
            // pending is built, one that starts later is elided — possibly
            // none, if a worker is descheduled mid-way through a dimension
            // episode for the whole (short) fact scan. Stepped to the first
            // elision, every dimension has retired before the workers start,
            // so all of them elide, concurrently.
            for stepped in [false, true] {
                let tag = format!("{tag}, {}", if stepped { "stepped" } else { "cold" });
                let (res, rows, stats, fact) =
                    run_with_stats(&ds.catalog, &queries, &cfg, fact_rel, |s| {
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
                    // Every dimension episode retired before the first fact
                    // vector ran, so no fact tuple is ever built.
                    assert!(stats.elided_tuples > 0, "{tag}: nothing was elided");
                    assert_eq!(fact, 0, "{tag}: the last-ranked STeM was built");
                }
            }
        }
    }
}

/// Runs `queries` through one session collecting rows; returns per-query
/// results, each query's sorted collected rows (worker interleavings
/// permute row order), the engine statistics and how many entries the STeM
/// of relation `stem_of` held at the end. `warm_up` gets the session after
/// admission and before the workers start.
fn run_with_stats(
    c: &Catalog,
    queries: &[SpjQuery],
    cfg: &EngineConfig,
    stem_of: &str,
    warm_up: impl FnOnce(&mut Session<'_>),
) -> (Vec<QueryResult>, Vec<Vec<Vec<i64>>>, EngineStats, usize) {
    let engine = RouletteEngine::new(c, cfg.clone());
    let mut session = engine.session(queries.len());
    session.collect_rows().unwrap();
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
    let stem_len = session.stem_len(c.relation_id(stem_of).expect("relation"));
    (session.finish().per_query, rows, stats, stem_len)
}

/// dim(pk, w) with 2 000 rows and fact(fk, v) with 20 000, a fifth of
/// whose foreign keys dangle.
fn fact_dim_catalog() -> Catalog {
    let mut c = Catalog::new();
    let mut d = RelationBuilder::new("dim");
    d.int64("pk", (0..2_000).collect());
    d.int64("w", (0..2_000).map(|i| i * 7 % 1_000).collect());
    c.add(d.build()).unwrap();
    let mut f = RelationBuilder::new("fact");
    f.int64("fk", (0..20_000).map(|i| i % 2_500).collect());
    f.int64("v", (0..20_000).map(|i| i * 13 % 997).collect());
    c.add(f.build()).unwrap();
    c
}

/// fact ⋈ dim with ranges on `dim.w` and `fact.v`; projects `fact.v`,
/// `dim.w` when `project`, else counts.
fn fact_dim_query(c: &Catalog, w: (i64, i64), v: (i64, i64), project: bool) -> SpjQuery {
    let b = SpjQuery::builder(c)
        .relation("fact")
        .relation("dim")
        .join(("fact", "fk"), ("dim", "pk"))
        .range("dim", "w", w.0, w.1)
        .range("fact", "v", v.0, v.1);
    let b = if project { b.project("fact", "v").project("dim", "w") } else { b };
    b.build().unwrap()
}

/// Runs `session` one episode at a time, on the calling thread, until its
/// statistics satisfy `done`.
fn step_until(session: &mut Session<'_>, what: &str, done: impl Fn(&EngineStats) -> bool) {
    while !done(&session.stats()) {
        assert!(session.step(), "ran out of work before {what}");
    }
}

#[test]
fn admission_extending_a_built_filter_group_matches_isolated_execution() {
    // Selection filters are built by the first episode that evaluates them
    // and rebuilt after an admission extends their group. Here the late
    // queries put predicates on `dim.w` and `fact.v`, whose filters the
    // first query's episodes have already built: once mid-run and once
    // after the session drained. Driven by `step()` and by `run_workers()`
    // (the serving frontend's path, which never calls `run` or `step`), at
    // 1 and 4 workers, for both filter forms.
    let c = fact_dim_catalog();
    let query = |w, v, project| fact_dim_query(&c, w, v, project);
    let first = query((100, 600), (0, 500), false);
    let mid_run = query((400, 900), (200, 900), true);
    let after_drain = [query((0, 50), (450, 460), false), query((650, 650), (0, 996), true)];
    let qat = QatEngine::new(&c, ExecMode::Vectorized, 1);
    let mut expected = vec![qat.execute(&first), qat.execute(&mid_run)];
    expected.extend(after_drain.iter().map(|q| qat.execute(q)));
    assert!(expected.iter().all(|r| r.rows > 0), "degenerate workload: {expected:?}");

    for grouped_filters in [true, false] {
        for workers in [1usize, 4] {
            for stepped in [true, false] {
                let tag = format!(
                    "grouped_filters={grouped_filters}, {workers} workers, {}",
                    if stepped { "step()" } else { "run_workers()" }
                );
                let mut cfg = EngineConfig::default()
                    .with_vector_size(128)
                    .unwrap()
                    .with_workers(workers)
                    .unwrap();
                cfg.grouped_filters = grouped_filters;
                let engine = RouletteEngine::new(&c, cfg);
                let mut session = engine.session(expected.len());
                let drain = |s: &mut Session<'_>| {
                    if stepped {
                        while s.step() {}
                    } else {
                        s.run_workers();
                    }
                };
                let a = session.admit(first.clone()).unwrap();
                // `dim` is ranked first: 16 episodes scan it, the rest scan
                // `fact`, so both groups' filters exist after these.
                for _ in 0..24 {
                    assert!(session.step(), "{tag}: ran out of work");
                }
                assert!(session.query_active(a), "{tag}: the first query already finished");
                session.admit(mid_run.clone()).unwrap();
                drain(&mut session);
                for q in &after_drain {
                    session.admit(q.clone()).unwrap();
                }
                drain(&mut session);
                let out = session.finish();
                assert_eq!(out.per_query, expected, "{tag}");
            }
        }
    }
}
