//! Dynamic admission correctness and sharing behavior (§6.2's dynamic
//! workloads): queries admitted mid-run must complete with exactly the
//! same results as if run alone, regardless of admission timing, because
//! circular scans produce every (row, query) pair exactly once.

use roulette::baselines::{ExecMode, QatEngine};
use roulette::core::{EngineConfig, QueryId};
use roulette::exec::RouletteEngine;
use roulette::query::generator::{tpcds_pool, SensitivityParams};
use roulette::storage::datagen::tpcds;

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
