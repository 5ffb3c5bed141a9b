//! End-to-end tests for the episode scratch arena.
//!
//! Every episode runs on the pooled `EpisodeScratch` (the flat sink
//! rowstore, batched STeM probes, reused buffers), so a buffer that comes
//! back dirty from one episode corrupts the next. These tests run a
//! collecting session and check it against the query-at-a-time engine,
//! which shares no execution code with it: per-query row counts and
//! checksums must equal QAT's, and every query's collected rows must be
//! exactly that many rows whose hashes sum to the checksum. They pin this
//! down at one and four workers, and under mid-session fault quarantine,
//! where the panic/error paths must leave pooled buffers reusable.

use roulette::baselines::{ExecMode, QatEngine};
use roulette::core::{EngineConfig, QueryId};
use roulette::exec::{row_hash, FaultInjector, FaultSite, RouletteEngine};
use roulette::query::SpjQuery;
use roulette::storage::{Catalog, RelationBuilder};

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

/// Mixed workload: a projecting join (exercises the flat rowstore), a
/// filtered projecting join, and a projection-free count-style query.
fn workload(c: &Catalog) -> Vec<SpjQuery> {
    let join =
        |c| SpjQuery::builder(c).relation("fact").relation("dim").join(("fact", "fk"), ("dim", "pk"));
    vec![
        join(c).project("dim", "w").project("fact", "v").build().unwrap(),
        join(c).range("fact", "v", 3, 40).project("fact", "v").build().unwrap(),
        join(c).range("fact", "v", 0, 11).build().unwrap(),
    ]
}

/// Runs the workload collecting rows and checks it against QAT. A query
/// may be quarantined only if it is `quarantined` (any query when
/// `any_quarantine`, the set a panic hits being schedule-dependent).
/// Returns the quarantined query ids.
fn assert_matches_qat(
    cfg: &EngineConfig,
    injector: Option<FaultInjector>,
    quarantined: Option<QueryId>,
    any_quarantine: bool,
    tag: &str,
) -> Vec<usize> {
    let c = catalog(8);
    let queries = workload(&c);
    let expected = QatEngine::new(&c, ExecMode::Vectorized, 7).execute_serial(&queries);
    let engine = RouletteEngine::new(&c, cfg.clone());
    let mut session = engine.session(queries.len());
    session.collect_rows().unwrap();
    if let Some(inj) = injector {
        session.set_fault_injector(inj);
    }
    for q in queries {
        session.admit(q).unwrap();
    }
    session.run();
    let rows: Vec<_> =
        (0..expected.len()).map(|i| session.take_collected(QueryId(i as u32))).collect();
    let results = session.finish().per_query;
    let mut evicted = Vec::new();
    for (i, (r, want)) in results.iter().zip(&expected).enumerate() {
        if !r.is_complete() {
            let allowed = any_quarantine || quarantined == Some(QueryId(i as u32));
            assert!(allowed, "{tag}: query {i} quarantined");
            evicted.push(i);
            continue; // quarantined outputs are explicitly untrusted
        }
        assert_eq!((r.rows, r.checksum), (want.rows, want.checksum), "{tag}: query {i} vs QAT");
        assert_eq!(rows[i].len() as u64, r.rows, "{tag}: query {i} collected row count");
        let sum = rows[i].iter().fold(0u64, |acc, row| acc.wrapping_add(row_hash(row)));
        assert_eq!(sum, r.checksum, "{tag}: query {i} checksum vs collected rows");
    }
    evicted
}

#[test]
fn scratch_reuse_is_byte_identical_single_worker() {
    let cfg = EngineConfig::default().with_vector_size(3).unwrap();
    let evicted = assert_matches_qat(&cfg, None, None, false, "1 worker");
    assert!(evicted.is_empty(), "clean run quarantined {evicted:?}");
}

#[test]
fn scratch_reuse_is_byte_identical_four_workers() {
    let cfg = EngineConfig::default().with_vector_size(7).unwrap().with_workers(4).unwrap();
    let evicted = assert_matches_qat(&cfg, None, None, false, "4 workers");
    assert!(evicted.is_empty(), "clean run quarantined {evicted:?}");
}

#[test]
fn scratch_reuse_is_byte_identical_under_quarantine() {
    // An error fault mid-session evicts one query; the pooled buffers the
    // aborted episode touched must come back clean so survivors' results
    // stay equal to QAT's.
    let cfg = EngineConfig::default().with_vector_size(3).unwrap();
    for site in [FaultSite::StemInsert, FaultSite::StemProbe, FaultSite::Route] {
        let inj = FaultInjector::new().fail_at(site, Some(QueryId(1)), 2);
        let tag = format!("quarantine at {site:?}");
        let evicted = assert_matches_qat(&cfg, Some(inj), Some(QueryId(1)), false, &tag);
        assert_eq!(evicted, [1], "{tag}: exactly the target is quarantined");
    }
}

#[test]
fn scratch_reuse_is_byte_identical_after_contained_panic() {
    // A panic fault unwinds through the episode; `EpisodeScratch::reset`
    // must restore a pristine arena before the next episode reuses it.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = std::panic::catch_unwind(|| {
        let cfg = EngineConfig::default().with_vector_size(3).unwrap();
        let inj = FaultInjector::new().panic_at(FaultSite::StemProbe, 2);
        assert_matches_qat(&cfg, Some(inj), None, true, "contained panic")
    });
    std::panic::set_hook(prev);
    let evicted = outcome.expect("panic escaped the isolation boundary");
    assert!(!evicted.is_empty(), "the panic quarantined nobody");
}
