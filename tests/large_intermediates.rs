//! Expanding joins whose intermediates exceed the engine's pending-vector
//! bound must still produce exact results: the chunked execution path, and
//! inner probes that hand their output to the next operator mid-walk.

use roulette::baselines::{ExecMode, QatEngine};
use roulette::core::EngineConfig;
use roulette::exec::RouletteEngine;
use roulette::query::SpjQuery;
use roulette::storage::{Catalog, RelationBuilder};

#[test]
fn chunked_probe_outputs_match_reference() {
    // fact(2048) × dim where every fact row matches 128 dim rows →
    // 262,144 intermediate tuples from ~2 input vectors, well past the
    // 4096-tuple pending-vector bound.
    let mut c = Catalog::new();
    let mut f = RelationBuilder::new("fact");
    f.int64("k", (0..2048).map(|i| i % 4).collect());
    f.int64("v", (0..2048).collect());
    c.add(f.build()).unwrap();
    let mut d = RelationBuilder::new("dim");
    d.int64("k", (0..512).map(|i| i % 4).collect());
    d.int64("w", (0..512).collect());
    c.add(d.build()).unwrap();
    let mut d2 = RelationBuilder::new("dim2");
    d2.int64("w", (0..512).collect());
    c.add(d2.build()).unwrap();

    let q = SpjQuery::builder(&c)
        .relation("fact")
        .relation("dim")
        .relation("dim2")
        .join(("fact", "k"), ("dim", "k"))
        .join(("dim", "w"), ("dim2", "w"))
        .range("fact", "v", 0, 1499)
        .build()
        .unwrap();

    let expected = QatEngine::new(&c, ExecMode::Vectorized, 1).execute(&q);
    assert!(expected.rows > 150_000, "workload must exceed the chunk bound");
    let engine = RouletteEngine::new(&c, EngineConfig::default());
    let mut session = engine.session(1);
    session.admit(q).unwrap();
    session.run();
    // Chunking is invisible to the policy: a plan node logs once per chunk,
    // the chunks' entries are folded, and the policy observes each node
    // once per episode — here at most one selection and two probes —
    // however many chunks the node's input was cut into.
    let observations = session.with_policy(|p| p.probe()).expect("learned policy").observations;
    let out = session.finish();
    assert_eq!(out.per_query[0], expected);
    assert!(
        observations <= 3 * out.stats.episodes,
        "{observations} observations in {} episodes: chunk entries reached the policy unfolded",
        out.stats.episodes
    );
}

/// A four-relation chain `r0 – r1 – r2 – r3` of 3000 rows each in which
/// every row matches four rows of each neighbour, whichever way the plan
/// walks it: a whole relation's scan vector (3000 rows) grows to 12 000
/// tuples at its first probe and 48 000 at its second — both inner outputs
/// past the two tiles at which a probe hands its output on, so hand-offs
/// nest — before the leaf routes 192 000.
fn chain_catalog() -> Catalog {
    const N: i64 = 3000;
    let mut c = Catalog::new();
    let mut r0 = RelationBuilder::new("r0");
    r0.int64("a", (0..N).map(|i| i % 750).collect());
    r0.int64("v", (0..N).collect());
    c.add(r0.build()).unwrap();
    let mut r1 = RelationBuilder::new("r1");
    r1.int64("a", (0..N).map(|i| i % 750).collect());
    r1.int64("b", (0..N).map(|i| (i * 7) % 750).collect());
    c.add(r1.build()).unwrap();
    let mut r2 = RelationBuilder::new("r2");
    r2.int64("b", (0..N).map(|i| i % 750).collect());
    r2.int64("c", (0..N).map(|i| (i * 11) % 750).collect());
    c.add(r2.build()).unwrap();
    let mut r3 = RelationBuilder::new("r3");
    r3.int64("c", (0..N).map(|i| i % 750).collect());
    c.add(r3.build()).unwrap();
    c
}

fn chain_query(c: &Catalog, v_hi: i64) -> SpjQuery {
    SpjQuery::builder(c)
        .relation("r0")
        .relation("r1")
        .relation("r2")
        .relation("r3")
        .join(("r0", "a"), ("r1", "a"))
        .join(("r1", "b"), ("r2", "b"))
        .join(("r2", "c"), ("r3", "c"))
        .range("r0", "v", 0, v_hi)
        .build()
        .unwrap()
}

#[test]
fn handed_off_inner_outputs_match_reference_under_concurrent_inserts() {
    let c = chain_catalog();
    let queries = [chain_query(&c, 2999), chain_query(&c, 1499)];
    let expected = QatEngine::new(&c, ExecMode::Vectorized, 1).execute_serial(&queries);
    assert_eq!(expected[0].rows, 3000 * 64);

    for workers in [1usize, 4] {
        let cfg = EngineConfig::default()
            .with_vector_size(4096)
            .unwrap()
            .with_workers(workers)
            .unwrap();
        let tag = format!("workers {workers}");
        let engine = RouletteEngine::new(&c, cfg);
        let mut session = engine.session(2);
        session.admit(queries[0].clone()).unwrap();
        // One relation in; the second query re-opens every relation, so
        // its scans insert into the STeMs the first query's expanding
        // episodes are walking while they hand off.
        assert!(session.step(), "{tag}");
        session.admit(queries[1].clone()).unwrap();
        // One observation per plan node per join phase however many
        // hand-offs a node's output took: three probes (the queries
        // share every edge, so plans never diverge) and the second
        // query's selection on `r0`. One worker is checked episode by
        // episode, four over the run.
        let per_episode = 4;
        let observations = |s: &roulette::exec::Session<'_>| {
            s.with_policy(|p| p.probe()).expect("learned policy").observations
        };
        let mut seen = observations(&session);
        if workers == 1 {
            while session.step() {
                let now = observations(&session);
                assert!(
                    now - seen <= per_episode,
                    "{tag}: one episode made {} observations: hand-off entries reached the \
                     policy unfolded",
                    now - seen
                );
                seen = now;
            }
        } else {
            session.run();
            seen = observations(&session);
        }
        let out = session.finish();
        assert_eq!(out.per_query, expected, "{tag}");
        assert!(seen <= per_episode * out.stats.episodes, "{tag}: {seen} observations");
    }
}
