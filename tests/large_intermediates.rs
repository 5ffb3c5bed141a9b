//! Expanding joins whose intermediates exceed the engine's pending-vector
//! bound must still produce exact results (the chunked execution path).

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
