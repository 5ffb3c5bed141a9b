//! Quickstart: build a small catalog, write SPJ queries in SQL, and run
//! them through RouLette as one shared batch.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use roulette::core::{EngineConfig, QueryId};
use roulette::exec::RouletteEngine;
use roulette::query::parse;
use roulette::storage::{Catalog, RelationBuilder};

fn main() {
    // --- A tiny orders/customers/items schema ---------------------------
    let mut catalog = Catalog::new();

    let n_orders = 50_000;
    let mut orders = RelationBuilder::new("orders");
    orders.int64("o_custkey", (0..n_orders).map(|i| i * 7 % 2_000).collect());
    orders.int64("o_itemkey", (0..n_orders).map(|i| i * 13 % 500).collect());
    orders.int64("o_total", (0..n_orders).map(|i| i * 31 % 10_000).collect());
    catalog.add(orders.build()).unwrap();

    let mut customer = RelationBuilder::new("customer");
    customer.int64("c_custkey", (0..2_000).collect());
    customer.int64("c_age", (0..2_000).map(|i| 18 + i % 70).collect());
    customer.strings("c_segment", (0..2_000).map(|i| ["retail", "pro", "edu"][i % 3]));
    catalog.add(customer.build()).unwrap();

    let mut item = RelationBuilder::new("item");
    item.int64("i_itemkey", (0..500).collect());
    item.int64("i_price", (0..500).map(|i| 1 + i % 300).collect());
    catalog.add(item.build()).unwrap();

    // --- Three analysts ask overlapping questions at once ----------------
    let sql = [
        "SELECT count(*) FROM orders, customer \
         WHERE orders.o_custkey = customer.c_custkey AND customer.c_age < 30",
        "SELECT count(*) FROM orders, customer, item \
         WHERE orders.o_custkey = customer.c_custkey \
         AND orders.o_itemkey = item.i_itemkey \
         AND item.i_price > 200 AND orders.o_total BETWEEN 1000 AND 5000",
        "SELECT orders.o_total FROM orders, customer \
         WHERE orders.o_custkey = customer.c_custkey \
         AND customer.c_segment = 'pro' AND orders.o_total > 9000",
    ];
    let queries: Vec<_> = sql.iter().map(|s| parse(&catalog, s).expect("valid SPJ")).collect();

    // --- One shared adaptive execution ------------------------------------
    let engine = RouletteEngine::new(&catalog, EngineConfig::default());
    let t0 = std::time::Instant::now();
    let outcome = engine.execute_batch(&queries).expect("batch executes");
    let elapsed = t0.elapsed();

    println!("RouLette executed {} queries in {elapsed:?}\n", queries.len());
    for (i, r) in outcome.per_query.iter().enumerate() {
        println!("  Q{i}: {} rows (checksum {:016x})", r.rows, r.checksum);
    }
    println!(
        "\nengine: {} episodes, {} STeM inserts ({} builds elided: nothing left to probe them), \
         {} intermediate join tuples, {} tuples pruned before materialization",
        outcome.stats.episodes,
        outcome.stats.inserted_tuples,
        outcome.stats.elided_tuples,
        outcome.stats.join_tuples,
        outcome.stats.pruned_tuples,
    );

    // Collected rows for the projecting query, run through a session.
    let mut session = engine.session(1);
    session.collect_rows().expect("before execution");
    session.admit(queries[2].clone()).unwrap();
    session.run();
    let rows = session.take_collected(QueryId(0));
    println!("\nQ2 sample rows (o_total of big 'pro' orders): {:?}", &rows[..rows.len().min(5)]);
}
