//! Ad-hoc analytics with runtime admission (§3's online scheduling):
//! JOB-style exploratory queries trickle in while earlier ones are still
//! running. RouLette shares the remainder of ongoing circular scans with
//! the newcomers and keeps adapting the global plan.
//!
//! ```sh
//! cargo run --release --example adhoc_analytics
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use roulette::core::{EngineConfig, QueryId};
use roulette::exec::RouletteEngine;
use roulette::query::generator::job_pool;
use roulette::storage::datagen::imdb;
use std::time::Instant;

fn main() {
    println!("Generating the JOB-like correlated dataset…");
    let ds = imdb::generate(0.4, 11);
    println!(
        "  {} tables (title hub: {} rows)",
        ds.catalog.len(),
        ds.catalog.relation(ds.meta.title).rows()
    );

    let arrivals = job_pool(&ds, 24, 99).expect("workload generation");
    println!("Simulating {} analysts firing ad-hoc queries…\n", arrivals.len());

    let engine = RouletteEngine::new(&ds.catalog, EngineConfig::default());
    let mut session = engine.session(arrivals.len());
    let mut rng = StdRng::seed_from_u64(5);
    use rand::Rng;

    let t0 = Instant::now();
    let mut admitted: Vec<QueryId> = Vec::new();
    for (i, q) in arrivals.iter().enumerate() {
        let id = session.admit(q.clone()).expect("admit");
        admitted.push(id);
        println!(
            "[{:>7.2?}] admitted Q{i} ({} joins, {} predicates)",
            t0.elapsed(),
            q.n_joins(),
            q.predicates.len()
        );
        // Interleave: process a random slice of episodes before the next
        // arrival, as a host would between network events.
        let burst = rng.gen_range(3..12);
        for _ in 0..burst {
            if !session.step() {
                break;
            }
        }
    }
    // Drain the remaining work.
    session.run();
    let elapsed = t0.elapsed();

    println!("\nAll queries complete in {elapsed:?}:");
    for (i, &id) in admitted.iter().enumerate() {
        let r = session.result(id);
        println!("  Q{i}: {} rows", r.rows);
    }
    let stats = session.stats();
    println!(
        "\nengine: {} episodes | {} join tuples | filter {:.1}ms, build {:.1}ms, \
         probe {:.1}ms, route {:.1}ms | policy {:.1}ms",
        stats.episodes,
        stats.join_tuples,
        stats.filter_ns as f64 / 1e6,
        stats.build_ns as f64 / 1e6,
        stats.probe_ns as f64 / 1e6,
        stats.route_ns as f64 / 1e6,
        stats.plan_ns as f64 / 1e6,
    );
}
