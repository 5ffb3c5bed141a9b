//! Policy crossover study (supplement to Fig. 13): the learned policy
//! pays an exploration transient, so its standing against the greedy
//! lottery heuristic depends on episode count. This target runs one
//! 16-query JOB-style batch at four dataset scale / vector size points
//! (90 to ~2 200 episodes) and prints, per point, the episodes and the
//! learned/greedy intermediate-join-tuple ratio. At seed 42 it reads
//! 1.46 / 1.58 / 1.34 / 1.30 at 90 / 284 / 1 107 / 2 201 episodes: the
//! learned policy still loses at every point, short of the paper's SF10
//! regime (tens of thousands of episodes per batch).
use rand::rngs::StdRng;
use rand::SeedableRng;
use roulette_core::{CostModel, EngineConfig};
use roulette_policy::{GreedyPolicy, QLearningPolicy};
use roulette_query::generator::{job_pool, sample_batch};
use roulette_storage::datagen::imdb;

fn main() {
    for (sf, vs) in [(0.3f64, 256usize), (1.0, 256), (1.0, 64), (2.0, 64)] {
        let ds = imdb::generate(sf, 42);
        let pool = job_pool(&ds, 64, 42).expect("workload generation");
        let mut rng = StdRng::seed_from_u64(99);
        let queries = sample_batch(&pool, 16, &mut rng);
        let config = EngineConfig::default().with_vector_size(vs).unwrap();
        let engine = roulette_bench::harness::engine(&ds.catalog, config.clone());
        let learned = engine
            .execute_batch_with_policy(
                &queries,
                Box::new(QLearningPolicy::new(CostModel::default(), &config)),
            )
            .unwrap();
        let lottery = engine
            .execute_batch_with_policy(&queries, Box::new(GreedyPolicy::lottery(3)))
            .unwrap();
        println!(
            "sf={sf} vs={vs}: episodes={} learned={} lottery={} ratio={:.2}",
            learned.stats.episodes,
            learned.stats.join_tuples,
            lottery.stats.join_tuples,
            learned.stats.join_tuples as f64 / lottery.stats.join_tuples as f64
        );
    }
    roulette_bench::harness::dump_telemetry("policy_crossover");
}
