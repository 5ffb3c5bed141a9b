//! Figures 19–20 — multi-core scale-up and concurrent-client
//! interference.

use crate::harness::{fmt_qps, fmt_x, print_table, qps, Scale};
use rand::rngs::StdRng;
use rand::SeedableRng;
use roulette_baselines::{ExecMode, QatEngine};
use roulette_core::EngineConfig;
use roulette_query::generator::{job_pool, sample_batch, tpcds_pool, SensitivityParams};
use roulette_storage::datagen::{imdb, tpcds};

fn cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

/// Fig. 19: RouLette speedup vs worker count on JOB batches.
pub fn fig19(scale: Scale) {
    let ds = imdb::generate(scale.sf(0.25), scale.seed);
    let pool = job_pool(&ds, scale.n(64), scale.seed).expect("workload generation");
    // The ladder always includes 2 and 4 workers so the harness exercises
    // the worker pool even on small containers; real speedup needs real
    // cores (the paper's 12-core socket reaches 8.6–9.0x).
    let max_workers = cores().clamp(4, 12);
    let mut worker_counts = vec![1usize];
    while *worker_counts.last().unwrap() * 2 <= max_workers {
        worker_counts.push(worker_counts.last().unwrap() * 2);
    }
    // The doubling ladder tops out below `max_workers` on non-power-of-2
    // machines (e.g. 6 or 12 cores stop at 4 or 8); always measure the
    // full machine too.
    if *worker_counts.last().unwrap() != max_workers {
        worker_counts.push(max_workers);
    }
    println!("(detected {} core(s))", cores());

    let mut header = vec!["batch".to_string()];
    header.extend(worker_counts.iter().map(|w| format!("{w} workers")));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();

    let mut rows = Vec::new();
    for b in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(scale.seed + b * 97);
        let queries = sample_batch(&pool, scale.n(24), &mut rng);
        let mut row = vec![format!("{}", b + 1)];
        let mut t1 = None;
        for &w in &worker_counts {
            let engine = crate::harness::engine(
                &ds.catalog,
                EngineConfig::default().with_workers(w).unwrap(),
            );
            let (elapsed, _) =
                crate::harness::time(|| engine.execute_batch(&queries).expect("batch"));
            let base = *t1.get_or_insert(elapsed);
            row.push(fmt_x(base.as_secs_f64() / elapsed.as_secs_f64()));
        }
        rows.push(row);
    }
    print_table("Fig 19: RouLette speedup vs cores (JOB batches)", &header_refs, &rows);
}

/// Fig. 20: throughput under concurrent clients — DBMS-V runs one query
/// per client thread (inter-query interference), RouLette batches one
/// query per client across all cores.
pub fn fig20(scale: Scale) {
    let ds = tpcds::generate(scale.sf(0.4), scale.seed);
    let pool = tpcds_pool(&ds, SensitivityParams::default(), scale.n(128), scale.seed + 20).expect("workload generation");
    let qat = QatEngine::new(&ds.catalog, ExecMode::Vectorized, 7);

    let max_clients = scale.n(64).min(pool.len());
    let mut clients = vec![1usize];
    while *clients.last().unwrap() * 4 <= max_clients {
        clients.push(clients.last().unwrap() * 4);
    }

    let mut rows = Vec::new();
    for &n in &clients {
        let queries = &pool[..n];
        // DBMS-V: one client → data-parallel single query stream; many
        // clients → one thread per client, each running its query.
        let (qat_time, _) = crate::harness::time(|| {
            if n == 1 {
                let _ = qat.execute_parallel(&queries[0], cores());
            } else {
                std::thread::scope(|scope| {
                    for q in queries {
                        scope.spawn(|| {
                            let _ = qat.execute(q);
                        });
                    }
                });
            }
        });
        // RouLette: one batch with a query per client, all cores.
        let engine = crate::harness::engine(
            &ds.catalog,
            EngineConfig::default().with_workers(cores().min(12)).unwrap(),
        );
        let (rl_time, _) =
            crate::harness::time(|| engine.execute_batch(queries).expect("batch"));
        rows.push(vec![
            n.to_string(),
            fmt_qps(qps(n, qat_time)),
            fmt_qps(qps(n, rl_time)),
        ]);
    }
    print_table(
        "Fig 20: throughput (q/s) vs concurrent clients",
        &["clients", "DBMS-V", "RouLette"],
        &rows,
    );
}
