//! The batch workloads: one `RouletteEngine::execute_batch` over the whole
//! batch is the operation; every query in it is answered when it returns.

use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{
    engine_config, explore_seed, mix, put_exec_layers, put_trace_summary, traced_session, Args,
    BatchData, BatchSpec, ExecTotals, Report, Res, QUERY_SEED, SETUPS,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use roulette_baselines::{ExecMode, QatEngine};
use roulette_exec::{QueryResult, RouletteEngine};
use roulette_query::generator::{job_pool, sample_batch, tpcds_pool, SensitivityParams};
use roulette_query::SpjQuery;
use roulette_storage::datagen::{imdb, tpcds};
use roulette_storage::Catalog;
use roulette_telemetry::Telemetry;
use std::time::Instant;

struct Prepared {
    catalog: Catalog,
    queries: Vec<SpjQuery>,
    datagen_s: f64,
}

fn prepare(spec: &BatchSpec, seed: u64) -> Res<Prepared> {
    let t0 = Instant::now();
    match spec.data {
        BatchData::Tpcds { sf, selectivity } => {
            let ds = tpcds::generate(sf, mix(seed, 1));
            let datagen_s = t0.elapsed().as_secs_f64();
            let params = SensitivityParams {
                selectivity,
                ..SensitivityParams::default()
            };
            // Sampled from a pool twice the batch size, as fig11 does.
            let pool = tpcds_pool(&ds, params, spec.n_queries * 2, QUERY_SEED)?;
            let mut rng = StdRng::seed_from_u64(QUERY_SEED ^ 0x5a5a);
            let queries = sample_batch(&pool, spec.n_queries, &mut rng);
            Ok(Prepared {
                catalog: ds.catalog,
                queries,
                datagen_s,
            })
        }
        BatchData::Imdb { sf } => {
            let ds = imdb::generate(sf, QUERY_SEED);
            let datagen_s = t0.elapsed().as_secs_f64();
            let queries = job_pool(&ds, spec.n_queries, QUERY_SEED)?;
            Ok(Prepared {
                catalog: ds.catalog,
                queries,
                datagen_s,
            })
        }
    }
}

/// Seconds of one `execute_batch` with exploration seed `seed`, and its results.
fn execute(
    p: &Prepared,
    seed: u64,
    workers: usize,
    telemetry: bool,
) -> Res<(f64, Vec<QueryResult>)> {
    let mut engine = RouletteEngine::new(&p.catalog, engine_config(seed)?.with_workers(workers)?);
    if telemetry {
        engine.set_recorder(Telemetry::with_defaults());
    }
    let t0 = Instant::now();
    let outcome = engine.execute_batch(std::hint::black_box(&p.queries))?;
    let secs = t0.elapsed().as_secs_f64();
    Ok((secs, std::hint::black_box(outcome).per_query))
}

/// Untraced iterations for `seconds`: each iteration's wall time. Every
/// iteration must repeat the first one's results, which the caller checks
/// against the reference engine afterwards, so that the reference's memory
/// is not in `peak_rss_mb`.
fn measure(p: &Prepared, seconds: f64, report: &mut Report) -> Res<(Vec<f64>, Vec<QueryResult>)> {
    let mut times_s = Vec::new();
    let mut first = Vec::new();
    let start = Instant::now();
    while times_s.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (secs, results) = execute(p, explore_seed(times_s.len() as u64), 1, false)?;
        if times_s.is_empty() {
            first = results;
        } else {
            check(&results, &first, report);
        }
        times_s.push(secs);
    }
    Ok((times_s, first))
}

/// Counts `reference.len()` operations, failed where `results` differ.
fn check(results: &[QueryResult], reference: &[QueryResult], report: &mut Report) {
    report.attempted += reference.len() as u64;
    report.failed += reference
        .iter()
        .enumerate()
        .filter(|&(i, want)| results.get(i) != Some(want))
        .count() as u64;
}

pub fn run(spec: &BatchSpec, args: &Args) -> Res<Report> {
    let mut report = Report::default();
    let mut tr = Tracer::new(Instant::now(), args.trace);

    // Set-up: data, queries, engine, one warm-up iteration.
    let mut setups_s = Vec::new();
    let mut datagens_s = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUPS {
        drop(prepared.take());
        let t0 = Instant::now();
        let p = prepare(spec, args.seed)?;
        execute(&p, explore_seed(0), 1, false)?;
        setups_s.push(t0.elapsed().as_secs_f64());
        datagens_s.push(p.datagen_s);
        prepared = Some(p);
    }
    let p = prepared.expect("SETUPS > 0");

    let n = p.queries.len() as f64;
    let untraced_seconds = if args.trace {
        args.seconds * 0.3
    } else {
        args.seconds
    };
    let (untraced_s, first_results) = measure(&p, untraced_seconds, &mut report)?;
    if !args.trace {
        let ops_ms: Vec<f64> = untraced_s.iter().map(|s| s * 1e3).collect();
        let queries_per_s = n * untraced_s.len() as f64 / untraced_s.iter().sum::<f64>();
        report.put_end_to_end(&ops_ms, queries_per_s, &setups_s);
    }

    // Reference results from the query-at-a-time engine, outside every timing
    // and after peak memory was read.
    let t0 = Instant::now();
    let reference = QatEngine::new(&p.catalog, ExecMode::Vectorized, 7).execute_serial(&p.queries);
    let qat_s = t0.elapsed().as_secs_f64();
    check(&first_results, &reference, &mut report);
    if report.failed > 0 || !args.trace {
        return Ok(report);
    }

    // Traced run, after the short untraced phase above for the overhead
    // ratio: traced iterations, then the two variants `exec.workers2_speedup`
    // and `telemetry.overhead_ratio` need, interleaved with the plain engine
    // so drift on the host cancels.

    let mut first = ExecTotals::default();
    let mut all = ExecTotals::default();
    let mut traced_s = Vec::new();
    let phase = Instant::now();
    while traced_s.is_empty() || phase.elapsed().as_secs_f64() < args.seconds * 0.4 {
        let pass = traced_s.len() as u64;
        let engine = RouletteEngine::new(&p.catalog, engine_config(explore_seed(pass))?);
        let t0 = Instant::now();
        tr.enter("batch.iteration", pass);
        let run = traced_session(&mut tr, &engine, &p.queries, pass, None)?;
        tr.exit();
        traced_s.push(t0.elapsed().as_secs_f64());
        check(&run.results, &reference, &mut report);
        if pass == 0 {
            first.add(p.queries.len(), &run.stats, run.probe);
        }
        all.add(p.queries.len(), &run.stats, run.probe);
    }

    let (mut plain_s, mut workers2_s, mut telemetry_s) = (Vec::new(), Vec::new(), Vec::new());
    let phase = Instant::now();
    while plain_s.is_empty() || phase.elapsed().as_secs_f64() < args.seconds * 0.3 {
        let seed = explore_seed(plain_s.len() as u64);
        for (times, workers, telemetry) in [
            (&mut plain_s, 1, false),
            (&mut workers2_s, 2, false),
            (&mut telemetry_s, 1, true),
        ] {
            let (secs, results) = execute(&p, seed, workers, telemetry)?;
            times.push(secs);
            check(&results, &reference, &mut report);
        }
    }

    report.put("storage.datagen_s", median(&datagens_s), datagens_s.len());
    put_exec_layers(&mut report, &tr, &first, &all);
    report.put(
        "exec.workers2_speedup",
        median(&plain_s) / median(&workers2_s),
        plain_s.len(),
    );
    report.put(
        "telemetry.overhead_ratio",
        median(&plain_s) / median(&telemetry_s),
        plain_s.len(),
    );
    report.put("baselines.qat_qps", n / qat_s, 1);
    report.put(
        "baselines.speedup_vs_qat",
        qat_s / median(&untraced_s),
        untraced_s.len(),
    );
    put_trace_summary(
        &mut report,
        &tr,
        median(&traced_s) * 1e3,
        median(&untraced_s) * 1e3,
    );
    report.note(format!(
        "nproc={} for exec.workers2_speedup",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
    report.tracer = Some(tr);
    Ok(report)
}
