//! `stream-window`: one `StreamDriver::run` over the star stream is the
//! operation. Arrivals and expiry write beside the queries, every epoch
//! builds a fresh snapshot catalog and fresh STeMs, and departures go through
//! the quarantine path: the `exec` layers used differently from a batch.

use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{
    engine_config, mix, put_exec_layers, put_trace_summary, traced_session, Args, ExecTotals,
    Report, Res, QUERY_SEED, SETUPS, STREAM_EPOCHS, STREAM_REPLAY_QUERIES, STREAM_WINDOW,
};
use roulette_baselines::{ExecMode, QatEngine};
use roulette_core::CostModel;
use roulette_exec::{row_hash, RouletteEngine};
use roulette_policy::{Policy, QLearningPolicy};
use roulette_stream::{ArrivalGen, StreamConfig, StreamDriver, StreamReport};
use std::time::Instant;

/// Arrivals and churn are pinned (see `workloads`); `seed` seeds the policy.
pub fn stream_config(seed: u64) -> StreamConfig {
    let mut config = StreamConfig::default()
        .with_epochs(STREAM_EPOCHS)
        .with_window(STREAM_WINDOW)
        .with_seed(QUERY_SEED);
    config.drift_events = 0;
    config.engine = engine_config(mix(seed, 5)).expect("WORKERS is a valid worker count");
    config
}

/// Seconds of one `StreamDriver::run`, and its report.
fn run_once(seed: u64) -> Res<(f64, StreamReport)> {
    let mut driver = StreamDriver::new(stream_config(seed))?;
    let t0 = Instant::now();
    let report = driver.run()?;
    Ok((t0.elapsed().as_secs_f64(), std::hint::black_box(report)))
}

/// Every epoch's per-query `(rows, checksum, status)`, folded in order.
fn digest(report: &StreamReport) -> u64 {
    report
        .epochs
        .iter()
        .flat_map(|e| e.results.iter())
        .fold(0u64, |h, r| {
            row_hash(&[
                h as i64,
                r.rows as i64,
                r.checksum as i64,
                r.is_complete() as i64,
            ])
        })
}

/// Runs for `seconds`; every run must leak nothing, give every admitted query
/// exactly one terminal outcome, and repeat the first run's results.
fn measure(seed: u64, seconds: f64, report: &mut Report) -> Res<(Vec<f64>, u64)> {
    let mut times_s = Vec::new();
    let mut want = None;
    let mut admitted = 0;
    let start = Instant::now();
    while times_s.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (secs, run) = run_once(seed)?;
        times_s.push(secs);
        admitted = run.admitted_total;
        let unaccounted = run.leaked
            + run
                .admitted_total
                .abs_diff(run.completed_total + run.quarantined_total);
        let repeats = *want.get_or_insert(digest(&run)) == digest(&run);
        report.attempted += run.admitted_total;
        report.failed += if repeats {
            unaccounted
        } else {
            run.admitted_total
        };
    }
    Ok((times_s, admitted))
}

/// The driver's epoch loop through the stream layer's public calls, one span
/// each: arrivals, window advance, snapshot, then a session over the snapshot
/// with the policy carried from the epoch before. It has no query churn (the
/// driver's churn draws are private); its results are checked against the
/// query-at-a-time engine on every snapshot.
fn replay(
    seed: u64,
    pass: u64,
    tr: &mut Tracer,
    report: &mut Report,
) -> Res<(ExecTotals, u64, u64)> {
    let config = stream_config(seed);
    let mut gen = ArrivalGen::new(config.workload.clone(), config.seed);
    let mut store = gen.store()?;
    let mut policy: Box<dyn Policy> =
        Box::new(QLearningPolicy::new(CostModel::default(), &config.engine));
    let mut queries = Vec::new();
    let mut totals = ExecTotals::default();
    let mut expired = 0u64;
    for epoch in 1..=STREAM_EPOCHS {
        let id = pass * STREAM_EPOCHS + epoch;
        tr.enter("stream.epoch", id);
        tr.enter("stream.generate", id);
        gen.generate(&mut store, epoch)?;
        tr.exit();
        tr.enter("stream.advance", id);
        expired += store
            .advance(epoch, STREAM_WINDOW)
            .iter()
            .map(|&(_, n)| n)
            .sum::<u64>();
        tr.exit();
        tr.enter("stream.snapshot", id);
        let catalog = store.snapshot()?;
        tr.exit();
        if queries.is_empty() {
            queries = gen.queries(&catalog, STREAM_REPLAY_QUERIES)?;
        }
        tr.enter("stream.session", id);
        let engine = RouletteEngine::new(&catalog, config.engine.clone());
        let run = traced_session(tr, &engine, &queries, id, Some(policy))?;
        tr.exit();
        tr.exit();
        policy = run.policy;
        totals.add(
            queries.len(),
            &run.stats,
            run.probe.filter(|_| epoch == STREAM_EPOCHS),
        );
        let reference = QatEngine::new(&catalog, ExecMode::Vectorized, 7).execute_serial(&queries);
        report.attempted += reference.len() as u64;
        report.failed += reference
            .iter()
            .zip(&run.results)
            .filter(|(a, b)| a != b)
            .count() as u64;
    }
    Ok((totals, expired, store.total_rows()))
}

pub fn run(args: &Args) -> Res<Report> {
    let mut report = Report::default();
    let mut tr = Tracer::new(Instant::now(), args.trace);

    // Set-up: driver construction and one whole warm-up run.
    let mut setups_s = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        run_once(args.seed)?;
        setups_s.push(t0.elapsed().as_secs_f64());
    }

    if !args.trace {
        let (times_s, admitted) = measure(args.seed, args.seconds, &mut report)?;
        let ops_ms: Vec<f64> = times_s
            .iter()
            .map(|s| s * 1e3 / STREAM_EPOCHS as f64)
            .collect();
        let per_second =
            |per_run: u64| per_run as f64 * times_s.len() as f64 / times_s.iter().sum::<f64>();
        report.put_end_to_end(&ops_ms, per_second(admitted), &setups_s);
        report.note(format!(
            "epochs_per_s {:.4} 1/s (n={})",
            per_second(STREAM_EPOCHS),
            times_s.len()
        ));
        // One replay pass for its check against the reference engine: untimed,
        // and after peak memory was read.
        replay(args.seed, 0, &mut Tracer::off(), &mut report)?;
        return Ok(report);
    }

    let (untraced_s, _) = measure(args.seed, args.seconds * 0.4, &mut report)?;
    let mut first = ExecTotals::default();
    let mut all = ExecTotals::default();
    let (mut expired, mut live_rows) = (0, 0);
    let mut pass = 0;
    let phase = Instant::now();
    while pass == 0 || phase.elapsed().as_secs_f64() < args.seconds * 0.6 {
        let (totals, pass_expired, pass_live) = replay(args.seed, pass, &mut tr, &mut report)?;
        if pass == 0 {
            (first, expired, live_rows) = (totals, pass_expired, pass_live);
        }
        all.add(0, &totals.stats, None);
        pass += 1;
    }

    // The stream has no data set to generate up front and no SQL to parse.
    put_exec_layers(&mut report, &tr, &first, &all);
    let epoch_ms = |name: &str| {
        let us = tr.durations_us(name);
        (median(&us) / 1e3, us.len())
    };
    for (metric, span) in [
        ("stream.generate_ms", "stream.generate"),
        ("stream.advance_ms", "stream.advance"),
        ("stream.snapshot_ms", "stream.snapshot"),
        ("stream.session_ms", "stream.session"),
    ] {
        let (ms, n) = epoch_ms(span);
        report.put(metric, ms, n);
    }
    report.put("stream.expired_tuples", expired as f64, 1);
    report.put("stream.live_rows", live_rows as f64, 1);
    // The replay times the reference check too, outside its spans: compare
    // span time, not pass time, with the driver's run.
    let traced_epoch_ms = epoch_ms("stream.epoch").0;
    put_trace_summary(
        &mut report,
        &tr,
        traced_epoch_ms,
        median(&untraced_s) * 1e3 / STREAM_EPOCHS as f64,
    );
    report.tracer = Some(tr);
    Ok(report)
}
