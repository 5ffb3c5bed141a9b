//! # roulette-loadgen
//!
//! An open-loop load generator for the RouLette server. Arrivals are
//! scheduled on a fixed clock at `target_rps` — a slow server does *not*
//! slow the arrival process down (the defining property of open-loop load
//! generation, which closed-loop harnesses get wrong by coupling arrival
//! rate to completion rate). Workers pull scheduled arrivals from a shared
//! counter, so lateness in one worker never delays another's schedule.
//!
//! Overload handling mirrors what a well-behaved client should do: a
//! typed `overloaded` response triggers bounded retry with exponential
//! backoff; exhausting retries counts the request as *shed*, separate
//! from hard failures. The run stops early when the failure rate crosses
//! [`LoadgenConfig::stop_failure_rate`], and the final report checks the
//! p50 against [`LoadgenConfig::stop_t_median_ms`] — the same stop
//! thresholds batch-sharing serving experiments use.
//!
//! `--chaos` arms every connection with a seeded deterministic wire-fault
//! plan (`CHAOS <seed+i>`), so chaos runs are reproducible.
//!
//! `--churn` models continuous-query churn over the SQL pool: an *active
//! set* of pool entries starts at half the pool, and a seeded Poisson
//! process (at the configured events/second) admits inactive entries and
//! departs active ones while the run progresses; each open-loop arrival
//! draws its query from the set active at that moment. Against a
//! `--stream` server this drives the windowed star workload with a
//! churning query mix end to end. The whole churn schedule is
//! precomputed from the workload seed, so runs stay reproducible and
//! workers never share an RNG.

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]
#![warn(missing_docs)]

pub mod client;
pub mod stats;

pub use client::{Client, QueryOutcome};
pub use stats::{percentile, LatencyStats};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use roulette_core::sync::{self, LockRank, Mutex};
use roulette_core::{Error, Result};
use roulette_server::protocol::Response;
use roulette_server::workload::{demo_sql, stream_demo_sql};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Load-run parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address, e.g. `127.0.0.1:7878`.
    pub addr: String,
    /// Open-loop arrival rate, requests per second.
    pub target_rps: f64,
    /// Run length; arrivals stop after this much wall clock.
    pub duration: Duration,
    /// Worker connections draining the arrival schedule.
    pub concurrency: usize,
    /// Deadline attached to every query, if any.
    pub deadline_ms: Option<u64>,
    /// Ask for `ROW` streaming.
    pub want_rows: bool,
    /// Arm per-connection chaos plans with `CHAOS <seed + worker>`.
    pub chaos_seed: Option<u64>,
    /// Seed shared with the server's demo workload.
    pub workload_seed: u64,
    /// Distinct queries drawn round-robin from the demo pool.
    pub pool_size: usize,
    /// Draw the pool from the STREAM demo workload (star schema) instead
    /// of the static chains catalog — pair with `roulette-server
    /// --stream`.
    pub stream: bool,
    /// Continuous-query churn events per second (Poisson); 0 disables
    /// churn and arrivals walk the pool round-robin.
    pub churn_rate: f64,
    /// Retries (with backoff) granted to an `overloaded` response.
    pub max_retries: u32,
    /// Initial backoff; doubles per retry.
    pub backoff: Duration,
    /// Stop the run early when `failures / sent` crosses this rate
    /// (checked once ≥ 20 requests have resolved).
    pub stop_failure_rate: f64,
    /// Report a threshold violation when the final p50 exceeds this many
    /// milliseconds.
    pub stop_t_median_ms: u64,
    /// Send `DRAIN` after the run (graceful server shutdown).
    pub drain_at_end: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:7878".into(),
            target_rps: 50.0,
            duration: Duration::from_secs(5),
            concurrency: 4,
            deadline_ms: None,
            want_rows: false,
            chaos_seed: None,
            workload_seed: 11,
            pool_size: 16,
            stream: false,
            churn_rate: 0.0,
            max_retries: 3,
            backoff: Duration::from_millis(2),
            stop_failure_rate: 0.5,
            stop_t_median_ms: 1_000,
            drain_at_end: false,
        }
    }
}

/// The outcome of a load run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Arrivals scheduled by the open-loop clock.
    pub attempted: u64,
    /// Requests that produced any terminal resolution.
    pub sent: u64,
    /// Terminal `OK`s.
    pub ok: u64,
    /// Terminal typed failures other than `overloaded`.
    pub failed: u64,
    /// Requests refused as `overloaded` even after retries.
    pub shed: u64,
    /// Individual retry attempts made against `overloaded`.
    pub retries: u64,
    /// Transport-level failures (disconnects, timeouts) — chaos fodder.
    pub disconnects: u64,
    /// `deadline-exceeded` terminals (subset of `failed`).
    pub deadline_exceeded: u64,
    /// `ROW` lines received.
    pub rows: u64,
    /// Exact p50 latency, microseconds.
    pub p50_us: u64,
    /// Exact p99 latency, microseconds.
    pub p99_us: u64,
    /// Worst latency, microseconds.
    pub max_us: u64,
    /// Mean latency, microseconds.
    pub mean_us: u64,
    /// `sent / elapsed`.
    pub achieved_rps: f64,
    /// `(failed + shed + disconnects) / sent`.
    pub failure_rate: f64,
    /// Whether the failure-rate stop tripped mid-run.
    pub stopped_early: bool,
}

impl LoadReport {
    /// The stop-threshold violations this run ended with (empty = pass).
    pub fn violations(&self, cfg: &LoadgenConfig) -> Vec<String> {
        let mut out = Vec::new();
        if self.sent == 0 {
            out.push("no requests resolved".to_string());
            return out;
        }
        if self.failure_rate > cfg.stop_failure_rate {
            out.push(format!(
                "failure rate {:.3} exceeds stop threshold {:.3}",
                self.failure_rate, cfg.stop_failure_rate
            ));
        }
        let p50_ms = self.p50_us / 1_000;
        if p50_ms > cfg.stop_t_median_ms {
            out.push(format!(
                "median latency {p50_ms} ms exceeds stop threshold {} ms",
                cfg.stop_t_median_ms
            ));
        }
        out
    }
}

#[derive(Default)]
struct Tally {
    sent: AtomicU64,
    ok: AtomicU64,
    failed: AtomicU64,
    shed: AtomicU64,
    retries: AtomicU64,
    disconnects: AtomicU64,
    deadline_exceeded: AtomicU64,
    rows: AtomicU64,
}

/// Runs the configured load against a live server and reports. Fails only
/// on setup errors (bad pool, first connection refused); per-request
/// failures are data, not errors.
pub fn run(cfg: &LoadgenConfig) -> Result<LoadReport> {
    if cfg.target_rps <= 0.0 || cfg.target_rps.is_nan() {
        return Err(Error::InvalidQuery("target_rps must be positive".into()));
    }
    let pool = if cfg.stream {
        stream_demo_sql(cfg.workload_seed, cfg.pool_size.max(1))?
    } else {
        demo_sql(cfg.workload_seed, cfg.pool_size.max(1))?
    };
    // Fail fast (with a typed error) when nothing is listening.
    Client::connect(&cfg.addr)?.ping()?;
    let total = (cfg.target_rps * cfg.duration.as_secs_f64()).ceil() as u64;
    let churn = churn_schedule(cfg, total, pool.len());
    let interval = Duration::from_secs_f64(1.0 / cfg.target_rps);
    let next_arrival = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let tally = Tally::default();
    let latencies = Mutex::new(LockRank::LoadgenLatencies, LatencyStats::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for worker in 0..cfg.concurrency.max(1) {
            let pool = &pool;
            let churn = churn.as_deref();
            let tally = &tally;
            let next_arrival = &next_arrival;
            let stop = &stop;
            let latencies = &latencies;
            scope.spawn(move || {
                worker_loop(
                    cfg,
                    worker as u64,
                    pool,
                    churn,
                    start,
                    total,
                    interval,
                    next_arrival,
                    stop,
                    tally,
                    latencies,
                )
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    if cfg.drain_at_end {
        if let Ok(mut c) = Client::connect(&cfg.addr) {
            let _ = c.drain();
        }
    }
    let mut lat = latencies.into_inner();
    // ordering: Acquire pairs with the workers' AcqRel tally updates; the
    // scoped threads were joined above, so these are the final totals.
    let sent = tally.sent.load(Ordering::Acquire);
    let failed = tally.failed.load(Ordering::Acquire);
    let shed = tally.shed.load(Ordering::Acquire); // ordering: as above.
    let disconnects = tally.disconnects.load(Ordering::Acquire); // ordering: as above.
    Ok(LoadReport {
        // ordering: Acquire — final post-join reads, as above.
        attempted: next_arrival.load(Ordering::Acquire).min(total),
        sent,
        ok: tally.ok.load(Ordering::Acquire), // ordering: as above.
        failed,
        shed,
        retries: tally.retries.load(Ordering::Acquire), // ordering: as above.
        disconnects,
        deadline_exceeded: tally.deadline_exceeded.load(Ordering::Acquire), // ordering: as above.
        rows: tally.rows.load(Ordering::Acquire), // ordering: as above.
        p50_us: lat.percentile(0.50),
        p99_us: lat.percentile(0.99),
        max_us: lat.max(),
        mean_us: lat.mean(),
        achieved_rps: if elapsed > 0.0 { sent as f64 / elapsed } else { 0.0 },
        failure_rate: if sent > 0 {
            (failed + shed + disconnects) as f64 / sent as f64
        } else {
            0.0
        },
        // ordering: Acquire pairs with the early-stop Release store.
        stopped_early: stop.load(Ordering::Acquire),
    })
}

/// Precomputes the arrival→pool-entry assignment for churn mode, or
/// `None` when churn is off. The active set starts at the first half of
/// the pool; between consecutive arrivals a Poisson number of churn
/// events fire (rate scaled from events/second to events/arrival), each
/// admitting a random inactive entry or departing a random active one —
/// departures never empty the active set, admissions cap at the pool.
fn churn_schedule(cfg: &LoadgenConfig, total: u64, pool_len: usize) -> Option<Vec<usize>> {
    if cfg.churn_rate <= 0.0 || !cfg.churn_rate.is_finite() || pool_len == 0 {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(cfg.workload_seed ^ 0xC4A1_1F10_AD00_57E3);
    let per_arrival = (cfg.churn_rate / cfg.target_rps).clamp(0.0, 16.0);
    let mut active: Vec<usize> = (0..pool_len.div_ceil(2)).collect();
    let mut inactive: Vec<usize> = (active.len()..pool_len).collect();
    let mut out = Vec::with_capacity(usize::try_from(total).unwrap_or(0));
    for _ in 0..total {
        for _ in 0..poisson(&mut rng, per_arrival) {
            if rng.gen_bool(0.5) && active.len() > 1 {
                let i = rng.gen_range(0..active.len());
                inactive.push(active.swap_remove(i));
            } else if !inactive.is_empty() {
                let i = rng.gen_range(0..inactive.len());
                active.push(inactive.swap_remove(i));
            }
        }
        let i = rng.gen_range(0..active.len());
        out.push(active.get(i).copied().unwrap_or(0));
    }
    Some(out)
}

/// Samples `Poisson(lambda)` by Knuth's product method — fine for the
/// small per-arrival churn rates used here.
fn poisson(rng: &mut StdRng, lambda: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen::<f64>();
        if p <= l || k > 64 {
            return k;
        }
        k += 1;
    }
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    cfg: &LoadgenConfig,
    worker: u64,
    pool: &[String],
    churn: Option<&[usize]>,
    start: Instant,
    total: u64,
    interval: Duration,
    next_arrival: &AtomicU64,
    stop: &AtomicBool,
    tally: &Tally,
    latencies: &Mutex<LatencyStats>,
) {
    let mut local_lat = LatencyStats::new();
    let mut conn: Option<Client> = None;
    loop {
        // ordering: Acquire pairs with the early-stop Release store so a
        // stopping worker sees the tallies that tripped the rate check.
        if stop.load(Ordering::Acquire) {
            break;
        }
        // ordering: AcqRel — arrival slots are claimed exactly once and
        // totally ordered across workers.
        let i = next_arrival.fetch_add(1, Ordering::AcqRel);
        if i >= total {
            break;
        }
        // Open loop: arrival i is owed at start + i·interval, regardless
        // of how long any previous request took.
        let due = start + interval.saturating_mul(u32::try_from(i).unwrap_or(u32::MAX));
        let now = Instant::now();
        if due > now {
            sync::assert_no_locks_held();
            std::thread::sleep(due - now);
        }
        let pool_idx = match churn {
            Some(schedule) => schedule
                .get(usize::try_from(i).unwrap_or(usize::MAX))
                .copied()
                .unwrap_or(0),
            None => (i % pool.len().max(1) as u64) as usize,
        };
        let sql = match pool.get(pool_idx) {
            Some(s) => s,
            None => continue,
        };
        let sent_at = Instant::now();
        let resolution = resolve(cfg, worker, &mut conn, sql, tally);
        let us = u64::try_from(sent_at.elapsed().as_micros()).unwrap_or(u64::MAX);
        local_lat.record(us);
        // ordering: AcqRel tally updates pair with the Acquire reads in the
        // early-stop check below and the post-join report assembly.
        tally.sent.fetch_add(1, Ordering::AcqRel);
        match resolution {
            Resolution::Ok => {
                tally.ok.fetch_add(1, Ordering::AcqRel); // ordering: as above.
            }
            Resolution::Shed => {
                tally.shed.fetch_add(1, Ordering::AcqRel); // ordering: as above.
            }
            Resolution::Failed { deadline } => {
                tally.failed.fetch_add(1, Ordering::AcqRel); // ordering: as above.
                if deadline {
                    tally.deadline_exceeded.fetch_add(1, Ordering::AcqRel); // ordering: as above.
                }
            }
            Resolution::Disconnected => {
                tally.disconnects.fetch_add(1, Ordering::AcqRel); // ordering: as above.
                conn = None;
            }
        }
        // Early stop on failure rate, once the sample is meaningful.
        // ordering: Acquire reads pair with the AcqRel tally updates; the
        // Release store pairs with every worker's Acquire poll of `stop`.
        let sent = tally.sent.load(Ordering::Acquire);
        if sent >= 20 {
            let bad = tally.failed.load(Ordering::Acquire) // ordering: as above.
                + tally.shed.load(Ordering::Acquire) // ordering: as above.
                + tally.disconnects.load(Ordering::Acquire); // ordering: as above.
            if bad as f64 / sent as f64 > cfg.stop_failure_rate {
                stop.store(true, Ordering::Release); // ordering: as above.
            }
        }
    }
    latencies.lock().merge(local_lat);
}

enum Resolution {
    Ok,
    Shed,
    Failed { deadline: bool },
    Disconnected,
}

/// Drives one arrival to resolution: (re)connect, send, retry on
/// `overloaded` with exponential backoff, classify the terminal.
fn resolve(
    cfg: &LoadgenConfig,
    worker: u64,
    conn: &mut Option<Client>,
    sql: &str,
    tally: &Tally,
) -> Resolution {
    let mut backoff = cfg.backoff;
    for attempt in 0..=cfg.max_retries {
        if conn.is_none() {
            match Client::connect(&cfg.addr) {
                Ok(mut c) => {
                    if let Some(seed) = cfg.chaos_seed {
                        if c.arm_chaos(seed.wrapping_add(worker)).is_err() {
                            return Resolution::Disconnected;
                        }
                    }
                    *conn = Some(c);
                }
                Err(_) => return Resolution::Disconnected,
            }
        }
        let Some(c) = conn.as_mut() else {
            return Resolution::Disconnected;
        };
        match c.query(sql, cfg.want_rows, cfg.deadline_ms) {
            Ok(outcome) => {
                // ordering: AcqRel tally update; read post-join in the report.
                tally.rows.fetch_add(outcome.rows_streamed, Ordering::AcqRel);
                match outcome.terminal {
                    Response::Ok { .. } => return Resolution::Ok,
                    Response::Err(Error::Overloaded(_)) => {
                        if attempt == cfg.max_retries {
                            return Resolution::Shed;
                        }
                        // ordering: AcqRel tally update; read post-join.
                        tally.retries.fetch_add(1, Ordering::AcqRel);
                        sync::assert_no_locks_held();
                        std::thread::sleep(backoff);
                        backoff = backoff.saturating_mul(2);
                    }
                    Response::Err(Error::DeadlineExceeded { .. }) => {
                        return Resolution::Failed { deadline: true }
                    }
                    Response::Err(_) => return Resolution::Failed { deadline: false },
                    _ => return Resolution::Failed { deadline: false },
                }
            }
            Err(_) => {
                // Transport failure: drop the connection; the next attempt
                // (or arrival) reconnects.
                *conn = None;
                return Resolution::Disconnected;
            }
        }
    }
    Resolution::Shed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violations_flag_failure_rate_and_median() {
        let cfg = LoadgenConfig {
            stop_failure_rate: 0.1,
            stop_t_median_ms: 5,
            ..LoadgenConfig::default()
        };
        let mut report = LoadReport {
            sent: 100,
            failure_rate: 0.5,
            p50_us: 50_000,
            ..LoadReport::default()
        };
        let v = report.violations(&cfg);
        assert_eq!(v.len(), 2, "{v:?}");
        report.failure_rate = 0.0;
        report.p50_us = 1_000;
        assert!(report.violations(&cfg).is_empty());
        report.sent = 0;
        assert_eq!(report.violations(&cfg).len(), 1);
    }

    #[test]
    fn churn_schedule_is_seeded_and_bounded() {
        let cfg = LoadgenConfig {
            churn_rate: 20.0,
            target_rps: 50.0,
            ..LoadgenConfig::default()
        };
        let a = churn_schedule(&cfg, 500, 8).unwrap();
        let b = churn_schedule(&cfg, 500, 8).unwrap();
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.len(), 500);
        assert!(a.iter().all(|&i| i < 8));
        // The churn process must actually move the mix: arrivals touch
        // entries outside the initial active half of the pool.
        assert!(a.iter().any(|&i| i >= 4), "churn admitted new queries");
        let distinct: std::collections::HashSet<usize> = a.iter().copied().collect();
        assert!(distinct.len() > 1, "draws spread over the active set");
        // A different seed produces a different schedule.
        let other = churn_schedule(
            &LoadgenConfig { workload_seed: 12, ..cfg.clone() },
            500,
            8,
        )
        .unwrap();
        assert_ne!(a, other);
    }

    #[test]
    fn churn_disabled_means_no_schedule() {
        let cfg = LoadgenConfig::default();
        assert!(churn_schedule(&cfg, 100, 8).is_none());
        let neg = LoadgenConfig { churn_rate: -1.0, ..LoadgenConfig::default() };
        assert!(churn_schedule(&neg, 100, 8).is_none());
    }

    #[test]
    fn zero_rps_is_a_typed_error() {
        let cfg = LoadgenConfig { target_rps: 0.0, ..LoadgenConfig::default() };
        assert!(matches!(run(&cfg), Err(Error::InvalidQuery(_))));
    }

    #[test]
    fn unreachable_server_is_a_typed_error() {
        // Port 1 on localhost is essentially never listening.
        let cfg = LoadgenConfig {
            addr: "127.0.0.1:1".into(),
            target_rps: 1.0,
            duration: Duration::from_millis(10),
            ..LoadgenConfig::default()
        };
        assert!(matches!(run(&cfg), Err(Error::Internal(_))));
    }
}
