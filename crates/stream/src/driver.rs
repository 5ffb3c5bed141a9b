//! The continuous streaming session driver.
//!
//! Each epoch advances the logical clock one tick and runs one batch
//! session over a snapshot of the live window:
//!
//! 1. scheduled drift injectors fire, mutating the arrival distribution;
//! 2. a batch of tuple arrivals lands in the [`WindowedStore`];
//! 3. the window clock advances, expiring aged tuples (per-relation
//!    `window-expiry` telemetry events);
//! 4. the live tuples are snapshotted into a fresh catalog, the epoch's
//!    engine session admits the current continuous-query set (plus query
//!    churn: Poisson arrivals, Bernoulli departures through the engine's
//!    quarantine path, genuinely mid-flight), and runs to completion;
//! 5. the learned policy is extracted and carried into the next epoch —
//!    relation slots and column ids are snapshot-stable, so its state
//!    transfers — and its cumulative probe feeds the [`RecoveryMeter`];
//! 6. with [`StreamConfig::reset_heuristic`] armed, a per-epoch TD-error
//!    spike boosts the policy's exploration rate (`policy-reset` event),
//!    which then decays geometrically back to the configured ε.
//!
//! Dropping each epoch's session reclaims every STeM wholesale, including
//! all join state built over tuples that have since expired; see the
//! module docs of [`crate::window`] for the result-safety argument.

use crate::config::StreamConfig;
use crate::drift::DriftEvent;
use crate::recovery::{PolicyDelta, RecoveryCurve, RecoveryMeter};
use crate::window::WindowedStore;
use crate::workload::ArrivalGen;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use roulette_core::{Error, QueryId, Result};
use roulette_exec::{CompletionStatus, QueryResult, RouletteEngine, Session};
use roulette_policy::{Policy, QLearningPolicy, RandomPolicy};
use roulette_query::SpjQuery;
use roulette_telemetry::{EventKind, Recorder};
use std::sync::Arc;
use std::time::Duration;

/// Episodes a departing query is allowed to run before its mid-flight
/// quarantine fires (single-worker, step-driven epochs).
const DEPART_AFTER_STEPS: u64 = 2;

/// Per-epoch measurements, in epoch order.
#[derive(Debug, Clone)]
pub struct EpochTrace {
    /// Epoch number (equals the logical tick).
    pub epoch: u64,
    /// Tuples that arrived this epoch.
    pub arrived_rows: u64,
    /// Tuples expired from the window this epoch.
    pub expired_rows: u64,
    /// Live tuples across all relations after expiry.
    pub live_rows: u64,
    /// Queries admitted to the epoch's session.
    pub admitted: usize,
    /// Of those, how many departed mid-flight this epoch.
    pub departed: usize,
    /// Continuous queries still live after the epoch.
    pub live_queries: usize,
    /// Episodes the epoch's session executed.
    pub episodes: u64,
    /// Projected values the epoch's router folded into a row hash
    /// ([`roulette_exec::EngineStats::routed_values`]).
    pub routed_values: u64,
    /// Per-epoch mean absolute TD error (differenced), when the policy
    /// folded in observations.
    pub td_mean: Option<f64>,
    /// Reward-normalized TD error for the epoch — the metric the
    /// recovery meter tracks ([`PolicyDelta::relative_td`]).
    pub td_relative: Option<f64>,
    /// The policy's exploration rate at the end of the epoch.
    pub epsilon: Option<f64>,
    /// Names of drift injectors that fired at this epoch.
    pub drifts: Vec<String>,
    /// Whether the ε-boost reset heuristic fired this epoch.
    pub reset: bool,
    /// Per-query `(rows, checksum, status)` results of the epoch's
    /// session, in admission order — the differential expiry tests
    /// compare these byte for byte against the batch engine.
    pub results: Vec<QueryResult>,
}

/// The outcome of a full streaming run.
#[derive(Debug)]
pub struct StreamReport {
    /// Per-epoch traces.
    pub epochs: Vec<EpochTrace>,
    /// Per-drift recovery curves from the [`RecoveryMeter`].
    pub curves: Vec<RecoveryCurve>,
    /// Query admissions summed over all epochs.
    pub admitted_total: u64,
    /// Queries that departed mid-flight over all epochs.
    pub departed_total: u64,
    /// Per-epoch query runs that completed.
    pub completed_total: u64,
    /// Per-epoch query runs that ended quarantined (departures included).
    pub quarantined_total: u64,
    /// Admitted query runs that reached no terminal status — the leak
    /// invariant, pinned to zero by the smoke gate.
    pub leaked: u64,
    /// Tuples expired from the window over the whole run.
    pub expired_total: u64,
    /// Episodes executed over the whole run.
    pub episodes_total: u64,
    /// Exploration-boost resets fired by the heuristic.
    pub resets: u64,
}

impl StreamReport {
    /// Whether every drift event's recovery curve closed within its
    /// threshold.
    pub fn all_recovered(&self) -> bool {
        self.curves.iter().all(RecoveryCurve::recovered)
    }
}

/// Runs a continuous windowed session with churn, drift, and recovery
/// metering. One driver owns the stream's whole life: the windowed store,
/// the arrival generator, the learned policy carried across epochs, and
/// the recovery meter.
pub struct StreamDriver {
    config: StreamConfig,
    gen: ArrivalGen,
    store: WindowedStore,
    schedule: crate::drift::DriftSchedule,
    meter: RecoveryMeter,
    policy: Option<Box<dyn Policy>>,
    churn_rng: StdRng,
    recorder: Option<Arc<dyn Recorder>>,
    live: Vec<SpjQuery>,
}

impl StreamDriver {
    /// A driver for `config`, with the workload store and drift schedule
    /// derived from the config's seed.
    pub fn new(config: StreamConfig) -> Result<Self> {
        let gen = ArrivalGen::new(config.workload.clone(), config.seed);
        let store = gen.store()?;
        let schedule = crate::drift::DriftSchedule::seeded(
            config.seed,
            config.epochs,
            config.warmup,
            config.drift_events,
        );
        let policy: Box<dyn Policy> =
            Box::new(QLearningPolicy::new(Default::default(), &config.engine));
        let meter = RecoveryMeter::new(config.recovery.clone());
        let churn_rng = StdRng::seed_from_u64(config.seed ^ 0xC4_A11F_10CC);
        Ok(StreamDriver {
            config,
            gen,
            store,
            schedule,
            meter,
            policy: Some(policy),
            churn_rng,
            recorder: None,
            live: Vec::new(),
        })
    }

    /// Attaches a telemetry recorder; epoch sessions and the driver's
    /// stream events report into it.
    pub fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.recorder = Some(recorder);
    }

    /// The drift schedule this run will follow.
    pub fn schedule(&self) -> &crate::drift::DriftSchedule {
        &self.schedule
    }

    /// Runs the configured number of epochs and reports.
    pub fn run(&mut self) -> Result<StreamReport> {
        let mut report = StreamReport {
            epochs: Vec::with_capacity(self.config.epochs as usize),
            curves: Vec::new(),
            admitted_total: 0,
            departed_total: 0,
            completed_total: 0,
            quarantined_total: 0,
            leaked: 0,
            expired_total: 0,
            episodes_total: 0,
            resets: 0,
        };
        for epoch in 1..=self.config.epochs {
            let trace = self.run_epoch(epoch, &mut report)?;
            report.admitted_total += trace.admitted as u64;
            report.departed_total += trace.departed as u64;
            report.expired_total += trace.expired_rows;
            report.episodes_total += trace.episodes;
            report.epochs.push(trace);
        }
        report.curves = self.meter.curves().to_vec();
        Ok(report)
    }

    fn emit(&self, epoch: u64, kind: EventKind) {
        if let Some(r) = &self.recorder {
            r.record_event(epoch, kind);
        }
    }

    fn run_epoch(&mut self, epoch: u64, report: &mut StreamReport) -> Result<EpochTrace> {
        // 1. Drift injectors scheduled for this epoch.
        let fired: Vec<DriftEvent> = self.schedule.at(epoch).copied().collect();
        let mut drifts = Vec::with_capacity(fired.len());
        for e in fired {
            self.gen.apply(e.kind);
            self.meter.note_drift(epoch, e.kind.name());
            self.emit(epoch, EventKind::DriftInjected { kind: e.kind.name().to_string() });
            drifts.push(e.kind.name().to_string());
        }

        // 2. Tuple arrivals, then 3. window expiry.
        let arrived_rows = self.gen.generate(&mut self.store, epoch)?;
        let expired = self.store.advance(epoch, self.config.window);
        let expired_rows: u64 = expired.iter().map(|&(_, n)| n).sum();
        for &(relation, n) in &expired {
            self.emit(epoch, EventKind::WindowExpiry { relation, expired: n });
        }

        // 4. Snapshot and query churn.
        let catalog = self.store.snapshot()?;
        let departing_count = self.sample_departures();
        let arrivals = self.sample_arrivals();
        let mut admitted: Vec<SpjQuery> = self.live.clone();
        admitted.extend(self.gen.queries(&catalog, arrivals)?);
        let departing_idx: Vec<usize> = (0..departing_count).collect();

        let engine_cfg = self.config.engine.clone();
        let mut engine = RouletteEngine::new(&catalog, engine_cfg);
        if let Some(r) = &self.recorder {
            engine.set_recorder(Arc::clone(r));
        }
        let policy = self.policy.take().unwrap_or_else(|| {
            Box::new(QLearningPolicy::new(Default::default(), &self.config.engine))
        });
        let mut session = engine.session_with_policy(admitted.len().max(1), policy);

        let mut qids: Vec<QueryId> = Vec::with_capacity(admitted.len());
        let mut kept: Vec<SpjQuery> = Vec::with_capacity(admitted.len());
        for q in &admitted {
            // An admission refusal (e.g. memory pressure) drops the query
            // from the stream rather than failing the epoch.
            if let Ok(qid) = session.admit(q.clone()) {
                qids.push(qid);
                kept.push(q.clone());
            }
        }
        session.close();
        let departing: Vec<QueryId> = departing_idx
            .iter()
            .filter_map(|&i| qids.get(i).copied())
            .collect();

        run_session_with_departures(&mut session, &departing, self.config.engine.workers);

        // 5. Terminal accounting and live-set update.
        let mut completed = 0u64;
        let mut quarantined = 0u64;
        let mut leaked = 0u64;
        let mut next_live: Vec<SpjQuery> = Vec::with_capacity(kept.len());
        for (i, (qid, q)) in qids.iter().zip(kept.iter()).enumerate() {
            let departs = departing_idx.contains(&i);
            match session.terminal_status(*qid) {
                Some(CompletionStatus::Complete) => {
                    completed += 1;
                    if !departs {
                        next_live.push(q.clone());
                    }
                }
                Some(CompletionStatus::Quarantined) => quarantined += 1,
                None => leaked += 1,
            }
        }
        self.live = next_live;

        let results: Vec<QueryResult> = qids.iter().map(|&q| session.result(q)).collect();

        // 6. Extract the policy, difference its probe, drive the reset
        // heuristic.
        let carried = session.replace_policy(Box::new(RandomPolicy::new(0)));
        let outcome = session.finish();
        let delta = carried.probe().and_then(|p| self.meter.observe(&p));
        self.policy = Some(carried);
        let reset = self.apply_reset_heuristic(epoch, delta);
        let epsilon = self.policy.as_ref().and_then(|p| p.exploration());

        report.completed_total += completed;
        report.quarantined_total += quarantined;
        report.leaked += leaked;
        if reset {
            report.resets += 1;
        }

        Ok(EpochTrace {
            epoch,
            arrived_rows,
            expired_rows,
            live_rows: self.store.total_rows(),
            admitted: qids.len(),
            departed: departing.len(),
            live_queries: self.live.len(),
            episodes: outcome.stats.episodes,
            routed_values: outcome.stats.routed_values,
            td_mean: delta.map(|d| d.td_mean),
            td_relative: delta.map(|d| d.relative_td()),
            epsilon,
            drifts,
            reset,
            results,
        })
    }

    /// Number of old live queries departing this epoch (they occupy the
    /// leading slots of the admitted vector). Keeps at least one query
    /// live whenever any were.
    fn sample_departures(&mut self) -> usize {
        let n = self.live.len();
        let mut departing = 0;
        for _ in 0..n {
            if self.churn_rng.gen_bool(self.config.departure_rate.clamp(0.0, 1.0)) {
                departing += 1;
            }
        }
        departing.min(n.saturating_sub(1))
    }

    /// Poisson-distributed query arrivals (Knuth sampling), seeding the
    /// stream up to the target on the first epoch and capping the live
    /// set at twice the target.
    fn sample_arrivals(&mut self) -> usize {
        if self.live.is_empty() {
            return self.config.target_queries.max(1);
        }
        let lambda = self.config.arrival_rate.clamp(0.0, 16.0);
        let limit = (self.config.target_queries * 2).saturating_sub(self.live.len());
        poisson(&mut self.churn_rng, lambda).min(limit)
    }

    fn apply_reset_heuristic(&mut self, epoch: u64, delta: Option<PolicyDelta>) -> bool {
        let Some(policy) = self.policy.as_mut() else { return false };
        let base = self.config.engine.epsilon;
        if self.config.reset_heuristic {
            if let Some(d) = delta {
                if self.meter.is_spike(d.relative_td()) {
                    let target =
                        (base.max(0.01) * self.config.boost_epsilon).min(1.0);
                    if policy.set_exploration(target) {
                        self.emit(
                            epoch,
                            EventKind::PolicyReset {
                                reason: format!("td-spike at epoch {epoch}"),
                            },
                        );
                        return true;
                    }
                }
            }
        }
        // No spike: decay any boost geometrically back toward the base ε.
        if let Some(cur) = policy.exploration() {
            if cur > base + 1e-9 {
                let next = base + (cur - base) * self.config.boost_decay.clamp(0.0, 1.0);
                let next = if next - base < 1e-4 { base } else { next };
                policy.set_exploration(next);
            }
        }
        false
    }
}

/// Samples `Poisson(lambda)` by Knuth's product method — fine for the
/// small per-epoch arrival rates used here.
fn poisson(rng: &mut StdRng, lambda: f64) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    let threshold = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen::<f64>();
        if p <= threshold || k > 64 {
            return k;
        }
        k += 1;
    }
}

/// Runs the epoch's session to completion, quarantining `departing`
/// queries mid-flight. Single-worker sessions are driven episode by
/// episode so the departure lands deterministically after
/// [`DEPART_AFTER_STEPS`] episodes; multi-worker sessions race a sweeper
/// thread against the workers, mirroring the serving frontend's deadline
/// sweeper. Departure quarantines after completion are no-ops (the
/// engine's quarantine path is idempotent against terminal queries), so
/// every admitted query still reaches exactly one terminal outcome.
fn run_session_with_departures(
    session: &mut Session<'_>,
    departing: &[QueryId],
    workers: usize,
) {
    fn depart(s: &Session<'_>, departing: &[QueryId]) {
        for &qid in departing {
            s.quarantine(
                qid,
                Error::QueryFault { query: qid, message: "departed (stream churn)".into() },
            );
        }
    }
    if workers <= 1 {
        let mut steps = 0u64;
        loop {
            if steps == DEPART_AFTER_STEPS {
                depart(session, departing);
            }
            if !session.step() {
                break;
            }
            steps += 1;
        }
        if steps < DEPART_AFTER_STEPS {
            depart(session, departing);
        }
        return;
    }
    let session: &Session<'_> = session;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            // Let the workers take their first episodes so the departure
            // is genuinely mid-flight, then evict.
            roulette_core::sync::assert_no_locks_held();
            std::thread::sleep(Duration::from_micros(200));
            depart(session, departing);
        });
        session.run_workers();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StreamConfig;

    fn quick_config() -> StreamConfig {
        StreamConfig {
            epochs: 6,
            window: 3,
            warmup: 2,
            target_queries: 3,
            arrival_rate: 1.0,
            departure_rate: 0.2,
            drift_events: 1,
            ..StreamConfig::default()
        }
        .with_seed(0xA11CE)
    }

    #[test]
    fn driver_runs_and_accounts_every_query() {
        let mut d = StreamDriver::new(quick_config()).unwrap();
        let report = d.run().unwrap();
        assert_eq!(report.epochs.len(), 6);
        assert_eq!(report.leaked, 0);
        assert_eq!(
            report.completed_total + report.quarantined_total,
            report.admitted_total
        );
        assert!(report.episodes_total > 0);
        // The window is shorter than the run, so expiry must have fired.
        assert!(report.expired_total > 0);
        // One drift event was scheduled and recorded.
        assert_eq!(report.curves.len(), 1);
    }

    #[test]
    fn runs_are_deterministic_per_seed_single_worker() {
        let run = || {
            let mut d = StreamDriver::new(quick_config()).unwrap();
            d.run().unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.admitted_total, b.admitted_total);
        assert_eq!(a.departed_total, b.departed_total);
        assert_eq!(a.episodes_total, b.episodes_total);
        let tds = |r: &StreamReport| {
            r.epochs.iter().filter_map(|e| e.td_mean).collect::<Vec<_>>()
        };
        assert_eq!(tds(&a), tds(&b));
    }

    #[test]
    fn policy_state_carries_across_epochs() {
        let mut d = StreamDriver::new(quick_config()).unwrap();
        let _ = d.run().unwrap();
        // After the run the carried policy still exists and has learned.
        let probe = d.policy.as_ref().and_then(|p| p.probe()).unwrap();
        assert!(probe.observations > 0);
        assert!(probe.q_entries > 0);
    }

    #[test]
    fn reset_heuristic_boosts_and_decays_epsilon() {
        let mut cfg = quick_config().with_reset_heuristic(true);
        cfg.epochs = 12;
        cfg.drift_events = 1;
        let base = cfg.engine.epsilon;
        let mut d = StreamDriver::new(cfg).unwrap();
        let report = d.run().unwrap();
        // Whether or not a spike fired, ε must end within [base, 1] and
        // any boost must decay back toward base.
        let last_eps = report.epochs.iter().filter_map(|e| e.epsilon).next_back().unwrap();
        assert!((base..=1.0).contains(&last_eps));
        if report.resets > 0 {
            let boosted = report.epochs.iter().any(|e| {
                e.epsilon.is_some_and(|eps| eps > base * 2.0)
            });
            assert!(boosted);
        }
    }

    #[test]
    fn multi_worker_epochs_account_terminally() {
        let mut cfg = quick_config();
        cfg.engine = cfg.engine.with_workers(2).unwrap();
        cfg.departure_rate = 0.5;
        let mut d = StreamDriver::new(cfg).unwrap();
        let report = d.run().unwrap();
        assert_eq!(report.leaked, 0);
        assert_eq!(
            report.completed_total + report.quarantined_total,
            report.admitted_total
        );
    }
}
