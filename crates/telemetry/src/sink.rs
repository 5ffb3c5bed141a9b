//! The batteries-included telemetry sink.
//!
//! [`Telemetry`] implements [`Recorder`] by fanning every hook out to the
//! pre-registered metrics below and to a bounded [`EventRing`], and offers
//! the two exporters: Prometheus text format for the metrics and JSONL for
//! the event stream. Handles to the individual metrics are resolved once at
//! construction, so recording never touches the registry latch.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use roulette_core::sync::{LockRank, Mutex};
use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::time::Instant;

use crate::events::{EventKind, EventRing};
use crate::histogram::Histogram;
use crate::json::JsonObject;
use crate::metrics::{FloatGauge, Gauge, ShardedCounter};
use crate::recorder::{EpisodeSample, PolicyProbe, Recorder};
use crate::registry::MetricsRegistry;

/// Default capacity of the structured event ring.
pub const DEFAULT_EVENT_CAPACITY: usize = 1024;

/// A full telemetry pipeline: metrics registry + event ring + exporters.
#[derive(Debug)]
pub struct Telemetry {
    registry: MetricsRegistry,
    events: EventRing,
    /// Admission timestamps keyed by query slot, for admit→complete latency.
    admit_times: Mutex<HashMap<u32, Instant>>,

    episodes: Arc<ShardedCounter>,
    episode_latency_ns: Arc<Histogram>,
    query_latency_us: Arc<Histogram>,
    insert_batch: Arc<Histogram>,
    elided_tuples: Arc<ShardedCounter>,
    probe_batch: Arc<Histogram>,
    probe_view_keys: Arc<ShardedCounter>,
    probe_chain_keys: Arc<ShardedCounter>,
    view_bytes: Arc<Gauge>,
    steals: Arc<ShardedCounter>,
    vector_fill_permille: Arc<Histogram>,
    selection_survivors_permille: Arc<Histogram>,
    scratch_hits: Arc<ShardedCounter>,
    scratch_misses: Arc<ShardedCounter>,

    admitted: Arc<ShardedCounter>,
    completed: Arc<ShardedCounter>,
    quarantined: Arc<ShardedCounter>,
    deadline_exceeded: Arc<ShardedCounter>,
    watchdog_trips: Arc<ShardedCounter>,
    fallback_replans: Arc<ShardedCounter>,
    window_expired_tuples: Arc<ShardedCounter>,
    drift_injected: Arc<ShardedCounter>,
    policy_resets: Arc<ShardedCounter>,
    memory_pressure: Arc<Gauge>,
    events_dropped: Arc<Gauge>,

    policy_q_entries: Arc<Gauge>,
    policy_exploration_share: Arc<FloatGauge>,
    policy_td_error_mean: Arc<FloatGauge>,
    policy_td_error_max: Arc<FloatGauge>,
    policy_reward_mean: Arc<FloatGauge>,
    policy_reward_min: Arc<FloatGauge>,
    policy_reward_max: Arc<FloatGauge>,
    policy_observations: Arc<Gauge>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new(DEFAULT_EVENT_CAPACITY)
    }
}

impl Telemetry {
    /// A sink with an event ring of `event_capacity` entries.
    pub fn new(event_capacity: usize) -> Self {
        let registry = MetricsRegistry::new();
        let episodes = registry.counter("roulette_episodes_total", "Episodes executed");
        let episode_latency_ns = registry.histogram(
            "roulette_episode_latency_ns",
            "Wall-clock episode duration in nanoseconds",
        );
        let query_latency_us = registry.histogram(
            "roulette_query_latency_us",
            "Per-query admit-to-complete latency in microseconds",
        );
        let insert_batch = registry.histogram(
            "roulette_stem_insert_batch_tuples",
            "Tuples inserted into a STeM per episode",
        );
        let elided_tuples = registry.counter(
            "roulette_stem_elided_tuples_total",
            "Tuples joined without being inserted: every join partner was already complete",
        );
        let probe_batch = registry.histogram(
            "roulette_stem_probe_batch_tuples",
            "Tuples probing a STeM per probe batch",
        );
        let probe_view_keys = registry.counter(
            "roulette_stem_probe_view_keys_total",
            "Probe and semi-join keys matched through a dense-key view of a complete STeM index",
        );
        let probe_chain_keys = registry.counter(
            "roulette_stem_probe_chain_keys_total",
            "Probe and semi-join keys matched along STeM hash chains",
        );
        let view_bytes = registry.gauge(
            "roulette_stem_view_bytes",
            "Resident bytes of STeM dense-key views (not part of the governed STeM footprint)",
        );
        let steals = registry.counter(
            "roulette_worker_steals_total",
            "Episode tasks stolen from a sibling worker's morsel queue",
        );
        let vector_fill_permille = registry.histogram(
            "roulette_vector_fill_permille",
            "Episode vector fill ratio, in thousandths of capacity",
        );
        let selection_survivors_permille = registry.histogram(
            "roulette_selection_survivors_permille",
            "Tuples surviving selection, in thousandths of the scanned batch",
        );
        let scratch_hits = registry.counter(
            "roulette_scratch_reuse_hits_total",
            "Episode scratch buffer acquisitions served from a pool",
        );
        let scratch_misses = registry.counter(
            "roulette_scratch_misses_total",
            "Episode scratch buffer acquisitions that had to allocate",
        );
        let admitted = registry.counter("roulette_queries_admitted_total", "Queries admitted");
        let completed = registry.counter("roulette_queries_completed_total", "Queries completed");
        let quarantined =
            registry.counter("roulette_queries_quarantined_total", "Queries quarantined");
        let deadline_exceeded = registry.counter(
            "roulette_deadline_exceeded_total",
            "Queries evicted for exceeding their deadline budget",
        );
        let watchdog_trips =
            registry.counter("roulette_watchdog_trips_total", "Join watchdog budget trips");
        let fallback_replans = registry.counter(
            "roulette_fallback_replans_total",
            "Greedy-fallback replans after watchdog trips",
        );
        let window_expired_tuples = registry.counter(
            "roulette_window_expired_tuples_total",
            "Tuples reclaimed by stream-window expiry sweeps",
        );
        let drift_injected = registry.counter(
            "roulette_drift_injected_total",
            "Scripted drift events injected into the arrival stream",
        );
        let policy_resets = registry.counter(
            "roulette_policy_resets_total",
            "Exploration boosts/resets triggered by the drift-recovery heuristic",
        );
        let memory_pressure = registry.gauge(
            "roulette_memory_pressure_level",
            "Memory-pressure ladder level (0 nominal, 1 forced pruning, 2 admissions paused, 3 evicting)",
        );
        let events_dropped =
            registry.gauge("roulette_events_dropped", "Events dropped by the bounded ring");
        let policy_q_entries =
            registry.gauge("roulette_policy_q_entries", "Materialized Q-table entries");
        let policy_exploration_share = registry.float_gauge(
            "roulette_policy_exploration_share",
            "Fraction of routing decisions that explored",
        );
        let policy_td_error_mean = registry.float_gauge(
            "roulette_policy_td_error_mean",
            "Mean absolute temporal-difference error",
        );
        let policy_td_error_max = registry.float_gauge(
            "roulette_policy_td_error_max",
            "Largest absolute temporal-difference error",
        );
        let policy_reward_mean =
            registry.float_gauge("roulette_policy_reward_mean", "Mean observed reward");
        let policy_reward_min =
            registry.float_gauge("roulette_policy_reward_min", "Smallest observed reward");
        let policy_reward_max =
            registry.float_gauge("roulette_policy_reward_max", "Largest observed reward");
        let policy_observations = registry.gauge(
            "roulette_policy_observations",
            "Reward observations folded into the Q-table",
        );
        Telemetry {
            registry,
            events: EventRing::new(event_capacity),
            admit_times: Mutex::new(LockRank::TelemetryAdmitTimes, HashMap::new()),
            episodes,
            episode_latency_ns,
            query_latency_us,
            insert_batch,
            elided_tuples,
            probe_batch,
            probe_view_keys,
            probe_chain_keys,
            view_bytes,
            steals,
            vector_fill_permille,
            selection_survivors_permille,
            scratch_hits,
            scratch_misses,
            admitted,
            completed,
            quarantined,
            deadline_exceeded,
            watchdog_trips,
            fallback_replans,
            window_expired_tuples,
            drift_injected,
            policy_resets,
            memory_pressure,
            events_dropped,
            policy_q_entries,
            policy_exploration_share,
            policy_td_error_mean,
            policy_td_error_max,
            policy_reward_mean,
            policy_reward_min,
            policy_reward_max,
            policy_observations,
        }
    }

    /// A sink with default event-ring capacity.
    pub fn with_defaults() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// The underlying metrics registry (for registering extra metrics).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The structured event ring.
    pub fn events(&self) -> &EventRing {
        &self.events
    }

    /// Renders all metrics in Prometheus text exposition format.
    pub fn render_prometheus(&self, w: &mut dyn io::Write) -> io::Result<()> {
        self.events_dropped.set(self.events.dropped());
        self.registry.render_prometheus(w)
    }

    /// Writes the buffered event stream as one JSON object per line.
    pub fn write_events_jsonl(&self, w: &mut dyn io::Write) -> io::Result<()> {
        for event in self.events.snapshot() {
            let mut o = JsonObject::new();
            o.u64("seq", event.seq).u64("episode", event.episode).string(
                "kind",
                event.kind.name(),
            );
            match &event.kind {
                EventKind::Admission { query } | EventKind::Completion { query } => {
                    o.u64("query", u64::from(*query));
                }
                EventKind::Quarantine { query, reason }
                | EventKind::DeadlineExceeded { query, reason } => {
                    o.u64("query", u64::from(*query)).string("reason", reason);
                }
                EventKind::WatchdogTrip { relation } | EventKind::FallbackReplan { relation } => {
                    o.u64("relation", u64::from(*relation));
                }
                EventKind::MemoryPressure { from, to } => {
                    o.u64("from", u64::from(*from)).u64("to", u64::from(*to));
                }
                EventKind::WindowExpiry { relation, expired } => {
                    o.u64("relation", u64::from(*relation)).u64("expired", *expired);
                }
                EventKind::DriftInjected { kind } => {
                    o.string("drift", kind);
                }
                EventKind::PolicyReset { reason } => {
                    o.string("reason", reason);
                }
            }
            writeln!(w, "{}", o.finish())?;
        }
        Ok(())
    }
}

impl Recorder for Telemetry {
    fn record_episode(&self, sample: &EpisodeSample) {
        self.episodes.inc();
        self.episode_latency_ns.record(sample.latency_ns);
        self.insert_batch.record(sample.inserted);
        self.elided_tuples.add(sample.elided);
        if let Some(fill) = (sample.scanned * 1000).checked_div(sample.capacity) {
            self.vector_fill_permille.record(fill);
        }
        if let Some(survivors) = (sample.selected * 1000).checked_div(sample.scanned) {
            self.selection_survivors_permille.record(survivors);
        }
    }

    fn record_probe_batch(&self, tuples: u64) {
        self.probe_batch.record(tuples);
    }

    fn record_probe_keys(&self, view_keys: u64, chain_keys: u64) {
        self.probe_view_keys.add(view_keys);
        self.probe_chain_keys.add(chain_keys);
    }

    fn record_view_bytes(&self, bytes: u64) {
        self.view_bytes.set(bytes);
    }

    fn record_steal(&self, tasks: u64) {
        self.steals.add(tasks);
    }

    fn record_scratch(&self, hits: u64, misses: u64) {
        self.scratch_hits.add(hits);
        self.scratch_misses.add(misses);
    }

    fn record_event(&self, episode: u64, kind: EventKind) {
        match &kind {
            EventKind::Admission { query } => {
                self.admitted.inc();
                self.admit_times.lock().insert(*query, Instant::now());
            }
            EventKind::Completion { query } => {
                self.completed.inc();
                if let Some(t0) = self.admit_times.lock().remove(query) {
                    self.query_latency_us.record(t0.elapsed().as_micros() as u64);
                }
            }
            EventKind::Quarantine { query, .. } => {
                self.quarantined.inc();
                self.admit_times.lock().remove(query);
            }
            EventKind::DeadlineExceeded { query, .. } => {
                self.deadline_exceeded.inc();
                self.admit_times.lock().remove(query);
            }
            EventKind::WatchdogTrip { .. } => self.watchdog_trips.inc(),
            EventKind::FallbackReplan { .. } => self.fallback_replans.inc(),
            EventKind::MemoryPressure { to, .. } => self.memory_pressure.set(u64::from(*to)),
            EventKind::WindowExpiry { expired, .. } => {
                self.window_expired_tuples.add(*expired);
            }
            EventKind::DriftInjected { .. } => self.drift_injected.inc(),
            EventKind::PolicyReset { .. } => self.policy_resets.inc(),
        }
        self.events.push(episode, kind);
    }

    fn record_policy_probe(&self, _episode: u64, probe: &PolicyProbe) {
        self.policy_q_entries.set(probe.q_entries);
        self.policy_exploration_share.set(probe.exploration_share());
        self.policy_td_error_mean.set(probe.td_error_mean);
        self.policy_td_error_max.set(probe.td_error_max);
        self.policy_reward_mean.set(probe.reward_mean);
        self.policy_reward_min.set(probe.reward_min);
        self.policy_reward_max.set(probe.reward_max);
        self.policy_observations.set(probe.observations);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prom(t: &Telemetry) -> String {
        let mut out = Vec::new();
        t.render_prometheus(&mut out).expect("render");
        String::from_utf8(out).expect("utf8")
    }

    fn jsonl(t: &Telemetry) -> String {
        let mut out = Vec::new();
        t.write_events_jsonl(&mut out).expect("write");
        String::from_utf8(out).expect("utf8")
    }

    #[test]
    fn episode_samples_feed_metrics() {
        let t = Telemetry::default();
        t.record_episode(&EpisodeSample {
            episode: 0,
            latency_ns: 5_000,
            scanned: 512,
            capacity: 1024,
            selected: 256,
            inserted: 192,
            elided: 64,
        });
        t.record_probe_batch(128);
        t.record_probe_keys(100, 28);
        t.record_probe_keys(4, 0);
        t.record_view_bytes(8192);
        let text = prom(&t);
        assert!(text.contains("roulette_stem_probe_view_keys_total 104"));
        assert!(text.contains("roulette_stem_probe_chain_keys_total 28"));
        assert!(text.contains("roulette_stem_view_bytes 8192"));
        assert!(text.contains("roulette_stem_insert_batch_tuples_sum 192"));
        assert!(text.contains("roulette_stem_elided_tuples_total 64"));
        assert!(text.contains("roulette_episodes_total 1"));
        assert!(text.contains("roulette_episode_latency_ns_count 1"));
        assert!(text.contains("roulette_stem_probe_batch_tuples_count 1"));
        // 512/1024 = 500 permille.
        assert!(text.contains("roulette_vector_fill_permille_sum 500"));
        assert!(text.contains("roulette_selection_survivors_permille_sum 500"));
    }

    #[test]
    fn steal_counter_accumulates() {
        let t = Telemetry::default();
        t.record_steal(1);
        t.record_steal(2);
        let text = prom(&t);
        assert!(text.contains("roulette_worker_steals_total 3"));
    }

    #[test]
    fn scratch_counters_accumulate() {
        let t = Telemetry::default();
        t.record_scratch(10, 2);
        t.record_scratch(5, 0);
        let text = prom(&t);
        assert!(text.contains("roulette_scratch_reuse_hits_total 15"));
        assert!(text.contains("roulette_scratch_misses_total 2"));
    }

    #[test]
    fn admit_complete_cycle_measures_latency() {
        let t = Telemetry::default();
        t.record_event(0, EventKind::Admission { query: 7 });
        t.record_event(3, EventKind::Completion { query: 7 });
        let text = prom(&t);
        assert!(text.contains("roulette_queries_admitted_total 1"));
        assert!(text.contains("roulette_queries_completed_total 1"));
        assert!(text.contains("roulette_query_latency_us_count 1"));
        assert!(t.admit_times.lock().is_empty());
        let log = jsonl(&t);
        let mut lines = log.lines();
        assert_eq!(
            lines.next(),
            Some("{\"seq\":0,\"episode\":0,\"kind\":\"admission\",\"query\":7}")
        );
        assert_eq!(
            lines.next(),
            Some("{\"seq\":1,\"episode\":3,\"kind\":\"completion\",\"query\":7}")
        );
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn deadline_exceeded_counts_and_clears_admit_time() {
        let t = Telemetry::default();
        t.record_event(0, EventKind::Admission { query: 4 });
        t.record_event(9, EventKind::DeadlineExceeded { query: 4, reason: "250 ms".into() });
        assert!(t.admit_times.lock().is_empty());
        let text = prom(&t);
        assert!(text.contains("roulette_deadline_exceeded_total 1"));
        assert!(text.contains("roulette_queries_quarantined_total 0"));
        assert!(text.contains("roulette_query_latency_us_count 0"));
        assert!(jsonl(&t).contains("\"kind\":\"deadline-exceeded\""));
    }

    #[test]
    fn quarantine_clears_admit_time_without_latency_sample() {
        let t = Telemetry::default();
        t.record_event(0, EventKind::Admission { query: 2 });
        t.record_event(1, EventKind::Quarantine { query: 2, reason: "oom".into() });
        assert!(t.admit_times.lock().is_empty());
        let text = prom(&t);
        assert!(text.contains("roulette_queries_quarantined_total 1"));
        assert!(text.contains("roulette_query_latency_us_count 0"));
        assert!(jsonl(&t).contains("\"reason\":\"oom\""));
    }

    #[test]
    fn pressure_and_watchdog_events_update_gauges() {
        let t = Telemetry::default();
        t.record_event(4, EventKind::MemoryPressure { from: 0, to: 2 });
        t.record_event(5, EventKind::WatchdogTrip { relation: 1 });
        t.record_event(5, EventKind::FallbackReplan { relation: 1 });
        let text = prom(&t);
        assert!(text.contains("roulette_memory_pressure_level 2"));
        assert!(text.contains("roulette_watchdog_trips_total 1"));
        assert!(text.contains("roulette_fallback_replans_total 1"));
    }

    #[test]
    fn stream_events_update_counters_and_jsonl() {
        let t = Telemetry::default();
        t.record_event(10, EventKind::WindowExpiry { relation: 3, expired: 40 });
        t.record_event(11, EventKind::WindowExpiry { relation: 3, expired: 2 });
        t.record_event(12, EventKind::DriftInjected { kind: "join-skew-flip".into() });
        t.record_event(13, EventKind::PolicyReset { reason: "td spike 4.2x".into() });
        let text = prom(&t);
        assert!(text.contains("roulette_window_expired_tuples_total 42"));
        assert!(text.contains("roulette_drift_injected_total 1"));
        assert!(text.contains("roulette_policy_resets_total 1"));
        let log = jsonl(&t);
        assert!(log.contains("\"kind\":\"window-expiry\",\"relation\":3,\"expired\":40"));
        assert!(log.contains("\"kind\":\"drift-injected\",\"drift\":\"join-skew-flip\""));
        assert!(log.contains("\"kind\":\"policy-reset\",\"reason\":\"td spike 4.2x\""));
    }

    #[test]
    fn policy_probe_updates_gauges() {
        let t = Telemetry::default();
        t.record_policy_probe(
            64,
            &PolicyProbe {
                q_entries: 12,
                decisions: 100,
                explorations: 10,
                observations: 90,
                td_error_mean: 0.25,
                td_error_max: 2.0,
                reward_mean: -1.5,
                reward_min: -4.0,
                reward_max: 0.0,
            },
        );
        let text = prom(&t);
        assert!(text.contains("roulette_policy_q_entries 12"));
        assert!(text.contains("roulette_policy_exploration_share 0.1"));
        assert!(text.contains("roulette_policy_td_error_max 2"));
        assert!(text.contains("roulette_policy_reward_min -4"));
    }
}
