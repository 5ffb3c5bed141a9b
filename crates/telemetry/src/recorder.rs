//! The [`Recorder`] facade the engine and policy crates instrument against.
//!
//! `roulette-exec` and `roulette-policy` depend only on this trait — never
//! on the concrete sinks in [`crate::sink`] — so swapping or disabling
//! telemetry never recompiles the engine, and a disabled recorder costs one
//! branch on an `Option<&dyn Recorder>` per instrumentation site. All
//! methods have default no-op bodies: sinks override what they consume, and
//! new hooks never break existing implementations.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::events::EventKind;

/// Per-episode measurements, recorded once at the end of each episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpisodeSample {
    /// Engine-wide episode number.
    pub episode: u64,
    /// Wall-clock episode duration in nanoseconds.
    pub latency_ns: u64,
    /// Tuples scanned from the source partition.
    pub scanned: u64,
    /// Episode vector capacity (tuples), for fill-ratio accounting.
    pub capacity: u64,
    /// Tuples surviving selection.
    pub selected: u64,
    /// Tuples inserted into the episode relation's STeM.
    pub inserted: u64,
    /// Tuples that entered the join phase without being inserted: every
    /// relation their queries join with was already complete, so nothing
    /// could ever probe them. `inserted + elided` is what the join phase
    /// saw.
    pub elided: u64,
}

/// A sampled snapshot of the learned policy's internals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyProbe {
    /// Number of materialized Q-table entries.
    pub q_entries: u64,
    /// Routing decisions taken since the last reset.
    pub decisions: u64,
    /// Of those, how many explored (random action) rather than exploited.
    pub explorations: u64,
    /// Reward observations folded into the table since the last reset.
    pub observations: u64,
    /// Mean absolute temporal-difference error across observations.
    pub td_error_mean: f64,
    /// Largest absolute temporal-difference error seen.
    pub td_error_max: f64,
    /// Mean observed reward.
    pub reward_mean: f64,
    /// Smallest observed reward.
    pub reward_min: f64,
    /// Largest observed reward.
    pub reward_max: f64,
}

impl PolicyProbe {
    /// Fraction of decisions that explored, in `[0, 1]`; 0 when no
    /// decisions have been taken.
    pub fn exploration_share(&self) -> f64 {
        if self.decisions == 0 {
            0.0
        } else {
            self.explorations as f64 / self.decisions as f64
        }
    }
}

/// Sink facade for engine instrumentation. Implementations must be cheap
/// and non-blocking: they run inside episode execution.
pub trait Recorder: Send + Sync {
    /// Called once per completed episode with its measurements.
    fn record_episode(&self, sample: &EpisodeSample) {
        let _ = sample;
    }

    /// Called once per STeM probe batch with the number of probing tuples.
    fn record_probe_batch(&self, tuples: u64) {
        let _ = tuples;
    }

    /// Called once per STeM probe batch or semi-join with how many of its
    /// keys were matched through a dense-key view of a complete index and
    /// how many along hash chains.
    fn record_probe_keys(&self, view_keys: u64, chain_keys: u64) {
        let _ = (view_keys, chain_keys);
    }

    /// Called once per episode with the resident bytes of every STeM's
    /// dense-key views (outside the governed STeM footprint).
    fn record_view_bytes(&self, bytes: u64) {
        let _ = bytes;
    }

    /// Called when a worker steals queued episode tasks from a sibling's
    /// morsel queue instead of idling.
    fn record_steal(&self, tasks: u64) {
        let _ = tasks;
    }

    /// Called once per episode with the scratch arena's buffer-reuse
    /// counters: acquisitions served from a pool (`hits`) vs. freshly
    /// allocated (`misses`). A healthy steady state is all hits.
    fn record_scratch(&self, hits: u64, misses: u64) {
        let _ = (hits, misses);
    }

    /// Called for rare structured events, stamped with the episode counter.
    fn record_event(&self, episode: u64, kind: EventKind) {
        let _ = (episode, kind);
    }

    /// Called every N episodes with a policy introspection snapshot.
    fn record_policy_probe(&self, episode: u64, probe: &PolicyProbe) {
        let _ = (episode, probe);
    }
}

/// A recorder that discards everything — the measured-overhead baseline.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_accepts_everything() {
        let r = NullRecorder;
        r.record_episode(&EpisodeSample {
            episode: 1,
            latency_ns: 10,
            scanned: 1024,
            capacity: 1024,
            selected: 512,
            inserted: 512,
            elided: 0,
        });
        r.record_probe_batch(64);
        r.record_probe_keys(48, 16);
        r.record_view_bytes(4096);
        r.record_steal(1);
        r.record_scratch(12, 3);
        r.record_event(1, EventKind::Admission { query: 0 });
        r.record_policy_probe(
            1,
            &PolicyProbe {
                q_entries: 0,
                decisions: 0,
                explorations: 0,
                observations: 0,
                td_error_mean: 0.0,
                td_error_max: 0.0,
                reward_mean: 0.0,
                reward_min: 0.0,
                reward_max: 0.0,
            },
        );
    }

    #[test]
    fn exploration_share_handles_zero_decisions() {
        let mut p = PolicyProbe {
            q_entries: 0,
            decisions: 0,
            explorations: 0,
            observations: 0,
            td_error_mean: 0.0,
            td_error_max: 0.0,
            reward_mean: 0.0,
            reward_min: 0.0,
            reward_max: 0.0,
        };
        assert_eq!(p.exploration_share(), 0.0);
        p.decisions = 4;
        p.explorations = 1;
        assert_eq!(p.exploration_share(), 0.25);
    }
}
