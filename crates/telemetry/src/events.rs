//! The bounded structured event stream.
//!
//! Sessions emit rare, high-signal events (admissions, completions,
//! quarantines, watchdog trips, fallback replans, memory-pressure ladder
//! transitions) into a fixed-capacity ring. Each event is stamped with the
//! episode counter at emission time plus a dense sequence number assigned
//! under the ring's latch, so consumers get a total order that can be
//! aligned with the metrics timeline. When the ring is full the oldest
//! event is dropped and a drop counter advances — backpressure never
//! reaches the engine.

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
use std::collections::VecDeque;

/// What happened. Variants carry raw ids (`u32` query slots, `u16`
/// relation slots) so this crate stays dependency-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A query was admitted into the shared plan.
    Admission {
        /// Query slot within the session.
        query: u32,
    },
    /// A query's input was fully consumed (its scans retired).
    Completion {
        /// Query slot within the session.
        query: u32,
    },
    /// A query was evicted from the shared plan.
    Quarantine {
        /// Query slot within the session.
        query: u32,
        /// Human-readable rendering of the attributed error.
        reason: String,
    },
    /// A query blew its deadline budget and was evicted from the shared
    /// plan. Distinct from [`EventKind::Quarantine`] so overload dashboards
    /// can separate latency-policy evictions from faults.
    DeadlineExceeded {
        /// Query slot within the session.
        query: u32,
        /// Human-readable rendering of the exceeded budget.
        reason: String,
    },
    /// An episode's join phase blew its budget and was aborted.
    WatchdogTrip {
        /// Relation slot whose episode tripped.
        relation: u16,
    },
    /// The aborted join phase was replanned with the greedy fallback.
    FallbackReplan {
        /// Relation slot whose episode was replanned.
        relation: u16,
    },
    /// The memory-pressure ladder changed levels.
    MemoryPressure {
        /// Previous level (see `EngineStats::memory_pressure`).
        from: u8,
        /// New level.
        to: u8,
    },
    /// A windowed relation expired tuples that aged past the stream window.
    WindowExpiry {
        /// Relation slot whose window advanced.
        relation: u16,
        /// Tuples reclaimed by this expiry sweep.
        expired: u64,
    },
    /// A scripted drift injector mutated the arrival distribution.
    DriftInjected {
        /// Stable kebab-case drift kind (e.g. `selectivity-flip`).
        kind: String,
    },
    /// The drift-recovery heuristic reset/boosted policy exploration.
    PolicyReset {
        /// Human-readable rendering of the trigger (e.g. the TD-error
        /// spike that tripped the heuristic).
        reason: String,
    },
}

impl EventKind {
    /// Stable kebab-case name used by exporters.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Admission { .. } => "admission",
            EventKind::Completion { .. } => "completion",
            EventKind::Quarantine { .. } => "quarantine",
            EventKind::DeadlineExceeded { .. } => "deadline-exceeded",
            EventKind::WatchdogTrip { .. } => "watchdog-trip",
            EventKind::FallbackReplan { .. } => "fallback-replan",
            EventKind::MemoryPressure { .. } => "memory-pressure",
            EventKind::WindowExpiry { .. } => "window-expiry",
            EventKind::DriftInjected { .. } => "drift-injected",
            EventKind::PolicyReset { .. } => "policy-reset",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Dense per-ring sequence number (total emission order).
    pub seq: u64,
    /// Value of the engine's episode counter when the event was emitted.
    pub episode: u64,
    /// What happened.
    pub kind: EventKind,
}

#[derive(Debug, Default)]
struct RingInner {
    buf: VecDeque<Event>,
    next_seq: u64,
    dropped: u64,
}

/// A bounded, latched ring of [`Event`]s.
#[derive(Debug)]
pub struct EventRing {
    capacity: usize,
    inner: Mutex<RingInner>,
}

impl EventRing {
    /// A ring holding at most `capacity` events (≥ 1).
    pub fn new(capacity: usize) -> Self {
        EventRing {
            capacity: capacity.max(1),
            inner: Mutex::new(LockRank::EventRing, RingInner::default()),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends an event stamped with `episode`, dropping the oldest entry
    /// when full.
    pub fn push(&self, episode: u64, kind: EventKind) {
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.buf.len() == self.capacity {
            inner.buf.pop_front();
            inner.dropped += 1;
        }
        inner.buf.push_back(Event { seq, episode, kind });
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.inner.lock().buf.len()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().buf.is_empty()
    }

    /// Events dropped to make room (ring overflow).
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Copies the buffered events out in sequence order.
    pub fn snapshot(&self) -> Vec<Event> {
        self.inner.lock().buf.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_snapshot_preserve_order() {
        let r = EventRing::new(8);
        r.push(1, EventKind::Admission { query: 0 });
        r.push(5, EventKind::WatchdogTrip { relation: 2 });
        let events = r.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[0].episode, 1);
        assert_eq!(events[1].kind, EventKind::WatchdogTrip { relation: 2 });
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let r = EventRing::new(2);
        for q in 0..5u32 {
            r.push(q as u64, EventKind::Admission { query: q });
        }
        let events = r.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(r.dropped(), 3);
        // The two newest survive, with their original sequence numbers.
        assert_eq!(events[0].kind, EventKind::Admission { query: 3 });
        assert_eq!(events[0].seq, 3);
        assert_eq!(events[1].kind, EventKind::Admission { query: 4 });
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(EventKind::Admission { query: 0 }.name(), "admission");
        assert_eq!(EventKind::MemoryPressure { from: 0, to: 2 }.name(), "memory-pressure");
        assert_eq!(
            EventKind::DeadlineExceeded { query: 1, reason: "x".into() }.name(),
            "deadline-exceeded"
        );
        assert_eq!(
            EventKind::WindowExpiry { relation: 0, expired: 8 }.name(),
            "window-expiry"
        );
        assert_eq!(
            EventKind::DriftInjected { kind: "selectivity-flip".into() }.name(),
            "drift-injected"
        );
        assert_eq!(EventKind::PolicyReset { reason: "spike".into() }.name(), "policy-reset");
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let r = EventRing::new(0);
        assert_eq!(r.capacity(), 1);
        r.push(0, EventKind::Admission { query: 0 });
        r.push(0, EventKind::Admission { query: 1 });
        assert_eq!(r.len(), 1);
    }
}
