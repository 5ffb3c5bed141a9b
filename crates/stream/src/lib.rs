//! # roulette-stream
//!
//! Windowed continuous queries over churning data for the RouLette engine.
//!
//! The paper evaluates fixed query batches over static relations; this
//! crate layers the missing streaming execution mode on top of the batch
//! engine without touching its invariants:
//!
//! * [`WindowedRelation`] / [`WindowedStore`] — relations under a logical
//!   clock where every tuple carries its insertion tick and expires once it
//!   ages past a configurable window. Expiry compacts the live buffer and
//!   each epoch snapshots only live tuples into a fresh catalog, so STeM
//!   state built over expired tuples is reclaimed wholesale when the
//!   epoch's session drops (DESIGN.md §13 gives the result-safety argument
//!   riding on the engine's history-independence invariant).
//! * [`StreamDriver`] — a continuous session: batched tuple arrivals feed
//!   the engine's circular scans, queries arrive and depart mid-flight
//!   through the existing quarantine path, and scripted [`DriftSchedule`]
//!   events (selectivity flip, join-key skew flip, hot-relation swap)
//!   mutate the arrival distribution on a deterministic seeded schedule.
//! * [`RecoveryMeter`] — a drift-aware re-convergence meter built on
//!   [`Policy::probe`](roulette_policy::Policy::probe): it differences
//!   successive probes into per-epoch TD-error means, freezes a pre-drift
//!   baseline when a drift fires, and counts the epochs until the policy's
//!   TD error returns within a configurable factor of that baseline. A
//!   TD-spike-triggered exploration boost (ε reset heuristic) can be armed
//!   behind [`StreamConfig::reset_heuristic`].
//!
//! Telemetry: the driver emits `window-expiry`, `drift-injected`, and
//! `policy-reset` events (with matching counters) into any attached
//! [`Recorder`](roulette_telemetry::Recorder).

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

pub mod config;
pub mod drift;
pub mod driver;
pub mod recovery;
pub mod window;
pub mod workload;

pub use config::StreamConfig;
pub use drift::{DriftEvent, DriftKind, DriftSchedule};
pub use driver::{EpochTrace, StreamDriver, StreamReport};
pub use recovery::{PolicyDelta, RecoveryConfig, RecoveryCurve, RecoveryMeter};
pub use window::{Tick, WindowedRelation, WindowedStore};
pub use workload::{ArrivalGen, WorkloadParams};
