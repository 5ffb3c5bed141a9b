//! # roulette-telemetry
//!
//! Low-overhead observability for the RouLette engine. The crate is
//! dependency-free (pure std) and splits into four pieces:
//!
//! * a [`MetricsRegistry`] of named metrics — sharded [`ShardedCounter`]s,
//!   [`Gauge`]s, and log-bucketed (power-of-two, HDR-style) [`Histogram`]s —
//!   whose hot-path recording is a single relaxed atomic add;
//! * a bounded, episode-stamped structured [`EventRing`] capturing
//!   admissions, completions, quarantines, watchdog trips, greedy-fallback
//!   replans, and memory-pressure ladder transitions;
//! * a [`PolicyProbe`] snapshot of the learned policy's internals (Q-table
//!   size, exploration share, TD error, reward distribution), sampled every
//!   N episodes;
//! * exporters: Prometheus text-format rendering and a JSONL event-log
//!   writer, both into a caller-provided [`std::io::Write`].
//!
//! The engine and the policy crates depend only on the [`Recorder`] trait —
//! never on the concrete sinks — so a disabled recorder costs one branch on
//! an `Option` per instrumentation site. [`Telemetry`] is the batteries-
//! included sink wiring all of the above together; [`NullRecorder`] is the
//! do-nothing implementation used by overhead tests.

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod events;
pub mod histogram;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod registry;
pub mod sink;

pub use events::{Event, EventKind, EventRing};
pub use histogram::{Histogram, HistogramSnapshot};
pub use metrics::{FloatGauge, Gauge, ShardedCounter};
pub use recorder::{EpisodeSample, NullRecorder, PolicyProbe, Recorder};
pub use registry::MetricsRegistry;
pub use sink::Telemetry;
