//! # roulette-core
//!
//! Foundation types for the RouLette multi-query execution engine
//! (Sioulas & Ailamaki, *Scalable Multi-Query Execution using Reinforcement
//! Learning*, SIGMOD 2021).
//!
//! This crate implements the *Data-Query model* primitives shared by every
//! other crate in the workspace:
//!
//! * [`QuerySet`] / [`QuerySetColumn`] — per-tuple query membership bitsets,
//!   stored columnarly so that shared selections and joins can filter
//!   query-sets with straight-line word operations;
//! * [`RelSet`] — compact relation-set bitsets used for plan lineages;
//! * [`CostModel`] — the linear `κ·n_in + λ·n_out` operator cost model of
//!   §4.3, including least-squares calibration from measured timings;
//! * [`EngineConfig`] — engine- and learning-related tuning knobs with the
//!   paper's published defaults (`μ = 0.21`, `ε = 0.014`, `γ = 1`);
//! * [`Error`] — the shared error type;
//! * [`sync`] — the workspace's locks, each built with its rank in the one
//!   lock order ([`sync::LockRank`]), checked in debug builds.

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod config;
pub mod cost;
pub mod error;
pub mod ids;
pub mod queryset;
pub mod relset;
pub mod sync;

pub use config::{EngineConfig, TelemetryConfig};
pub use cost::{CostModel, OpKind};
pub use error::{Error, Result, WIRE_CODES};
pub use ids::{ColId, QueryId, RelId};
pub use queryset::{QuerySet, QuerySetColumn, RowMask};
pub use relset::RelSet;
