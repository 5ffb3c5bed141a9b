//! # roulette-server
//!
//! The serving frontend for the RouLette engine: a long-running TCP server
//! speaking a hand-rolled line protocol over `std::net` (no external
//! dependencies), multiplexing concurrent client queries into shared
//! engine sessions and streaming results back.
//!
//! Robustness is the point of this crate, not an afterthought:
//!
//! * **admission control** — a bounded queue sheds load with a typed
//!   `overloaded` wire error when depth or the engine's memory-pressure
//!   ladder says stop ([`admission`]);
//! * **deadlines** — per-query budgets (client-supplied or configured
//!   default) are enforced through the engine's quarantine machinery and
//!   surface as a distinct `deadline-exceeded` wire error and telemetry
//!   event ([`server`]);
//! * **graceful drain** — shutdown closes the listener, runs every
//!   admitted query to a terminal status, and accounts for all of them:
//!   [`DrainReport::leaked`] is pinned to zero by the integration tests;
//! * **chaos** — the deterministic wire-layer fault sites
//!   (`wire-torn-read`, `wire-slow-client`, `wire-disconnect`) reuse the
//!   engine's [`roulette_exec::FaultInjector`], so a seeded chaos run is
//!   reproducible end to end ([`protocol`], `CHAOS <seed>`);
//! * **STREAM demo mode** — [`Server::start_stream`] hosts the churning
//!   streaming star workload instead of a static catalog: a background
//!   epoch thread lands seeded arrivals, expires aged tuples out of the
//!   time window, and swaps fresh snapshots in, while batches stay
//!   snapshot-isolated ([`StreamServeConfig`],
//!   [`workload::stream_demo_sql`]).

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

pub mod admission;
pub mod http;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod workload;

pub use admission::{AdmissionQueue, Job, JobOutcome};
pub use http::spawn_metrics_http;
pub use metrics::ServerMetrics;
pub use protocol::{Request, Response};
pub use server::{DrainReport, Server, ServerConfig, StreamServeConfig};
pub use workload::{demo_dataset, demo_sql, stream_demo_sql, DEMO_PARAMS};
