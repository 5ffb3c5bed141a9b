//! # roulette-exec
//!
//! The adaptive multi-query executor (§3, §5): STeMs implementing a
//! history-independent multi-query n-ary symmetric hash join with batch
//! versioning, shared selections with range-based grouped filters, the
//! eddy's multi-step optimization (Algorithm 1) driven by a learned policy,
//! symmetric join pruning with scan-order ranking, adaptive projections,
//! locality-conscious routing, and the episode-based engine with dynamic
//! query admission and a multi-core worker pool.

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod engine;
pub mod episode;
pub mod fault;
pub mod filter;
pub mod host;
pub mod kernels;
pub mod output;
pub mod planner;
pub mod profile;
pub mod pruning;
pub mod router;
pub mod scratch;
pub mod spaces;
pub mod stem;
pub mod vector;

pub use engine::{
    pressure_from_usage, BatchOutcome, EngineStats, PressureLevel, RouletteEngine, Session,
};
pub use episode::{EngineShared, SharedStats, TraceEntry};
pub use fault::{FaultInjector, FaultKind, FaultSite, LiveSet};
pub use filter::{GroupedFilter, PlainFilter, SelectionFilter};
pub use output::{row_hash, CompletionStatus, Outputs, QueryResult};
pub use planner::{JoinNode, Leaf, ProbeNode};
pub use profile::{Category, Profile};
pub use router::{route, EpisodeSink, RouteScratch};
pub use scratch::EpisodeScratch;
pub use spaces::{JoinSpace, SelectionSpace};
pub use stem::{
    MatchTile, ProbeScratch, Stem, StemReader, Walk, WalkCursor, PROBE_TILE, VERSION_ALL,
};
pub use vector::DataVector;
