//! # roulette-baselines
//!
//! The comparator systems of §6: query-at-a-time engines (vectorized
//! "DBMS-V" and MonetDB-style operator-at-a-time), a cost-based per-query
//! optimizer, the online-sharing prototypes (Stitch&Share and Match&Share)
//! executing global Data-Query plans in the batched model, and a mini
//! shared-workload optimizer reproducing offline sharing's scalability
//! wall. All engines produce RouLette-compatible `(rows, checksum)`
//! results, so cross-engine result equivalence is testable.

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod hashtable;
pub mod match_share;
pub mod mqo;
pub mod optimizer;
pub mod qat;
pub mod shared;
pub mod stitch;

pub use hashtable::JoinHashTable;
pub use match_share::match_share_plan;
pub use mqo::{enumerate_orders, optimize_shared, MqoResult};
pub use optimizer::{optimize, QueryPlan};
pub use qat::{ExecMode, QatEngine};
pub use shared::{execute_global, GlobalPlan, GlobalPlanBuilder, SharedRun, SubExpr};
pub use stitch::{stitch_plan, stitch_plan_with_orders};
