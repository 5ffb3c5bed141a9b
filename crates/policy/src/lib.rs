//! # roulette-policy
//!
//! Planning policies for RouLette's eddy (§4): the plan-space abstraction
//! over which multi-step optimization runs, the execution log, the sparse
//! map-based Q-table, the specialized Q-learning policy implementing
//! Algorithm 2 (with the independence and proportionality reductions of
//! §4.3), and the greedy selectivity-based baseline policy used by the
//! quality-of-planning experiments (§6.2).

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod greedy;
pub mod log;
pub mod policy;
pub mod qlearning;
pub mod qtable;
pub mod space;

pub use greedy::{GreedyMode, GreedyPolicy};
pub use log::{ExecutionLog, LogEntry};
pub use policy::{Policy, RandomPolicy};
pub use qlearning::QLearningPolicy;
pub use qtable::QTable;
pub use space::{Lineage, OpId, PlanSpace, Scope};
