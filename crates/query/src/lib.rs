//! # roulette-query
//!
//! SPJ query representation and workloads for RouLette: the query AST with
//! tree-join validation, per-query join-graph utilities, batch-level merged
//! planning structures (distinct edges with query-sets, selection groups),
//! a small SQL parser for the SPJ fragment, and the §6 workload generators
//! (TPC-DS sensitivity analysis, JOB-style, chains).

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod ast;
pub mod batch;
pub mod batching;
pub mod generator;
pub mod graph;
pub mod parser;
pub mod printer;

pub use ast::{JoinPred, RangePred, SpjQuery, SpjQueryBuilder};
pub use batch::{EdgeId, QueryBatch, SelectionGroup};
pub use generator::{SchemaMode, SensitivityParams};
pub use graph::JoinGraph;
pub use parser::parse;
pub use printer::to_sql;
