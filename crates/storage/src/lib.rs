//! # roulette-storage
//!
//! In-memory columnar storage substrate for RouLette: typed columns with
//! late-materialization gathers, relations and a catalog with declared FK
//! join edges, circular-scan ingestion with active-query tracking (§3), the
//! sampling-based statistics the baseline optimizers consume, and the three
//! synthetic dataset generators the evaluation uses (TPC-DS-like, JOB-like,
//! and the Fig. 15 chains schema).

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod catalog;
pub mod column;
pub mod csv;
pub mod datagen;
pub mod relation;
pub mod scan;
pub mod stats;

pub use catalog::{Catalog, FkEdge};
pub use column::Column;
pub use csv::{relation_from_csv_path, relation_from_csv_str};
pub use relation::{Relation, RelationBuilder};
pub use scan::{IngestVector, Ingestion};
pub use stats::Stats;
