//! # RouLette
//!
//! A from-scratch Rust reproduction of *"Scalable Multi-Query Execution
//! using Reinforcement Learning"* (Sioulas & Ailamaki, SIGMOD 2021).
//!
//! RouLette executes batches of Select-Project-Join queries through a
//! single, continuously adapting *global query plan*. Planning happens in
//! fine-grained episodes; an eddy consults a Q-learning policy to order
//! shared selections and symmetric-hash-join probes, and refines that
//! policy from observed intermediate cardinalities.
//!
//! This umbrella crate re-exports the workspace crates:
//!
//! * [`core`] — Data-Query model primitives, cost model, configuration;
//! * [`storage`] — columnar storage, circular scans, data generators;
//! * [`query`] — SPJ queries, parser, workload generators;
//! * [`policy`] — learned (Q-learning) and greedy planning policies;
//! * [`exec`] — STeMs, shared operators, the eddy, and the engine;
//! * [`telemetry`] — low-overhead observability: metrics registry, event
//!   stream, policy introspection, Prometheus/JSONL exporters;
//! * [`baselines`] — comparator engines (query-at-a-time, operator-at-a-
//!   time, Stitch&Share, Match&Share, mini-SWO);
//! * [`stream`] — windowed continuous queries over churning data: logical-
//!   clock windowed relations, a drift-injecting stream driver, and
//!   drift-aware policy recovery metering.
//!
//! ## Quickstart
//!
//! ```
//! use roulette::prelude::*;
//!
//! // A two-table schema with some data.
//! let mut catalog = Catalog::new();
//! let mut orders = RelationBuilder::new("orders");
//! orders.int64("o_custkey", (0..1000).map(|i| i % 100).collect());
//! orders.int64("o_total", (0..1000).map(|i| i % 500).collect());
//! let orders = catalog.add(orders.build()).unwrap();
//! let mut cust = RelationBuilder::new("customer");
//! cust.int64("c_custkey", (0..100).collect());
//! cust.int64("c_age", (0..100).map(|i| 20 + i % 60).collect());
//! let cust = catalog.add(cust.build()).unwrap();
//!
//! // Two SPJ queries sharing the join.
//! let q0 = SpjQuery::builder(&catalog)
//!     .relation("orders").relation("customer")
//!     .join(("orders", "o_custkey"), ("customer", "c_custkey"))
//!     .range("orders", "o_total", 0, 250)
//!     .build().unwrap();
//! let q1 = SpjQuery::builder(&catalog)
//!     .relation("orders").relation("customer")
//!     .join(("orders", "o_custkey"), ("customer", "c_custkey"))
//!     .range("customer", "c_age", 30, 50)
//!     .build().unwrap();
//!
//! // Execute the batch through RouLette.
//! let engine = RouletteEngine::new(&catalog, EngineConfig::default());
//! let outcome = engine.execute_batch(&[q0, q1]).unwrap();
//! assert_eq!(outcome.per_query.len(), 2);
//! assert!(outcome.per_query[0].rows > 0);
//! let _ = (orders, cust);
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub use roulette_baselines as baselines;
pub use roulette_core as core;
pub use roulette_exec as exec;
pub use roulette_policy as policy;
pub use roulette_query as query;
pub use roulette_storage as storage;
pub use roulette_stream as stream;
pub use roulette_telemetry as telemetry;

/// Convenient glob-import surface for applications.
pub mod prelude {
    pub use roulette_core::{
        CostModel, EngineConfig, Error, OpKind, QueryId, QuerySet, RelId, RelSet, Result,
    };
    pub use roulette_exec::{BatchOutcome, RouletteEngine};
    pub use roulette_query::{JoinGraph, SpjQuery};
    pub use roulette_storage::{Catalog, Column, Relation, RelationBuilder};
}
