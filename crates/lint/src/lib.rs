//! # roulette-lint
//!
//! The workspace invariants that no rustc or clippy lint can state,
//! checked over every `.rs` file in the tree:
//!
//! * **R4 `shim-surface-drift`** — the offline dependency shims under
//!   `shims/` export only API the workspace actually references;
//! * **R6 `no-alloc-in-episode-loop`** — code regions marked
//!   `// lint: hot-loop` never heap-allocate (`Vec::new`, `vec![…]`,
//!   `.clone()`, `.to_vec()`, `.to_owned()`); steady-state episode
//!   execution draws every buffer from the `EpisodeScratch` arena;
//! * **R9 `atomic-ordering-justified`** — every non-`Relaxed` atomic
//!   ordering (and every `Relaxed` on a non-counter atomic) carries an
//!   `// ordering:` comment.
//!
//! The other invariants the repository keeps live in stronger checks
//! (DESIGN.md §8): no panics on the hot paths, no `unsafe`, no printing
//! in libraries and documented configuration are rustc and clippy lints;
//! lock order and no blocking under a lock are the debug-build lock ranks
//! of `roulette_core::sync`.
//!
//! Matching is lexer-based ([`lexer`]): string literals, char literals,
//! raw strings, and comments can never false-positive. A violation is
//! suppressed inline with `// lint:allow(<rule>)`; there is no baseline.
//!
//! This library performs no I/O besides reading sources and never prints —
//! the `roulette-lint` binary owns all output.

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod atomics;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod workspace;

pub use report::{CheckReport, Violation};
pub use rules::{Rule, SourceFile, RULES};
pub use workspace::{default_root, Workspace};
