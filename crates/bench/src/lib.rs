//! # roulette-bench
//!
//! The figure-reproduction harness: one function (and one binary) per
//! table/figure of the paper's evaluation (§6), plus Criterion
//! micro-benchmarks for the shared operators. Run everything via
//! `cargo bench -p roulette-bench`, or individual figures via
//! `cargo run --release -p roulette-bench --bin fig11a` etc. Scale with
//! `ROULETTE_SCALE`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fig11;
pub mod fig12_14;
pub mod fig16;
pub mod fig17_18;
pub mod fig19_20;
pub mod harness;
pub mod misc;
pub mod routing;
pub mod systems;

pub use harness::Scale;

/// Runs one figure function and, when telemetry capture is configured
/// (`--telemetry <dir>` / `ROULETTE_TELEMETRY`), dumps a Prometheus
/// snapshot and JSONL event log named after the figure.
pub fn run_figure(name: &str, scale: Scale, f: impl FnOnce(Scale)) {
    f(scale);
    harness::dump_telemetry(name);
}

/// Runs every figure target in order (the `figures` bench entry point).
pub fn run_all(scale: Scale) {
    run_figure("calibrate", scale, misc::calibrate_cost_model);
    run_figure("fig11a", scale, fig11::fig11a);
    run_figure("fig11b", scale, fig11::fig11b);
    run_figure("fig11c", scale, fig11::fig11c);
    run_figure("fig11d", scale, fig11::fig11d);
    run_figure("fig12", scale, fig12_14::fig12);
    run_figure("swo_anecdote", scale, misc::swo_anecdote);
    run_figure("fig13", scale, fig12_14::fig13);
    run_figure("fig14", scale, fig12_14::fig14);
    run_figure("fig16", scale, fig16::fig16);
    run_figure("fig17", scale, fig17_18::fig17);
    run_figure("fig18", scale, fig17_18::fig18);
    run_figure("fig19", scale, fig19_20::fig19);
    run_figure("fig20", scale, fig19_20::fig20);
}

/// Extension studies beyond the paper's figures (run by the `figures`
/// bench after the reproduction targets): the workload-aware batching
/// ablation lives in its own binary (`batching_ablation`), as does the
/// policy crossover study (`policy_crossover`).
pub const EXTENSION_BINS: [&str; 2] = ["batching_ablation", "policy_crossover"];
