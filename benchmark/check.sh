#!/usr/bin/env bash
# Builds the benchmark offline, runs one quick set (2 s per run) and fails if
# a workload or metric that BENCHMARK.json names is missing from the output
# or has another unit, or if any operation failed. The binary does the
# checking; this script is the hook for CI.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --quick "$@"
