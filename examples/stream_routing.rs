//! The router's work on a `stream-window`-shaped run: drives the stream
//! benchmark's configuration (the default star stream, 72 epochs, window
//! 8, churn on, drift off, one worker) once per engine seed and prints,
//! per run, the projected values the router folded into a row hash
//! (`EngineStats::routed_values`, summed over the epochs), the results'
//! digest and the wall time. `routed_values` is an exact count: it does
//! not drift with the host.
//!
//! ```sh
//! cargo run --release --example stream_routing [seeds]
//! ```

use roulette::core::EngineConfig;
use roulette::exec::row_hash;
use roulette::stream::{StreamConfig, StreamDriver};
use std::time::Instant;

fn main() {
    let seeds: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    let mut total = 0u64;
    for seed in 0..seeds {
        let mut config = StreamConfig::default()
            .with_epochs(72)
            .with_window(8)
            .with_seed(42);
        config.drift_events = 0;
        config.engine = EngineConfig::default()
            .with_workers(1)
            .expect("one worker")
            .with_seed(seed);
        let mut driver = StreamDriver::new(config).expect("stream driver");
        let t0 = Instant::now();
        let report = driver.run().expect("stream run");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let values: u64 = report.epochs.iter().map(|e| e.routed_values).sum();
        let digest = report
            .epochs
            .iter()
            .flat_map(|e| &e.results)
            .fold(0u64, |h, r| {
                row_hash(&[h as i64, r.rows as i64, r.checksum as i64])
            });
        println!("seed {seed}: routed_values {values}  digest {digest:016x}  {ms:.1} ms");
        total += values;
    }
    println!(
        "mean routed_values per run: {:.1} M",
        total as f64 / seeds.max(1) as f64 / 1e6
    );
}
