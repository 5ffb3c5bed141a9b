//! Scalar metrics: sharded counters and gauges.
//!
//! [`ShardedCounter`] spreads increments across cache-line-padded shards
//! selected by a per-thread id, so concurrent workers never contend on one
//! cache line; recording is a single relaxed `fetch_add`. Reads sum the
//! shards (reads are rare: exporters and tests).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// One cache line per shard so neighbouring shards never false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedU64(AtomicU64);

static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Lazily-assigned dense thread slot used to pick a counter shard.
    static THREAD_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Dense id for the calling thread, assigned on first use.
#[inline]
fn thread_slot() -> usize {
    THREAD_SLOT.with(|c| {
        let v = c.get();
        if v != usize::MAX {
            v
        } else {
            let v = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed);
            c.set(v);
            v
        }
    })
}

/// Default shard count: enough for the worker pools the engine spawns,
/// small enough that summing on read stays trivial.
const DEFAULT_SHARDS: usize = 16;

/// A monotonically increasing counter sharded across cache-padded cells.
#[derive(Debug)]
pub struct ShardedCounter {
    shards: Box<[PaddedU64]>,
    mask: usize,
}

impl Default for ShardedCounter {
    fn default() -> Self {
        Self::new(DEFAULT_SHARDS)
    }
}

impl ShardedCounter {
    /// A counter with `shards` cells (rounded up to a power of two, ≥ 1).
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        ShardedCounter {
            shards: (0..n).map(|_| PaddedU64::default()).collect(),
            mask: n - 1,
        }
    }

    /// Adds `n` to the calling thread's shard (relaxed).
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(shard) = self.shards.get(thread_slot() & self.mask) {
            shard.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Sum of all shards.
    pub fn total(&self) -> u64 {
        // ordering: monotone counter shards; a scrape may miss in-flight
        // increments, which is the usual counter contract.
        self.shards.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }
}

/// A last-write-wins integer gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `v` (relaxed).
    #[inline]
    pub fn set(&self, v: u64) {
        // ordering: last-write-wins gauge; no data is published through it.
        self.value.store(v, Ordering::Relaxed);
    }

    /// The last stored value.
    pub fn get(&self) -> u64 {
        // ordering: gauge scrape; a stale value is acceptable.
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point gauge (bits in an atomic word).
#[derive(Debug, Default)]
pub struct FloatGauge {
    bits: AtomicU64,
}

impl FloatGauge {
    /// A gauge at 0.0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `v` (relaxed).
    #[inline]
    pub fn set(&self, v: f64) {
        // ordering: last-write-wins gauge; no data is published through it.
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// The last stored value.
    pub fn get(&self) -> f64 {
        // ordering: gauge scrape; a stale value is acceptable.
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_sums_across_threads() {
        let c = Arc::new(ShardedCounter::new(8));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.total(), 8000);
    }

    #[test]
    fn counter_shard_count_rounds_up() {
        let c = ShardedCounter::new(3);
        c.add(5);
        assert_eq!(c.total(), 5);
        assert_eq!(c.shards.len(), 4);
    }

    #[test]
    fn gauges_round_trip() {
        let g = Gauge::new();
        g.set(42);
        assert_eq!(g.get(), 42);
        let f = FloatGauge::new();
        f.set(-1.25);
        assert_eq!(f.get(), -1.25);
    }
}
