//! Log-bucketed (HDR-style) histograms.
//!
//! Buckets are powers of two: value 0 lands in bucket 0, and a value `v > 0`
//! lands in bucket `floor(log2 v) + 1`, i.e. bucket `i ≥ 1` covers
//! `[2^(i-1), 2^i - 1]`. Recording is two relaxed atomic adds (bucket +
//! sum) with no allocation, so histograms are safe on the episode hot path.
//! Percentiles are answered from the bucket upper bounds — a relative error
//! of at most 2×, which is plenty for latency-shape regressions while
//! keeping the structure a fixed 66-word array.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::sync::atomic::{AtomicU64, Ordering};

/// Bucket count: one zero bucket plus one per possible leading-zero count.
pub const BUCKETS: usize = 65;

/// A fixed-size power-of-two-bucketed histogram of `u64` samples.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for `v`: 0 for 0, `floor(log2 v) + 1` otherwise.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i`.
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample (two relaxed adds).
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(b) = self.buckets.get(bucket_index(v)) {
            b.fetch_add(1, Ordering::Relaxed);
        }
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Wrapping sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`q ∈ [0, 1]`); 0 when empty. The estimate errs high by at most the
    /// bucket width (a factor of two).
    pub fn quantile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return bucket_upper_bound(i);
            }
        }
        u64::MAX
    }

    /// A consistent-enough snapshot for exporters (buckets read relaxed).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        HistogramSnapshot { counts, sum: self.sum() }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts, indexed as in [`bucket_index`].
    pub counts: Vec<u64>,
    /// Sum of all recorded samples.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Total sample count.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Index of the highest non-empty bucket, if any.
    pub fn max_bucket(&self) -> Option<usize> {
        self.counts.iter().rposition(|&c| c > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn record_count_and_sum() {
        let h = Histogram::new();
        for v in [0, 1, 5, 1000, 70_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 71_006);
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        assert_eq!(s.counts[0], 1);
        assert_eq!(s.counts[bucket_index(5)], 1);
    }

    #[test]
    fn quantiles_walk_cumulative_buckets() {
        let h = Histogram::new();
        // 90 small samples, 10 big ones.
        for _ in 0..90 {
            h.record(10);
        }
        for _ in 0..10 {
            h.record(100_000);
        }
        assert_eq!(h.quantile(0.5), bucket_upper_bound(bucket_index(10)));
        assert_eq!(h.quantile(0.95), bucket_upper_bound(bucket_index(100_000)));
        assert_eq!(h.quantile(1.0), bucket_upper_bound(bucket_index(100_000)));
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        assert_eq!(Histogram::new().quantile(0.99), 0);
    }
}
