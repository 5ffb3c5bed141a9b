//! RouLette sources: per-query output sinks (§3).
//!
//! Routers multicast SPJ result tuples to their query-set's *RouLette
//! sources*, which pipeline them to host-side consumers. This reproduction
//! models the host side as per-query sinks that accumulate a row count, an
//! order-independent checksum over the projected values (so RouLette's
//! results can be compared tuple-for-tuple against the baseline engines,
//! which compute the same checksum), and optionally the projected rows
//! themselves for small workloads.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use roulette_core::sync::{LockRank, Mutex};
use roulette_core::{Error, QueryId};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Seed of the [`row_hash`] chain, and therefore (with the low bit set) the
/// hash of an empty projection.
pub(crate) const ROW_HASH_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// One link of the [`row_hash`] chain: folds the next projected value `v`
/// into the running hash `h`. The router's column-at-a-time hash kernel
/// runs this step down a column, one independent chain per row.
#[inline(always)]
pub(crate) fn row_hash_step(h: u64, v: i64) -> u64 {
    let mut z = (v as u64).wrapping_add(h);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hashes one projected output row (order-independent accumulation is the
/// caller's job). An empty projection hashes to a constant, making the
/// checksum a scaled row count for `COUNT(*)`-style queries.
#[inline]
pub fn row_hash(values: &[i64]) -> u64 {
    let h = values.iter().fold(ROW_HASH_SEED, |h, &v| row_hash_step(h, v));
    h | 1 // never zero, so checksums distinguish "no rows" from "hash 0"
}

/// How a query's shared execution ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompletionStatus {
    /// The query ran to completion; `rows`/`checksum` are its full result.
    #[default]
    Complete,
    /// The query faulted mid-session and was evicted from the shared plan;
    /// its accumulated outputs are partial and must not be trusted. The
    /// attributed error is available via [`Outputs::error`] /
    /// `Session::query_error`.
    Quarantined,
}

/// One query's accumulated result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryResult {
    /// Output cardinality.
    pub rows: u64,
    /// Wrapping sum of [`row_hash`] over all output rows.
    pub checksum: u64,
    /// Whether the result is complete or the query was quarantined.
    pub status: CompletionStatus,
}

impl QueryResult {
    /// Whether this result is trustworthy (the query was not quarantined).
    pub fn is_complete(&self) -> bool {
        self.status == CompletionStatus::Complete
    }
}

/// Per-query sinks shared across workers.
#[derive(Debug)]
pub struct Outputs {
    rows: Vec<AtomicU64>,
    checksums: Vec<AtomicU64>,
    collected: Option<Vec<Mutex<Vec<Vec<i64>>>>>,
    statuses: Vec<AtomicU8>,
    errors: Mutex<Vec<Option<Error>>>,
}

impl Outputs {
    /// Sinks for up to `capacity` queries. When `collect` is set, projected
    /// rows are retained (intended for tests and small examples).
    pub fn new(capacity: usize, collect: bool) -> Self {
        Outputs {
            rows: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            checksums: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            collected: collect.then(|| {
                (0..capacity).map(|_| Mutex::new(LockRank::OutputsCollected, Vec::new())).collect()
            }),
            statuses: (0..capacity).map(|_| AtomicU8::new(0)).collect(),
            errors: Mutex::new(LockRank::OutputsErrors, vec![None; capacity]),
        }
    }

    /// Marks `q` quarantined with the attributed error. First writer wins;
    /// later errors for the same query are dropped.
    #[expect(
        clippy::indexing_slicing,
        reason = "q was admitted by this session, so q < capacity, the length of every sink"
    )]
    pub fn quarantine(&self, q: QueryId, err: Error) {
        // ordering: Release pairs with the Acquire load in `status` so a
        // reader that sees Quarantined also sees the attributed error.
        self.statuses[q.index()].store(1, Ordering::Release);
        let mut errors = self.errors.lock();
        errors[q.index()].get_or_insert(err);
    }

    /// The error attributed to `q`, if it was quarantined.
    #[expect(
        clippy::indexing_slicing,
        reason = "q was admitted by this session, so q < capacity, the length of every sink"
    )]
    pub fn error(&self, q: QueryId) -> Option<Error> {
        self.errors.lock()[q.index()].clone()
    }

    /// `q`'s completion status.
    #[expect(
        clippy::indexing_slicing,
        reason = "q was admitted by this session, so q < capacity, the length of every sink"
    )]
    pub fn status(&self, q: QueryId) -> CompletionStatus {
        // ordering: Acquire pairs with `quarantine`'s Release store.
        match self.statuses[q.index()].load(Ordering::Acquire) {
            0 => CompletionStatus::Complete,
            _ => CompletionStatus::Quarantined,
        }
    }

    /// Whether rows are being collected.
    pub fn collecting(&self) -> bool {
        self.collected.is_some()
    }

    /// Adds one output row for `q`.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "q was admitted by this session, so q < capacity, the length of every sink"
    )]
    pub fn push(&self, q: QueryId, values: &[i64]) {
        self.rows[q.index()].fetch_add(1, Ordering::Relaxed);
        self.checksums[q.index()].fetch_add(row_hash(values), Ordering::Relaxed);
        if let Some(collected) = &self.collected {
            collected[q.index()].lock().push(values.to_vec());
        }
    }

    /// Adds a pre-aggregated batch for `q` (the locality-conscious router's
    /// one-update-per-query-per-vector path).
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "q was admitted by this session, so q < capacity, the length of every sink"
    )]
    pub fn push_batch(&self, q: QueryId, rows: u64, checksum: u64) {
        self.rows[q.index()].fetch_add(rows, Ordering::Relaxed);
        self.checksums[q.index()].fetch_add(checksum, Ordering::Relaxed);
    }

    /// Appends collected rows for `q` (two-pass router path).
    #[expect(
        clippy::indexing_slicing,
        reason = "q was admitted by this session, so q < capacity, the length of every sink"
    )]
    pub fn extend_collected(&self, q: QueryId, rows: &[Vec<i64>]) {
        if let Some(collected) = &self.collected {
            collected[q.index()].lock().extend(rows.iter().cloned());
        }
    }

    /// Appends collected rows for `q` from a flat value store: row `i` is
    /// `data[offsets[i-1]..offsets[i]]` (with `offsets[-1]` read as 0).
    /// The episode sink stages rows this way so routing never allocates;
    /// rows materialize into `Vec`s only here, at the commit point.
    #[expect(
        clippy::indexing_slicing,
        reason = "q was admitted by this session, so q < capacity, the length of every sink"
    )]
    pub fn extend_collected_flat(&self, q: QueryId, data: &[i64], offsets: &[u32]) {
        if let Some(collected) = &self.collected {
            let mut sink = collected[q.index()].lock();
            sink.reserve(offsets.len());
            let mut start = 0usize;
            for &end in offsets {
                sink.push(data.get(start..end as usize).unwrap_or(&[]).to_vec());
                start = end as usize;
            }
        }
    }

    /// Snapshot of one query's result.
    #[expect(
        clippy::indexing_slicing,
        reason = "q was admitted by this session, so q < capacity, the length of every sink"
    )]
    pub fn result(&self, q: QueryId) -> QueryResult {
        QueryResult {
            // ordering: rows/checksum are monotone accumulators read after
            // the drain barrier; no ordering is carried through them.
            rows: self.rows[q.index()].load(Ordering::Relaxed),
            checksum: self.checksums[q.index()].load(Ordering::Relaxed),
            status: self.status(q),
        }
    }

    /// Snapshot of the first `n` queries' results.
    pub fn results(&self, n: usize) -> Vec<QueryResult> {
        (0..n).map(|i| self.result(QueryId(i as u32))).collect()
    }

    /// Takes the collected rows of `q` (empty when not collecting).
    #[expect(
        clippy::indexing_slicing,
        reason = "q was admitted by this session, so q < capacity, the length of every sink"
    )]
    pub fn take_collected(&self, q: QueryId) -> Vec<Vec<i64>> {
        match &self.collected {
            Some(c) => std::mem::take(&mut *c[q.index()].lock()),
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_hash_is_order_sensitive_but_accumulation_is_not() {
        assert_ne!(row_hash(&[1, 2]), row_hash(&[2, 1]));
        let a = row_hash(&[1, 2]).wrapping_add(row_hash(&[3, 4]));
        let b = row_hash(&[3, 4]).wrapping_add(row_hash(&[1, 2]));
        assert_eq!(a, b);
        assert_ne!(row_hash(&[]), 0);
    }

    #[test]
    fn push_accumulates() {
        let o = Outputs::new(2, false);
        o.push(QueryId(0), &[1]);
        o.push(QueryId(0), &[2]);
        o.push(QueryId(1), &[1]);
        let r0 = o.result(QueryId(0));
        assert_eq!(r0.rows, 2);
        assert_eq!(r0.checksum, row_hash(&[1]).wrapping_add(row_hash(&[2])));
        assert_eq!(o.result(QueryId(1)).rows, 1);
    }

    #[test]
    fn batch_path_equals_per_row_path() {
        let a = Outputs::new(1, false);
        let b = Outputs::new(1, false);
        for v in 0..10i64 {
            a.push(QueryId(0), &[v]);
        }
        let mut sum = 0u64;
        for v in 0..10i64 {
            sum = sum.wrapping_add(row_hash(&[v]));
        }
        b.push_batch(QueryId(0), 10, sum);
        assert_eq!(a.result(QueryId(0)), b.result(QueryId(0)));
    }

    #[test]
    fn quarantine_marks_status_and_keeps_first_error() {
        let o = Outputs::new(2, false);
        assert!(o.result(QueryId(0)).is_complete());
        o.quarantine(QueryId(0), Error::Internal("first".into()));
        o.quarantine(QueryId(0), Error::Internal("second".into()));
        let r = o.result(QueryId(0));
        assert_eq!(r.status, CompletionStatus::Quarantined);
        assert!(!r.is_complete());
        assert_eq!(o.error(QueryId(0)), Some(Error::Internal("first".into())));
        assert!(o.result(QueryId(1)).is_complete());
        assert!(o.error(QueryId(1)).is_none());
    }

    #[test]
    fn flat_extension_matches_nested_rows() {
        let a = Outputs::new(1, true);
        let b = Outputs::new(1, true);
        a.extend_collected(QueryId(0), &[vec![1, 2], vec![3], vec![]]);
        b.extend_collected_flat(QueryId(0), &[1, 2, 3], &[2, 3, 3]);
        assert_eq!(a.take_collected(QueryId(0)), b.take_collected(QueryId(0)));
        // No-op when not collecting.
        let no = Outputs::new(1, false);
        no.extend_collected_flat(QueryId(0), &[1], &[1]);
        assert!(no.take_collected(QueryId(0)).is_empty());
    }

    #[test]
    fn collection_is_optional() {
        let o = Outputs::new(1, true);
        assert!(o.collecting());
        o.push(QueryId(0), &[7, 8]);
        o.extend_collected(QueryId(0), &[vec![9, 10]]);
        let rows = o.take_collected(QueryId(0));
        assert_eq!(rows, vec![vec![7, 8], vec![9, 10]]);
        assert!(o.take_collected(QueryId(0)).is_empty());

        let no = Outputs::new(1, false);
        no.push(QueryId(0), &[1]);
        assert!(no.take_collected(QueryId(0)).is_empty());
    }
}
