//! The episode scratch arena — pooled working state for the hot path.
//!
//! Every per-episode buffer the executor needs (selection value/keep
//! buffers, predicate masks, probe key/match staging, the router's
//! buffers, whole intermediate [`DataVector`]s — whose pooled column
//! buffers a probe gathers its output columns into — and the staged
//! output sink) lives here and is recycled with
//! `clear()`-not-`drop()` semantics: after the first few episodes warm the
//! pools, steady-state episodes run allocation-free. One arena is owned
//! per worker (and one by the session for `step()`-driven execution);
//! nothing in it is shared, so there is no synchronization.
//!
//! Batch versioning is what makes this safe: an episode's buffers are dead
//! the moment its insert/probe critical sections end (no STeM retains a
//! reference into them — entries are copied in under the write latch), so
//! recycling a buffer can never alias state a concurrent episode still
//! reads. See DESIGN.md §10.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::router::{EpisodeSink, RouteScratch};
use crate::stem::ProbeScratch;
use crate::vector::DataVector;
use roulette_core::{QuerySetColumn, RowMask};

/// Reusable per-episode working state (see module docs). Acquire one per
/// worker and pass it to every episode; `reset` only on the panic path.
#[derive(Debug, Default)]
pub struct EpisodeScratch {
    /// Gathered attribute values (selection, pruning, probe keys).
    pub(crate) values: Vec<i64>,
    /// Packed row-survival bitmap produced by the filter/prune/scrub
    /// kernels and consumed by `DataVector::retain_mask`.
    pub(crate) keep: RowMask,
    /// Query-set word mask (plain-filter masks, pruning `allowed` sets,
    /// per-row main-branch intersections).
    pub(crate) mask: Vec<u64>,
    /// Per-index insert key columns (outer Vec tracks the widest STeM
    /// seen; inner buffers are reused by `Column::gather`).
    pub(crate) insert_keys: Vec<Vec<i64>>,
    /// The running probe's staging (and the pruning semi-joins').
    pub(crate) stage: ProbeStaging,
    /// The router's buffers (counts, CSR partition, gathered column, row
    /// hashes; `route_vals` and `row` inside are used only when collecting
    /// rows and by the direct-router ablation).
    pub(crate) route: RouteScratch,
    /// The episode-local staged-output sink (taken for the episode's
    /// duration, restored at commit).
    pub(crate) sink: EpisodeSink,
    /// Stagings of the levels below a hand-off, idle between hand-offs.
    spare_stages: Vec<ProbeStaging>,
    /// Parked intermediate vectors (emptied, columns harvested).
    vec_pool: Vec<DataVector>,
    /// Parked vID column buffers.
    col_pool: Vec<Vec<u32>>,
    hits: u64,
    misses: u64,
}

/// One probe's staging: everything a probe step holds from its
/// AND-select until its walk ends. An inner probe that hands its output on
/// mid-walk keeps its staging (and the paused walk in it) while the
/// operators below run on another one: see
/// [`EpisodeScratch::park_stage`]. The vector and column pools, the
/// router's buffers and the sink are shared by all levels.
#[derive(Debug, Default)]
pub(crate) struct ProbeStaging {
    /// Tiled probe staging (hashes + bucket heads + the fixed-capacity
    /// match-pair tile).
    pub(crate) probe: ProbeScratch,
    /// Per-row query-set masks: the main-branch intersections of the
    /// active probe rows, or the `allowed` sets of a pruning semi-join.
    pub(crate) row_masks: QuerySetColumn,
    /// Probe-vector row index of each active probe row (then of each
    /// divergence-branch row).
    pub(crate) active_rows: Vec<u32>,
    /// Probe-vector row index of each surviving match pair of one tile.
    pub(crate) src_rows: Vec<u32>,
    /// Probe-relation vIDs of the active probe rows (gather input).
    pub(crate) active_vids: Vec<u32>,
    /// Gathered probe keys of the active probe rows.
    pub(crate) probe_keys: Vec<i64>,
    /// Column indices carried to the main branch.
    pub(crate) carry_main: Vec<usize>,
    /// Column indices carried to the divergence branch.
    pub(crate) carry_div: Vec<usize>,
}

impl EpisodeScratch {
    /// An empty arena; pools warm up over the first episodes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquires an empty [`DataVector`] with `words_per_set`-wide
    /// query-sets, recycled from the pool when possible.
    pub(crate) fn take_vector(&mut self, words_per_set: usize) -> DataVector {
        match self.vec_pool.pop() {
            Some(mut v) => {
                self.hits += 1;
                v.set_words_per_set(words_per_set);
                v
            }
            None => {
                self.misses += 1;
                DataVector::new(words_per_set)
            }
        }
    }

    /// Parks a vector: its column buffers are harvested into the column
    /// pool and the emptied shell joins the vector pool.
    pub(crate) fn release_vector(&mut self, mut v: DataVector) {
        v.recycle(&mut self.col_pool);
        self.vec_pool.push(v);
    }

    /// Acquires an empty vID column buffer.
    pub(crate) fn take_col(&mut self) -> Vec<u32> {
        match self.col_pool.pop() {
            Some(buf) => {
                self.hits += 1;
                buf
            }
            None => {
                self.misses += 1;
                Vec::new()
            }
        }
    }

    /// Mutable access to the column pool (for [`DataVector`] helpers that
    /// draw/park buffers themselves).
    pub(crate) fn col_pool_mut(&mut self) -> &mut Vec<Vec<u32>> {
        &mut self.col_pool
    }

    /// Takes the running probe's staging out of the arena and installs the
    /// next level's in its place, so the operators a hand-off runs cannot
    /// touch the paused probe's state. Give it back with
    /// [`unpark_stage`](Self::unpark_stage).
    pub(crate) fn park_stage(&mut self) -> ProbeStaging {
        let next = self.spare_stages.pop().unwrap_or_default();
        std::mem::replace(&mut self.stage, next)
    }

    /// Reinstalls a staging taken by [`park_stage`](Self::park_stage),
    /// keeping the level below for the next hand-off.
    pub(crate) fn unpark_stage(&mut self, parked: ProbeStaging) {
        let below = std::mem::replace(&mut self.stage, parked);
        self.spare_stages.push(below);
    }

    /// Drains the reuse counters accumulated since the last call: buffer
    /// acquisitions served from a pool (`hits`) vs. freshly allocated
    /// (`misses`). Reported per episode to the telemetry recorder.
    pub(crate) fn take_reuse_counters(&mut self) -> (u64, u64) {
        (std::mem::take(&mut self.hits), std::mem::take(&mut self.misses))
    }

    /// The largest row capacity any pooled vector or column holds (rows of
    /// a query-set column at its current width).
    #[cfg(test)]
    pub(crate) fn max_pooled_rows(&self) -> usize {
        let vecs = self.vec_pool.iter().map(|v| {
            let cols = v.columns().iter().map(|(_, c)| c.capacity()).max().unwrap_or(0);
            cols.max(v.qsets.capacity_words() / v.qsets.words_per_set())
        });
        let cols = self.col_pool.iter().map(Vec::capacity);
        vecs.chain(cols).max().unwrap_or(0)
    }

    /// Drops everything back to a pristine arena. Only used after a panic
    /// unwound through an episode, when pooled state may be mid-mutation;
    /// correctness beats reuse on that path.
    pub fn reset(&mut self) {
        *self = EpisodeScratch::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_pool_round_trips_without_reallocating() {
        let mut s = EpisodeScratch::new();
        let mut v = s.take_vector(2);
        v.refill_scan(roulette_core::RelId(0), 0, 100, &roulette_core::QuerySet::full(80), s.take_col());
        assert_eq!(v.len(), 100);
        s.release_vector(v);
        // Second acquisition reuses the shell and can change width.
        let v2 = s.take_vector(1);
        assert_eq!(v2.qsets.words_per_set(), 1);
        assert!(v2.is_empty());
        let (hits, misses) = s.take_reuse_counters();
        assert_eq!(hits, 1); // the pooled vector
        assert_eq!(misses, 2); // first vector + first column
        assert_eq!(s.take_reuse_counters(), (0, 0));
    }

    #[test]
    fn released_columns_feed_later_takes() {
        let mut s = EpisodeScratch::new();
        let mut c = s.take_col();
        c.extend_from_slice(&[1, 2, 3]);
        let mut v = s.take_vector(1);
        v.push_column(roulette_core::RelId(0), c);
        s.release_vector(v);
        let c2 = s.take_col();
        assert!(c2.is_empty());
        assert!(c2.capacity() >= 3);
    }

    #[test]
    fn reset_restores_pristine_state() {
        let mut s = EpisodeScratch::new();
        let v = s.take_vector(1);
        s.release_vector(v);
        s.values.push(7);
        s.reset();
        assert!(s.values.is_empty());
        assert_eq!(s.take_reuse_counters(), (0, 0));
        // Pool emptied: next take allocates.
        let _ = s.take_vector(1);
        assert_eq!(s.take_reuse_counters(), (0, 1));
    }
}
