//! Intermediate data vectors.
//!
//! The prototype uses columnar data with late materialization (§3): a
//! vector carries one virtual-ID (vID) column per base relation present in
//! its lineage, plus the tuples' query-sets. Operators gather attribute
//! mini-columns from base storage on demand. Adaptive projections (§5.2)
//! drop vID columns that no downstream operator needs.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use roulette_core::{QuerySet, QuerySetColumn, RelId, RowMask};

use crate::kernels;

/// A batch of Data-Query-model tuples in vID form.
#[derive(Debug, Clone)]
pub struct DataVector {
    /// One `(relation, vID column)` pair per lineage relation still
    /// carried. Order is insertion order (probe order).
    cols: Vec<(RelId, Vec<u32>)>,
    /// Per-tuple query-sets, aligned with the vID columns.
    pub qsets: QuerySetColumn,
}

impl DataVector {
    /// An empty vector whose query-sets are `words_per_set` words wide.
    pub fn new(words_per_set: usize) -> Self {
        DataVector { cols: Vec::new(), qsets: QuerySetColumn::new(words_per_set) }
    }

    /// Builds a base-scan vector: rows `start..end` of `rel`, all annotated
    /// with `queries`.
    pub fn from_scan(rel: RelId, start: usize, end: usize, queries: &QuerySet) -> Self {
        let n = end - start;
        let mut qsets = QuerySetColumn::with_capacity(queries.width(), n);
        let mut vids = Vec::with_capacity(n);
        for row in start..end {
            vids.push(row as u32);
            qsets.push(queries.words());
        }
        DataVector { cols: vec![(rel, vids)], qsets }
    }

    /// Number of tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.qsets.len()
    }

    /// Whether the vector is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.qsets.is_empty()
    }

    /// The carried `(relation, vID column)` pairs.
    #[inline]
    pub fn columns(&self) -> &[(RelId, Vec<u32>)] {
        &self.cols
    }

    /// The vID columns and the query-set column, both mutable at once: a
    /// probe appends each tile's gathered vIDs and ANDed query-sets through
    /// this, and a fused leaf clears both again once the tile is routed.
    /// The caller keeps every column as long as the query-set column.
    #[inline]
    pub fn parts_mut(&mut self) -> (&mut [(RelId, Vec<u32>)], &mut QuerySetColumn) {
        (&mut self.cols, &mut self.qsets)
    }

    /// Drops the first `n` rows, moving the rest to the front of every
    /// column (an inner probe's output after handing those rows on).
    pub fn drain_front(&mut self, n: usize) {
        let (len, w) = (self.len(), self.qsets.words_per_set());
        let n = n.min(len);
        for (_, vids) in &mut self.cols {
            vids.drain(..n.min(vids.len()));
        }
        self.qsets.raw_mut().copy_within(n * w.., 0);
        self.qsets.truncate(len - n);
    }

    /// The vID column of `rel`, if still carried.
    pub fn vids_of(&self, rel: RelId) -> Option<&[u32]> {
        self.cols.iter().find(|(r, _)| *r == rel).map(|(_, v)| v.as_slice())
    }

    /// Appends a vID column (used when constructing probe outputs).
    pub fn push_column(&mut self, rel: RelId, vids: Vec<u32>) {
        debug_assert!(self.vids_of(rel).is_none(), "duplicate column for {rel}");
        debug_assert!(vids.len() == self.len() || self.cols.is_empty());
        self.cols.push((rel, vids));
    }

    /// Keeps only tuples whose bit is set in `keep`, compacting every vID
    /// column and the query-set column through the compaction kernels.
    // lint: hot-loop
    pub fn retain_mask(&mut self, keep: &RowMask) {
        debug_assert_eq!(keep.len(), self.len());
        for (_, vids) in &mut self.cols {
            kernels::compact_u32(vids, keep);
        }
        kernels::compact_qsets(&mut self.qsets, keep);
    }

    /// Empties the vector, handing its vID column buffers (cleared,
    /// capacity kept) back to `col_pool`. Together with
    /// [`set_words_per_set`](Self::set_words_per_set) this is the
    /// scratch-arena recycling protocol: no buffer is dropped, only parked.
    pub fn recycle(&mut self, col_pool: &mut Vec<Vec<u32>>) {
        for (_, mut vids) in self.cols.drain(..) {
            vids.clear();
            col_pool.push(vids);
        }
        self.qsets.clear();
    }

    /// Re-widths an *empty* vector's query-set column (pooled vectors are
    /// width-agnostic between uses).
    pub fn set_words_per_set(&mut self, words_per_set: usize) {
        debug_assert!(self.is_empty() && self.cols.is_empty());
        self.qsets.reset(words_per_set);
    }

    /// Fills an *empty* vector with the base-scan rows `start..end` of
    /// `rel`, all annotated with `queries`, using `vids` as the (recycled)
    /// column buffer — the pooled counterpart of [`from_scan`](Self::from_scan).
    pub fn refill_scan(
        &mut self,
        rel: RelId,
        start: usize,
        end: usize,
        queries: &QuerySet,
        mut vids: Vec<u32>,
    ) {
        debug_assert!(self.is_empty() && self.cols.is_empty());
        debug_assert_eq!(self.qsets.words_per_set(), queries.width());
        vids.clear();
        vids.extend(start as u32..end as u32);
        self.qsets.push_repeat(queries.words(), end - start);
        self.cols.push((rel, vids));
    }

    /// Copies tuples `[start, end)` into `out` (an empty vector of the same
    /// query-set width), drawing column buffers from `col_pool`
    /// (pending-vector chunking).
    pub fn copy_range_into(
        &self,
        start: usize,
        end: usize,
        out: &mut DataVector,
        col_pool: &mut Vec<Vec<u32>>,
    ) {
        debug_assert!(start <= end && end <= self.len());
        debug_assert!(out.is_empty() && out.cols.is_empty());
        debug_assert_eq!(out.qsets.words_per_set(), self.qsets.words_per_set());
        for (rel, vids) in &self.cols {
            let mut buf = col_pool.pop().unwrap_or_default();
            buf.clear();
            buf.extend_from_slice(vids.get(start..end).unwrap_or(&[]));
            out.cols.push((*rel, buf));
        }
        let wps = self.qsets.words_per_set();
        out.qsets.push_rows(self.qsets.raw().get(start * wps..end * wps).unwrap_or(&[]));
    }

    /// Total vID cells carried (a footprint metric for the adaptive-
    /// projection ablation).
    pub fn footprint_cells(&self) -> usize {
        self.cols.iter().map(|(_, v)| v.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_scan_builds_aligned_columns() {
        let qs = QuerySet::full(3);
        let v = DataVector::from_scan(RelId(2), 10, 14, &qs);
        assert_eq!(v.len(), 4);
        assert_eq!(v.vids_of(RelId(2)).unwrap(), &[10, 11, 12, 13]);
        assert!(v.vids_of(RelId(0)).is_none());
        for i in 0..4 {
            assert_eq!(v.qsets.get(i).len(), 3);
        }
    }

    #[test]
    fn copy_range_copies_rows_and_columns() {
        let qs = QuerySet::full(2);
        let mut v = DataVector::from_scan(RelId(0), 0, 6, &qs);
        v.push_column(RelId(1), vec![10, 11, 12, 13, 14, 15]);
        assert_eq!(v.footprint_cells(), 12);
        let mut pool = vec![vec![99; 4]];
        let mut s = DataVector::new(qs.width());
        v.copy_range_into(2, 5, &mut s, &mut pool);
        assert_eq!(s.len(), 3);
        assert_eq!(s.vids_of(RelId(0)).unwrap(), &[2, 3, 4]);
        assert_eq!(s.vids_of(RelId(1)).unwrap(), &[12, 13, 14]);
        assert_eq!(s.qsets.row(0), v.qsets.row(2));
        let mut empty = DataVector::new(qs.width());
        v.copy_range_into(3, 3, &mut empty, &mut pool);
        assert!(empty.is_empty());
    }

    #[test]
    fn parts_mut_appends_and_clears_rows_in_place() {
        let qs = QuerySet::full(1);
        let mut v = DataVector::new(qs.width());
        v.push_column(RelId(3), Vec::new());
        let (cols, qsets) = v.parts_mut();
        cols[0].1.extend_from_slice(&[7, 8]);
        qsets.push_repeat(qs.words(), 2);
        assert_eq!(v.len(), 2);
        assert_eq!(v.vids_of(RelId(3)).unwrap(), &[7, 8]);
        let (cols, qsets) = v.parts_mut();
        cols[0].1.clear();
        qsets.clear();
        assert!(v.is_empty());
        assert_eq!(v.columns().len(), 1);
    }

    #[test]
    fn drain_front_keeps_the_rest_in_order() {
        let qs = QuerySet::full(70);
        let mut v = DataVector::from_scan(RelId(0), 0, 5, &qs);
        v.push_column(RelId(1), vec![10, 11, 12, 13, 14]);
        v.qsets.row_mut(3)[1] = 0;
        v.drain_front(3);
        assert_eq!(v.len(), 2);
        assert_eq!(v.vids_of(RelId(0)).unwrap(), &[3, 4]);
        assert_eq!(v.vids_of(RelId(1)).unwrap(), &[13, 14]);
        assert_eq!(v.qsets.row(0), &[u64::MAX, 0]);
        v.drain_front(2);
        assert!(v.is_empty());
        assert_eq!(v.columns().len(), 2);
    }

    #[test]
    fn empty_scan_vector() {
        let qs = QuerySet::full(1);
        let v = DataVector::from_scan(RelId(0), 5, 5, &qs);
        assert!(v.is_empty());
    }
}
