//! Query-set bitsets of the Data-Query model (§2.1).
//!
//! The Data-Query model expresses a tuple as `(a₁ … aₙ, a_q)` where `a_q` is
//! the set of queries the tuple belongs to. Shared selections intersect
//! `a_q` with the set of queries whose predicates are satisfied; shared
//! joins intersect the query-sets of matching tuples; tuples with empty
//! query-sets are dropped.
//!
//! Two representations are provided:
//!
//! * [`QuerySet`] — an owned, growable bitset for control-plane use
//!   (scheduling, plan construction, policy keys);
//! * [`QuerySetColumn`] — a columnar block of fixed-width bitsets, one row
//!   per tuple, used on the data plane so that query-set intersection over a
//!   whole vector is a tight loop over `u64` words.

use crate::ids::QueryId;
use std::fmt;

/// Number of `u64` words needed for a bitset over `n` queries.
#[inline]
pub const fn words_for(n_queries: usize) -> usize {
    n_queries.div_ceil(64)
}

/// Intersects `a` and `b` into `dst`, returning `true` iff the result is
/// non-empty. All slices must have the same length.
#[inline]
pub fn and_into(dst: &mut [u64], a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(dst.len(), a.len());
    debug_assert_eq!(dst.len(), b.len());
    let mut any = 0u64;
    for (d, (&x, &y)) in dst.iter_mut().zip(a.iter().zip(b)) {
        *d = x & y;
        any |= *d;
    }
    any != 0
}

/// Makes room for `additional` more elements, growing the capacity to a
/// power of two when it must grow. Bulk appends (`extend`, `resize`) would
/// otherwise size a buffer to whatever the first batch needed and double
/// from there, leaving freed blocks of odd sizes that no later growth
/// fits; power-of-two steps are what a row-at-a-time `push` produces, so
/// a block one buffer outgrows is exactly what another buffer asks for
/// next (measured: `peak_rss_mb` −8% on the join-heavy benchmark).
#[inline]
pub fn reserve_pow2<T>(v: &mut Vec<T>, additional: usize) {
    let need = v.len() + additional;
    if need > v.capacity() {
        v.reserve_exact(need.next_power_of_two() - v.len());
    }
}

/// In-place intersection `dst &= mask`, returning `true` iff the result is
/// non-empty.
#[inline]
pub fn and_assign(dst: &mut [u64], mask: &[u64]) -> bool {
    debug_assert_eq!(dst.len(), mask.len());
    let mut any = 0u64;
    for i in 0..dst.len() {
        dst[i] &= mask[i];
        any |= dst[i];
    }
    any != 0
}

/// Whether two bitset word slices share any set bit.
#[inline]
pub fn intersects(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut any = 0u64;
    for i in 0..a.len() {
        any |= a[i] & b[i];
    }
    any != 0
}

/// Population count over a word slice.
#[inline]
pub fn count_ones(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// A packed per-row survivor bitmap: bit `i` set ⇔ row `i` survives.
///
/// This is the selection vector of the kernel layer (DESIGN.md §14).
/// Filter, prune, and scrub kernels emit one *bit* per row instead of one
/// `bool` byte, so survivor tests, population counts, and compaction all
/// run word-at-a-time. Invariant: bits at positions `>= len` are always
/// zero — kernels rely on this to process whole tail words unmasked.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RowMask {
    words: Vec<u64>,
    len: usize,
}

impl RowMask {
    /// Creates an empty mask over zero rows.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets the mask to cover `len` rows, all cleared.
    pub fn clear_resize(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
        self.len = len;
    }

    /// Resets the mask to cover `len` rows, all set (tail bits beyond
    /// `len` stay zero, preserving the invariant).
    pub fn fill_ones(&mut self, len: usize) {
        self.clear_resize(len);
        let full = len / 64;
        for w in self.words.iter_mut().take(full) {
            *w = u64::MAX;
        }
        let tail = len % 64;
        if tail > 0 {
            if let Some(w) = self.words.last_mut() {
                *w = (1u64 << tail) - 1;
            }
        }
    }

    /// Number of rows covered (not the number of survivors).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mask covers zero rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Marks row `i` as surviving.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        if let Some(w) = self.words.get_mut(i / 64) {
            *w |= 1u64 << (i % 64);
        }
    }

    /// Whether row `i` survives.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.words.get(i / 64).is_some_and(|w| (w >> (i % 64)) & 1 == 1)
    }

    /// Number of surviving rows.
    #[inline]
    pub fn count(&self) -> usize {
        count_ones(&self.words)
    }

    /// The packed words (row `i` lives at word `i / 64`, bit `i % 64`).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable packed words, for kernels that assemble 64 survivor bits at
    /// a time. Callers must keep tail bits beyond [`len`](Self::len) zero.
    #[inline]
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Calls `f(i)` for every surviving row index, in ascending order.
    #[inline]
    pub fn for_each_set(&self, mut f: impl FnMut(usize)) {
        for (wi, &w) in self.words.iter().enumerate() {
            let mut bits = w;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                f(wi * 64 + b);
            }
        }
    }
}

/// An owned query-set bitset.
///
/// The width (number of words) is fixed at construction from the batch's
/// query-count capacity; all sets flowing through one scheduled batch share
/// the same width so word-wise operations never reallocate.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct QuerySet {
    words: Vec<u64>,
}

impl QuerySet {
    /// Creates an empty set with capacity for `n_queries` queries.
    pub fn empty(n_queries: usize) -> Self {
        QuerySet { words: vec![0; words_for(n_queries.max(1))] }
    }

    /// Creates the full set `{Q0, …, Q(n_queries-1)}`.
    pub fn full(n_queries: usize) -> Self {
        let mut s = Self::empty(n_queries);
        for q in 0..n_queries {
            s.insert(QueryId(q as u32));
        }
        s
    }

    /// Creates a singleton set sized for `n_queries`.
    pub fn singleton(q: QueryId, n_queries: usize) -> Self {
        let mut s = Self::empty(n_queries.max(q.index() + 1));
        s.insert(q);
        s
    }

    /// Builds a set from raw words (e.g. a [`QuerySetColumn`] row).
    pub fn from_words(words: &[u64]) -> Self {
        QuerySet { words: words.to_vec() }
    }

    /// Overwrites this set with `other`'s contents, reusing the existing
    /// word allocation when wide enough — the allocation-free alternative
    /// to `*self = other.clone()` on hot paths that recycle sets.
    #[inline]
    pub fn copy_from(&mut self, other: &QuerySet) {
        self.words.clear();
        self.words.extend_from_slice(&other.words);
    }

    /// The underlying words.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of words in the representation.
    #[inline]
    pub fn width(&self) -> usize {
        self.words.len()
    }

    /// Adds a query (panics in debug builds if out of capacity).
    #[inline]
    pub fn insert(&mut self, q: QueryId) {
        let (w, b) = (q.index() / 64, q.index() % 64);
        debug_assert!(w < self.words.len(), "query id beyond set capacity");
        self.words[w] |= 1u64 << b;
    }

    /// Removes a query.
    #[inline]
    pub fn remove(&mut self, q: QueryId) {
        let (w, b) = (q.index() / 64, q.index() % 64);
        if w < self.words.len() {
            self.words[w] &= !(1u64 << b);
        }
    }

    /// Tests membership.
    #[inline]
    pub fn contains(&self, q: QueryId) -> bool {
        let (w, b) = (q.index() / 64, q.index() % 64);
        w < self.words.len() && (self.words[w] >> b) & 1 == 1
    }

    /// Number of member queries.
    #[inline]
    pub fn len(&self) -> usize {
        count_ones(&self.words)
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// In-place intersection; returns `true` iff non-empty afterwards.
    #[inline]
    pub fn intersect_with(&mut self, other: &QuerySet) -> bool {
        and_assign(&mut self.words, &other.words)
    }

    /// In-place intersection with raw bitset words (e.g. a grouped-filter
    /// mask); returns `true` iff non-empty afterwards.
    #[inline]
    pub fn intersect_words(&mut self, mask: &[u64]) -> bool {
        and_assign(&mut self.words, mask)
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &QuerySet) {
        debug_assert_eq!(self.width(), other.width());
        for i in 0..self.words.len() {
            self.words[i] |= other.words[i];
        }
    }

    /// In-place difference `self −= other`.
    pub fn subtract(&mut self, other: &QuerySet) {
        debug_assert_eq!(self.width(), other.width());
        for i in 0..self.words.len() {
            self.words[i] &= !other.words[i];
        }
    }

    /// Returns `self ∩ other` as a new set.
    pub fn intersection(&self, other: &QuerySet) -> QuerySet {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// Returns `self − other` as a new set.
    pub fn difference(&self, other: &QuerySet) -> QuerySet {
        let mut out = self.clone();
        out.subtract(other);
        out
    }

    /// Whether the two sets overlap.
    #[inline]
    pub fn intersects(&self, other: &QuerySet) -> bool {
        intersects(&self.words, &other.words)
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset_of(&self, other: &QuerySet) -> bool {
        debug_assert_eq!(self.width(), other.width());
        self.words.iter().zip(&other.words).all(|(a, b)| a & !b == 0)
    }

    /// The lowest-numbered member, if any.
    pub fn first(&self) -> Option<QueryId> {
        for (i, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(QueryId((i * 64 + w.trailing_zeros() as usize) as u32));
            }
        }
        None
    }

    /// Iterates over members in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = QueryId> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let tz = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(QueryId((i * 64 + tz) as u32))
                }
            })
        })
    }
}

impl fmt::Debug for QuerySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for q in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{}", q)?;
            first = false;
        }
        write!(f, "}}")
    }
}

/// A columnar block of fixed-width query-set bitsets, one row per tuple.
///
/// This is the data-plane representation: intermediate vectors and STeM
/// entry blocks store their query-sets here, so per-vector filtering is a
/// contiguous sweep.
#[derive(Clone, Debug, Default)]
pub struct QuerySetColumn {
    words_per_set: usize,
    data: Vec<u64>,
}

impl QuerySetColumn {
    /// Creates an empty column whose rows are `words_per_set` words wide.
    pub fn new(words_per_set: usize) -> Self {
        QuerySetColumn { words_per_set: words_per_set.max(1), data: Vec::new() }
    }

    /// Creates an empty column with room for `rows` rows.
    pub fn with_capacity(words_per_set: usize, rows: usize) -> Self {
        QuerySetColumn {
            words_per_set: words_per_set.max(1),
            data: Vec::with_capacity(words_per_set.max(1) * rows),
        }
    }

    /// Width of each row in words.
    #[inline]
    pub fn words_per_set(&self) -> usize {
        self.words_per_set
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.words_per_set
    }

    /// Whether the column has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends a row given as raw words.
    #[inline]
    pub fn push(&mut self, words: &[u64]) {
        debug_assert_eq!(words.len(), self.words_per_set);
        self.data.extend_from_slice(words);
    }

    /// Appends a row copied from another column.
    #[inline]
    pub fn push_row_from(&mut self, other: &QuerySetColumn, row: usize) {
        debug_assert_eq!(other.words_per_set, self.words_per_set);
        self.push(other.row(row));
    }

    /// Appends `n` copies of one row in a single reservation — the bulk
    /// path for scan vectors where every tuple starts with the same set.
    pub fn push_repeat(&mut self, words: &[u64], n: usize) {
        debug_assert_eq!(words.len(), self.words_per_set);
        // Single-word rows (≤64 queries) fill at memset speed; wider rows
        // pay one bounded `extend_from_slice` per row.
        if let &[w] = words {
            self.data.resize(self.data.len() + n, w);
            return;
        }
        self.data.reserve(words.len() * n);
        for _ in 0..n {
            self.data.extend_from_slice(words);
        }
    }

    /// Appends pre-concatenated rows (`words.len()` must be a multiple of
    /// the row width) — the bulk path for copying row ranges between
    /// columns without per-row calls.
    pub fn push_rows(&mut self, words: &[u64]) {
        debug_assert!(words.len().is_multiple_of(self.words_per_set));
        self.data.extend_from_slice(words);
    }

    /// Reserves room for `rows` more rows in one step, so a following
    /// row-at-a-time fill cannot trigger repeated amortized doubling (the
    /// growth model in `Stem::projected_insert_bytes` assumes one reserve
    /// per insert).
    #[inline]
    pub fn reserve_rows(&mut self, rows: usize) {
        self.data.reserve(rows * self.words_per_set);
    }

    /// Appends `rows` all-zero rows and returns their words, for kernels
    /// that write a batch of results in place and then
    /// [`truncate`](Self::truncate) to the rows they kept.
    #[inline]
    pub fn append_zeroed(&mut self, rows: usize) -> &mut [u64] {
        let start = self.data.len();
        reserve_pow2(&mut self.data, rows * self.words_per_set);
        self.data.resize(start + rows * self.words_per_set, 0);
        self.data.get_mut(start..).unwrap_or_default()
    }

    /// Appends the intersection `a ∩ b`; returns `true` (and keeps the row)
    /// iff the intersection is non-empty, otherwise leaves the column
    /// unchanged and returns `false`.
    #[inline]
    pub fn push_and(&mut self, a: &[u64], b: &[u64]) -> bool {
        debug_assert_eq!(a.len(), self.words_per_set);
        debug_assert_eq!(b.len(), self.words_per_set);
        let start = self.data.len();
        let mut any = 0u64;
        for (&x, &y) in a.iter().zip(b) {
            let w = x & y;
            self.data.push(w);
            any |= w;
        }
        if any == 0 {
            self.data.truncate(start);
            false
        } else {
            true
        }
    }

    /// Borrow of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        let s = i * self.words_per_set;
        &self.data[s..s + self.words_per_set]
    }

    /// Mutable borrow of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [u64] {
        let s = i * self.words_per_set;
        &mut self.data[s..s + self.words_per_set]
    }

    /// `row(i) &= mask`; returns `true` iff the row stays non-empty.
    #[inline]
    pub fn and_row(&mut self, i: usize, mask: &[u64]) -> bool {
        and_assign(self.row_mut(i), mask)
    }

    /// Materializes row `i` as an owned [`QuerySet`].
    pub fn get(&self, i: usize) -> QuerySet {
        QuerySet::from_words(self.row(i))
    }

    /// Removes all rows (keeps the allocation).
    #[inline]
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Clears the column and re-widths it to `words_per_set`, keeping the
    /// word allocation — the pooled-buffer reset used by episode scratch
    /// arenas to recycle one column across sessions of different widths.
    #[inline]
    pub fn reset(&mut self, words_per_set: usize) {
        self.data.clear();
        self.words_per_set = words_per_set.max(1);
    }

    /// Reserved capacity in words (≥ `len() * words_per_set()`). Memory
    /// accounting must charge capacity, not length: a `Vec`'s doubling
    /// reserve is resident whether or not rows fill it yet.
    #[inline]
    pub fn capacity_words(&self) -> usize {
        self.data.capacity()
    }

    /// Truncates to the first `rows` rows.
    pub fn truncate(&mut self, rows: usize) {
        self.data.truncate(rows * self.words_per_set);
    }

    /// Raw word storage (rows concatenated).
    #[inline]
    pub fn raw(&self) -> &[u64] {
        &self.data
    }

    /// Total member count over all rows (Σ |row|), the "query-set work"
    /// metric used by the Data-Query-model bottleneck analysis in §6.1.
    pub fn total_members(&self) -> usize {
        count_ones(&self.data)
    }

    /// Mutable raw word storage (rows concatenated), for the kernel layer's
    /// wide paths. Row boundaries every [`words_per_set`](Self::words_per_set)
    /// words; callers must not change the total length.
    #[inline]
    pub fn raw_mut(&mut self) -> &mut [u64] {
        &mut self.data
    }

    /// Bulk `row_i &= mask_i` over every row, with the per-row masks
    /// concatenated in `masks` (`len() * words_per_set()` words). Survivors
    /// (rows left non-empty) are recorded in `keep`. Scalar reference for
    /// the kernel layer's `qset_and`.
    pub fn and_rows(&mut self, masks: &[u64], keep: &mut RowMask) {
        let wps = self.words_per_set;
        debug_assert_eq!(masks.len(), self.data.len());
        keep.clear_resize(self.data.len() / wps);
        for (i, (row, mask)) in
            self.data.chunks_exact_mut(wps).zip(masks.chunks_exact(wps)).enumerate()
        {
            let mut any = 0u64;
            for (d, &m) in row.iter_mut().zip(mask) {
                *d &= m;
                any |= *d;
            }
            if any != 0 {
                keep.set(i);
            }
        }
    }

    /// Bulk `row &= mask` with one shared mask over every row; survivors
    /// are recorded in `keep`.
    pub fn and_rows_broadcast(&mut self, mask: &[u64], keep: &mut RowMask) {
        let wps = self.words_per_set;
        debug_assert_eq!(mask.len(), wps);
        keep.clear_resize(self.data.len() / wps);
        for (i, row) in self.data.chunks_exact_mut(wps).enumerate() {
            let mut any = 0u64;
            for (d, &m) in row.iter_mut().zip(mask) {
                *d &= m;
                any |= *d;
            }
            if any != 0 {
                keep.set(i);
            }
        }
    }

    /// Bulk `row_i |= mask_i` with per-row masks concatenated in `masks`.
    /// Union never empties a row, so no survivor mask is produced.
    pub fn or_rows(&mut self, masks: &[u64]) {
        let wps = self.words_per_set;
        debug_assert_eq!(masks.len(), self.data.len());
        for (row, mask) in self.data.chunks_exact_mut(wps).zip(masks.chunks_exact(wps)) {
            for (d, &m) in row.iter_mut().zip(mask) {
                *d |= m;
            }
        }
    }

    /// Bulk `row &= !mask` with one shared mask (query scrub); survivors
    /// are recorded in `keep`.
    pub fn subtract_rows_broadcast(&mut self, mask: &[u64], keep: &mut RowMask) {
        let wps = self.words_per_set;
        debug_assert_eq!(mask.len(), wps);
        keep.clear_resize(self.data.len() / wps);
        for (i, row) in self.data.chunks_exact_mut(wps).enumerate() {
            let mut any = 0u64;
            for (d, &m) in row.iter_mut().zip(mask) {
                *d &= !m;
                any |= *d;
            }
            if any != 0 {
                keep.set(i);
            }
        }
    }

    /// Applies a packed survivor mask, compacting rows in place. Scalar
    /// reference for the kernel layer's `compact_qsets`.
    pub fn retain_mask(&mut self, keep: &RowMask) {
        debug_assert_eq!(keep.len(), self.len());
        let wps = self.words_per_set;
        let mut out = 0usize;
        let data = &mut self.data;
        keep.for_each_set(|i| {
            if out != i {
                data.copy_within(i * wps..(i + 1) * wps, out * wps);
            }
            out += 1;
        });
        data.truncate(out * wps);
    }

    /// Applies `keep[i]` selection, compacting rows in place.
    pub fn retain_rows(&mut self, keep: &[bool]) {
        debug_assert_eq!(keep.len(), self.len());
        let wps = self.words_per_set;
        let mut out = 0;
        for (i, &k) in keep.iter().enumerate() {
            if k {
                if out != i {
                    let (dst_start, src_start) = (out * wps, i * wps);
                    self.data.copy_within(src_start..src_start + wps, dst_start);
                }
                out += 1;
            }
        }
        self.data.truncate(out * wps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qs(ids: &[u32], n: usize) -> QuerySet {
        let mut s = QuerySet::empty(n);
        for &i in ids {
            s.insert(QueryId(i));
        }
        s
    }

    #[test]
    fn words_for_boundaries() {
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
        assert_eq!(words_for(4096), 64);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = QuerySet::empty(130);
        s.insert(QueryId(0));
        s.insert(QueryId(64));
        s.insert(QueryId(129));
        assert!(s.contains(QueryId(0)));
        assert!(s.contains(QueryId(64)));
        assert!(s.contains(QueryId(129)));
        assert!(!s.contains(QueryId(1)));
        assert_eq!(s.len(), 3);
        s.remove(QueryId(64));
        assert!(!s.contains(QueryId(64)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn full_set_has_exact_members() {
        let s = QuerySet::full(70);
        assert_eq!(s.len(), 70);
        assert!(s.contains(QueryId(69)));
        assert!(!s.contains(QueryId(70)));
    }

    #[test]
    fn set_algebra_matches_semantics() {
        let a = qs(&[1, 2, 3, 70], 128);
        let b = qs(&[2, 70, 100], 128);
        assert_eq!(a.intersection(&b), qs(&[2, 70], 128));
        assert_eq!(a.difference(&b), qs(&[1, 3], 128));
        assert!(a.intersects(&b));
        assert!(!qs(&[5], 128).intersects(&b));
        assert!(qs(&[2], 128).is_subset_of(&a));
        assert!(!b.is_subset_of(&a));
    }

    #[test]
    fn iter_and_first() {
        let s = qs(&[100, 3, 64], 128);
        let v: Vec<u32> = s.iter().map(|q| q.0).collect();
        assert_eq!(v, vec![3, 64, 100]);
        assert_eq!(s.first(), Some(QueryId(3)));
        assert_eq!(QuerySet::empty(128).first(), None);
    }

    #[test]
    fn column_push_and_row_access() {
        let mut c = QuerySetColumn::new(2);
        c.push(&[0b101, 0]);
        c.push(&[0, 0b11]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.row(0), &[0b101, 0]);
        assert_eq!(c.row(1), &[0, 0b11]);
        assert_eq!(c.total_members(), 4);
    }

    #[test]
    fn column_push_and_drops_empty_intersections() {
        let mut c = QuerySetColumn::new(1);
        assert!(c.push_and(&[0b110], &[0b010]));
        assert!(!c.push_and(&[0b100], &[0b010]));
        assert_eq!(c.len(), 1);
        assert_eq!(c.row(0), &[0b010]);
    }

    #[test]
    fn column_and_row_filters_in_place() {
        let mut c = QuerySetColumn::new(1);
        c.push(&[0b111]);
        c.push(&[0b100]);
        assert!(c.and_row(0, &[0b011]));
        assert!(!c.and_row(1, &[0b011]));
        assert_eq!(c.row(0), &[0b011]);
        assert_eq!(c.row(1), &[0]);
    }

    #[test]
    fn column_retain_rows_compacts() {
        let mut c = QuerySetColumn::new(1);
        for i in 0..5u64 {
            c.push(&[1 << i]);
        }
        c.retain_rows(&[true, false, true, false, true]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.row(0), &[1]);
        assert_eq!(c.row(1), &[4]);
        assert_eq!(c.row(2), &[16]);
    }

    #[test]
    fn row_mask_basics() {
        let mut m = RowMask::new();
        m.clear_resize(70);
        assert_eq!(m.len(), 70);
        assert_eq!(m.count(), 0);
        m.set(0);
        m.set(63);
        m.set(64);
        m.set(69);
        assert_eq!(m.count(), 4);
        assert!(m.get(63) && m.get(64));
        assert!(!m.get(1));
        let mut seen = Vec::new();
        m.for_each_set(|i| seen.push(i));
        assert_eq!(seen, vec![0, 63, 64, 69]);
    }

    #[test]
    fn row_mask_fill_ones_keeps_tail_zero() {
        let mut m = RowMask::new();
        for len in [0usize, 1, 63, 64, 65, 128, 130] {
            m.fill_ones(len);
            assert_eq!(m.count(), len, "len={len}");
            // Tail bits beyond len must stay zero.
            let total_bits: usize = m.words().iter().map(|w| w.count_ones() as usize).sum();
            assert_eq!(total_bits, len);
        }
    }

    #[test]
    fn and_rows_matches_per_row_and() {
        let mut a = QuerySetColumn::new(2);
        let mut b = QuerySetColumn::new(2);
        let rows: &[[u64; 2]] = &[[0b111, 0], [0b100, 0b1], [0, 0], [0b1, 0b1]];
        let masks: &[[u64; 2]] = &[[0b011, 0], [0b011, 0], [u64::MAX, u64::MAX], [0, 0b1]];
        for r in rows {
            a.push(r);
            b.push(r);
        }
        let flat: Vec<u64> = masks.iter().flatten().copied().collect();
        let mut keep = RowMask::new();
        a.and_rows(&flat, &mut keep);
        let mut expect = Vec::new();
        for (i, m) in masks.iter().enumerate() {
            expect.push(b.and_row(i, m));
        }
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(keep.get(i), e, "row {i}");
            assert_eq!(a.row(i), b.row(i), "row {i}");
        }
    }

    #[test]
    fn broadcast_and_subtract_record_survivors() {
        let mut c = QuerySetColumn::new(1);
        c.push(&[0b101]);
        c.push(&[0b010]);
        c.push(&[0b100]);
        let mut keep = RowMask::new();
        c.and_rows_broadcast(&[0b110], &mut keep);
        assert_eq!(c.raw(), &[0b100, 0b010, 0b100]);
        assert_eq!(keep.count(), 3);
        c.subtract_rows_broadcast(&[0b100], &mut keep);
        assert_eq!(c.raw(), &[0, 0b010, 0]);
        assert!(!keep.get(0) && keep.get(1) && !keep.get(2));
    }

    #[test]
    fn or_rows_unions_per_row() {
        let mut c = QuerySetColumn::new(1);
        c.push(&[0b001]);
        c.push(&[0b100]);
        c.or_rows(&[0b010, 0b001]);
        assert_eq!(c.raw(), &[0b011, 0b101]);
    }

    #[test]
    fn retain_mask_matches_retain_rows() {
        for n in [0usize, 1, 5, 64, 65, 130] {
            let mut a = QuerySetColumn::new(2);
            let mut b = QuerySetColumn::new(2);
            let mut bools = Vec::new();
            let mut mask = RowMask::new();
            mask.clear_resize(n);
            for i in 0..n {
                let row = [(i as u64).wrapping_mul(0x9e37) | 1, i as u64 % 3];
                a.push(&row);
                b.push(&row);
                let k = i % 3 != 1;
                bools.push(k);
                if k {
                    mask.set(i);
                }
            }
            a.retain_mask(&mask);
            b.retain_rows(&bools);
            assert_eq!(a.raw(), b.raw(), "n={n}");
        }
    }

    #[test]
    fn helper_fns_agree_with_owned_ops() {
        let a = [0b1100u64, 0b1];
        let b = [0b0100u64, 0b0];
        let mut dst = [0u64; 2];
        assert!(and_into(&mut dst, &a, &b));
        assert_eq!(dst, [0b0100, 0]);
        assert!(intersects(&a, &b));
        assert_eq!(count_ones(&a), 3);
        let mut d = a;
        assert!(and_assign(&mut d, &b));
        assert_eq!(d, [0b0100, 0]);
        let mut z = [0b1000u64, 0];
        assert!(!and_assign(&mut z, &b));
    }
}
