//! Column-at-a-time kernels for the router (DESIGN.md §14).
//!
//! The router needs two things from a routed vector: how many of its rows
//! each query owns, and — for a query that projects columns — the sum of
//! [`row_hash`](crate::output::row_hash) over those rows. Both are computed
//! per *projection class* (the queries projecting one column list) without
//! assembling a row:
//!
//! * [`count_queries`] is the whole routing step of a class that projects
//!   nothing (`count(*)`): counting passes over the query-set words, no
//!   row lists.
//! * [`select_class`] finds the rows any member of a projecting class owns
//!   and the members that own every one of them, listing the rows only
//!   when they are not the whole tile.
//! * [`hash_column`] runs one link of the `row_hash` chain down a gathered
//!   column, one running hash per row ([`hash_gathered`] and [`hash_vids`]
//!   fuse it with the gathers). The rows' chains are independent, so
//!   consecutive multiplies overlap in the pipeline instead of waiting on
//!   each other as they do when one row is hashed value by value;
//!   [`hash_sum`] closes the chains and adds them up, and [`masked_sum`]
//!   adds up those of one member that owns only some of the rows.
//!
//! Like the `pairs` kernels these have one implementation each; their
//! reference is the per-row `row_hash` (`tests/kernel_equiv.rs`).

use crate::output::{row_hash_step, ROW_HASH_SEED};
use roulette_core::queryset::reserve_pow2;
use roulette_core::{QuerySet, QuerySetColumn};

/// Counts, for every query of `queries`, the rows of `qsets` whose
/// query-set holds it: `counts` is reset to one slot per representable
/// query id (`words_per_set × 64`) and, for `q` in `queries`, `counts[q]`
/// is the number of rows with bit `q` set. Slots of other queries are
/// unspecified. Few routed queries
/// (`kernels::SWEEP_MAX_PER_WORD` per query-set word) are counted with
/// one branch-free sweep each, many with one pass over every set bit.
// lint: hot-loop
pub fn count_queries(qsets: &QuerySetColumn, queries: &QuerySet, counts: &mut Vec<u32>) {
    let w = qsets.words_per_set();
    counts.clear();
    reserve_pow2(counts, w * 64);
    counts.resize(w * 64, 0);
    let raw = qsets.raw();
    if queries.len() <= super::SWEEP_MAX_PER_WORD * w {
        for q in queries.iter() {
            if let Some(c) = counts.get_mut(q.index()) {
                *c = super::count_bit(raw, w, q.index());
            }
        }
        return;
    }
    for row in raw.chunks_exact(w) {
        for (lanes, &word) in counts.chunks_exact_mut(64).zip(row) {
            let mut bits = word;
            while bits != 0 {
                if let Some(c) = lanes.get_mut(bits.trailing_zeros() as usize) {
                    *c += 1;
                }
                bits &= bits - 1;
            }
        }
    }
}

/// Selects the rows of `qsets` whose query-set holds any query of
/// `members` (query-set words) and returns how many there are; `owners`
/// becomes the members holding every selected row (unspecified when none
/// is selected). When every row is selected — the class owns the whole tile —
/// `rows` is left empty: the selection needs no list. Otherwise `rows`
/// lists the selected rows, ascending.
///
/// A first pass only counts and ANDs, with no stores; a tile whose rows
/// some member does not reach takes a second, branch-free pass that
/// writes the list.
// lint: hot-loop
pub fn select_class(
    qsets: &QuerySetColumn,
    members: &[u64],
    rows: &mut Vec<u32>,
    owners: &mut Vec<u64>,
) -> usize {
    let w = qsets.words_per_set();
    let hit = |row: &[u64]| row.iter().zip(members).fold(0, |acc, (&r, &m)| acc | r & m) != 0;
    owners.clear();
    owners.extend_from_slice(members);
    rows.clear();
    let mut n = 0;
    if let ([m], [own]) = (members, owners.as_mut_slice()) {
        // One word per row (at most 64 queries): no per-row word loops.
        for &r in qsets.raw() {
            n += usize::from(r & m != 0);
            *own &= r;
        }
    } else {
        for row in qsets.raw().chunks_exact(w) {
            n += usize::from(hit(row));
            for (o, &r) in owners.iter_mut().zip(row) {
                *o &= r;
            }
        }
    }
    if n == 0 || n == qsets.len() {
        return n;
    }
    owners.clear();
    owners.extend_from_slice(members);
    reserve_pow2(rows, n);
    rows.resize(n, 0);
    let mut k = 0;
    for (i, row) in qsets.raw().chunks_exact(w).enumerate() {
        let hit = hit(row);
        // The write is unconditional; the cursor advances only on a hit.
        if let Some(slot) = rows.get_mut(k) {
            *slot = i as u32;
        }
        k += usize::from(hit);
        let skip = u64::from(hit).wrapping_sub(1); // all ones on a miss
        for (o, &r) in owners.iter_mut().zip(row) {
            *o &= r | skip;
        }
    }
    n
}

/// Starts one `row_hash` chain per row: `hashes` becomes `n` copies of the
/// chain seed.
#[inline]
pub fn hash_seed(hashes: &mut Vec<u64>, n: usize) {
    hashes.clear();
    reserve_pow2(hashes, n);
    hashes.resize(n, ROW_HASH_SEED);
}

/// Folds one projected column into the running row hashes:
/// `hashes[k] = step(hashes[k], values[k])`. Calling it once per projected
/// column, in projection order, leaves `hashes[k]` equal to the unfinished
/// `row_hash` of row `k`.
// lint: hot-loop
#[inline]
pub fn hash_column(values: &[i64], hashes: &mut [u64]) {
    debug_assert_eq!(values.len(), hashes.len());
    for (h, &v) in hashes.iter_mut().zip(values) {
        *h = row_hash_step(*h, v);
    }
}

/// [`hash_column`] fused with the two gathers that feed it, for a router
/// that does not keep the values: row `k` of the query is tuple `rows[k]`
/// of the routed vector, whose vID in the projected relation is
/// `vids[rows[k]]`, whose projected value is `base[vid]`. One pass, no
/// intermediate column.
// lint: hot-loop
#[inline]
pub fn hash_gathered<T: Copy + Into<i64>>(
    base: &[T],
    vids: &[u32],
    rows: &[u32],
    hashes: &mut [u64],
) {
    debug_assert_eq!(rows.len(), hashes.len());
    for (h, &r) in hashes.iter_mut().zip(rows) {
        let vid = vids.get(r as usize).copied().unwrap_or(0);
        let v = base.get(vid as usize).copied().map_or(0, Into::into);
        *h = row_hash_step(*h, v);
    }
}

/// [`hash_gathered`] for a router that hashes every routed tuple: row `k`
/// is tuple `k`, whose vID is `vids[k]`. No row list.
// lint: hot-loop
#[inline]
pub fn hash_vids<T: Copy + Into<i64>>(base: &[T], vids: &[u32], hashes: &mut [u64]) {
    debug_assert_eq!(vids.len(), hashes.len());
    for (h, &vid) in hashes.iter_mut().zip(vids) {
        let v = base.get(vid as usize).copied().map_or(0, Into::into);
        *h = row_hash_step(*h, v);
    }
}

/// Closes every chain (`| 1`, as `row_hash` does) and returns their
/// wrapping sum — the checksum contribution of the hashed rows.
// lint: hot-loop
#[inline]
pub fn hash_sum(hashes: &[u64]) -> u64 {
    hashes.iter().fold(0u64, |acc, &h| acc.wrapping_add(h | 1))
}

/// The rows and checksum of query `q` over the hashed rows: row `k` is
/// tuple `rows[k]` of `qsets`, and it counts, with its closed chain
/// `hashes[k] | 1`, when that tuple's query-set holds `q`. Branch-free.
// lint: hot-loop
pub fn masked_sum(qsets: &QuerySetColumn, rows: &[u32], q: usize, hashes: &[u64]) -> (usize, u64) {
    debug_assert_eq!(rows.len(), hashes.len());
    let w = qsets.words_per_set();
    let (raw, wi, b) = (qsets.raw(), q / 64, q % 64);
    let (mut n, mut sum) = (0u64, 0u64);
    for (&r, &h) in rows.iter().zip(hashes) {
        let bit = raw.get(r as usize * w + wi).map_or(0, |&word| word >> b & 1);
        n += bit;
        sum = sum.wrapping_add((h | 1) & bit.wrapping_neg());
    }
    (n as usize, sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::row_hash;

    #[test]
    fn count_queries_counts_routed_queries_either_way() {
        use roulette_core::QueryId;
        let mut col = QuerySetColumn::new(2);
        col.push(&[0b101, 1 << 63]);
        col.push(&[0b100, 0]);
        col.push(&[0, (1 << 63) | 1]);
        // Few routed queries: one sweep each. All 128: the one-pass loop.
        let mut few = QuerySet::empty(128);
        for q in [0, 2, 64, 127, 5] {
            few.insert(QueryId(q));
        }
        for queries in [few, QuerySet::full(128)] {
            let mut counts = vec![9; 3]; // stale contents must not leak
            count_queries(&col, &queries, &mut counts);
            assert_eq!(counts.len(), 128);
            let got = [0usize, 2, 64, 127, 5].map(|q| counts[q]);
            assert_eq!(got, [1, 2, 1, 2, 0]);
        }
        let mut counts = Vec::new();
        count_queries(&QuerySetColumn::new(1), &QuerySet::full(3), &mut counts);
        assert_eq!(counts, vec![0; 64]);
    }

    #[test]
    fn column_hash_equals_row_hash() {
        let cols: [&[i64]; 3] = [&[1, -7, i64::MIN], &[0, 0, 5], &[1, 42, i64::MAX]];
        for n_cols in 0..=3 {
            let mut hashes = vec![1, 2];
            hash_seed(&mut hashes, 3);
            for col in &cols[..n_cols] {
                hash_column(col, &mut hashes);
            }
            let want = (0..3).fold(0u64, |acc, k| {
                let row: Vec<i64> = cols[..n_cols].iter().map(|c| c[k]).collect();
                acc.wrapping_add(row_hash(&row))
            });
            assert_eq!(hash_sum(&hashes), want, "{n_cols} columns");
        }
    }

    #[test]
    fn class_selection_and_masked_sums_follow_the_member_bits() {
        use roulette_core::QueryId;
        let mut col = QuerySetColumn::new(2);
        for row in [[0b011, 0], [0, 1 << 1], [0b001, 1 << 1], [0b100, 0], [0b001, 0]] {
            col.push(&row);
        }
        let mut members = QuerySet::empty(128);
        for q in [0, 1, 65] {
            members.insert(QueryId(q));
        }
        let (mut rows, mut owners) = (vec![7; 9], vec![1]);
        assert_eq!(select_class(&col, members.words(), &mut rows, &mut owners), 4);
        assert_eq!(rows, [0, 1, 2, 4]);
        assert_eq!(owners, [0, 0], "no member owns rows 0 and 1 both");
        assert_eq!(select_class(&col, &[0b001, 0], &mut rows, &mut owners), 3);
        assert_eq!((rows.as_slice(), owners.as_slice()), (&[0, 2, 4][..], &[0b001, 0][..]));
        assert_eq!(select_class(&col, &[0, 1 << 63], &mut rows, &mut owners), 0);
        assert!(rows.is_empty());
        // Every row selected: no list, and the owners of all five rows.
        assert_eq!(select_class(&col, &[0b111, 1 << 1], &mut rows, &mut owners), 5);
        assert_eq!((rows.len(), owners.as_slice()), (0, &[0, 0][..]));
        let mut whole = QuerySetColumn::new(1);
        whole.push(&[0b0111]);
        whole.push(&[0b1101]);
        assert_eq!(select_class(&whole, &[0b0101], &mut rows, &mut owners), 2);
        assert_eq!((rows.len(), owners.as_slice()), (0, &[0b0101][..]));
        let rows = [0u32, 1, 2, 4];
        let hashes = [10u64, 21, 30, 40];
        assert_eq!(masked_sum(&col, &rows, 0, &hashes), (3, 11 + 31 + 41));
        assert_eq!(masked_sum(&col, &rows, 65, &hashes), (2, 21 + 31));
        assert_eq!(masked_sum(&col, &rows, 2, &hashes), (0, 0));
    }

    #[test]
    fn gathered_hash_equals_gather_then_hash() {
        let base: Vec<u32> = (0..10).map(|i| i * 7).collect();
        let vids = [9u32, 0, 3, 3, 5];
        let rows = [4u32, 2, 2, 0];
        let vals: Vec<i64> = rows.iter().map(|&r| base[vids[r as usize] as usize] as i64).collect();
        let (mut fused, mut staged) = (Vec::new(), Vec::new());
        hash_seed(&mut fused, rows.len());
        hash_seed(&mut staged, rows.len());
        hash_gathered(&base, &vids, &rows, &mut fused);
        hash_column(&vals, &mut staged);
        assert_eq!(fused, staged);
        let whole: Vec<i64> = vids.iter().map(|&v| base[v as usize] as i64).collect();
        let (mut fused, mut staged) = (Vec::new(), Vec::new());
        hash_seed(&mut fused, vids.len());
        hash_seed(&mut staged, vids.len());
        hash_vids(&base, &vids, &mut fused);
        hash_column(&whole, &mut staged);
        assert_eq!(fused, staged);
    }
}
