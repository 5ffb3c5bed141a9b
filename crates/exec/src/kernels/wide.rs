//! Unrolled multi-lane `u64` kernels: the portable fast path.
//!
//! Lane model (DESIGN.md §14): survivor bits are assembled 64 rows per
//! `u64` word; grouped-filter lookups go through the filter's bucket jump
//! table (a fixed-point multiply plus a 0–2 entry refinement, no full
//! binary search) and pipeline across independent rows; row widths
//! of 1, 2, and 4 words are monomorphized so the word loop fully unrolls;
//! compaction moves *runs* of surviving rows with `copy_within` instead of
//! testing one row at a time; the routing partition is a single CSR
//! counting/scatter pass driven by word-wise bit iteration (branch-free
//! per-query sweeps when only a few queries are routed). Tail rows (and
//! tail queries) fall through to scalar epilogues computing the exact same
//! function, so results are byte-identical to the scalar reference.

use roulette_core::{QuerySet, QuerySetColumn, RowMask};

use super::Partition;
use crate::filter::GroupedFilter;

/// Grouped-filter evaluation over a whole value column: jump-table segment
/// lookup (`GroupedFilter::seg_of` — one fixed-point multiply plus a 0–2
/// entry refinement instead of a full binary search), with the qset AND
/// and survivor bits batched 64 rows per keep word. Consecutive rows'
/// lookups carry no data dependency, so they pipeline across iterations.
// lint: hot-loop
pub(super) fn filter_grouped(
    filter: &GroupedFilter,
    values: &[i64],
    qsets: &mut QuerySetColumn,
    keep: &mut RowMask,
) {
    let n = qsets.len();
    keep.clear_resize(n);
    let (_, masks, words) = filter.table();
    let wps = qsets.words_per_set();
    debug_assert_eq!(words, wps);
    if wps == 1 {
        filter_grouped_w1(filter, masks, values, qsets.raw_mut(), keep.words_mut());
    } else {
        // Multi-word rows (>64 queries in the batch): the reference loop's
        // `and_row` body is already the fastest shape here — block keep
        // assembly only pays off when a whole row fits one word.
        super::scalar::filter_grouped(filter, values, qsets, keep);
    }
}

/// Width-1 body: the common case (≤64 queries). One keep word is
/// assembled per 64-row block and stored once, instead of a read-modify-
/// write per row.
// lint: hot-loop
fn filter_grouped_w1(
    filter: &GroupedFilter,
    masks: &[u64],
    values: &[i64],
    data: &mut [u64],
    kws: &mut [u64],
) {
    for ((vblk, dblk), kw) in
        values.chunks(64).zip(data.chunks_mut(64)).zip(kws.iter_mut())
    {
        let mut k = 0u64;
        for (lane, (&v, d)) in vblk.iter().zip(dblk).enumerate() {
            let seg = filter.seg_of(v);
            *d &= masks.get(seg).copied().unwrap_or(0);
            k |= u64::from(*d != 0) << lane;
        }
        *kw = k;
    }
}

/// Bulk per-row AND with survivor bits assembled 64 rows per keep word.
// lint: hot-loop
pub(super) fn qset_and(qsets: &mut QuerySetColumn, masks: &[u64], keep: &mut RowMask) {
    let wps = qsets.words_per_set();
    let n = qsets.len();
    debug_assert_eq!(masks.len(), n * wps);
    keep.clear_resize(n);
    let data = qsets.raw_mut();
    match wps {
        1 => and_w1(data, masks, keep.words_mut()),
        2 => and_wn::<2>(data, masks, keep),
        4 => and_wn::<4>(data, masks, keep),
        _ => and_generic(data, masks, wps, keep),
    }
}

/// Width-1 AND: 64-row blocks, one keep word assembled per block.
// lint: hot-loop
fn and_w1(data: &mut [u64], masks: &[u64], kws: &mut [u64]) {
    for ((drows, mrows), kw) in
        data.chunks_mut(64).zip(masks.chunks(64)).zip(kws.iter_mut())
    {
        let mut k = 0u64;
        for (lane, (d, &m)) in drows.iter_mut().zip(mrows).enumerate() {
            *d &= m;
            k |= u64::from(*d != 0) << lane;
        }
        *kw = k;
    }
}

/// Monomorphized AND for width `W`: `chunks_exact(W)` lets the word loop
/// fully unroll.
// lint: hot-loop
fn and_wn<const W: usize>(data: &mut [u64], masks: &[u64], keep: &mut RowMask) {
    for (i, (row, mask)) in
        data.chunks_exact_mut(W).zip(masks.chunks_exact(W)).enumerate()
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

/// Fallback AND for arbitrary widths.
// lint: hot-loop
fn and_generic(data: &mut [u64], masks: &[u64], wps: usize, keep: &mut RowMask) {
    for (i, (row, mask)) in
        data.chunks_exact_mut(wps).zip(masks.chunks_exact(wps)).enumerate()
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

/// Broadcast AND (one shared mask); width-1 gets the 64-row block body.
// lint: hot-loop
pub(super) fn qset_and_broadcast(qsets: &mut QuerySetColumn, mask: &[u64], keep: &mut RowMask) {
    let wps = qsets.words_per_set();
    keep.clear_resize(qsets.len());
    let data = qsets.raw_mut();
    if wps == 1 {
        let m = mask.first().copied().unwrap_or(0);
        for (drows, kw) in data.chunks_mut(64).zip(keep.words_mut()) {
            let mut k = 0u64;
            for (lane, d) in drows.iter_mut().enumerate() {
                *d &= m;
                k |= u64::from(*d != 0) << lane;
            }
            *kw = k;
        }
    } else {
        for (i, row) in data.chunks_exact_mut(wps).enumerate() {
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
}

/// Broadcast subtract (`row &= !mask`, the query scrub).
// lint: hot-loop
pub(super) fn qset_subtract_broadcast(
    qsets: &mut QuerySetColumn,
    mask: &[u64],
    keep: &mut RowMask,
) {
    let wps = qsets.words_per_set();
    keep.clear_resize(qsets.len());
    let data = qsets.raw_mut();
    if wps == 1 {
        let m = !mask.first().copied().unwrap_or(0);
        for (drows, kw) in data.chunks_mut(64).zip(keep.words_mut()) {
            let mut k = 0u64;
            for (lane, d) in drows.iter_mut().enumerate() {
                *d &= m;
                k |= u64::from(*d != 0) << lane;
            }
            *kw = k;
        }
    } else {
        for (i, row) in data.chunks_exact_mut(wps).enumerate() {
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
}

/// Bulk per-row OR.
// lint: hot-loop
pub(super) fn qset_or(qsets: &mut QuerySetColumn, masks: &[u64]) {
    let wps = qsets.words_per_set();
    debug_assert_eq!(masks.len(), qsets.raw().len());
    for (row, mask) in qsets.raw_mut().chunks_exact_mut(wps).zip(masks.chunks_exact(wps)) {
        for (d, &m) in row.iter_mut().zip(mask) {
            *d |= m;
        }
    }
}

/// Run-based `u32` compaction: surviving rows are moved in maximal
/// contiguous runs found by `trailing_zeros`/`trailing_ones`, so dense
/// keep masks cost one `copy_within` per run instead of one per row.
// lint: hot-loop
pub(super) fn compact_u32(col: &mut Vec<u32>, keep: &RowMask) {
    debug_assert_eq!(col.len(), keep.len());
    let mut out = 0usize;
    let data = col.as_mut_slice();
    for (wi, &kw) in keep.words().iter().enumerate() {
        let base = wi * 64;
        let mut w = kw;
        loop {
            if w == 0 {
                break;
            }
            let start = w.trailing_zeros() as usize;
            let run = (w >> start).trailing_ones() as usize;
            let src = base + start;
            if out != src {
                data.copy_within(src..src + run, out);
            }
            out += run;
            if start + run >= 64 {
                break;
            }
            // start + run < 64 here, so the shift cannot overflow.
            w &= !(((1u64 << run) - 1) << start);
        }
    }
    col.truncate(out);
}

/// Run-based query-set-column compaction (same run scan, rows are
/// `words_per_set` words wide).
// lint: hot-loop
pub(super) fn compact_qsets(qsets: &mut QuerySetColumn, keep: &RowMask) {
    debug_assert_eq!(qsets.len(), keep.len());
    let wps = qsets.words_per_set();
    let mut out = 0usize;
    {
        let data = qsets.raw_mut();
        for (wi, &kw) in keep.words().iter().enumerate() {
            let base = wi * 64;
            let mut w = kw;
            loop {
                if w == 0 {
                    break;
                }
                let start = w.trailing_zeros() as usize;
                let run = (w >> start).trailing_ones() as usize;
                let src = base + start;
                if out != src {
                    data.copy_within(src * wps..(src + run) * wps, out * wps);
                }
                out += run;
                if start + run >= 64 {
                    break;
                }
                // start + run < 64 here, so the shift cannot overflow.
                w &= !(((1u64 << run) - 1) << start);
            }
        }
    }
    qsets.truncate(out);
}

/// CSR routing partition. Routing many queries it is one word-wise
/// counting sweep over the qset column (set bits found with
/// `trailing_zeros`), a prefix-sum, and one scatter sweep — instead of two
/// sweeps per routed query. Routing few
/// ([`SWEEP_MAX_PER_WORD`](super::SWEEP_MAX_PER_WORD)) it is two sweeps
/// per query after all, but branch-free ones: a shift, a mask and an add
/// per row, against a `trailing_zeros` walk whose trip count and stores
/// depend on the data.
// lint: hot-loop
pub(super) fn partition(
    qsets: &QuerySetColumn,
    queries: &QuerySet,
    part: &mut Partition,
) -> u64 {
    let wps = qsets.words_per_set();
    part.reset_counts(wps * 64);
    let raw = qsets.raw();
    if queries.len() <= super::SWEEP_MAX_PER_WORD * wps {
        return partition_sweeps(raw, wps, queries, part);
    }
    let qwords = queries.words();
    {
        let counts = part.counts_mut();
        for row in raw.chunks_exact(wps) {
            for (wi, (&rw, &qw)) in row.iter().zip(qwords).enumerate() {
                let mut bits = rw & qw;
                while bits != 0 {
                    let q = wi * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if let Some(c) = counts.get_mut(q) {
                        *c += 1;
                    }
                }
            }
        }
    }
    let total = part.build_offsets();
    let (cursors, rows) = part.scatter_mut();
    for (i, row) in raw.chunks_exact(wps).enumerate() {
        for (wi, (&rw, &qw)) in row.iter().zip(qwords).enumerate() {
            let mut bits = rw & qw;
            while bits != 0 {
                let q = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if let Some(cur) = cursors.get_mut(q) {
                    if let Some(slot) = rows.get_mut(*cur as usize) {
                        *slot = i as u32;
                    }
                    *cur += 1;
                }
            }
        }
    }
    total
}

/// The few-queries form of [`partition`]: per routed query, one sweep
/// counts its rows and — once the offsets are known — one writes them.
/// The write is unconditional (row `i` lands at the query's cursor, which
/// advances only if the row holds the query), so a row that does not
/// belong is overwritten by the next one that does, or by the next
/// query's first row.
// lint: hot-loop
fn partition_sweeps(raw: &[u64], wps: usize, queries: &QuerySet, part: &mut Partition) -> u64 {
    {
        let counts = part.counts_mut();
        for q in queries.iter() {
            if let Some(c) = counts.get_mut(q.index()) {
                *c = super::count_bit(raw, wps, q.index());
            }
        }
    }
    let total = part.build_offsets();
    let (cursors, rows) = part.scatter_mut();
    for q in queries.iter() {
        let Some(&start) = cursors.get(q.index()) else { continue };
        let mut cur = start as usize;
        for (i, row) in raw.chunks_exact(wps).enumerate() {
            if let Some(slot) = rows.get_mut(cur) {
                *slot = i as u32;
            }
            cur += super::bit_of(row, q.index()) as usize;
        }
    }
    total
}
