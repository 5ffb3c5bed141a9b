//! Selection-list kernels for the shared probe (DESIGN.md §14).
//!
//! The probe operator works column-at-a-time over a tile of `(probe_row,
//! entry)` match pairs: one pass ANDs the two query-sets of every pair and
//! keeps the non-empty ones, the next passes gather each carried column
//! through the surviving selection list. The kernels here are those
//! passes. Survivors are written *branch-free*: every result lands at the
//! current output cursor and the cursor advances by `(result != ∅)`, so an
//! emptied row is simply overwritten by the next one and the loop carries
//! no data-dependent branch. Each body is written once over a runtime
//! width and force-inlined into a `match` on the width, which specialises
//! it for 1, 2, 3 and 4 words (the word loop unrolls) and leaves the same
//! body as the fallback above that.
//!
//! The differential reference for these kernels is the per-key
//! `Stem::probe` + `and_into` path (`tests/kernel_equiv.rs`).

use roulette_core::queryset::reserve_pow2;
use roulette_core::QuerySetColumn;

/// Rows per block of the AND-select kernels. Results are written straight
/// into the output column's tail, which is grown (zero-filled) one block
/// at a time and cut back to the rows kept, so a selective pass never
/// touches — and a pooled output never keeps resident — more than one
/// block beyond what it keeps (whole-tile reservation measured +1.4 MB
/// `peak_rss_mb` on the selective benchmark at four-word query-sets).
const SELECT_BLOCK: usize = 256;

/// `row & mask` for every row of `rows_in` (row `i` is row `base + i` of
/// the source), survivors written densely to `out` and their source row
/// indices to `sel`; returns the survivor count.
// lint: hot-loop
#[inline(always)]
fn and_select_body(
    w: usize,
    rows_in: &[u64],
    base: usize,
    mask: &[u64],
    out: &mut [u64],
    sel: &mut [u32],
) -> usize {
    let mut n = 0usize;
    for (i, row) in rows_in.chunks_exact(w).enumerate() {
        let (Some(dst), Some(s)) = (out.get_mut(n * w..n * w + w), sel.get_mut(n)) else {
            break;
        };
        let mut any = 0u64;
        for ((d, &x), &m) in dst.iter_mut().zip(row).zip(mask) {
            *d = x & m;
            any |= *d;
        }
        *s = (base + i) as u32;
        n += usize::from(any != 0);
    }
    n
}

/// Broadcast AND-select: appends `row & mask` to `out` for every row of
/// `src` that stays non-empty, and replaces `sel` with those rows' indices
/// (ascending). The main-branch compaction and the divergence branch of a
/// probe are both this kernel followed by per-column [`gather_u32`]s.
// lint: hot-loop
pub fn and_select_rows(
    src: &QuerySetColumn,
    mask: &[u64],
    out: &mut QuerySetColumn,
    sel: &mut Vec<u32>,
) {
    let w = src.words_per_set();
    debug_assert_eq!(out.words_per_set(), w);
    debug_assert_eq!(mask.len(), w);
    sel.clear();
    for (b, block) in src.raw().chunks(SELECT_BLOCK * w).enumerate() {
        let rows = block.len() / w;
        let (out_start, sel_start) = (out.len(), sel.len());
        reserve_pow2(sel, rows);
        sel.resize(sel_start + rows, 0);
        let sel_tail = sel.get_mut(sel_start..).unwrap_or_default();
        let dst = out.append_zeroed(rows);
        let base = b * SELECT_BLOCK;
        let kept = match w {
            1 => and_select_body(1, block, base, mask, dst, sel_tail),
            2 => and_select_body(2, block, base, mask, dst, sel_tail),
            3 => and_select_body(3, block, base, mask, dst, sel_tail),
            4 => and_select_body(4, block, base, mask, dst, sel_tail),
            _ => and_select_body(w, block, base, mask, dst, sel_tail),
        };
        out.truncate(out_start + kept);
        sel.truncate(sel_start + kept);
    }
}

/// `masks[rows[k]] & entry_q[entries[k]]` for every pair `k` of `block`,
/// survivors written densely to `out` and the pair lists compacted in
/// place to the front of `rows` / `entries` (which start at the first
/// slot not holding an earlier block's survivor); returns the block's
/// survivor count.
// lint: hot-loop
#[inline(always)]
fn and_pairs_body(
    w: usize,
    masks: &[u64],
    entry_q: &[u64],
    rows: &mut [u32],
    entries: &mut [u32],
    block: std::ops::Range<usize>,
    out: &mut [u64],
) -> usize {
    let mut n = 0usize;
    for k in block {
        let (Some(&r), Some(&e)) = (rows.get(k), entries.get(k)) else {
            break;
        };
        let (r0, e0) = (r as usize * w, e as usize * w);
        let (Some(a), Some(b), Some(dst)) = (
            masks.get(r0..r0 + w),
            entry_q.get(e0..e0 + w),
            out.get_mut(n * w..n * w + w),
        ) else {
            continue;
        };
        let mut any = 0u64;
        for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
            *d = x & y;
            any |= *d;
        }
        if let (Some(rs), Some(es)) = (rows.get_mut(n), entries.get_mut(n)) {
            *rs = r;
            *es = e;
        }
        n += usize::from(any != 0);
    }
    n
}

/// Pair AND-select over one tile of match pairs: pair `k` joins probe row
/// `rows[k]` (its query-set is row `rows[k]` of `masks`) with STeM entry
/// `entries[k]` (row `entries[k]` of `entry_q`). Appends every non-empty
/// intersection to `out` in pair order, compacts `rows` / `entries` in
/// place to the surviving pairs, and returns how many survived.
// lint: hot-loop
pub fn and_select_pairs(
    masks: &QuerySetColumn,
    entry_q: &QuerySetColumn,
    rows: &mut [u32],
    entries: &mut [u32],
    out: &mut QuerySetColumn,
) -> usize {
    let w = out.words_per_set();
    debug_assert_eq!(masks.words_per_set(), w);
    debug_assert_eq!(entry_q.words_per_set(), w);
    let (m, q) = (masks.raw(), entry_q.raw());
    let pairs = rows.len().min(entries.len());
    let mut kept = 0usize;
    for start in (0..pairs).step_by(SELECT_BLOCK) {
        let (Some(rows), Some(entries)) = (rows.get_mut(kept..), entries.get_mut(kept..)) else {
            break;
        };
        let block = start - kept..(start + SELECT_BLOCK).min(pairs) - kept;
        let out_start = out.len();
        let dst = out.append_zeroed(block.len());
        let n = match w {
            1 => and_pairs_body(1, m, q, rows, entries, block, dst),
            2 => and_pairs_body(2, m, q, rows, entries, block, dst),
            3 => and_pairs_body(3, m, q, rows, entries, block, dst),
            4 => and_pairs_body(4, m, q, rows, entries, block, dst),
            _ => and_pairs_body(w, m, q, rows, entries, block, dst),
        };
        out.truncate(out_start + n);
        kept += n;
    }
    kept
}

// lint: hot-loop
#[inline(always)]
fn or_pairs_body(w: usize, masks: &mut [u64], entry_q: &[u64], rows: &[u32], entries: &[u32]) {
    for (&r, &e) in rows.iter().zip(entries) {
        let (r0, e0) = (r as usize * w, e as usize * w);
        let (Some(acc), Some(b)) = (masks.get_mut(r0..r0 + w), entry_q.get(e0..e0 + w)) else {
            continue;
        };
        for (a, &y) in acc.iter_mut().zip(b) {
            *a |= y;
        }
    }
}

/// Pair OR over one tile of match pairs (the semi-join of symmetric join
/// pruning): `masks[rows[k]] |= entry_q[entries[k]]` for every pair `k`.
pub fn or_pairs(
    masks: &mut QuerySetColumn,
    entry_q: &QuerySetColumn,
    rows: &[u32],
    entries: &[u32],
) {
    let w = masks.words_per_set();
    debug_assert_eq!(entry_q.words_per_set(), w);
    let (m, q) = (masks.raw_mut(), entry_q.raw());
    match w {
        1 => or_pairs_body(1, m, q, rows, entries),
        2 => or_pairs_body(2, m, q, rows, entries),
        3 => or_pairs_body(3, m, q, rows, entries),
        4 => or_pairs_body(4, m, q, rows, entries),
        _ => or_pairs_body(w, m, q, rows, entries),
    }
}

/// Column gather through a selection list: appends `src[sel[k]]` to `out`
/// for every `k`. One reservation, no per-element capacity check.
// lint: hot-loop
#[inline]
pub fn gather_u32(src: &[u32], sel: &[u32], out: &mut Vec<u32>) {
    reserve_pow2(out, sel.len());
    out.extend(
        sel.iter()
            .map(|&i| src.get(i as usize).copied().unwrap_or(0)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(w: usize, rows: &[&[u64]]) -> QuerySetColumn {
        let mut c = QuerySetColumn::new(w);
        for r in rows {
            c.push(r);
        }
        c
    }

    #[test]
    fn and_select_rows_keeps_nonempty_rows_in_order() {
        let src = col(2, &[&[0b11, 0], &[0b100, 0], &[0, 0b1], &[0, 0]]);
        let mut out = QuerySetColumn::new(2);
        let mut sel = vec![9, 9];
        and_select_rows(&src, &[0b01, 0b1], &mut out, &mut sel);
        assert_eq!(sel, vec![0, 2]);
        assert_eq!(out.raw(), &[0b01, 0, 0, 0b1]);
    }

    #[test]
    fn and_select_pairs_compacts_pairs_and_appends() {
        let masks = col(1, &[&[0b011], &[0b100]]);
        let entry_q = col(1, &[&[0b001], &[0b110], &[0b000]]);
        let mut rows = [0u32, 0, 1, 1, 0];
        let mut entries = [0u32, 2, 0, 1, 1];
        let mut out = col(1, &[&[0xff]]);
        let kept = and_select_pairs(&masks, &entry_q, &mut rows, &mut entries, &mut out);
        assert_eq!(kept, 3);
        assert_eq!(&rows[..kept], &[0, 1, 0]);
        assert_eq!(&entries[..kept], &[0, 1, 1]);
        assert_eq!(out.raw(), &[0xff, 0b001, 0b100, 0b010]);
    }

    #[test]
    fn or_pairs_accumulates_per_row() {
        let mut masks = col(1, &[&[0], &[0b1000]]);
        let entry_q = col(1, &[&[0b001], &[0b110]]);
        or_pairs(&mut masks, &entry_q, &[0, 0, 1], &[0, 1, 0]);
        assert_eq!(masks.raw(), &[0b111, 0b1001]);
    }
}
