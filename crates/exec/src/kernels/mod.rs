//! Data-parallel kernels for the vector hot loops (DESIGN.md §14).
//!
//! The Data-Query model stores per-tuple query membership as contiguous
//! `u64` bitset words precisely so the per-vector operators can run wide
//! and branch-free. This module is that execution substrate: the loops
//! that dominate episode cost — filter-mask evaluation, bulk query-set
//! intersection and survivor compaction — are plain functions over
//! unrolled multi-lane `u64` bodies (`wide`): survivor bits are assembled
//! 64 rows per word, grouped-filter lookups resolve through a bucket jump
//! table instead of a per-value binary search, and compaction moves runs
//! of surviving rows with `copy_within`.
//!
//! The shared probe's selection-list kernels (`pairs`: pair AND-select,
//! pair OR, broadcast AND-select, column gather) sit beside these, and so
//! do the router's (`route`: per-query counts, projection-class row
//! selection, column-at-a-time row hash).
//!
//! Every kernel is bit-exact against a row-at-a-time reference: lane order
//! never changes the value written to a given output position, and tail
//! rows (row counts or query counts not a multiple of the lane width) take
//! a scalar epilogue over the same operations. The references —
//! `QuerySetColumn`'s `and_rows` family and `retain_mask`, the per-row
//! filter and compaction of `tests/kernel_equiv.rs`, the per-key probe for
//! `pairs`, and `row_hash` and per-row membership for `route` — run only
//! in the tests, never in the engine.

// Covers the `pairs`, `route` and `wide` submodules too.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub mod pairs;
pub mod route;
mod wide;

pub use wide::{
    compact_qsets, compact_u32, filter_grouped, filter_plain, qset_and, qset_and_broadcast,
    qset_or, qset_subtract_broadcast,
};

/// Counted queries per query-set word up to which the router's count
/// kernel sweeps the query-set column once per query instead of walking
/// every word's set bits in one pass. A sweep is a shift, a mask and an
/// add per row with nothing data-dependent; the one-pass walk is a
/// `trailing_zeros` loop per word whose trip count, and stores, depend on
/// the data. At four queries per word the sweeps cost at most about twice
/// the walk's word loads alone, and usually far less than its bit loop;
/// past that, a class counting many queries whose rows each hold few of
/// them would pay for every query on every row.
pub(crate) const SWEEP_MAX_PER_WORD: usize = 4;

/// Bit `q` of a query-set row (0 or 1; 0 past the row's width).
#[inline(always)]
pub(crate) fn bit_of(row: &[u64], q: usize) -> u64 {
    row.get(q / 64).map_or(0, |&word| word >> (q % 64) & 1)
}

/// One counting sweep: the rows of `raw` (`wps` words each) holding query
/// `q`. Branch-free — a shift, a mask and an add per row.
// lint: hot-loop
#[inline]
pub(crate) fn count_bit(raw: &[u64], wps: usize, q: usize) -> u32 {
    raw.chunks_exact(wps).map(|row| bit_of(row, q)).sum::<u64>() as u32
}
