//! Data-parallel kernels for the vector hot loops (DESIGN.md §14).
//!
//! The Data-Query model stores per-tuple query membership as contiguous
//! `u64` bitset words precisely so the per-vector operators can run wide
//! and branch-free. This module is that execution substrate: the four
//! loops that dominate episode cost — filter-mask evaluation, bulk
//! query-set intersection, survivor compaction, and the routing partition
//! — each exist in two (optionally three) interchangeable forms:
//!
//! * **scalar** (`scalar`) — row-at-a-time reference implementations
//!   that mirror the pre-kernel engine code. Selected with
//!   [`EngineConfig::with_wide_kernels`]`(false)`; the `kernel_equiv`
//!   differential suite pins the wide paths byte-identical to these.
//! * **wide** (`wide`) — unrolled multi-lane `u64` implementations:
//!   survivor bits are assembled 64 rows per word, grouped-filter lookups
//!   resolve through a bucket jump table instead of a per-value binary
//!   search, compaction moves runs of surviving rows with `copy_within`,
//!   and the routing partition is a single CSR-style counting pass over
//!   the qset words.
//! * **simd** (`simd`, `--features simd`) — `std::arch` AVX2 bodies for
//!   the widest-impact kernels, selected by runtime feature detection and
//!   falling back to `wide` otherwise.
//!
//! The shared probe's selection-list kernels (`pairs`: pair AND-select,
//! pair OR, broadcast AND-select, column gather) sit beside these with a
//! single implementation each — their reference is the per-key probe — and
//! so do the router's (`route`: per-query counts, column-at-a-time row
//! hash), whose reference is the per-row `row_hash`.
//!
//! Every kernel writes bit-exact results regardless of mode: lane order
//! never changes the value written to a given output position, and tail
//! rows (row counts or query counts not a multiple of the lane width) take
//! a scalar epilogue over the same operations. See `tests/kernel_equiv.rs`.

use roulette_core::{EngineConfig, QuerySet, QuerySetColumn, RowMask};

use crate::filter::{GroupedFilter, PlainFilter};

pub mod pairs;
pub mod route;
pub(crate) mod scalar;
#[cfg(feature = "simd")]
pub(crate) mod simd;
pub(crate) mod wide;

/// Routed queries per query-set word up to which the router's kernels (the
/// count kernel, the wide routing partition) sweep the query-set column
/// once per query instead of walking every word's set bits in one pass. A
/// sweep is a shift, a mask and an add per row with nothing
/// data-dependent; the one-pass walk is a `trailing_zeros` loop per word
/// whose trip count, and stores, depend on the data. At four queries per
/// word the sweeps cost at most about twice the walk's word loads alone,
/// and usually far less than its bit loop; past that, a leaf routing many
/// queries whose rows each hold few of them would pay for every query on
/// every row.
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

/// Which implementation family a [`Kernels`] dispatcher selects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelMode {
    /// Row-at-a-time reference path (byte-identical ground truth).
    Scalar,
    /// Unrolled multi-lane `u64` fast path (portable, no `unsafe`).
    Wide,
    /// `std::arch` AVX2 fast path with runtime detection.
    #[cfg(feature = "simd")]
    Simd,
}

/// Dispatcher for the data-parallel kernel layer.
///
/// `Copy` and stateless: the engine stores one in its shared view and the
/// episode loop calls through it. Construction picks the best mode the
/// build and the host support, unless the config pins the scalar path.
#[derive(Clone, Copy, Debug)]
pub struct Kernels {
    mode: KernelMode,
}

impl Kernels {
    /// Selects the mode from the engine config: the scalar reference path
    /// when `wide_kernels` is off, otherwise the best available fast path.
    pub fn from_config(config: &EngineConfig) -> Self {
        if config.wide_kernels {
            Self::best()
        } else {
            Self::scalar()
        }
    }

    /// The scalar reference path.
    pub fn scalar() -> Self {
        Kernels { mode: KernelMode::Scalar }
    }

    /// The fastest mode this build and host support: AVX2 when compiled
    /// with `--features simd` and detected at runtime, else the portable
    /// wide path.
    pub fn best() -> Self {
        #[cfg(feature = "simd")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return Kernels { mode: KernelMode::Simd };
            }
        }
        Kernels { mode: KernelMode::Wide }
    }

    /// A dispatcher pinned to `mode` (differential tests and benches).
    pub fn with_mode(mode: KernelMode) -> Self {
        Kernels { mode }
    }

    /// Every mode available in this build on this host, scalar first —
    /// the axis the differential suite and micro benches sweep.
    pub fn all_modes() -> Vec<Kernels> {
        #[cfg_attr(not(feature = "simd"), allow(unused_mut))]
        let mut v = vec![Self::scalar(), Kernels { mode: KernelMode::Wide }];
        #[cfg(feature = "simd")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                v.push(Kernels { mode: KernelMode::Simd });
            }
        }
        v
    }

    /// The selected mode.
    pub fn mode(&self) -> KernelMode {
        self.mode
    }

    /// Stable label for bench output.
    pub fn mode_name(&self) -> &'static str {
        match self.mode {
            KernelMode::Scalar => "scalar",
            KernelMode::Wide => "wide",
            #[cfg(feature = "simd")]
            KernelMode::Simd => "simd",
        }
    }

    /// Filter-mask kernel, grouped form: evaluates the range lookup table
    /// over the whole value column, intersects each row's query-set with
    /// its segment mask in place, and records survivors in `keep`.
    ///
    /// Replaces the per-row `mask_for` + `and_row` selection loop.
    #[inline]
    pub fn filter_grouped(
        &self,
        filter: &GroupedFilter,
        values: &[i64],
        qsets: &mut QuerySetColumn,
        keep: &mut RowMask,
    ) {
        debug_assert_eq!(values.len(), qsets.len());
        match self.mode {
            KernelMode::Scalar => scalar::filter_grouped(filter, values, qsets, keep),
            KernelMode::Wide => wide::filter_grouped(filter, values, qsets, keep),
            #[cfg(feature = "simd")]
            KernelMode::Simd => wide::filter_grouped(filter, values, qsets, keep),
        }
    }

    /// Filter-mask kernel, plain (per-query ablation) form. Predicate
    /// evaluation is inherently per-predicate here, so every mode shares
    /// one body; the batched survivor bookkeeping still applies.
    #[inline]
    pub fn filter_plain(
        &self,
        filter: &PlainFilter,
        values: &[i64],
        mask_buf: &mut Vec<u64>,
        qsets: &mut QuerySetColumn,
        keep: &mut RowMask,
    ) {
        debug_assert_eq!(values.len(), qsets.len());
        scalar::filter_plain(filter, values, mask_buf, qsets, keep);
    }

    /// Bulk query-set intersection: `row_i &= mask_i` for per-row masks
    /// concatenated in `masks`; survivors recorded in `keep`.
    #[inline]
    pub fn qset_and(&self, qsets: &mut QuerySetColumn, masks: &[u64], keep: &mut RowMask) {
        match self.mode {
            KernelMode::Scalar => qsets.and_rows(masks, keep),
            KernelMode::Wide => wide::qset_and(qsets, masks, keep),
            #[cfg(feature = "simd")]
            KernelMode::Simd => simd::qset_and(qsets, masks, keep),
        }
    }

    /// Bulk query-set intersection with one shared mask.
    #[inline]
    pub fn qset_and_broadcast(
        &self,
        qsets: &mut QuerySetColumn,
        mask: &[u64],
        keep: &mut RowMask,
    ) {
        match self.mode {
            KernelMode::Scalar => qsets.and_rows_broadcast(mask, keep),
            KernelMode::Wide => wide::qset_and_broadcast(qsets, mask, keep),
            #[cfg(feature = "simd")]
            KernelMode::Simd => wide::qset_and_broadcast(qsets, mask, keep),
        }
    }

    /// Bulk query-set union with per-row masks (no survivor mask: union
    /// never empties a row).
    #[inline]
    pub fn qset_or(&self, qsets: &mut QuerySetColumn, masks: &[u64]) {
        match self.mode {
            KernelMode::Scalar => qsets.or_rows(masks),
            KernelMode::Wide => wide::qset_or(qsets, masks),
            #[cfg(feature = "simd")]
            KernelMode::Simd => wide::qset_or(qsets, masks),
        }
    }

    /// Bulk query scrub: `row &= !mask` with one shared mask; survivors
    /// recorded in `keep`.
    #[inline]
    pub fn qset_subtract_broadcast(
        &self,
        qsets: &mut QuerySetColumn,
        mask: &[u64],
        keep: &mut RowMask,
    ) {
        match self.mode {
            KernelMode::Scalar => qsets.subtract_rows_broadcast(mask, keep),
            KernelMode::Wide => wide::qset_subtract_broadcast(qsets, mask, keep),
            #[cfg(feature = "simd")]
            KernelMode::Simd => wide::qset_subtract_broadcast(qsets, mask, keep),
        }
    }

    /// Survivor compaction over one `u32` value column.
    #[inline]
    pub fn compact_u32(&self, col: &mut Vec<u32>, keep: &RowMask) {
        match self.mode {
            KernelMode::Scalar => scalar::compact_u32(col, keep),
            KernelMode::Wide => wide::compact_u32(col, keep),
            #[cfg(feature = "simd")]
            KernelMode::Simd => wide::compact_u32(col, keep),
        }
    }

    /// Survivor compaction over a query-set column.
    #[inline]
    pub fn compact_qsets(&self, qsets: &mut QuerySetColumn, keep: &RowMask) {
        match self.mode {
            KernelMode::Scalar => qsets.retain_mask(keep),
            KernelMode::Wide => wide::compact_qsets(qsets, keep),
            #[cfg(feature = "simd")]
            KernelMode::Simd => wide::compact_qsets(qsets, keep),
        }
    }

    /// Routing partition: for every query in `queries`, extracts the rows
    /// whose query-set contains it, into `part`'s CSR layout. Returns the
    /// total number of `(query, row)` pairs.
    ///
    /// Row order within each query is ascending in both modes, matching
    /// the order the old per-query scan loop emitted.
    #[inline]
    pub fn partition(
        &self,
        qsets: &QuerySetColumn,
        queries: &QuerySet,
        part: &mut Partition,
    ) -> u64 {
        match self.mode {
            KernelMode::Scalar => scalar::partition(qsets, queries, part),
            KernelMode::Wide => wide::partition(qsets, queries, part),
            #[cfg(feature = "simd")]
            KernelMode::Simd => wide::partition(qsets, queries, part),
        }
    }
}

/// Reusable CSR-layout output of the routing partition kernel: for query
/// `q`, `rows[offsets[q] .. offsets[q] + counts[q]]` are the surviving row
/// indices in ascending order. Lives in the episode scratch arena so the
/// buffers are recycled across episodes.
#[derive(Clone, Debug, Default)]
pub struct Partition {
    /// Per-query survivor counts, indexed by query id (capacity-sized).
    counts: Vec<u32>,
    /// Per-query exclusive prefix offsets into `rows`.
    offsets: Vec<u32>,
    /// Scatter cursors (scratch for the single-pass wide partition).
    cursors: Vec<u32>,
    /// Row indices, grouped by query.
    rows: Vec<u32>,
}

impl Partition {
    /// An empty partition (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The surviving row indices for query id `q`, ascending. Empty when
    /// the query had no survivors (or is out of range).
    #[inline]
    pub fn rows_of(&self, q: usize) -> &[u32] {
        let start = self.offsets.get(q).copied().unwrap_or(0) as usize;
        let n = self.counts.get(q).copied().unwrap_or(0) as usize;
        self.rows.get(start..start + n).unwrap_or(&[])
    }

    /// Resets the count table to `capacity` query slots, zeroed.
    pub(crate) fn reset_counts(&mut self, capacity: usize) {
        self.counts.clear();
        self.counts.resize(capacity, 0);
    }

    pub(crate) fn counts_mut(&mut self) -> &mut [u32] {
        &mut self.counts
    }

    /// Builds `offsets` as the exclusive prefix sum of `counts` and sizes
    /// `rows` for the total; returns the total. Also primes `cursors` with
    /// a copy of the offsets for scatter passes.
    pub(crate) fn build_offsets(&mut self) -> u64 {
        self.offsets.clear();
        let mut acc: u32 = 0;
        for &c in &self.counts {
            self.offsets.push(acc);
            acc += c;
        }
        self.cursors.clear();
        self.cursors.extend_from_slice(&self.offsets);
        self.rows.clear();
        self.rows.resize(acc as usize, 0);
        u64::from(acc)
    }

    /// Splits the scatter state: `(cursors, rows)` mutably at once.
    pub(crate) fn scatter_mut(&mut self) -> (&mut [u32], &mut [u32]) {
        (&mut self.cursors, &mut self.rows)
    }
}
