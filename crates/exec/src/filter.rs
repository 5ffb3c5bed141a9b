//! Shared selections with range-based grouped filters (§5.1).
//!
//! A selection-phase operator evaluates *all* queries' predicates on one
//! attribute and intersects each tuple's query-set with the satisfied set.
//! Prior work indexes predicates but still pays per-satisfied-query
//! comparison costs; RouLette instead precomputes a *lookup table* of
//! predicate-result bitsets over the value ranges induced by the batch's
//! predicate boundaries, so evaluating a tuple is one binary search —
//! logarithmic in the number of queries.
//!
//! [`PlainFilter`] is the per-query fallback used by the Fig. 18 ablation;
//! [`SelectionFilter`] is whichever of the two a session evaluates.

use roulette_core::QueryId;

/// Precomputed range → predicate-result-bitset lookup table for one
/// `(relation, column)` selection group.
#[derive(Debug, Clone)]
pub struct GroupedFilter {
    /// Sorted distinct cut points. Segment `i` covers
    /// `[boundaries[i-1], boundaries[i])`, with open-ended segments at both
    /// ends.
    boundaries: Vec<i64>,
    /// Per-segment masks, `words` words each.
    masks: Vec<u64>,
    words: usize,
    /// Bucket jump table accelerating the segment search (DESIGN.md §14):
    /// `jump[k]` is the number of boundaries mapping to buckets `< k`, so
    /// a value in bucket `k` has its segment in `jump[k] ..= jump[k + 1]`.
    /// Empty when there are fewer than two boundaries (nothing to search).
    jump: Vec<u32>,
    /// `boundaries` plus pad entries, so the fixed-shape refinement reads
    /// in [`seg_of`](Self::seg_of) are always in bounds — the
    /// loads stay branch-free instead of mispredicting near the table end.
    /// Pad values are never counted (masked by the real-length compare).
    jump_bounds: Vec<i64>,
    /// `boundaries[0]` in the order-preserving unsigned domain
    /// ([`sign_flip`]).
    jump_umin: u64,
    /// `sign_flip(boundaries[last]) - jump_umin`: the value span the
    /// buckets divide.
    jump_span: u64,
    /// Fixed-point bucket width reciprocal:
    /// `bucket(v) = mulhi(clamp(sign_flip(v) - jump_umin), jump_scale)`.
    jump_scale: u64,
}

/// Maps an `i64` to a `u64` preserving order (`a < b ⇔ sign_flip(a) <
/// sign_flip(b)`), so bucket arithmetic runs branch-free in unsigned math.
#[inline]
fn sign_flip(v: i64) -> u64 {
    (v as u64) ^ (1u64 << 63)
}

/// Bucket count for a boundary table: ~4 boundaries' worth of slack per
/// bucket keeps the refinement scan at 0–2 comparisons, capped so the
/// table stays a few hundred KiB even for enormous batches. Also capped
/// at half the span so the fixed-point reciprocal fits in 64 bits.
fn jump_buckets(n_boundaries: usize, span: u64) -> usize {
    let by_len = (n_boundaries * 4).next_power_of_two().min(1 << 16);
    // Largest power of two at most `span / 2`; the caller guarantees
    // `span >= 4`, so `span / 2 >= 2` and the shift is in range.
    let by_span = 1u64 << (63 - (span / 2).leading_zeros());
    by_len.min(by_span.min(1 << 16) as usize)
}

impl GroupedFilter {
    /// Builds the table from per-query inclusive ranges; `capacity` is the
    /// batch's query-id capacity.
    ///
    /// Segment 0 is decided by one sample value below the first boundary.
    /// Every later segment starts at a boundary, and a predicate changes
    /// truth only where one of its own bounds (`lo`, `hi + 1`) is, so the
    /// masks of segments ≥ 1 come from one sweep over those events with a
    /// running bitset: O(k log k + segments × words) for k predicates,
    /// instead of testing every predicate against every segment.
    pub fn build(preds: &[(QueryId, i64, i64)], capacity: usize) -> Self {
        let words = roulette_core::queryset::words_for(capacity.max(1));
        let boundaries = Self::boundaries(preds);
        let n_segments = boundaries.len() + 1;
        let mut masks = Vec::with_capacity(n_segments * words);
        masks.resize(words, u64::MAX);
        // A representative value inside segment 0; segments never straddle
        // a predicate boundary, so one sample decides.
        let sample = boundaries.first().map_or(0, |&b| b.saturating_sub(1));
        for &(q, lo, hi) in preds {
            if sample < lo || sample > hi {
                masks[q.index() / 64] &= !(1u64 << (q.index() % 64));
            }
        }

        // The segment a boundary value opens (it is always present).
        let seg_at = |v: i64| boundaries.partition_point(|&b| b < v) + 1;
        // `(segment, query, becomes satisfied)`: a predicate holds from the
        // segment its `lo` opens up to, but not including, the one its
        // `hi + 1` opens.
        let mut events: Vec<(usize, usize, bool)> = Vec::with_capacity(preds.len() * 2);
        // `unmet[q]`: how many of query `q`'s predicates fail in the current
        // segment. Its bit is set exactly when none does, so a query with
        // several predicates in the group gets their conjunction, and the
        // events of one segment may apply in any order. An empty range
        // (`lo > hi`) meets its clear before its set, so it never holds.
        let mut unmet = vec![0u32; words * 64];
        let mut run = vec![u64::MAX; words];
        for &(q, lo, hi) in preds {
            let q = q.index();
            unmet[q] += 1;
            run[q / 64] &= !(1u64 << (q % 64));
            events.push((seg_at(lo), q, true));
            if hi < i64::MAX {
                events.push((seg_at(hi + 1), q, false));
            }
        }
        events.sort_unstable_by_key(|e| e.0);
        let mut events = events.into_iter().peekable();
        for seg in 1..n_segments {
            while let Some((_, q, met)) = events.next_if(|e| e.0 == seg) {
                if met {
                    unmet[q] -= 1;
                } else {
                    unmet[q] += 1;
                }
                let bit = 1u64 << (q % 64);
                if unmet[q] == 0 {
                    run[q / 64] |= bit;
                } else {
                    run[q / 64] &= !bit;
                }
            }
            masks.extend_from_slice(&run);
        }
        Self::from_table(boundaries, masks, words)
    }

    /// The sorted distinct cut points of `preds`: every `lo`, and every
    /// `hi + 1` that does not overflow.
    fn boundaries(preds: &[(QueryId, i64, i64)]) -> Vec<i64> {
        let mut boundaries: Vec<i64> = Vec::with_capacity(preds.len() * 2);
        for &(_, lo, hi) in preds {
            boundaries.push(lo);
            if hi < i64::MAX {
                boundaries.push(hi + 1);
            }
        }
        boundaries.sort_unstable();
        boundaries.dedup();
        boundaries
    }

    /// Wraps a finished `(boundaries, masks)` table with its search
    /// accelerator.
    fn from_table(boundaries: Vec<i64>, masks: Vec<u64>, words: usize) -> Self {
        let (jump, jump_umin, jump_span, jump_scale) = Self::build_jump(&boundaries);
        let jump_bounds = if jump.is_empty() {
            Vec::new()
        } else {
            let mut jb = boundaries.clone();
            jb.extend([0i64; 4]);
            jb
        };
        GroupedFilter { boundaries, masks, words, jump, jump_bounds, jump_umin, jump_span, jump_scale }
    }

    /// The construction the sweep replaces, kept as its test oracle: every
    /// segment tests every predicate against the segment's sample value.
    #[cfg(test)]
    fn build_quadratic(preds: &[(QueryId, i64, i64)], capacity: usize) -> Self {
        let words = roulette_core::queryset::words_for(capacity.max(1));
        let boundaries = Self::boundaries(preds);
        let n_segments = boundaries.len() + 1;
        let mut masks = vec![u64::MAX; n_segments * words];
        for seg in 0..n_segments {
            let sample = if seg == 0 {
                boundaries.first().map_or(0, |&b| b.saturating_sub(1))
            } else {
                boundaries[seg - 1]
            };
            let row = &mut masks[seg * words..(seg + 1) * words];
            for &(q, lo, hi) in preds {
                if sample < lo || sample > hi {
                    row[q.index() / 64] &= !(1u64 << (q.index() % 64));
                }
            }
        }
        Self::from_table(boundaries, masks, words)
    }

    /// Builds the bucket jump table: a histogram of boundary bucket
    /// indices, prefix-summed so `jump[k]` counts boundaries in buckets
    /// `< k`. The bucket map is monotone in the value, so those boundaries
    /// are exactly a prefix of the sorted array.
    fn build_jump(boundaries: &[i64]) -> (Vec<u32>, u64, u64, u64) {
        let (Some(&min), Some(&max)) = (boundaries.first(), boundaries.last()) else {
            return (Vec::new(), 0, 0, 0);
        };
        let umin = sign_flip(min);
        let span = sign_flip(max) - umin;
        if span < 4 {
            // At most a handful of adjacent boundaries; plain search wins.
            return (Vec::new(), 0, 0, 0);
        }
        let nb = jump_buckets(boundaries.len(), span);
        // `nb <= span / 2`, so `scale` fits in 64 bits; it rounds down, so
        // `bucket(max) <= nb` and every in-range value (`min <= v < max`)
        // lands strictly below `nb`.
        let scale = (((nb as u128) << 64) / span as u128) as u64;
        let mut hist = vec![0u32; nb + 1];
        for &b in boundaries {
            let k = (((sign_flip(b) - umin) as u128 * scale as u128) >> 64) as usize;
            hist[k.min(nb)] += 1;
        }
        // `jump[k]` = #boundaries in buckets `< k`, for `k` in `0..=nb+1`
        // (the final entry is the total, so `jump[k + 1]` is valid for
        // every reachable bucket including `nb`).
        let mut jump = Vec::with_capacity(nb + 2);
        let mut acc = 0u32;
        for &h in hist.iter().take(nb + 1) {
            jump.push(acc);
            acc += h;
        }
        jump.push(acc);
        (jump, umin, span, scale)
    }

    /// The segment index for value `v` — identical to
    /// `boundaries.partition_point(|b| b <= v)`, computed through the
    /// bucket jump table: one fixed-point multiply finds the bucket, whose
    /// boundary range is almost always 0–2 entries, scanned branchlessly.
    /// Long ranges (adversarially clustered boundaries) fall back to a
    /// binary search over just that range.
    #[inline]
    pub(crate) fn seg_of(&self, v: i64) -> usize {
        if self.jump.is_empty() {
            // Few/trivially-spanned boundaries: the plain search is cheap.
            return self.boundaries.partition_point(|&b| b <= v);
        }
        // Out-of-range values clamp into the edge buckets instead of
        // branching: for `v < min` every scanned boundary fails `b <= v`
        // (segment 0); for `v >= max` the clamped bucket is the last
        // boundary's own, whose scan range runs to the end of the table.
        // All in order-preserving unsigned math ([`sign_flip`]) — the
        // saturating-sub and `min` lower to conditional moves.
        let d = sign_flip(v).saturating_sub(self.jump_umin).min(self.jump_span);
        let k = ((d as u128 * self.jump_scale as u128) >> 64) as usize;
        // `k <= nb` and `jump.len() == nb + 2`, so both reads are in
        // bounds (the checks fold away or never-taken-predict).
        let lo = self.jump[k] as usize;
        let hi = self.jump[k + 1] as usize;
        if hi - lo <= 2 {
            // Fixed-shape refinement: two reads from the padded boundary
            // copy (always in bounds, so no data-dependent branch),
            // counted branchlessly with pad/past-`hi` entries masked off
            // arithmetically — a sentinel would miscount `v == i64::MAX`,
            // and a real boundary past `hi` sits in a later bucket, so it
            // is strictly greater than `v` and adds 0 anyway. With ~4
            // buckets per boundary this tier covers all but adversarially
            // clustered tables.
            let n = self.boundaries.len();
            let mut seg = lo;
            for j in 0..2 {
                let b = self.jump_bounds[lo + j];
                seg += usize::from(b <= v) & usize::from(lo + j < n);
            }
            seg
        } else {
            // Adversarially clustered boundaries: binary-search the range.
            let range = self.boundaries.get(lo..hi).unwrap_or(&[]);
            lo + range.partition_point(|&b| b <= v)
        }
    }

    /// The predicate-result bitset for value `v`: bit `q` is set iff query
    /// `q` either has no predicate in this group or its predicate is
    /// satisfied by `v`.
    #[inline]
    pub fn mask_for(&self, v: i64) -> &[u64] {
        let seg = self.seg_of(v);
        &self.masks[seg * self.words..(seg + 1) * self.words]
    }

    /// Number of range segments (diagnostics).
    pub fn segments(&self) -> usize {
        self.boundaries.len() + 1
    }

    /// The raw lookup table for the kernel layer's batched evaluation:
    /// `(boundaries, per-segment masks concatenated, words per mask)`.
    /// Segment for value `v` is `boundaries.partition_point(|b| b <= v)`,
    /// exactly what [`mask_for`](Self::mask_for) computes.
    #[inline]
    pub(crate) fn table(&self) -> (&[i64], &[u64], usize) {
        (&self.boundaries, &self.masks, self.words)
    }
}

/// Per-query predicate evaluation (the pre-grouped-filter baseline):
/// cost is linear in the number of predicates for every tuple.
#[derive(Debug, Clone)]
pub struct PlainFilter {
    preds: Vec<(QueryId, i64, i64)>,
    words: usize,
}

impl PlainFilter {
    /// Wraps the group's predicates.
    pub fn new(preds: &[(QueryId, i64, i64)], capacity: usize) -> Self {
        PlainFilter {
            preds: preds.to_vec(),
            words: roulette_core::queryset::words_for(capacity.max(1)),
        }
    }

    /// Writes the predicate-result bitset for `v` into `mask`
    /// (`words_for(capacity)` words, set to all-ones first).
    #[inline]
    pub fn mask_into(&self, v: i64, mask: &mut [u64]) {
        debug_assert_eq!(mask.len(), self.words);
        mask.fill(u64::MAX);
        for &(q, lo, hi) in &self.preds {
            if v < lo || v > hi {
                mask[q.index() / 64] &= !(1u64 << (q.index() % 64));
            }
        }
    }

    /// Width of the masks this filter produces, in words.
    #[inline]
    pub(crate) fn words(&self) -> usize {
        self.words
    }
}

/// One selection group's filter, in the one form the session evaluates:
/// the grouped lookup table, or per-query evaluation when
/// `EngineConfig::grouped_filters` is off (the Fig. 18 ablation).
#[derive(Debug, Clone)]
pub enum SelectionFilter {
    /// Range-based lookup table (§5.1).
    Grouped(GroupedFilter),
    /// Per-query evaluation (ablation baseline).
    Plain(PlainFilter),
}

impl SelectionFilter {
    /// Builds the group's filter in the form `grouped` selects.
    pub fn build(preds: &[(QueryId, i64, i64)], capacity: usize, grouped: bool) -> Self {
        if grouped {
            SelectionFilter::Grouped(GroupedFilter::build(preds, capacity))
        } else {
            SelectionFilter::Plain(PlainFilter::new(preds, capacity))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Fig. 8 example on R.d:
    /// Q1: −3 < d < 3 (as −2..=2), Q2: true, Q3: d < 0.
    fn fig8_preds() -> Vec<(QueryId, i64, i64)> {
        vec![(QueryId(0), -2, 2), (QueryId(2), i64::MIN, -1)]
    }

    #[test]
    fn grouped_filter_reproduces_fig8_table() {
        let f = GroupedFilter::build(&fig8_preds(), 3);
        // (-∞,-2) → Q2,Q3 pass, Q1 fails: 110 (bit0=Q1).
        assert_eq!(f.mask_for(-5)[0] & 0b111, 0b110);
        // [-2,0) → all pass: 111.
        assert_eq!(f.mask_for(-1)[0] & 0b111, 0b111);
        // [0,3) → Q3 fails: 011.
        assert_eq!(f.mask_for(1)[0] & 0b111, 0b011);
        // [3,∞) → Q1,Q3 fail: 010.
        assert_eq!(f.mask_for(3)[0] & 0b111, 0b010);
        assert_eq!(f.mask_for(100)[0] & 0b111, 0b010);
    }

    #[test]
    fn plain_filter_agrees_with_grouped() {
        let preds = vec![
            (QueryId(0), 10, 20),
            (QueryId(1), 15, 35),
            (QueryId(3), i64::MIN, 12),
            (QueryId(5), 33, i64::MAX),
        ];
        let grouped = GroupedFilter::build(&preds, 6);
        let plain = PlainFilter::new(&preds, 6);
        let mut mask = vec![0u64; 1];
        for v in [-100, 9, 10, 12, 13, 15, 20, 21, 32, 33, 35, 36, 1000, i64::MIN, i64::MAX] {
            plain.mask_into(v, &mut mask);
            assert_eq!(
                mask[0] & 0b111111,
                grouped.mask_for(v)[0] & 0b111111,
                "divergence at v={v}"
            );
        }
    }

    #[test]
    fn queries_without_predicates_always_pass() {
        let f = GroupedFilter::build(&[(QueryId(1), 0, 0)], 64);
        for v in [-1, 0, 1] {
            let m = f.mask_for(v)[0];
            // Bits other than Q1's must be set everywhere.
            assert_eq!(m | 0b10, u64::MAX);
        }
        assert_eq!(f.mask_for(0)[0] & 0b10, 0b10);
        assert_eq!(f.mask_for(1)[0] & 0b10, 0);
    }

    #[test]
    fn segment_count_is_bounded_by_boundaries() {
        let preds: Vec<_> = (0..10).map(|i| (QueryId(i), i as i64 * 10, i as i64 * 10 + 5)).collect();
        let f = GroupedFilter::build(&preds, 10);
        assert!(f.segments() <= 21);
    }

    #[test]
    fn multiword_masks() {
        // Query 70 lives in the second word.
        let f = GroupedFilter::build(&[(QueryId(70), 5, 9)], 128);
        assert_eq!(f.mask_for(7)[1] & (1 << 6), 1 << 6);
        assert_eq!(f.mask_for(4)[1] & (1 << 6), 0);
        assert_eq!(f.mask_for(4)[0], u64::MAX);
    }

    #[test]
    fn extreme_bounds_do_not_overflow() {
        let preds = vec![(QueryId(0), i64::MIN, i64::MAX)];
        let f = GroupedFilter::build(&preds, 1);
        assert_eq!(f.mask_for(i64::MIN)[0] & 1, 1);
        assert_eq!(f.mask_for(i64::MAX)[0] & 1, 1);
        assert_eq!(f.mask_for(0)[0] & 1, 1);
    }

    #[test]
    fn seg_of_matches_partition_point() {
        let cases: Vec<Vec<(QueryId, i64, i64)>> = vec![
            vec![],
            vec![(QueryId(0), 5, 5)],
            vec![(QueryId(0), i64::MIN, i64::MAX)],
            vec![(QueryId(0), i64::MIN, -1), (QueryId(1), 0, i64::MAX)],
            fig8_preds(),
            (0..64)
                .map(|i| {
                    let lo = (i as i64 * 13) % 1000;
                    (QueryId(i), lo, lo + 150)
                })
                .collect(),
            // Adversarial clustering: a dense clump of boundaries plus one
            // far outlier, so one bucket holds nearly everything and the
            // long-range binary-search fallback is exercised.
            (0..40)
                .map(|i| (QueryId(i), 1000 + i as i64, 1000 + i as i64))
                .chain([(QueryId(40), i64::MAX - 2, i64::MAX - 2)])
                .collect(),
        ];
        for preds in &cases {
            let f = GroupedFilter::build(preds, 64);
            let mut probes: Vec<i64> =
                vec![i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
            for &b in &f.boundaries {
                probes.extend([b.saturating_sub(1), b, b.saturating_add(1)]);
            }
            let mut v = 0x2545_F491_4F6C_DD1Di64;
            for _ in 0..4096 {
                v = v.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                probes.push(v >> 16);
                probes.push((v >> 16) % 1200);
            }
            for &p in &probes {
                assert_eq!(
                    f.seg_of(p),
                    f.boundaries.partition_point(|&b| b <= p),
                    "seg divergence at v={p} ({} preds)",
                    preds.len()
                );
            }
        }
    }

    /// The sweep against the quadratic construction it replaced: byte-equal
    /// boundaries and masks over random predicate sets with extreme and
    /// empty ranges, repeated queries, empty groups, and capacities from one
    /// word to several.
    #[test]
    fn sweep_build_matches_quadratic_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5eed_f117);
        for case in 0..3000usize {
            let capacity = rng.gen_range(1..=300usize);
            let n_preds = if case % 10 == 0 { 0 } else { rng.gen_range(1..=capacity.min(80)) };
            let span = [8i64, 1000, 1 << 40][case % 3];
            let bound = |rng: &mut StdRng| match rng.gen_range(0..10) {
                0 => i64::MIN,
                1 => i64::MAX,
                2 => i64::MIN + 1,
                3 => i64::MAX - 1,
                _ => rng.gen_range(-span..=span),
            };
            let preds: Vec<(QueryId, i64, i64)> = (0..n_preds)
                .map(|_| {
                    let q = QueryId(rng.gen_range(0..capacity) as u32);
                    let (a, b) = (bound(&mut rng), bound(&mut rng));
                    // Mostly ordered ranges; now and then an empty one.
                    let (lo, hi) = if rng.gen_ratio(1, 8) { (a, b) } else { (a.min(b), a.max(b)) };
                    (q, lo, hi)
                })
                .collect();
            let sweep = GroupedFilter::build(&preds, capacity);
            let oracle = GroupedFilter::build_quadratic(&preds, capacity);
            assert_eq!(sweep.table(), oracle.table(), "case {case}: {preds:?}");
        }
    }
}
