//! The router and the episode-local sink it routes into (§3, §5.1).
//!
//! Every join-phase plan ends in routers: a null decision hands the
//! surviving tuples to the RouLette sources of their query-sets. [`route`]
//! is the one router body. It is handed a query-set column and the vID
//! columns carried beside it — a whole vector that reached the router
//! directly, or one tile of a leaf probe's output, which is routed while
//! it is still in cache and never materialised — together with the plan's
//! [`Leaf`] shape, and works column-at-a-time over the leaf's *projection
//! classes* — the queries projecting one ordered column list — not over
//! its queries ([`crate::kernels::route`]):
//!
//! * a class that projects nothing (the one class of a count-only leaf) is
//!   one counting pass over the query-set words and one sink update per
//!   member;
//! * a projecting class is a pass over the query-set words that finds the
//!   rows any member owns and the members owning all of them (and lists
//!   those rows unless they are the whole tile), then one `row_hash` chain
//!   per selected row run down each projected column — once for the
//!   class, however many members receive the row.
//!   A member owning every selected row takes the class's row count and
//!   checksum as they are; any other member sums the chains of its own
//!   rows. Rows are re-assembled, per member, only when the sink collects
//!   them.
//!
//! The direct multicast router of the Fig. 17–18 ablation
//! (`locality_router = false`) projects and hashes tuple by tuple from the
//! same inputs; it is the differential oracle for the above.
//!
//! Nothing here takes a lock: a leaf probe calls [`route`] under a STeM's
//! read latch, and the sink is worker-local until the episode's
//! commit point.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::fault::LiveSet;
use crate::kernels::{bit_of, pairs, route as kernel};
use crate::output::{row_hash, Outputs};
use crate::planner::{Leaf, ProjCol};
use roulette_core::{QueryId, QuerySet, QuerySetColumn, RelId};
use roulette_storage::{Catalog, Column};

/// One query's staged output: row count, checksum, and (when collecting)
/// the projected rows in a flat value store — `data` holds the rows'
/// values back-to-back and `offsets[i]` is the end of row `i` — so staging
/// a row never allocates once the buffers are warm.
#[derive(Debug)]
struct SinkEntry {
    q: QueryId,
    rows: u64,
    checksum: u64,
    data: Vec<i64>,
    offsets: Vec<u32>,
}

/// Episode-local staging of routed outputs.
///
/// The join phase routes into this sink instead of the shared [`Outputs`];
/// the episode commits it exactly once at the end, masked by the live set.
/// This makes episode output atomic: a quarantined query never publishes
/// partial rows, a watchdog-aborted join phase is discarded wholesale, and
/// a panic unwinding through the episode drops the sink before anything
/// reaches a consumer. Retired entries are parked in a spare pool, so a
/// pooled sink routes allocation-free in steady state.
#[derive(Debug, Default)]
pub struct EpisodeSink {
    pub(crate) collecting: bool,
    /// Projected values folded into a row hash so far: Σ over routed
    /// projection classes of selected rows × columns. A work counter, so
    /// [`reset`](Self::reset) keeps it; the episode drains it into
    /// [`crate::SharedStats::routed_values`].
    pub(crate) routed_values: u64,
    acc: Vec<SinkEntry>,
    spare: Vec<SinkEntry>,
    /// Dense query-id → `acc` position + 1 (0 = not staged): entry lookup
    /// is one load however many queries the episode touches.
    slot_of: Vec<u32>,
}

impl EpisodeSink {
    /// An empty sink; `collecting` mirrors [`Outputs::collecting`].
    pub fn new(collecting: bool) -> Self {
        EpisodeSink { collecting, ..EpisodeSink::default() }
    }

    fn entry(&mut self, q: QueryId) -> Option<&mut SinkEntry> {
        if self.slot_of.len() <= q.index() {
            self.slot_of.resize(q.index() + 1, 0);
        }
        let slot = self.slot_of.get_mut(q.index())?;
        if *slot == 0 {
            let mut e = self.spare.pop().unwrap_or_else(|| SinkEntry {
                q,
                rows: 0,
                checksum: 0,
                data: Vec::new(),
                offsets: Vec::new(),
            });
            e.q = q;
            self.acc.push(e);
            *slot = self.acc.len() as u32;
        }
        self.acc.get_mut(*slot as usize - 1)
    }

    /// Projected values the router folded into a row hash since the sink
    /// was made or last drained (see [`crate::EngineStats::routed_values`]).
    pub fn routed_values(&self) -> u64 {
        self.routed_values
    }

    /// Stages `n` rows of `q` whose hashes sum to `checksum`: one entry
    /// update per (query, routed vector or tile).
    #[inline]
    fn add_batch(&mut self, q: QueryId, n: usize, checksum: u64) -> Option<&mut SinkEntry> {
        let e = self.entry(q)?;
        e.rows += n as u64;
        e.checksum = e.checksum.wrapping_add(checksum);
        Some(e)
    }

    /// Stages `n` rows of a query that projects nothing.
    #[inline]
    fn add_empty_rows(&mut self, q: QueryId, n: usize) {
        let collecting = self.collecting;
        let Some(e) = self.add_batch(q, n, (n as u64).wrapping_mul(row_hash(&[]))) else {
            return;
        };
        if collecting {
            let end = e.data.len() as u32;
            e.offsets.extend(std::iter::repeat_n(end, n));
        }
    }

    /// Stages one projected row (the direct router's tuple-at-a-time path).
    fn push(&mut self, q: QueryId, values: &[i64]) {
        let collecting = self.collecting;
        let Some(e) = self.add_batch(q, 1, row_hash(values)) else {
            return;
        };
        if collecting {
            e.data.extend_from_slice(values);
            e.offsets.push(e.data.len() as u32);
        }
    }

    /// Discards everything staged so far (watchdog abort), parking the
    /// entries for reuse.
    pub fn reset(&mut self) {
        let EpisodeSink { acc, spare, slot_of, .. } = self;
        for e in acc.drain(..) {
            retire(e, spare, slot_of);
        }
    }

    /// Commits staged outputs for queries still live at flush time.
    pub fn flush(&mut self, outputs: &Outputs, live: &LiveSet) {
        let EpisodeSink { acc, spare, slot_of, .. } = self;
        for e in acc.drain(..) {
            if e.rows > 0 && live.contains(e.q) {
                outputs.push_batch(e.q, e.rows, e.checksum);
                if !e.offsets.is_empty() {
                    outputs.extend_collected_flat(e.q, &e.data, &e.offsets);
                }
            }
            retire(e, spare, slot_of);
        }
    }
}

/// Empties a drained sink entry, frees its query's slot, and parks it.
fn retire(mut e: SinkEntry, spare: &mut Vec<SinkEntry>, slot_of: &mut [u32]) {
    if let Some(slot) = slot_of.get_mut(e.q.index()) {
        *slot = 0;
    }
    e.rows = 0;
    e.checksum = 0;
    e.data.clear();
    e.offsets.clear();
    spare.push(e);
}

/// The router's reusable buffers, part of the episode scratch arena. All
/// are reset per projection class of a routed vector or tile and bounded
/// by its size.
#[derive(Debug, Default)]
pub struct RouteScratch {
    /// Per-query row counts of a class that projects nothing.
    counts: Vec<u32>,
    /// The rows any member of a projecting class owns, ascending.
    rows: Vec<u32>,
    /// Query-set words: the members of the class owning every row of `rows`.
    owners: Vec<u64>,
    /// The running `row_hash` chain of each of the class's rows.
    hashes: Vec<u64>,
    /// Collecting only: vIDs of the class's rows in one projected relation.
    vids: Vec<u32>,
    /// Collecting only: one projected column gathered for the class's rows.
    vals: Vec<i64>,
    /// Collecting only: the class's projected values, column-major, kept
    /// until each member's rows are re-assembled into the sink's row store.
    route_vals: Vec<i64>,
    /// Direct router only: the projected row being multicast.
    row: Vec<i64>,
}

/// Routes the tuples `(qsets, cols)` — row `i` carries query-set `qsets[i]`
/// and vID `cols[c].1[i]` of relation `cols[c].0` — to the sink entries of
/// `leaf`'s queries. `cols` must be laid out as `leaf` was resolved
/// against. See the module docs.
// lint: hot-loop
pub fn route(
    catalog: &Catalog,
    locality: bool,
    leaf: &Leaf,
    qsets: &QuerySetColumn,
    cols: &[(RelId, Vec<u32>)],
    sink: &mut EpisodeSink,
    scratch: &mut RouteScratch,
) {
    if qsets.is_empty() {
        return;
    }
    if !locality {
        route_direct(catalog, leaf, qsets, cols, sink, &mut scratch.row);
        return;
    }
    for (members, projs) in leaf.classes() {
        if projs.is_empty() {
            count_class(members, qsets, sink, &mut scratch.counts);
        } else {
            route_class(catalog, members, projs, qsets, cols, sink, scratch);
        }
    }
}

/// Routes the tuples `qsets` to a class that projects nothing: one count
/// and one sink update per member.
// lint: hot-loop
// Both class bodies stay out of line: inlined into `route`'s loop, the
// counting body ran ~10% slower (`perfbench`'s `routing_count_only`).
#[inline(never)]
fn count_class(
    members: &QuerySet,
    qsets: &QuerySetColumn,
    sink: &mut EpisodeSink,
    counts: &mut Vec<u32>,
) {
    kernel::count_queries(qsets, members, counts);
    for q in members.iter() {
        match counts.get(q.index()) {
            Some(&n) if n > 0 => sink.add_empty_rows(q, n as usize),
            _ => {}
        }
    }
}

/// Routes the tuples `(qsets, cols)` to one projecting class: `members`,
/// who all project `projs`. See the module docs.
// lint: hot-loop
#[inline(never)]
fn route_class(
    catalog: &Catalog,
    members: &QuerySet,
    projs: &[ProjCol],
    qsets: &QuerySetColumn,
    cols: &[(RelId, Vec<u32>)],
    sink: &mut EpisodeSink,
    scratch: &mut RouteScratch,
) {
    let RouteScratch { rows, owners, hashes, vids, vals, route_vals, .. } = scratch;
    let n = kernel::select_class(qsets, members.words(), rows, owners);
    if n == 0 {
        return;
    }
    // A class owning the whole tile has no row list: it reads the carried
    // vIDs straight through.
    let whole = rows.is_empty();
    let collecting = sink.collecting;
    kernel::hash_seed(hashes, n);
    route_vals.clear();
    for pc in projs {
        debug_assert!(
            cols.get(pc.slot).is_some_and(|(rel, _)| *rel == pc.rel),
            "leaf resolved against another column order"
        );
        let carried = cols.get(pc.slot).map(|(_, v)| v.as_slice()).unwrap_or_default();
        let column = catalog.relation(pc.rel).column(pc.col);
        if collecting {
            // The values are kept: gather them, then hash the copy.
            let class_vids = if whole {
                carried
            } else {
                vids.clear();
                pairs::gather_u32(carried, rows, vids);
                vids.as_slice()
            };
            column.gather(class_vids, vals);
            kernel::hash_column(vals, hashes);
            route_vals.extend_from_slice(vals);
        } else {
            match column {
                Column::Int64(base) => hash_projected(base, carried, rows, whole, hashes),
                Column::Dict { codes, .. } => hash_projected(codes, carried, rows, whole, hashes),
            }
        }
    }
    sink.routed_values += (n * projs.len()) as u64;
    let total = kernel::hash_sum(hashes);
    if whole && owners.as_slice() != members.words() {
        // Some member owns only part of the tile: its sums need the list.
        rows.extend(0..n as u32);
    }
    let w = qsets.words_per_set();
    for q in members.iter() {
        let owns_all = bit_of(owners, q.index()) == 1;
        let (m, checksum) = if owns_all {
            (n, total)
        } else {
            kernel::masked_sum(qsets, rows, q.index(), hashes)
        };
        if m == 0 {
            continue;
        }
        let Some(e) = sink.add_batch(q, m, checksum) else {
            continue;
        };
        if collecting {
            // Row-major re-assembly into the entry's flat row store, rows
            // ascending — the order the per-row router emits.
            for k in 0..n {
                let row = rows.get(k).map_or(&[][..], |&r| {
                    qsets.raw().get(r as usize * w..).unwrap_or_default()
                });
                if owns_all || bit_of(row, q.index()) == 1 {
                    e.data.extend(route_vals.iter().skip(k).step_by(n));
                    e.offsets.push(e.data.len() as u32);
                }
            }
        }
    }
}

/// Folds one projected column of the class's rows into their hashes:
/// through the row list, or — when the class owns the whole tile — straight
/// through the carried vIDs.
#[inline]
fn hash_projected<T: Copy + Into<i64>>(
    base: &[T],
    carried: &[u32],
    rows: &[u32],
    whole: bool,
    hashes: &mut [u64],
) {
    if whole {
        kernel::hash_vids(base, carried, hashes);
    } else {
        kernel::hash_gathered(base, carried, rows, hashes);
    }
}

/// Direct multicast (the `locality_router = false` ablation and the
/// per-row oracle of the differential suite): iterates the set bits
/// straight off each row's words, projects the tuple for each query and
/// pushes it — one `row_hash` and one sink lookup per (row, query). A
/// query the leaf could not resolve is skipped (it was quarantined).
// lint: hot-loop
fn route_direct(
    catalog: &Catalog,
    leaf: &Leaf,
    qsets: &QuerySetColumn,
    cols: &[(RelId, Vec<u32>)],
    sink: &mut EpisodeSink,
    row: &mut Vec<i64>,
) {
    let w = qsets.words_per_set();
    for (i, words) in qsets.raw().chunks_exact(w).enumerate() {
        for (wi, &word) in words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let q = QueryId((wi * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
                let Some(projs) = leaf.cols_of(q) else { continue };
                row.clear();
                for pc in projs {
                    let vid = cols
                        .get(pc.slot)
                        .and_then(|(_, vids)| vids.get(i))
                        .copied()
                        .unwrap_or(0);
                    row.push(catalog.relation(pc.rel).column(pc.col).value(vid as usize));
                }
                sink.push(q, row);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roulette_core::{ColId, QuerySet};
    use roulette_storage::RelationBuilder;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut r = RelationBuilder::new("r");
        r.int64("a", (0..8).map(|i| i * 10).collect());
        c.add(r.build()).unwrap();
        let mut s = RelationBuilder::new("s");
        s.int64("b", (0..8).map(|i| -i).collect());
        c.add(s.build()).unwrap();
        c
    }

    /// Routes three tuples to three queries and returns what the sink
    /// committed: `(rows, checksum, collected rows)` per query.
    fn routed(
        locality: bool,
        collecting: bool,
        projections: &[Vec<(RelId, ColId)>],
    ) -> Vec<(u64, u64, Vec<Vec<i64>>)> {
        let c = catalog();
        let (r, s) = (c.relation_id("r").unwrap(), c.relation_id("s").unwrap());
        let cols = vec![(s, vec![1u32, 2, 3]), (r, vec![7u32, 6, 5])];
        let mut qsets = QuerySetColumn::new(1);
        for words in [0b011u64, 0b110, 0b001] {
            qsets.push(&[words]);
        }
        let leaf = Leaf::resolve(QuerySet::full(3), &[s, r], projections);
        let mut sink = EpisodeSink::new(collecting);
        let mut scratch = RouteScratch::default();
        for _ in 0..2 {
            route(&c, locality, &leaf, &qsets, &cols, &mut sink, &mut scratch);
        }
        let outputs = Outputs::new(3, collecting);
        let live = LiveSet::new(3);
        for q in 0..3 {
            live.activate(QueryId(q));
        }
        sink.flush(&outputs, &live);
        (0..3)
            .map(|q| {
                let res = outputs.result(QueryId(q));
                (res.rows, res.checksum, outputs.take_collected(QueryId(q)))
            })
            .collect()
    }

    #[test]
    fn column_router_matches_direct_router_and_row_hash() {
        let c = catalog();
        let (r, s) = (c.relation_id("r").unwrap(), c.relation_id("s").unwrap());
        let shapes: [Vec<Vec<(RelId, ColId)>>; 2] = [
            vec![vec![], vec![], vec![]],
            vec![vec![(r, ColId(0)), (s, ColId(0)), (r, ColId(0))], vec![], vec![(s, ColId(0))]],
        ];
        for projections in &shapes {
            for collecting in [false, true] {
                let fused = routed(true, collecting, projections);
                assert_eq!(fused, routed(false, collecting, projections));
                for (_, _, rows) in &fused {
                    assert_eq!(rows.is_empty(), !collecting);
                }
            }
        }
        // Query 0 of the projecting shape owns tuples 0 and 2, twice over.
        let got = routed(true, true, &shapes[1]);
        let want = [vec![70, -1, 70], vec![50, -3, 50]];
        let sum = want.iter().fold(0u64, |acc, row| acc.wrapping_add(row_hash(row)));
        assert_eq!((got[0].0, got[0].1), (4, sum.wrapping_mul(2)));
        assert_eq!(got[0].2, [&want[..], &want[..]].concat());
        assert_eq!((got[1].0, got[1].1), (4, row_hash(&[]).wrapping_mul(4)));
    }

    #[test]
    fn classes_hash_each_projected_value_once() {
        let c = catalog();
        let (r, s) = (c.relation_id("r").unwrap(), c.relation_id("s").unwrap());
        let cols = vec![(s, vec![1u32, 2, 3, 4]), (r, vec![7u32, 6, 5, 4])];
        let mut qsets = QuerySetColumn::new(1);
        // Q0 owns rows 0–3, Q1 rows 1 and 3, Q2 rows 0 and 2, Q3 row 3.
        for words in [0b0101u64, 0b0011, 0b0101, 0b1011] {
            qsets.push(&[words]);
        }
        // Q0 and Q1 project one list, Q2 its permutation, Q3 nothing.
        let (ra, sb) = ((r, ColId(0)), (s, ColId(0)));
        let projections = vec![vec![ra, sb], vec![ra, sb], vec![sb, ra], vec![]];
        let leaf = Leaf::resolve(QuerySet::full(4), &[s, r], &projections);
        assert_eq!(leaf.classes().count(), 3);
        let outputs = Outputs::new(4, true);
        let live = LiveSet::new(4);
        for q in 0..4 {
            live.activate(QueryId(q));
        }
        let mut sink = EpisodeSink::new(true);
        route(&c, true, &leaf, &qsets, &cols, &mut sink, &mut RouteScratch::default());
        // Class {Q0, Q1}: rows 0–3 × 2 columns; class {Q2}: rows 0 and 2 ×
        // 2 columns; the count-only class hashes nothing.
        assert_eq!(sink.routed_values, 4 * 2 + 2 * 2);
        sink.flush(&outputs, &live);
        let rows: Vec<Vec<Vec<i64>>> = (0..4).map(|q| outputs.take_collected(QueryId(q))).collect();
        assert_eq!(rows[0], [[70, -1], [60, -2], [50, -3], [40, -4]]);
        assert_eq!(rows[1], [[60, -2], [40, -4]]);
        assert_eq!(rows[2], [[-1, 70], [-3, 50]]);
        assert_eq!(rows[3], [Vec::<i64>::new()]);
        for (q, rows) in rows.iter().enumerate() {
            let res = outputs.result(QueryId(q as u32));
            let sum = rows.iter().fold(0u64, |acc, row| acc.wrapping_add(row_hash(row)));
            assert_eq!((res.rows, res.checksum), (rows.len() as u64, sum), "Q{q}");
        }
        // The direct router hashes per (row, query) and counts nothing.
        let mut sink = EpisodeSink::new(false);
        route(&c, false, &leaf, &qsets, &cols, &mut sink, &mut RouteScratch::default());
        assert_eq!(sink.routed_values, 0);
    }

    #[test]
    fn unresolved_query_is_skipped_by_both_routers() {
        let c = catalog();
        let r = c.relation_id("r").unwrap();
        // Query 1 projects a relation the vector does not carry.
        let projections = vec![vec![(r, ColId(0))], vec![(RelId(9), ColId(0))], vec![]];
        for locality in [true, false] {
            let got = routed(locality, false, &projections);
            assert_eq!(got[1].0, 0, "locality={locality}");
            assert_eq!((got[0].0, got[2].0), (4, 2));
        }
    }

    #[test]
    fn sink_reset_discards_staged_rows() {
        let mut sink = EpisodeSink::new(true);
        sink.push(QueryId(5), &[1, 2]);
        sink.add_empty_rows(QueryId(0), 3);
        sink.reset();
        let outputs = Outputs::new(6, true);
        let live = LiveSet::new(6);
        live.activate(QueryId(5));
        sink.push(QueryId(5), &[3]);
        sink.flush(&outputs, &live);
        assert_eq!(outputs.result(QueryId(5)).rows, 1);
        assert_eq!(outputs.take_collected(QueryId(5)), vec![vec![3]]);
        assert_eq!(outputs.result(QueryId(0)).rows, 0);
    }
}
