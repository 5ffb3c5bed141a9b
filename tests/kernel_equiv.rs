//! Differential tests for the data-parallel kernel layer.
//!
//! The kernels are pure mechanical transformations of row-at-a-time
//! loops: for every kernel, every row width, and every tail length they
//! must produce *byte-identical* query-set words, survivor masks and
//! compacted columns to a reference that shares no code with them —
//! `QuerySetColumn`'s `and_rows` family and `retain_mask`, and the per-row
//! `scalar_filter_grouped` and `scalar_compact_u32` below. The suite also
//! pins the tiled probe operator (AND-select, `Stem::probe_tiles`, column
//! gathers) to the per-key `Stem::probe` + `and_into` reference, and the
//! router's count and column-hash kernels and its projection classes to
//! per-row membership, the direct router and per-row `row_hash`, then
//! closes the loop end to end: a full engine run must match the
//! query-at-a-time engine (which shares no kernel with it) at one and four
//! workers, including under deterministic fault injection, and the fused
//! column-at-a-time router must match the per-row direct router
//! (`locality_router = false`) for every leaf shape, query-set width and
//! worker count, collecting or not.

use roulette::baselines::{ExecMode, QatEngine};
use roulette::core::queryset::and_into;
use roulette::core::{ColId, EngineConfig, QueryId, QuerySet, QuerySetColumn, RelId, RowMask};
use roulette::exec::kernels::{self, pairs, route};
use roulette::exec::{
    route as route_tuples, row_hash, EpisodeSink, FaultInjector, FaultSite, GroupedFilter, Leaf,
    LiveSet, MatchTile, Outputs, PlainFilter, ProbeScratch, RouletteEngine, RouteScratch, Stem,
    Walk, PROBE_TILE, VERSION_ALL,
};
use std::sync::atomic::AtomicU32;
use roulette::query::SpjQuery;
use roulette::storage::{Catalog, Column, Offsets, RelationBuilder};

/// Deterministic value stream (same constants as the perf harness).
fn lcg(v: &mut i64) -> i64 {
    *v = v.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *v >> 33
}

/// Row counts covering empty input, sub-word tails, exact word multiples,
/// one-past-a-word, and a multi-word body with a tail.
const ROWS: [usize; 7] = [0, 1, 5, 63, 64, 65, 200];

/// Query capacities spanning row widths of 1, 1, 2, 3, and 5 words.
const CAPACITIES: [usize; 5] = [7, 64, 65, 130, 300];

/// Builds a column of `n` rows at the width implied by `capacity`:
/// pseudo-random words with occasional all-zero and all-ones rows so the
/// empty- and full-qset paths are hit inside one batch. The first row is
/// a random one, so a kernel that mishandles row 0 cannot hide behind an
/// empty row.
fn make_qsets(capacity: usize, n: usize, seed: i64) -> QuerySetColumn {
    let words = QuerySet::full(capacity).width();
    let mut col = QuerySetColumn::new(words);
    let mut s = seed;
    for i in 0..n {
        let row: Vec<u64> = (0..words)
            .map(|_| match (i + 3) % 7 {
                0 => 0,
                1 => u64::MAX,
                _ => lcg(&mut s) as u64,
            })
            .collect();
        col.push(&row);
    }
    col
}

/// Per-row masks matching `col`'s shape, from the same generator.
fn make_masks(words: usize, n: usize, seed: i64) -> Vec<u64> {
    let mut s = seed;
    (0..n * words)
        .map(|i| match (i / words.max(1)) % 5 {
            0 => 0,
            1 => u64::MAX,
            _ => lcg(&mut s) as u64,
        })
        .collect()
}

/// Asserts a kernel produced the reference's column + mask, byte for byte.
fn assert_same(
    tag: &str,
    reference: (&QuerySetColumn, &RowMask),
    candidate: (&QuerySetColumn, &RowMask),
) {
    assert_eq!(reference.0.raw(), candidate.0.raw(), "{tag}: qset words diverged");
    assert_eq!(
        (reference.1.len(), reference.1.words()),
        (candidate.1.len(), candidate.1.words()),
        "{tag}: keep mask diverged"
    );
}

// --- row-at-a-time references ---

/// Grouped-filter reference: one binary search + one `and_row` per tuple.
fn scalar_filter_grouped(
    filter: &GroupedFilter,
    values: &[i64],
    qsets: &mut QuerySetColumn,
    keep: &mut RowMask,
) {
    keep.clear_resize(qsets.len());
    for (i, &v) in values.iter().enumerate() {
        if qsets.and_row(i, filter.mask_for(v)) {
            keep.set(i);
        }
    }
}

/// Compaction reference: one element moved per surviving row.
fn scalar_compact_u32(col: &mut Vec<u32>, keep: &RowMask) {
    let mut out = 0usize;
    keep.for_each_set(|i| {
        col[out] = col[i];
        out += 1;
    });
    col.truncate(out);
}

#[test]
fn filter_kernels_match_scalar_for_all_widths_and_tails() {
    for &capacity in &CAPACITIES {
        // Predicates staggered so values hit disjoint, overlapping, and
        // unbounded ranges; a couple of queries get no predicate at all.
        let preds: Vec<(QueryId, i64, i64)> = (0..capacity.min(80))
            .filter(|i| i % 9 != 4)
            .map(|i| {
                let lo = (i as i64 * 13) % 500 - 250;
                let hi = if i % 11 == 3 { i64::MAX } else { lo + 40 + (i as i64 % 90) };
                (QueryId(i as u32), lo, hi)
            })
            .collect();
        let grouped = GroupedFilter::build(&preds, capacity);
        let plain = PlainFilter::new(&preds, capacity);
        let mut buf = vec![7; 9]; // stale contents must not leak
        for &n in &ROWS {
            let mut s = 41;
            let values: Vec<i64> = (0..n)
                .map(|i| match i % 13 {
                    0 => i64::MIN,
                    1 => i64::MAX,
                    _ => lcg(&mut s) % 700,
                })
                .collect();
            let base = make_qsets(capacity, n, 7);
            let mut ref_q = base.clone();
            let mut ref_k = RowMask::new();
            scalar_filter_grouped(&grouped, &values, &mut ref_q, &mut ref_k);
            let tag = format!("filter cap={capacity} rows={n}");
            let mut q = base.clone();
            let mut keep = RowMask::new();
            kernels::filter_grouped(&grouped, &values, &mut q, &mut keep);
            assert_same(&format!("{tag} grouped"), (&ref_q, &ref_k), (&q, &keep));
            // Per-query evaluation computes the same predicate bitsets as
            // the lookup table, so it must reach the same result.
            let mut pq = base.clone();
            let mut pk = RowMask::new();
            kernels::filter_plain(&plain, &values, &mut buf, &mut pq, &mut pk);
            assert_same(&format!("{tag} plain"), (&ref_q, &ref_k), (&pq, &pk));
        }
    }
}

#[test]
fn qset_kernels_match_scalar_for_all_widths_and_tails() {
    for &capacity in &CAPACITIES {
        let words = QuerySet::full(capacity).width();
        for &n in &ROWS {
            let base = make_qsets(capacity, n, 11);
            let masks = make_masks(words, n, 13);
            let one_mask = &make_masks(words, 1, 17)[..words];
            let tag = format!("qset cap={capacity} rows={n}");

            let mut ref_and = base.clone();
            let mut ref_and_k = RowMask::new();
            ref_and.and_rows(&masks, &mut ref_and_k);
            let mut q = base.clone();
            let mut keep = RowMask::new();
            kernels::qset_and(&mut q, &masks, &mut keep);
            assert_same(&format!("{tag} and"), (&ref_and, &ref_and_k), (&q, &keep));

            let mut ref_bc = base.clone();
            let mut ref_bc_k = RowMask::new();
            ref_bc.and_rows_broadcast(one_mask, &mut ref_bc_k);
            let mut q = base.clone();
            let mut keep = RowMask::new();
            kernels::qset_and_broadcast(&mut q, one_mask, &mut keep);
            assert_same(&format!("{tag} and_broadcast"), (&ref_bc, &ref_bc_k), (&q, &keep));

            let mut ref_sub = base.clone();
            let mut ref_sub_k = RowMask::new();
            ref_sub.subtract_rows_broadcast(one_mask, &mut ref_sub_k);
            let mut q = base.clone();
            let mut keep = RowMask::new();
            kernels::qset_subtract_broadcast(&mut q, one_mask, &mut keep);
            assert_same(&format!("{tag} subtract"), (&ref_sub, &ref_sub_k), (&q, &keep));

            let mut ref_or = base.clone();
            ref_or.or_rows(&masks);
            let mut q = base.clone();
            kernels::qset_or(&mut q, &masks);
            assert_eq!(ref_or.raw(), q.raw(), "{tag}: qset_or diverged");
        }
    }
}

/// Survivor patterns: none, all, alternating, sparse, dense, and random —
/// the run-based compaction must match row-at-a-time exactly on each.
fn keep_patterns(n: usize) -> Vec<RowMask> {
    let mut out = Vec::new();
    let mut s = 29;
    for pat in 0..6 {
        let mut m = RowMask::new();
        m.clear_resize(n);
        for i in 0..n {
            let bit = match pat {
                0 => false,
                1 => true,
                2 => i % 2 == 0,
                3 => i % 37 == 5,
                4 => i % 19 != 3,
                _ => lcg(&mut s) & 1 == 1,
            };
            if bit {
                m.set(i);
            }
        }
        out.push(m);
    }
    out
}

#[test]
fn compaction_kernels_match_scalar_for_all_patterns() {
    for &capacity in &[64usize, 130] {
        for &n in &ROWS {
            for (pi, keep) in keep_patterns(n).iter().enumerate() {
                let base_q = make_qsets(capacity, n, 19);
                let mut s = 23;
                let base_c: Vec<u32> = (0..n).map(|_| lcg(&mut s) as u32).collect();
                let tag = format!("compact cap={capacity} rows={n} pat={pi}");

                let mut ref_c = base_c.clone();
                scalar_compact_u32(&mut ref_c, keep);
                let mut c = base_c.clone();
                kernels::compact_u32(&mut c, keep);
                assert_eq!(ref_c, c, "{tag}: compact_u32 diverged");

                let mut ref_q = base_q.clone();
                ref_q.retain_mask(keep);
                let mut q = base_q.clone();
                kernels::compact_qsets(&mut q, keep);
                assert_eq!(ref_q.raw(), q.raw(), "{tag}: compact_qsets diverged");
                assert_eq!(ref_q.len(), q.len(), "{tag}: compacted len");
            }
        }
    }
}

/// Three routed queries — few enough per query-set word that the count
/// kernel takes its per-query sweep form — with the high words in use.
fn few_queries(capacity: usize) -> QuerySet {
    let mut few = QuerySet::empty(capacity);
    for q in [0, capacity / 2, capacity - 1] {
        few.insert(QueryId(q as u32));
    }
    few
}

#[test]
fn count_kernel_matches_per_row_membership_for_all_widths_and_tails() {
    for &capacity in &CAPACITIES {
        // Every query routed (the one-pass bit walk), and a few of them
        // (one sweep per query), high words included.
        for routed in [QuerySet::full(capacity), few_queries(capacity)] {
            for &n in &ROWS {
                let qsets = make_qsets(capacity, n, 37);
                let mut counts = vec![3; 5]; // stale contents must not leak
                route::count_queries(&qsets, &routed, &mut counts);
                assert_eq!(counts.len(), qsets.words_per_set() * 64);
                for q in routed.iter() {
                    let (wi, b) = (q.index() / 64, q.index() % 64);
                    let want = (0..n).filter(|&i| qsets.row(i)[wi] >> b & 1 == 1).count();
                    assert_eq!(
                        counts[q.index()] as usize,
                        want,
                        "count cap={capacity} routed={} rows={n} query {q}",
                        routed.len()
                    );
                }
            }
        }
    }
}

/// Folds `column`'s values at the carried `vids` (through `rows`, or every
/// tuple when `rows` is `None`) into `hashes`, the way the router's fused
/// path does: one width dispatch, then the packed kernel.
fn hash_packed(column: &Column, vids: &[u32], rows: Option<&[u32]>, hashes: &mut [u64]) {
    fn fold<T: Copy + Into<u64>>(
        offsets: &[T],
        base: i64,
        vids: &[u32],
        rows: Option<&[u32]>,
        hashes: &mut [u64],
    ) {
        match rows {
            Some(rows) => route::hash_gathered(offsets, base, vids, rows, hashes),
            None => route::hash_vids(offsets, base, vids, hashes),
        }
    }
    match column.packed() {
        (Offsets::U8(o), base) => fold(o, base, vids, rows, hashes),
        (Offsets::U16(o), base) => fold(o, base, vids, rows, hashes),
        (Offsets::U32(o), base) => fold(o, base, vids, rows, hashes),
        (Offsets::U64(o), base) => fold(o, base, vids, rows, hashes),
    }
}

#[test]
fn column_hash_kernels_match_row_hash() {
    let mut s = 43;
    // Columns on negative frames at every width boundary (span 255 | 256,
    // 65 535 | 65 536, u32::MAX | u32::MAX + 1, the whole i64 range), one
    // on a positive frame, then a dictionary column (frame 0).
    let spans: [(i64, u64, usize); 8] = [
        (1_000, 200, 1),
        (-1_000, 255, 1),
        (-300, 256, 2),
        (-70_000, 65_535, 2),
        (-5, 65_536, 4),
        (-(1 << 40), u32::MAX as u64, 4),
        (-1, u32::MAX as u64 + 1, 8),
        (i64::MIN, u64::MAX, 8),
    ];
    // Each column beside its `i64` source, the oracle's values.
    let mut columns: Vec<(Column, Vec<i64>)> = spans
        .iter()
        .map(|&(min, span, width)| {
            let mut src: Vec<i64> = (0..97)
                .map(|_| {
                    let draw = lcg(&mut s) as u64;
                    let off = if span == u64::MAX { draw << 31 } else { draw % (span + 1) };
                    min.wrapping_add(off as i64)
                })
                .collect();
            src[0] = min;
            src[1] = min.wrapping_add(span as i64);
            let c = Column::from_i64(&src);
            assert_eq!(c.packed().0.width(), width, "span {span}");
            assert_eq!(c.packed().1, min);
            (c, src)
        })
        .collect();
    let names: Vec<String> = (0..97).map(|_| format!("s{}", lcg(&mut s) % 300)).collect();
    let mut dict: Vec<&String> = Vec::new();
    let codes = names
        .iter()
        .map(|name| match dict.iter().position(|d| *d == name) {
            Some(code) => code as i64,
            None => {
                dict.push(name);
                dict.len() as i64 - 1
            }
        })
        .collect();
    columns.push((Column::dict_from_strings(&names), codes));
    for &n in &ROWS {
        let vids: Vec<u32> = (0..n + 3).map(|_| lcg(&mut s).rem_euclid(97) as u32).collect();
        // A query's row list: a sparse ascending subset of the tuples.
        let rows: Vec<u32> = (0..n as u32).filter(|i| i % 3 != 1).collect();
        // Projection lists cycle through the widths; the last list
        // repeats a column (the same column projected twice).
        for n_cols in 0..=columns.len() + 1 {
            let proj: Vec<&(Column, Vec<i64>)> =
                (0..n_cols).map(|c| &columns[c % columns.len()]).collect();
            let value = |(_, src): &(Column, Vec<i64>), r: u32| src[vids[r as usize] as usize];
            let (mut fused, mut staged) = (vec![7; 2], vec![9; 1]);
            route::hash_seed(&mut fused, rows.len());
            route::hash_seed(&mut staged, rows.len());
            let mut whole = Vec::new();
            route::hash_seed(&mut whole, n);
            for &c in &proj {
                hash_packed(&c.0, &vids, Some(&rows), &mut fused);
                hash_packed(&c.0, &vids[..n], None, &mut whole);
                let col: Vec<i64> = rows.iter().map(|&r| value(c, r)).collect();
                route::hash_column(&col, &mut staged);
            }
            let sum_over = |rows: &mut dyn Iterator<Item = u32>| {
                rows.fold(0u64, |acc, r| {
                    let row: Vec<i64> = proj.iter().map(|&c| value(c, r)).collect();
                    acc.wrapping_add(row_hash(&row))
                })
            };
            let want = sum_over(&mut rows.iter().copied());
            assert_eq!(route::hash_sum(&fused), want, "fused rows={n} cols={n_cols}");
            assert_eq!(route::hash_sum(&staged), want, "staged rows={n} cols={n_cols}");
            let want_whole = sum_over(&mut (0..n as u32));
            assert_eq!(route::hash_sum(&whole), want_whole, "whole rows={n} cols={n_cols}");
        }
    }
}

// --- the router's projection classes vs the direct router and row_hash ---

/// Projection lists query `q` cycles through (`q % 8`): a pair and its
/// permutation, a disjoint column, nothing, widths 3–5 (a dictionary
/// column, one column twice), and a relation the tile does not carry.
fn class_lists(c: &Catalog) -> Vec<Vec<(RelId, ColId)>> {
    let col = |rel: &str, name: &str| {
        let r = c.relation_id(rel).unwrap();
        (r, c.relation(r).column_id(name).unwrap())
    };
    let (ax, aw, by, cz) = (col("a", "x"), col("a", "w"), col("b", "y"), col("c", "z"));
    vec![
        vec![ax, by],
        vec![by, ax],
        vec![cz],
        vec![],
        vec![ax, by, cz, ax, aw],
        vec![aw, cz, by],
        vec![col("d", "v")],
        vec![ax, by, cz, aw],
    ]
}

/// Whether query `q` owns tuple `i` of an `n`-tuple tile, by its role
/// `(q / 8) % 4`: pseudo-random, every tuple, none, or the same tuples as
/// query `q − 24` — same projection list, so the two can own all of a
/// class's rows together.
fn owns(q: usize, i: usize, seed: i64) -> bool {
    match (q / 8) % 4 {
        0 => {
            let mut s = seed ^ (q as i64 * 7919) ^ (i as i64 * 104_729);
            lcg(&mut s);
            lcg(&mut s) & 3 != 0
        }
        1 => true,
        2 => false,
        _ => owns(q - 24, i, seed),
    }
}

/// The routed subsets of a `capacity`-query leaf: every query; queries
/// with random ownership and their twins; random and every-tuple owners;
/// random and no-tuple owners; and the twins of the first eight alone.
fn class_subsets(capacity: usize) -> Vec<QuerySet> {
    let roles: [&dyn Fn(usize) -> bool; 5] = [
        &|_| true,
        &|q| (q / 8) % 4 != 1 && (q / 8) % 4 != 2,
        &|q| (q / 8) % 4 <= 1,
        &|q| (q / 8) % 4 == 0 || (q / 8) % 4 == 2,
        &|q| q < 8 || (24..32).contains(&q),
    ];
    roles
        .iter()
        .map(|keep| {
            let mut set = QuerySet::empty(capacity);
            for q in (0..capacity).filter(|&q| keep(q)) {
                set.insert(QueryId(q as u32));
            }
            set
        })
        .collect()
}

#[test]
fn projection_classes_match_direct_router_and_row_hash() {
    let mut c = Catalog::new();
    let mut s = 91;
    for (rel, cols) in [("a", &["x", "w"][..]), ("b", &["y"]), ("c", &["z"]), ("d", &["v"])] {
        let mut b = RelationBuilder::new(rel);
        for &name in cols {
            if name == "w" {
                b.strings(name, (0..97).map(|_| ["p", "q", "r", "s"][lcg(&mut s).rem_euclid(4) as usize]));
            } else {
                b.int64(name, (0..97).map(|_| lcg(&mut s)).collect());
            }
        }
        c.add(b.build()).unwrap();
    }
    let lists = class_lists(&c);
    let (a, b, cr) = (c.relation_id("a").unwrap(), c.relation_id("b").unwrap(), c.relation_id("c").unwrap());
    let carried = [b, a, cr];
    let mut scratch = RouteScratch::default(); // reused: stale state must not leak
    for &capacity in &CAPACITIES {
        let projections: Vec<Vec<(RelId, ColId)>> =
            (0..capacity).map(|q| lists[q % lists.len()].clone()).collect();
        for &n in &ROWS {
            let seed = (capacity * 1000 + n) as i64;
            let cols: Vec<(RelId, Vec<u32>)> = carried
                .iter()
                .map(|&r| (r, (0..n).map(|_| lcg(&mut s).rem_euclid(97) as u32).collect()))
                .collect();
            let mut qsets = QuerySetColumn::new(QuerySet::full(capacity).width());
            for i in 0..n {
                let mut row = QuerySet::empty(capacity);
                for q in (0..capacity).filter(|&q| owns(q, i, seed)) {
                    row.insert(QueryId(q as u32));
                }
                qsets.push(row.words());
            }
            let value = |(rel, col): (RelId, ColId), i: usize| -> i64 {
                let vids = &cols.iter().find(|(r, _)| *r == rel).unwrap().1;
                c.relation(rel).column(col).value(vids[i] as usize)
            };
            for routed in class_subsets(capacity) {
                let leaf = Leaf::resolve(routed.clone(), &carried, &projections);
                // Per-row reference: each resolvable query's rows, ascending.
                let mut want_values = 0u64;
                let mut seen: Vec<&[(RelId, ColId)]> = Vec::new();
                let want: Vec<Vec<Vec<i64>>> = (0..capacity)
                    .map(|q| {
                        let list = &projections[q];
                        let resolvable = list.iter().all(|(r, _)| carried.contains(r));
                        if !routed.contains(QueryId(q as u32)) || !resolvable {
                            return Vec::new();
                        }
                        if !seen.contains(&list.as_slice()) {
                            seen.push(list);
                            let class_rows = (0..n)
                                .filter(|&i| {
                                    routed.iter().any(|m| {
                                        projections[m.index()] == *list && owns(m.index(), i, seed)
                                    })
                                })
                                .count();
                            want_values += (class_rows * list.len()) as u64;
                        }
                        (0..n)
                            .filter(|&i| owns(q, i, seed))
                            .map(|i| list.iter().map(|&pc| value(pc, i)).collect())
                            .collect()
                    })
                    .collect();
                for locality in [true, false] {
                    for collecting in [true, false] {
                        let tag = format!(
                            "classes cap={capacity} rows={n} routed={} locality={locality} \
                             collecting={collecting}",
                            routed.len()
                        );
                        let mut sink = EpisodeSink::new(collecting);
                        route_tuples(&c, locality, &leaf, &qsets, &cols, &mut sink, &mut scratch);
                        let values = if locality { want_values } else { 0 };
                        assert_eq!(sink.routed_values(), values, "{tag}: routed values");
                        let outputs = Outputs::new(capacity, collecting);
                        let live = LiveSet::new(capacity);
                        for q in routed.iter() {
                            live.activate(q);
                        }
                        sink.flush(&outputs, &live);
                        for (q, rows) in want.iter().enumerate() {
                            let res = outputs.result(QueryId(q as u32));
                            let sum = rows.iter().fold(0u64, |acc, r| acc.wrapping_add(row_hash(r)));
                            assert_eq!(
                                (res.rows, res.checksum),
                                (rows.len() as u64, sum),
                                "{tag}: query {q}"
                            );
                            let got = outputs.take_collected(QueryId(q as u32));
                            let want_rows = if collecting { rows.clone() } else { Vec::new() };
                            assert_eq!(got, want_rows, "{tag}: collected rows of query {q}");
                        }
                    }
                }
            }
        }
    }
}

// --- the tiled probe operator vs the per-key reference ---

/// One probe output tuple: (probe-vector row, matched entry vID, ANDed
/// query-set words).
type ProbeRow = (u32, u32, Vec<u64>);

/// A STeM over `keys` (entry `i` has vID `i` and a pseudo-random
/// query-set), inserted in three vectors so there are three versions.
/// Returns the STeM and the versions of the first and second vector.
fn build_stem(keys: &[i64], capacity: usize) -> (Stem, u32, u32) {
    let width = QuerySet::full(capacity).width();
    let stem = Stem::with_capacity_hint(RelId(0), vec![ColId(0)], width, keys.len());
    let global = AtomicU32::new(0);
    let qsets = make_qsets(capacity, keys.len(), 53);
    let third = keys.len().div_ceil(3).max(1);
    let mut versions = Vec::new();
    for (c, chunk) in keys.chunks(third).enumerate() {
        let start = c * third;
        let vids: Vec<u32> = (start..start + chunk.len()).map(|i| i as u32).collect();
        let mut q = QuerySetColumn::new(width);
        for i in start..start + chunk.len() {
            q.push_row_from(&qsets, i);
        }
        versions.push(stem.insert_vector(&vids, &q, &[chunk.to_vec()], &global));
    }
    let v0 = versions.first().copied().unwrap_or(0);
    let v_mid = versions.get(1).copied().unwrap_or(v0) + 1;
    (stem, v0, v_mid)
}

/// Row-at-a-time reference for one probe step: per-key `Stem::probe` +
/// `and_into`, main branch then divergence branch.
fn reference_probe(
    stem: &Stem,
    qsets: &QuerySetColumn,
    keys: &[i64],
    version: u32,
    main: &[u64],
    div: Option<&[u64]>,
) -> (Vec<ProbeRow>, Vec<(u32, Vec<u64>)>) {
    let w = qsets.words_per_set();
    let mut main_out = Vec::new();
    let mut div_out = Vec::new();
    let (mut row_mask, mut hit) = (vec![0u64; w], vec![0u64; w]);
    for (i, &key) in keys.iter().enumerate() {
        if and_into(&mut row_mask, qsets.row(i), main) {
            stem.probe(0, key, version, |entry_q, vid| {
                if and_into(&mut hit, &row_mask, entry_q) {
                    main_out.push((i as u32, vid, hit.clone()));
                }
            });
        }
        if let Some(div) = div {
            if and_into(&mut hit, qsets.row(i), div) {
                div_out.push((i as u32, hit.clone()));
            }
        }
    }
    (main_out, div_out)
}

/// The operator as `exec_probe` composes it: AND-select the main rows,
/// gather their keys, probe tile by tile gathering the source row and
/// target vID columns, then AND-select the divergence rows.
fn tiled_probe(
    stem: &Stem,
    qsets: &QuerySetColumn,
    keys: &[i64],
    version: u32,
    main: &[u64],
    div: Option<&[u64]>,
) -> (Vec<ProbeRow>, Vec<(u32, Vec<u64>)>) {
    let w = qsets.words_per_set();
    let mut row_masks = QuerySetColumn::new(w);
    let mut active_rows = vec![77; 3]; // stale contents must not leak
    pairs::and_select_rows(qsets, main, &mut row_masks, &mut active_rows);
    let active_keys: Vec<i64> = active_rows.iter().map(|&i| keys[i as usize]).collect();
    let mut scratch = ProbeScratch::new();
    let mut out = QuerySetColumn::new(w);
    let (mut src_rows, mut vids) = (Vec::new(), Vec::new());
    let on_tile = |tile: MatchTile<'_>, _: &mut QuerySetColumn| {
        assert!(!tile.is_empty() && tile.len() <= PROBE_TILE);
        pairs::gather_u32(&active_rows, tile.rows(), &mut src_rows);
        tile.extend_vids(&mut vids);
        Walk::Continue
    };
    stem.probe_tiles(0, &active_keys, version, &row_masks, &mut scratch, &mut out, None, on_tile);
    assert_eq!((src_rows.len(), vids.len()), (out.len(), out.len()));
    let main_out =
        (0..out.len()).map(|k| (src_rows[k], vids[k], out.row(k).to_vec())).collect();
    let mut div_out = Vec::new();
    if let Some(div) = div {
        let mut dq = QuerySetColumn::new(w);
        pairs::and_select_rows(qsets, div, &mut dq, &mut active_rows);
        assert_eq!(dq.len(), active_rows.len());
        div_out = (0..dq.len()).map(|k| (active_rows[k], dq.row(k).to_vec())).collect();
    }
    (main_out, div_out)
}

fn assert_probe_equivalent(
    tag: &str,
    entry_keys: &[i64],
    probe_keys: &[i64],
    capacity: usize,
    main: &QuerySet,
    div: Option<&QuerySet>,
) {
    let probe_qsets = make_qsets(capacity, probe_keys.len(), 59);
    let (stem, v0, v_mid) = build_stem(entry_keys, capacity);
    for version in [v0, v_mid, VERSION_ALL] {
        let div_words = div.map(|d| d.words());
        let (want, want_div) =
            reference_probe(&stem, &probe_qsets, probe_keys, version, main.words(), div_words);
        let (got, got_div) =
            tiled_probe(&stem, &probe_qsets, probe_keys, version, main.words(), div_words);
        let tag = format!("{tag} cap={capacity} version={version}");
        assert_eq!(want.len(), got.len(), "{tag}: match count diverged");
        assert_eq!(want, got, "{tag}: main branch diverged from per-key probing");
        assert_eq!(want_div, got_div, "{tag}: divergence branch diverged");
    }
}

/// Every third query in the main branch, the rest in the divergence one.
fn split_queries(capacity: usize) -> (QuerySet, QuerySet) {
    let mut main = QuerySet::empty(capacity);
    let mut div = QuerySet::empty(capacity);
    for q in 0..capacity {
        if q % 3 == 0 { main.insert(QueryId(q as u32)) } else { div.insert(QueryId(q as u32)) }
    }
    (main, div)
}

#[test]
fn tiled_probe_matches_per_key_probe_for_all_widths_versions_and_shards() {
    // Widths 1, 1, 2, 3, 4, and 5 words.
    for &capacity in &[7usize, 64, 65, 130, 256, 300] {
        let (main, div) = split_queries(capacity);
        // ~6 entries per key; probe keys hit, miss, and repeat.
        let entry_keys: Vec<i64> = (0..600i64).map(|i| i * 7 % 101).collect();
        for &n in &ROWS {
            let mut s = 61;
            let probe_keys: Vec<i64> = (0..n).map(|_| lcg(&mut s).rem_euclid(140)).collect();
            assert_probe_equivalent("mixed", &entry_keys, &probe_keys, capacity, &main, Some(&div));
            assert_probe_equivalent("no-div", &entry_keys, &probe_keys, capacity, &main, None);
        }
    }
}

#[test]
fn tiled_probe_tile_edges() {
    for &capacity in &[64usize, 130] {
        let full = QuerySet::full(capacity);
        let (main, div) = split_queries(capacity);
        let entry_keys: Vec<i64> = (0..600i64).map(|i| i * 7 % 101).collect();
        let probe_keys: Vec<i64> = (0..200i64).map(|i| i % 140).collect();

        // Empty batch.
        assert_probe_equivalent("empty", &entry_keys, &[], capacity, &main, Some(&div));
        // All rows filtered by the main mask: nothing is probed, the
        // divergence branch still selects.
        let none = QuerySet::empty(capacity);
        assert_probe_equivalent("main-filtered", &entry_keys, &probe_keys, capacity, &none, Some(&full));
        // The other way round: an empty divergence mask keeps no row.
        assert_probe_equivalent("div-filtered", &entry_keys, &probe_keys, capacity, &full, Some(&none));

        // One key whose chain is longer than the tile cap, probed by one
        // row and then by a few rows among misses.
        let mut hot: Vec<i64> = vec![5; PROBE_TILE + 100];
        hot.extend((0..50).map(|i| 1000 + i));
        assert_probe_equivalent("long-chain", &hot, &[5], capacity, &full, None);
        assert_probe_equivalent("long-chain-x3", &hot, &[9, 5, 1001, 5, 5, 7], capacity, &main, Some(&div));

        // Matches landing exactly on the cap: 1024 entries per key, four
        // (then eight) probe rows → exactly one (two) full tile(s) of
        // pairs before the query-set AND.
        let quarter: Vec<i64> = (0..2 * PROBE_TILE as i64 / 4).map(|i| i % 2).collect();
        assert_eq!(quarter.iter().filter(|&&k| k == 0).count(), PROBE_TILE / 4);
        assert_probe_equivalent("exact-cap", &quarter, &[0, 1, 0, 1], capacity, &full, None);
        assert_probe_equivalent(
            "exact-2cap",
            &quarter,
            &[0, 1, 0, 1, 1, 1, 0, 0],
            capacity,
            &full,
            Some(&div),
        );
    }
}

#[test]
fn tiled_probe_stops_when_the_consumer_says_so() {
    let capacity = 64;
    let hot: Vec<i64> = vec![5; 3 * PROBE_TILE];
    let (stem, _, _) = build_stem(&hot, capacity);
    let mut masks = QuerySetColumn::new(1);
    masks.push_repeat(&[u64::MAX], 4);
    let mut scratch = ProbeScratch::new();
    let mut out = QuerySetColumn::new(1);
    let mut tiles = 0;
    let on_tile = |_: MatchTile<'_>, _: &mut QuerySetColumn| {
        tiles += 1;
        if tiles < 2 { Walk::Continue } else { Walk::Stop }
    };
    let (scratch, out) = (&mut scratch, &mut out);
    let end = stem.probe_tiles(0, &[5, 5, 5, 5], VERSION_ALL, &masks, scratch, out, None, on_tile);
    assert_eq!(end, None, "a stopped walk cannot be resumed");
    assert_eq!(tiles, 2, "the walk must stop at the tile that returned false");
    assert!(out.len() <= 2 * PROBE_TILE);
}

/// Probes index `index_id` tile by tile; with `pause = Some(between)` the
/// walk yields after every tile and `between(pause_no)` runs, no latch
/// held, before it is resumed. Returns the output rows and the pauses.
fn walk_resumably(
    stem: &Stem,
    index_id: usize,
    keys: &[i64],
    version: u32,
    masks: &QuerySetColumn,
    mut pause: Option<&mut dyn FnMut(usize)>,
) -> (Vec<ProbeRow>, usize) {
    let mut scratch = ProbeScratch::new();
    let mut out = QuerySetColumn::new(masks.words_per_set());
    let (mut rows, mut vids) = (Vec::new(), Vec::new());
    let step = if pause.is_some() { Walk::Yield } else { Walk::Continue };
    let (mut from, mut pauses) = (None, 0);
    loop {
        let on_tile = |tile: MatchTile<'_>, _: &mut QuerySetColumn| {
            rows.extend_from_slice(tile.rows());
            tile.extend_vids(&mut vids);
            step
        };
        let (scratch, out) = (&mut scratch, &mut out);
        from = stem.probe_tiles(index_id, keys, version, masks, scratch, out, from, on_tile);
        let (Some(between), Some(_)) = (pause.as_mut(), from) else { break };
        between(pauses);
        pauses += 1;
    }
    let got = (0..out.len()).map(|k| (rows[k], vids[k], out.row(k).to_vec())).collect();
    (got, pauses)
}

#[test]
fn tiled_probe_resumed_after_every_tile_matches_an_uninterrupted_probe() {
    // Index 0: even entries share 30 hot keys, odd ones have a key each, so
    // a bucket's newest entry often holds another key than the probe row's.
    // Index 1 (secondary): 23 keys.
    let key0 = |i: i64| if i % 2 == 0 { (i / 2) % 30 } else { 1000 + i };
    let insert = |stem: &Stem, global: &AtomicU32, base: usize, qsets: &QuerySetColumn| {
        let vids: Vec<u32> = (base..base + qsets.len()).map(|i| i as u32).collect();
        let keys0 = vids.iter().map(|&i| key0(i as i64)).collect();
        let keys1 = vids.iter().map(|&i| i as i64 % 23).collect();
        stem.insert_vector(&vids, qsets, &[keys0, keys1], global);
    };
    let probe_keys: Vec<i64> = (0..1500).map(|i| key0(i * 7 % 3000)).collect();
    for &capacity in &[7usize, 130, 300] {
        let (main, _) = split_queries(capacity);
        let w = main.width();
        // Probe rows hold main-branch queries only; query 1 is not one.
        let mut masks = QuerySetColumn::new(w);
        let (probe_q, mut row) = (make_qsets(capacity, probe_keys.len(), 59), vec![0u64; w]);
        for i in 0..probe_keys.len() {
            and_into(&mut row, probe_q.row(i), main.words());
            masks.push(&row);
        }
        for index_id in [0usize, 1] {
            // Inserted between a yield and its resume, reusing the
            // probed keys: at a version drawn before them (any
            // query-sets: the version hides them), and at `VERSION_ALL`
            // carrying only query 1 (a later admission's bits).
            for late_admission in [false, true] {
                let tag = format!("cap={capacity} index={index_id} all={late_admission}");
                let stem = Stem::new(RelId(0), vec![ColId(0), ColId(1)], w);
                let global = AtomicU32::new(0);
                let stored = make_qsets(capacity, 3000, 53);
                for (c, chunk) in stored.raw().chunks(1000 * w).enumerate() {
                    let mut q = QuerySetColumn::new(w);
                    q.push_rows(chunk);
                    insert(&stem, &global, c * 1000, &q);
                }
                let version = if late_admission {
                    VERSION_ALL
                } else {
                    global.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                };
                let (want, _) =
                    walk_resumably(&stem, index_id, &probe_keys, version, &masks, None);
                let mut next = 3000;
                let mut between = |pause: usize| {
                    // The first pause grows every bucket table.
                    let n = if pause == 0 { 3000 } else { 40 };
                    let late = if late_admission {
                        let mut q = QuerySetColumn::new(w);
                        q.push_repeat(QuerySet::singleton(QueryId(1), capacity).words(), n);
                        q
                    } else {
                        make_qsets(capacity, n, 67 + pause as i64)
                    };
                    insert(&stem, &global, next, &late);
                    next += n;
                };
                let (got, pauses) = walk_resumably(
                    &stem,
                    index_id,
                    &probe_keys,
                    version,
                    &masks,
                    Some(&mut between),
                );
                assert!(pauses >= 4, "{tag}: {pauses} pauses");
                assert_eq!(got.len(), want.len(), "{tag}: match count diverged");
                assert_eq!(got, want, "{tag}: a resumed probe diverged");
            }
        }
    }
}

/// Probes index `index_id` uninterrupted and returns the output rows and
/// the number of surviving pairs of every tile, in order.
fn walk_whole(
    stem: &Stem,
    index_id: usize,
    keys: &[i64],
    version: u32,
    masks: &QuerySetColumn,
) -> (Vec<ProbeRow>, Vec<usize>) {
    let mut lens = Vec::new();
    let mut scratch = ProbeScratch::new();
    let mut out = QuerySetColumn::new(masks.words_per_set());
    let on_tile = |tile: MatchTile<'_>, _: &mut QuerySetColumn| {
        lens.push(tile.len());
        Walk::Continue
    };
    stem.probe_tiles(index_id, keys, version, masks, &mut scratch, &mut out, None, on_tile);
    let (rows, _) = walk_resumably(stem, index_id, keys, version, masks, None);
    (rows, lens)
}

#[test]
fn view_walks_match_chain_walks_across_freezes_and_thaws() {
    // Two identically built STeMs. `viewed` is walked at `VERSION_ALL` and
    // semi-joined, which builds dense-key views; its twin is only ever
    // walked at real versions and probed per key, which build none, so it
    // walks its chains: the oracle. Index 0 has 500 keys, index 1 has 23;
    // both are dense.
    let insert = |stem: &Stem, global: &AtomicU32, base: usize, qsets: &QuerySetColumn| {
        let vids: Vec<u32> = (base..base + qsets.len()).map(|i| i as u32).collect();
        let keys0 = vids.iter().map(|&i| i as i64 % 500).collect();
        let keys1 = vids.iter().map(|&i| i as i64 % 23).collect();
        stem.insert_vector(&vids, qsets, &[keys0, keys1], global)
    };
    let probe_keys: Vec<i64> = (0..4000).map(|i| (i * 7) % 560 - 30).collect();
    let draw = |global: &AtomicU32| global.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    // Widths 1, 2, 3, 4 and 5 words.
    for &capacity in &[7usize, 65, 130, 256, 300] {
        let (main, _) = split_queries(capacity);
        let w = main.width();
        let mut masks = QuerySetColumn::new(w);
        let (probe_q, mut row) = (make_qsets(capacity, probe_keys.len(), 59), vec![0u64; w]);
        for i in 0..probe_keys.len() {
            and_into(&mut row, probe_q.row(i), main.words());
            masks.push(&row);
        }
        // Carries only query 1, which no probe row holds: a later
        // admission's bits.
        let late = |n: usize| {
            let mut q = QuerySetColumn::new(w);
            q.push_repeat(QuerySet::singleton(QueryId(1), capacity).words(), n);
            q
        };
        let semijoin = |stem: &Stem, index_id: usize| {
            let mut acc = QuerySetColumn::new(w);
            acc.push_repeat(&vec![0; w], probe_keys.len());
            stem.semijoin_batch(index_id, &probe_keys, &mut ProbeScratch::new(), &mut acc);
            acc
        };
        for index_id in [0usize, 1] {
            let tag = format!("cap={capacity} index={index_id}");
            let build = || {
                let stem = Stem::new(RelId(0), vec![ColId(0), ColId(1)], w);
                let global = AtomicU32::new(0);
                let stored = make_qsets(capacity, 3000, 53);
                let mut last = 0;
                for (c, chunk) in stored.raw().chunks(1000 * w).enumerate() {
                    let mut q = QuerySetColumn::new(w);
                    q.push_rows(chunk);
                    last = insert(&stem, &global, c * 1000, &q);
                }
                (stem, global, last)
            };
            let (viewed, global, last) = build();
            let (chained, chained_global, _) = build();
            // Both sides' versions run in step: one above everything
            // stored, and the last insert's own, which hides its vector.
            let (above, chained_above) = (draw(&global), draw(&chained_global));
            assert_eq!(above, chained_above);
            let oracle = walk_whole(&chained, index_id, &probe_keys, above, &masks);

            // Uninterrupted, tile boundaries included: a version above
            // the last insert finds no view yet, `VERSION_ALL` builds
            // it, then both take it.
            for version in [above, VERSION_ALL, above] {
                assert_eq!(
                    walk_whole(&viewed, index_id, &probe_keys, version, &masks),
                    oracle,
                    "{tag} version={version}: the view diverged from the chains"
                );
            }
            assert!(viewed.view_bytes() > 0, "{tag}");
            assert_eq!(
                walk_whole(&viewed, index_id, &probe_keys, last, &masks),
                walk_whole(&chained, index_id, &probe_keys, last, &masks),
                "{tag}: a walk hiding the last insert diverged"
            );
            let mut per_key = QuerySetColumn::new(w);
            per_key.push_repeat(&vec![0; w], probe_keys.len());
            for (i, &k) in probe_keys.iter().enumerate() {
                chained.probe(index_id, k, VERSION_ALL, |qs, _| {
                    for (acc, &word) in per_key.row_mut(i).iter_mut().zip(qs) {
                        *acc |= word;
                    }
                });
            }
            assert_eq!(semijoin(&viewed, index_id).raw(), per_key.raw(), "{tag}: semi-join");

            // Yield after every tile, at versions above the stored
            // entries. First walk: it starts on the chains (an insert of
            // late bits dropped the view), the first pause freezes (a
            // semi-join builds the view, which the resume takes), the
            // second thaws (an insert, hidden by the version, drops it:
            // the resume walks the chains), and so on. Second walk: it
            // enters through a view and every pause thaws, so its chain
            // resumes fetch bucket heads it never had.
            let (oracle, _) = oracle;
            let mut next = 3000;
            for freeze_first in [true, false] {
                insert(&viewed, &global, next, &late(1));
                next += 1;
                if !freeze_first {
                    semijoin(&viewed, index_id);
                }
                let version = draw(&global);
                let mut freeze_thaw = |pause: usize| {
                    if freeze_first && pause.is_multiple_of(2) {
                        semijoin(&viewed, index_id);
                        assert!(viewed.view_bytes() > 0);
                    } else {
                        insert(&viewed, &global, next, &late(40));
                        next += 40;
                    }
                };
                let (got, pauses) = walk_resumably(
                    &viewed,
                    index_id,
                    &probe_keys,
                    version,
                    &masks,
                    Some(&mut freeze_thaw),
                );
                assert!(pauses >= 4, "{tag}: {pauses} pauses");
                assert_eq!(
                    got, oracle,
                    "{tag} freeze_first={freeze_first}: a versioned walk diverged \
                     across a freeze or thaw"
                );
            }

            // At `VERSION_ALL` every resume rebuilds the view a thaw
            // dropped; what the thaws insert carries only late bits.
            let mut thaw = |pause: usize| {
                if pause.is_multiple_of(2) {
                    insert(&viewed, &global, next, &late(40));
                    next += 40;
                    assert_eq!(viewed.view_bytes(), 0);
                }
            };
            let (got, pauses) = walk_resumably(
                &viewed,
                index_id,
                &probe_keys,
                VERSION_ALL,
                &masks,
                Some(&mut thaw),
            );
            assert!(pauses >= 4, "{tag}: {pauses} pauses");
            assert_eq!(got, oracle, "{tag}: a VERSION_ALL walk diverged across a thaw");
            assert_eq!(chained.view_bytes(), 0, "{tag}: the oracle built a view");
        }
    }
}

// --- end-to-end: the engine's kernels vs the query-at-a-time engine ---

/// fact(fk → dim.pk, v) with dangling fks; `scale` repeats the pattern.
fn catalog(scale: usize) -> Catalog {
    let mut c = Catalog::new();
    let pattern_fk = [0i64, 1, 2, 0, 1, 9, 9, 2];
    let mut fk = Vec::with_capacity(pattern_fk.len() * scale);
    let mut v = Vec::with_capacity(pattern_fk.len() * scale);
    for i in 0..scale {
        for (j, &f) in pattern_fk.iter().enumerate() {
            fk.push(f);
            v.push((i * pattern_fk.len() + j) as i64);
        }
    }
    let mut f = RelationBuilder::new("fact");
    f.int64("fk", fk);
    f.int64("v", v);
    c.add(f.build()).unwrap();
    let mut d = RelationBuilder::new("dim");
    d.int64("pk", vec![0, 1, 2, 3]);
    d.int64("w", vec![10, 11, 12, 13]);
    c.add(d.build()).unwrap();
    c
}

/// Projecting join, filtered projecting join, and a count-style query —
/// together they exercise selection, semijoin pruning, compaction, and
/// both routing paths.
fn workload(c: &Catalog) -> Vec<SpjQuery> {
    let join =
        |c| SpjQuery::builder(c).relation("fact").relation("dim").join(("fact", "fk"), ("dim", "pk"));
    vec![
        join(c).project("dim", "w").project("fact", "v").build().unwrap(),
        join(c).range("fact", "v", 3, 40).project("fact", "v").build().unwrap(),
        join(c).range("fact", "v", 0, 11).build().unwrap(),
    ]
}

/// Runs the workload collecting rows and checks it against the
/// query-at-a-time engine: only `quarantined` may be quarantined, every
/// other query must complete with QAT's `(rows, checksum)`, and its
/// collected rows must be exactly that many rows whose hashes sum to the
/// checksum. Returns the quarantined query ids.
fn assert_engine_matches_qat(
    cfg: &EngineConfig,
    injector: Option<FaultInjector>,
    quarantined: Option<QueryId>,
    tag: &str,
) -> Vec<usize> {
    let c = catalog(8);
    let queries = workload(&c);
    let expected = QatEngine::new(&c, ExecMode::Vectorized, 7).execute_serial(&queries);
    let engine = RouletteEngine::new(&c, cfg.clone());
    let mut session = engine.session(queries.len());
    session.collect_rows().unwrap();
    if let Some(inj) = injector {
        session.set_fault_injector(inj);
    }
    for q in queries {
        session.admit(q).unwrap();
    }
    session.run();
    let rows: Vec<_> =
        (0..expected.len()).map(|i| session.take_collected(QueryId(i as u32))).collect();
    let results = session.finish().per_query;
    let mut evicted = Vec::new();
    for (i, (r, want)) in results.iter().zip(&expected).enumerate() {
        if !r.is_complete() {
            assert_eq!(quarantined, Some(QueryId(i as u32)), "{tag}: query {i} quarantined");
            evicted.push(i);
            continue;
        }
        assert_eq!((r.rows, r.checksum), (want.rows, want.checksum), "{tag}: query {i} vs QAT");
        assert_eq!(rows[i].len() as u64, r.rows, "{tag}: query {i} collected row count");
        let sum = rows[i].iter().fold(0u64, |acc, row| acc.wrapping_add(row_hash(row)));
        assert_eq!(sum, r.checksum, "{tag}: query {i} checksum vs collected rows");
    }
    evicted
}

#[test]
fn engine_wide_kernels_byte_identical_single_worker() {
    let cfg = EngineConfig::default().with_vector_size(3).unwrap();
    let evicted = assert_engine_matches_qat(&cfg, None, None, "1 worker");
    assert!(evicted.is_empty(), "clean run quarantined {evicted:?}");
}

#[test]
fn engine_wide_kernels_byte_identical_four_workers() {
    let cfg = EngineConfig::default().with_vector_size(7).unwrap().with_workers(4).unwrap();
    let evicted = assert_engine_matches_qat(&cfg, None, None, "4 workers");
    assert!(evicted.is_empty(), "clean run quarantined {evicted:?}");
}

#[test]
fn engine_wide_kernels_byte_identical_under_faults() {
    let cfg = EngineConfig::default().with_vector_size(3).unwrap();
    for site in [FaultSite::StemInsert, FaultSite::StemProbe, FaultSite::Route] {
        let inj = FaultInjector::new().fail_at(site, Some(QueryId(1)), 2);
        let tag = format!("fault at {site:?}");
        let evicted = assert_engine_matches_qat(&cfg, Some(inj), Some(QueryId(1)), &tag);
        assert_eq!(evicted, [1], "{tag}: exactly the target is quarantined");
    }
}

// --- end-to-end: the fused column-at-a-time router vs the per-row oracle ---

/// Per-query `(rows, checksum)` plus sorted collected rows of one run.
type Routed = (Vec<(u64, u64)>, Vec<Vec<Vec<i64>>>);

fn run_routed(
    c: &Catalog,
    queries: &[SpjQuery],
    capacity: usize,
    cfg: &EngineConfig,
    collect: bool,
) -> Routed {
    let engine = RouletteEngine::new(c, cfg.clone());
    let mut session = engine.session(capacity);
    if collect {
        session.collect_rows().unwrap();
    }
    for q in queries {
        session.admit(q.clone()).unwrap();
    }
    session.run();
    let rows = (0..queries.len())
        .map(|i| {
            let mut r = session.take_collected(QueryId(i as u32));
            r.sort_unstable();
            r
        })
        .collect();
    let outcome = session.finish();
    let results = outcome.per_query;
    assert!(results.iter().all(|r| r.is_complete()));
    // Only the column-at-a-time router's projecting classes hash values.
    let projecting = queries.iter().any(|q| !q.projections.is_empty());
    if !cfg.locality_router || !projecting {
        assert_eq!(outcome.stats.routed_values, 0);
    }
    (results.iter().map(|r| (r.rows, r.checksum)).collect(), rows)
}

/// Runs `queries` under the per-row oracle (`locality_router = false`,
/// collecting) and checks the column-at-a-time router — and the oracle
/// itself in every other configuration — against it: collecting on and
/// off, workers 1/4, adaptive projections on and off.
fn assert_routers_equivalent(
    tag: &str,
    c: &Catalog,
    queries: &[SpjQuery],
    capacity: usize,
    vector_size: usize,
) {
    let base = EngineConfig::default().with_vector_size(vector_size).unwrap();
    let mut oracle_cfg = base.clone();
    oracle_cfg.locality_router = false;
    let (want, want_rows) = run_routed(c, queries, capacity, &oracle_cfg, true);
    assert!(want.iter().any(|&(rows, _)| rows > 0), "{tag}: the scenario routes nothing");
    for (q, rows) in want_rows.iter().enumerate() {
        assert_eq!(rows.len() as u64, want[q].0, "{tag}: oracle collected a different row count");
        let sum = rows.iter().fold(0u64, |acc, r| acc.wrapping_add(row_hash(r)));
        assert_eq!(sum, want[q].1, "{tag}: oracle checksum is not the sum of its rows' hashes");
    }
    for locality in [true, false] {
        for adaptive in [true, false] {
            for workers in [1usize, 4] {
                for collect in [true, false] {
                    let mut cfg = base.clone().with_workers(workers).unwrap();
                    cfg.locality_router = locality;
                    cfg.adaptive_projections = adaptive;
                    let (got, got_rows) = run_routed(c, queries, capacity, &cfg, collect);
                    let tag = format!(
                        "{tag}: locality={locality} adaptive={adaptive} workers={workers} \
                         collect={collect}"
                    );
                    assert_eq!(got, want, "{tag}: diverged from the per-row oracle");
                    if collect {
                        assert_eq!(got_rows, want_rows, "{tag}: collected rows diverged");
                    } else {
                        assert!(got_rows.iter().all(|r| r.is_empty()));
                    }
                }
            }
        }
    }
}

/// fact(fk → dim.pk, v, tag: dictionary), dim(pk, w) with two rows per key
/// and dangling fks on the fact side, and `lone`, which nothing joins.
fn routing_catalog() -> Catalog {
    let mut c = Catalog::new();
    let n = 240i64;
    let mut f = RelationBuilder::new("fact");
    f.int64("fk", (0..n).map(|i| i % 12).collect());
    f.int64("v", (0..n).collect());
    f.strings("tag", (0..n).map(|i| ["a", "b", "c", "d", "e"][(i % 5) as usize]));
    c.add(f.build()).unwrap();
    let mut d = RelationBuilder::new("dim");
    d.int64("pk", (0..20).map(|i| i % 10).collect());
    d.int64("w", (0..20).map(|i| 100 + i).collect());
    c.add(d.build()).unwrap();
    let mut l = RelationBuilder::new("lone");
    l.int64("x", (0..50).collect());
    l.int64("y", (0..50).map(|i| i * 3).collect());
    c.add(l.build()).unwrap();
    c
}

/// Query `i` of the routing workload: seven shapes in rotation — joins
/// projecting 0 to 4 columns (a dictionary column, one column twice), a
/// `fact`-only query (the divergence branch of every fact probe) and a
/// `lone` query (its scan vector reaches the router without any probe) —
/// each with its own range on `fact.v`, so tuples carry varied query-sets.
/// With `project` off every shape is `count(*)`.
fn routing_query(c: &Catalog, i: usize, project: bool, divergence: bool) -> SpjQuery {
    let lo = (i as i64 * 13) % 200;
    let join = |cols: &[(&str, &str)]| {
        let mut b = SpjQuery::builder(c)
            .relation("fact")
            .relation("dim")
            .join(("fact", "fk"), ("dim", "pk"))
            .range("fact", "v", lo, lo + 60);
        for &(rel, col) in cols.iter().filter(|_| project) {
            b = b.project(rel, col);
        }
        b.build().unwrap()
    };
    match i % 7 {
        0 => join(&[]),
        1 => join(&[("dim", "w")]),
        2 => join(&[("fact", "v"), ("fact", "tag")]),
        3 => join(&[("fact", "v"), ("dim", "w"), ("fact", "v")]),
        4 => join(&[("fact", "tag"), ("dim", "w"), ("fact", "v"), ("dim", "pk")]),
        5 if divergence => {
            let mut b = SpjQuery::builder(c).relation("fact").range("fact", "v", lo, lo + 90);
            if project {
                b = b.project("fact", "tag").project("fact", "fk");
            }
            b.build().unwrap()
        }
        5 => join(&[("dim", "pk")]),
        _ => {
            let mut b = SpjQuery::builder(c).relation("lone").range("lone", "x", 5, 40);
            if project {
                b = b.project("lone", "y");
            }
            b.build().unwrap()
        }
    }
}

#[test]
fn fused_router_matches_per_row_router_for_all_widths_and_shapes() {
    let c = routing_catalog();
    // Query-set widths of 1, 2, 3, 4 and 5 words, every bit in use.
    for &capacity in &[7usize, 65, 130, 256, 300] {
        let queries: Vec<SpjQuery> =
            (0..capacity).map(|i| routing_query(&c, i, true, true)).collect();
        assert_routers_equivalent(&format!("mixed cap={capacity}"), &c, &queries, capacity, 64);
    }
    // Count-only leaves, with and without a divergence branch.
    for divergence in [true, false] {
        let queries: Vec<SpjQuery> =
            (0..70).map(|i| routing_query(&c, i, false, divergence)).collect();
        assert_routers_equivalent(&format!("count-only div={divergence}"), &c, &queries, 70, 64);
    }
    // Projecting leaves without a divergence branch.
    let queries: Vec<SpjQuery> = (0..20).map(|i| routing_query(&c, i, true, false)).collect();
    assert_routers_equivalent("projecting no-div", &c, &queries, 20, 7);
}

#[test]
fn fused_router_tile_edges() {
    // One hot key: every fact row matches every dim row. `fact` is the
    // larger table, so it is scanned after `dim` is fully inserted, but
    // only its first rows pass any query's selection: a handful of probe
    // rows, each walking a chain of all of `dim`.
    let hot = |n_dim: i64| {
        let mut c = Catalog::new();
        let mut f = RelationBuilder::new("fact");
        f.int64("k", vec![0; n_dim as usize + 1]);
        f.int64("v", (0..=n_dim).collect());
        c.add(f.build()).unwrap();
        let mut d = RelationBuilder::new("dim");
        d.int64("k", vec![0; n_dim as usize]);
        d.int64("w", (0..n_dim).collect());
        c.add(d.build()).unwrap();
        c
    };
    let join = |c: &Catalog, fact_hi: i64, dim_hi: i64, project: bool| {
        let mut b = SpjQuery::builder(c)
            .relation("fact")
            .relation("dim")
            .join(("fact", "k"), ("dim", "k"))
            .range("fact", "v", 0, fact_hi)
            .range("dim", "w", 0, dim_hi);
        if project {
            b = b.project("dim", "w").project("fact", "v");
        }
        b.build().unwrap()
    };
    let rows_of = |c: &Catalog, queries: &[SpjQuery], vector_size: usize| -> Vec<u64> {
        let cfg = EngineConfig::default().with_vector_size(vector_size).unwrap();
        run_routed(c, queries, queries.len(), &cfg, false).0.iter().map(|r| r.0).collect()
    };
    for project in [true, false] {
        // A chain spanning several tiles. Fact rows 0–1 carry both queries
        // and every pair of theirs survives; rows 2–3 carry only Q1, which
        // only the 9 oldest dim rows carry — the *end* of the chain, walked
        // newest entry first — so whole tiles of their walk have zero
        // survivors. The dim vectors, scanned first, probe an empty STeM.
        let n_dim = 2 * PROBE_TILE as i64 + 100;
        let c = hot(n_dim);
        let queries = [join(&c, 1, i64::MAX, project), join(&c, 3, 8, project)];
        assert_eq!(rows_of(&c, &queries, 512), [2 * n_dim as u64, 4 * 9]);
        assert_routers_equivalent(&format!("long-chain project={project}"), &c, &queries, 2, 512);

        // Probes landing exactly on the tile cap: 4 (then 8) probe rows
        // over a 1024-entry chain are one (two) full tile(s), all surviving.
        for probe_rows in [4i64, 8] {
            let c = hot(PROBE_TILE as i64 / 4);
            let queries = [
                join(&c, probe_rows - 1, i64::MAX, project),
                join(&c, probe_rows - 1, i64::MAX, project),
            ];
            let pairs = (probe_rows as usize * PROBE_TILE / 4) as u64;
            assert_eq!(rows_of(&c, &queries, 1024), [pairs, pairs]);
            let tag = format!("exact-cap x{} project={project}", probe_rows / 4);
            assert_routers_equivalent(&tag, &c, &queries, 2, 1024);
        }
    }
}
