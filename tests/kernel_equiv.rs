//! Differential tests for the data-parallel kernel layer.
//!
//! The wide (and, when compiled, AVX2) kernels are pure mechanical
//! transformations of the scalar reference path: for every kernel, every
//! row width, and every tail length they must produce *byte-identical*
//! query-set words, survivor masks, compacted columns, and partition
//! layouts. The suite sweeps the kernel API directly across
//! `Kernels::all_modes()`, pins the tiled probe operator (AND-select,
//! `Stem::probe_tiles`, column gathers) to the per-key `Stem::probe` +
//! `and_into` reference and the router's count and column-hash kernels to
//! per-row `row_hash`, then closes the loop end-to-end: a full engine run
//! with wide kernels must match a `with_wide_kernels(false)` run
//! row-for-row at one and four workers, including under deterministic
//! fault injection, and the fused column-at-a-time router must match the
//! per-row direct router (`locality_router = false`) for every leaf shape,
//! query-set width, shard and worker count, collecting or not.

use roulette::core::queryset::and_into;
use roulette::core::{ColId, EngineConfig, QueryId, QuerySet, QuerySetColumn, RelId, RowMask};
use roulette::exec::kernels::{pairs, route};
use roulette::exec::{
    row_hash, CompletionStatus, FaultInjector, FaultSite, GroupedFilter, Kernels, Partition,
    PlainFilter, ProbeScratch, QueryResult, RouletteEngine, Stem, PROBE_TILE, VERSION_ALL,
};
use std::sync::atomic::AtomicU32;
use roulette::query::SpjQuery;
use roulette::storage::{Catalog, RelationBuilder};

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
/// empty- and full-qset paths are hit inside one batch.
fn make_qsets(capacity: usize, n: usize, seed: i64) -> QuerySetColumn {
    let words = QuerySet::full(capacity).width();
    let mut col = QuerySetColumn::new(words);
    let mut s = seed;
    for i in 0..n {
        let row: Vec<u64> = (0..words)
            .map(|_| match i % 7 {
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

/// Asserts a non-reference mode produced byte-identical column + mask.
fn assert_same(
    tag: &str,
    mode: &str,
    reference: (&QuerySetColumn, &RowMask),
    candidate: (&QuerySetColumn, &RowMask),
) {
    assert_eq!(
        reference.0.raw(),
        candidate.0.raw(),
        "{tag}: {mode} qset words diverged from scalar"
    );
    assert_eq!(
        (reference.1.len(), reference.1.words()),
        (candidate.1.len(), candidate.1.words()),
        "{tag}: {mode} keep mask diverged from scalar"
    );
}

#[test]
fn filter_kernels_match_scalar_for_all_widths_and_tails() {
    let scalar = Kernels::scalar();
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
            scalar.filter_grouped(&grouped, &values, &mut ref_q, &mut ref_k);
            let mut ref_pq = base.clone();
            let mut ref_pk = RowMask::new();
            let mut buf = Vec::new();
            scalar.filter_plain(&plain, &values, &mut buf, &mut ref_pq, &mut ref_pk);
            for k in Kernels::all_modes() {
                let tag = format!("filter cap={capacity} rows={n}");
                let mut q = base.clone();
                let mut keep = RowMask::new();
                k.filter_grouped(&grouped, &values, &mut q, &mut keep);
                assert_same(&tag, k.mode_name(), (&ref_q, &ref_k), (&q, &keep));
                let mut pq = base.clone();
                let mut pk = RowMask::new();
                k.filter_plain(&plain, &values, &mut buf, &mut pq, &mut pk);
                assert_same(&tag, k.mode_name(), (&ref_pq, &ref_pk), (&pq, &pk));
            }
        }
    }
}

#[test]
fn qset_kernels_match_scalar_for_all_widths_and_tails() {
    let scalar = Kernels::scalar();
    for &capacity in &CAPACITIES {
        let words = QuerySet::full(capacity).width();
        for &n in &ROWS {
            let base = make_qsets(capacity, n, 11);
            let masks = make_masks(words, n, 13);
            let one_mask = &make_masks(words, 1, 17)[..words];
            let tag = format!("qset cap={capacity} rows={n}");

            let mut ref_and = base.clone();
            let mut ref_and_k = RowMask::new();
            scalar.qset_and(&mut ref_and, &masks, &mut ref_and_k);
            let mut ref_bc = base.clone();
            let mut ref_bc_k = RowMask::new();
            scalar.qset_and_broadcast(&mut ref_bc, one_mask, &mut ref_bc_k);
            let mut ref_sub = base.clone();
            let mut ref_sub_k = RowMask::new();
            scalar.qset_subtract_broadcast(&mut ref_sub, one_mask, &mut ref_sub_k);
            let mut ref_or = base.clone();
            scalar.qset_or(&mut ref_or, &masks);

            for k in Kernels::all_modes() {
                let mut q = base.clone();
                let mut keep = RowMask::new();
                k.qset_and(&mut q, &masks, &mut keep);
                assert_same(&tag, k.mode_name(), (&ref_and, &ref_and_k), (&q, &keep));

                let mut q = base.clone();
                let mut keep = RowMask::new();
                k.qset_and_broadcast(&mut q, one_mask, &mut keep);
                assert_same(&tag, k.mode_name(), (&ref_bc, &ref_bc_k), (&q, &keep));

                let mut q = base.clone();
                let mut keep = RowMask::new();
                k.qset_subtract_broadcast(&mut q, one_mask, &mut keep);
                assert_same(&tag, k.mode_name(), (&ref_sub, &ref_sub_k), (&q, &keep));

                let mut q = base.clone();
                k.qset_or(&mut q, &masks);
                assert_eq!(ref_or.raw(), q.raw(), "{tag}: {} qset_or diverged", k.mode_name());
            }
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
    let scalar = Kernels::scalar();
    for &capacity in &[64usize, 130] {
        for &n in &ROWS {
            for (pi, keep) in keep_patterns(n).iter().enumerate() {
                let base_q = make_qsets(capacity, n, 19);
                let mut s = 23;
                let base_c: Vec<u32> = (0..n).map(|_| lcg(&mut s) as u32).collect();
                let tag = format!("compact cap={capacity} rows={n} pat={pi}");

                let mut ref_c = base_c.clone();
                scalar.compact_u32(&mut ref_c, keep);
                let mut ref_q = base_q.clone();
                scalar.compact_qsets(&mut ref_q, keep);

                for k in Kernels::all_modes() {
                    let mut c = base_c.clone();
                    k.compact_u32(&mut c, keep);
                    assert_eq!(ref_c, c, "{tag}: {} compact_u32 diverged", k.mode_name());
                    let mut q = base_q.clone();
                    k.compact_qsets(&mut q, keep);
                    assert_eq!(
                        ref_q.raw(),
                        q.raw(),
                        "{tag}: {} compact_qsets diverged",
                        k.mode_name()
                    );
                    assert_eq!(ref_q.len(), q.len(), "{tag}: {} compacted len", k.mode_name());
                }
            }
        }
    }
}

/// Three routed queries — few enough per query-set word that the router's
/// kernels take their per-query sweep form — with the high words in use.
fn few_queries(capacity: usize) -> QuerySet {
    let mut few = QuerySet::empty(capacity);
    for q in [0, capacity / 2, capacity - 1] {
        few.insert(QueryId(q as u32));
    }
    few
}

#[test]
fn partition_kernels_match_scalar_row_for_row() {
    let scalar = Kernels::scalar();
    for &capacity in &CAPACITIES {
        // Route strict subsets of the queries so masked-out bits matter:
        // every third query (the wide kernel's one-pass CSR form) and
        // three of them, high words included (its per-query sweeps).
        let mut third = QuerySet::empty(capacity);
        for q in (0..capacity).step_by(3) {
            third.insert(QueryId(q as u32));
        }
        for routed in [third, few_queries(capacity)] {
            for &n in &ROWS {
                let qsets = make_qsets(capacity, n, 31);
                let tag = format!("partition cap={capacity} routed={} rows={n}", routed.len());
                let mut ref_p = Partition::new();
                let ref_total = scalar.partition(&qsets, &routed, &mut ref_p);
                for k in Kernels::all_modes() {
                    // A reused partition must not leak its previous layout.
                    let mut p = Partition::new();
                    k.partition(&make_qsets(capacity, 77, 5), &QuerySet::full(capacity), &mut p);
                    let total = k.partition(&qsets, &routed, &mut p);
                    assert_eq!(ref_total, total, "{tag}: {} total diverged", k.mode_name());
                    for q in 0..capacity {
                        assert_eq!(
                            ref_p.rows_of(q),
                            p.rows_of(q),
                            "{tag}: {} rows of query {q} diverged",
                            k.mode_name()
                        );
                    }
                }
            }
        }
    }
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

#[test]
fn column_hash_kernels_match_row_hash() {
    let mut s = 43;
    let base_i64: Vec<i64> = (0..97).map(|_| lcg(&mut s)).collect();
    let base_u32: Vec<u32> = (0..97).map(|_| lcg(&mut s) as u32).collect();
    for &n in &ROWS {
        let vids: Vec<u32> = (0..n + 3).map(|_| lcg(&mut s).rem_euclid(97) as u32).collect();
        // A query's row list: a sparse ascending subset of the tuples.
        let rows: Vec<u32> = (0..n as u32).filter(|i| i % 3 != 1).collect();
        for n_cols in 0..=4usize {
            // Alternate an Int64 and a dictionary-code column; column 2
            // repeats column 0 (the same column projected twice).
            let value = |c: usize, r: u32| -> i64 {
                let vid = vids[r as usize] as usize;
                if c.is_multiple_of(2) { base_i64[vid] } else { base_u32[vid] as i64 }
            };
            let (mut fused, mut staged) = (vec![7; 2], vec![9; 1]);
            route::hash_seed(&mut fused, rows.len());
            route::hash_seed(&mut staged, rows.len());
            for c in 0..n_cols {
                if c.is_multiple_of(2) {
                    route::hash_gathered(&base_i64, &vids, &rows, &mut fused);
                } else {
                    route::hash_gathered(&base_u32, &vids, &rows, &mut fused);
                }
                let col: Vec<i64> = rows.iter().map(|&r| value(c, r)).collect();
                route::hash_column(&col, &mut staged);
            }
            let want = rows.iter().fold(0u64, |acc, &r| {
                let row: Vec<i64> = (0..n_cols).map(|c| value(c, r)).collect();
                acc.wrapping_add(row_hash(&row))
            });
            assert_eq!(route::hash_sum(&fused), want, "fused rows={n} cols={n_cols}");
            assert_eq!(route::hash_sum(&staged), want, "staged rows={n} cols={n_cols}");
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
fn build_stem(keys: &[i64], capacity: usize, shards: usize) -> (Stem, u32, u32) {
    let width = QuerySet::full(capacity).width();
    let stem = Stem::with_shards(RelId(0), vec![ColId(0)], width, keys.len(), shards);
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
        // Per-vector inserts on a sharded STeM return the last shard's
        // version; every version of this vector is ≤ it and > the
        // previous vector's, which is all the version sweep needs.
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
    stem.probe_tiles(0, &active_keys, version, &row_masks, &mut scratch, &mut out, |tile, _| {
        assert!(!tile.is_empty() && tile.len() <= PROBE_TILE);
        pairs::gather_u32(&active_rows, tile.rows(), &mut src_rows);
        tile.extend_vids(&mut vids);
        true
    });
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
    for shards in [1usize, 2, 8] {
        let (stem, v0, v_mid) = build_stem(entry_keys, capacity, shards);
        for version in [v0, v_mid, VERSION_ALL] {
            let div_words = div.map(|d| d.words());
            let (mut want, want_div) =
                reference_probe(&stem, &probe_qsets, probe_keys, version, main.words(), div_words);
            let (mut got, got_div) =
                tiled_probe(&stem, &probe_qsets, probe_keys, version, main.words(), div_words);
            if shards > 1 {
                // Sharded probes visit shard-grouped: same multiset.
                want.sort_unstable();
                got.sort_unstable();
            }
            let tag = format!("{tag} cap={capacity} shards={shards} version={version}");
            assert_eq!(want.len(), got.len(), "{tag}: match count diverged");
            assert_eq!(want, got, "{tag}: main branch diverged from per-key probing");
            assert_eq!(want_div, got_div, "{tag}: divergence branch diverged");
        }
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
    let (stem, _, _) = build_stem(&hot, capacity, 1);
    let mut masks = QuerySetColumn::new(1);
    masks.push_repeat(&[u64::MAX], 4);
    let mut scratch = ProbeScratch::new();
    let mut out = QuerySetColumn::new(1);
    let mut tiles = 0;
    stem.probe_tiles(0, &[5, 5, 5, 5], VERSION_ALL, &masks, &mut scratch, &mut out, |_, _| {
        tiles += 1;
        tiles < 2
    });
    assert_eq!(tiles, 2, "the walk must stop at the tile that returned false");
    assert!(out.len() <= 2 * PROBE_TILE);
}

// --- end-to-end: wide vs scalar engines must agree byte-for-byte ---

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
    vec![
        SpjQuery::builder(c)
            .relation("fact")
            .relation("dim")
            .join(("fact", "fk"), ("dim", "pk"))
            .project("dim", "w")
            .project("fact", "v")
            .build()
            .unwrap(),
        SpjQuery::builder(c)
            .relation("fact")
            .relation("dim")
            .join(("fact", "fk"), ("dim", "pk"))
            .range("fact", "v", 3, 40)
            .project("fact", "v")
            .build()
            .unwrap(),
        SpjQuery::builder(c)
            .relation("fact")
            .relation("dim")
            .join(("fact", "fk"), ("dim", "pk"))
            .range("fact", "v", 0, 11)
            .build()
            .unwrap(),
    ]
}

/// Runs the workload; returns per-query results plus sorted collected rows.
fn run(
    c: &Catalog,
    cfg: &EngineConfig,
    injector: Option<FaultInjector>,
) -> (Vec<QueryResult>, Vec<Vec<Vec<i64>>>) {
    let engine = RouletteEngine::new(c, cfg.clone());
    let queries = workload(c);
    let n = queries.len();
    let mut session = engine.session(n);
    session.collect_rows().unwrap();
    if let Some(inj) = injector {
        session.set_fault_injector(inj);
    }
    for q in queries {
        session.admit(q).unwrap();
    }
    session.run();
    // Collected row order is schedule-dependent; sort before comparing.
    let rows = (0..n)
        .map(|i| {
            let mut r = session.take_collected(QueryId(i as u32));
            r.sort_unstable();
            r
        })
        .collect();
    (session.finish().per_query, rows)
}

fn assert_engines_equivalent(
    cfg: &EngineConfig,
    injector: impl Fn() -> Option<FaultInjector>,
    tag: &str,
) {
    let c = catalog(8);
    let wide = cfg.clone().with_wide_kernels(true);
    let scalar = cfg.clone().with_wide_kernels(false);
    let (w_res, w_rows) = run(&c, &wide, injector());
    let (s_res, s_rows) = run(&c, &scalar, injector());
    for (i, (w, s)) in w_res.iter().zip(&s_res).enumerate() {
        assert_eq!(w.status, s.status, "{tag}: query {i} status diverged");
        if w.status != CompletionStatus::Complete {
            continue; // quarantined outputs are explicitly untrusted
        }
        assert_eq!(
            (w.rows, w.checksum),
            (s.rows, s.checksum),
            "{tag}: query {i} result diverged between wide and scalar kernels"
        );
        assert_eq!(w_rows[i], s_rows[i], "{tag}: query {i} collected rows diverged");
    }
}

#[test]
fn engine_wide_kernels_byte_identical_single_worker() {
    let cfg = EngineConfig::default().with_vector_size(3).unwrap();
    assert_engines_equivalent(&cfg, || None, "1 worker");
}

#[test]
fn engine_wide_kernels_byte_identical_four_workers() {
    let cfg = EngineConfig::default()
        .with_vector_size(7)
        .unwrap()
        .with_workers(4)
        .unwrap();
    assert_engines_equivalent(&cfg, || None, "4 workers");
}

#[test]
fn engine_wide_kernels_byte_identical_under_faults() {
    let cfg = EngineConfig::default().with_vector_size(3).unwrap();
    for site in [FaultSite::StemInsert, FaultSite::StemProbe, FaultSite::Route] {
        assert_engines_equivalent(
            &cfg,
            || Some(FaultInjector::new().fail_at(site, Some(QueryId(1)), 2)),
            &format!("fault at {site:?}"),
        );
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
    let results = session.finish().per_query;
    assert!(results.iter().all(|r| r.is_complete()));
    (results.iter().map(|r| (r.rows, r.checksum)).collect(), rows)
}

/// Runs `queries` under the per-row oracle (`locality_router = false`,
/// collecting) and checks the column-at-a-time router — and the oracle
/// itself in every other configuration — against it: collecting on and
/// off, shards 1/2/8, workers 1/4, adaptive projections on and off.
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
            for shards in [1usize, 2, 8] {
                for workers in [1usize, 4] {
                    for collect in [true, false] {
                        let mut cfg = base
                            .clone()
                            .with_stem_shards(shards)
                            .unwrap()
                            .with_workers(workers)
                            .unwrap();
                        cfg.locality_router = locality;
                        cfg.adaptive_projections = adaptive;
                        let (got, got_rows) = run_routed(c, queries, capacity, &cfg, collect);
                        let tag = format!(
                            "{tag}: locality={locality} adaptive={adaptive} shards={shards} \
                             workers={workers} collect={collect}"
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
