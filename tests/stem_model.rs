//! Property tests: the STeM behaves like a model multimap with version
//! visibility — for any interleaving of vector inserts and probes, a probe
//! at version v sees exactly the model's entries inserted at versions < v —
//! whether a tiled walk goes through a dense-key view or along the chains.

use proptest::prelude::*;
use roulette::core::{ColId, QueryId, QuerySet, QuerySetColumn, RelId};
use roulette::exec::{ProbeScratch, Stem, Walk, VERSION_ALL};
use std::sync::atomic::{AtomicU32, Ordering};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn stem_matches_model_multimap(
        vectors in prop::collection::vec(
            prop::collection::vec((0i64..12, 0u32..8), 1..20),
            1..12,
        ),
        probes in prop::collection::vec((0i64..14, 0usize..12), 0..30),
    ) {
        let stem = Stem::new(RelId(0), vec![ColId(0)], 1);
        let global = AtomicU32::new(0);
        // Model: (key, vid, version, qset-word).
        let mut model: Vec<(i64, u32, u32, u64)> = Vec::new();
        let mut versions = Vec::new();
        let mut next_vid = 0u32;
        for vec in &vectors {
            let mut vids = Vec::new();
            let mut keys = Vec::new();
            let mut qsets = QuerySetColumn::new(1);
            let mut rows = Vec::new();
            for &(key, q) in vec {
                let vid = next_vid;
                next_vid += 1;
                vids.push(vid);
                keys.push(key);
                let qs = QuerySet::singleton(QueryId(q), 8);
                qsets.push(qs.words());
                rows.push((key, vid, qs.words()[0]));
            }
            let v = stem.insert_vector(&vids, &qsets, &[keys], &global);
            versions.push(v);
            for (key, vid, w) in rows {
                model.push((key, vid, v, w));
            }
        }
        for &(key, version_idx) in &probes {
            // Probe either at one of the assigned versions or at ALL.
            let version = versions.get(version_idx).copied().unwrap_or(VERSION_ALL);
            let mut got: Vec<(u32, u64)> = Vec::new();
            let reader = stem.read();
            reader.probe(0, key, version, |qwords, vid| got.push((vid, qwords[0])));
            drop(reader);
            let mut expected: Vec<(u32, u64)> = model
                .iter()
                .filter(|&&(k, _, v, _)| k == key && v < version)
                .map(|&(_, vid, _, w)| (vid, w))
                .collect();
            got.sort_unstable();
            expected.sort_unstable();
            prop_assert_eq!(got, expected, "key {} at version {}", key, version);
        }
    }
}

/// Probe keys of one operation in [`tiled_walks_match_model_multimap`]: the
/// dense key range `0..14` as is, or spread 7 919 apart so no index over it
/// qualifies for a dense-key view.
fn spread(key: i64, sparse: bool) -> i64 {
    if sparse { key * 7919 - 40_000 } else { key }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tiled probes and semi-joins, which take a dense-key view whenever
    /// their version hides nothing in the STeM and build one at
    /// `VERSION_ALL`, interleaved with inserts, which drop it, agree with
    /// the model multimap — rows, query-sets, vIDs and the chain's
    /// newest-first order — and take the view exactly when they may.
    #[test]
    fn tiled_walks_match_model_multimap(
        sparse in 0u8..2,
        ops in prop::collection::vec(
            (0u8..5, prop::collection::vec((0i64..14, 0u32..8), 1..20), 0usize..16),
            1..24,
        ),
    ) {
        let sparse = sparse == 1;
        let stem = Stem::new(RelId(0), vec![ColId(0)], 1);
        let global = AtomicU32::new(0);
        let mut model: Vec<(i64, u32, u32, u64)> = Vec::new();
        let mut versions = Vec::new();
        let mut scratch = ProbeScratch::new();
        for (op, rows, pick) in &ops {
            let keys: Vec<i64> = rows.iter().map(|&(k, _)| spread(k, sparse)).collect();
            if *op < 2 {
                let first = model.len() as u32;
                let vids: Vec<u32> = (first..first + rows.len() as u32).collect();
                let mut qsets = QuerySetColumn::new(1);
                for &(_, q) in rows {
                    qsets.push(QuerySet::singleton(QueryId(q), 8).words());
                }
                let v = stem.insert_vector(&vids, &qsets, std::slice::from_ref(&keys), &global);
                versions.push(v);
                for (i, &vid) in vids.iter().enumerate() {
                    model.push((keys[i], vid, v, qsets.row(i)[0]));
                }
                prop_assert_eq!(stem.view_bytes(), 0, "an insert drops the view");
                continue;
            }
            let views_before = stem.view_bytes();
            // Every probe row's mask holds every query.
            let mut masks = QuerySetColumn::new(1);
            masks.push_repeat(&[u64::MAX], keys.len());
            if *op == 3 {
                let mut acc = QuerySetColumn::new(1);
                acc.push_repeat(&[0], keys.len());
                stem.semijoin_batch(0, &keys, &mut scratch, &mut acc);
                for (i, &k) in keys.iter().enumerate() {
                    let want = model.iter().filter(|m| m.0 == k).fold(0, |a, m| a | m.3);
                    prop_assert_eq!(acc.row(i)[0], want, "semi-join of key {}", k);
                }
            } else {
                // At `VERSION_ALL`; at a version drawn after the last insert,
                // which hides nothing; or at one an insert already holds,
                // which hides that vector and every later one.
                let version = match (*op, versions.get(*pick)) {
                    (2, _) => VERSION_ALL,
                    (_, Some(&v)) => v,
                    (_, None) => global.fetch_add(1, Ordering::Relaxed),
                };
                let mut out = QuerySetColumn::new(1);
                let (mut got_rows, mut got_vids) = (Vec::new(), Vec::new());
                let end = stem.probe_tiles(0, &keys, version, &masks, &mut scratch, &mut out, None,
                    |tile, _| {
                        got_rows.extend_from_slice(tile.rows());
                        tile.extend_vids(&mut got_vids);
                        Walk::Continue
                    });
                prop_assert!(end.is_none());
                let got: Vec<(u32, u32, u64)> = (0..out.len())
                    .map(|j| (got_rows[j], got_vids[j], out.row(j)[0]))
                    .collect();
                let mut want = Vec::new();
                for (i, &k) in keys.iter().enumerate() {
                    let mut hits: Vec<_> =
                        model.iter().filter(|m| m.0 == k && m.2 < version).collect();
                    hits.sort_by_key(|m| std::cmp::Reverse(m.1));
                    want.extend(hits.iter().map(|m| (i as u32, m.1, m.3)));
                }
                prop_assert_eq!(got, want, "probe at version {}", version);
            }
            // A complete walk takes the view iff the keys are dense, and
            // builds it; a versioned one only takes a view that exists, and
            // never when its version hides an entry.
            let (view_keys, chain_keys) = scratch.path_key_counts();
            prop_assert_eq!(view_keys + chain_keys, keys.len() as u64);
            let lo = model.iter().map(|m| m.0).min().unwrap_or(0);
            let hi = model.iter().map(|m| m.0).max().unwrap_or(0);
            let dense = !model.is_empty() && (hi - lo + 1) as usize <= (4 * model.len()).max(1024);
            if *op == 4 {
                let hides = versions.get(*pick).is_some();
                let at = if hides { "at or below" } else { "above" };
                prop_assert_eq!(view_keys > 0, !hides && views_before > 0,
                    "view taken at a version {} the last insert", at);
                prop_assert_eq!(stem.view_bytes(), views_before, "a versioned walk built a view");
            } else {
                prop_assert_eq!(view_keys > 0, dense);
                prop_assert_eq!(stem.view_bytes() > 0, dense);
            }
        }
    }
}
