//! The §6.1 SWO anecdote and the §4.3 cost-model calibration.

use crate::harness::{print_table, Scale};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use roulette_baselines::optimize_shared;
use roulette_core::cost::{calibrate, CostSample};
use roulette_core::{EngineConfig, QueryId, QuerySet, QuerySetColumn, RelId};
use roulette_exec::{GroupedFilter, Stem, StemReader, VERSION_ALL};
use roulette_query::generator::{tpcds_pool, SensitivityParams};
use roulette_storage::datagen::tpcds;
use roulette_storage::Stats;
use std::sync::atomic::AtomicU32;
use std::time::Instant;

/// The §6.1 anecdote: offline sharing-aware optimization (SWO) cannot
/// scale — its optimization time explodes with batch size while RouLette's
/// total (optimize+execute) time stays flat, and the plans it finds are
/// only marginally better.
pub fn swo_anecdote(scale: Scale) {
    let ds = tpcds::generate(scale.sf(0.15), scale.seed);
    let stats = Stats::sample(&ds.catalog, 1024, 7);
    let pool = tpcds_pool(&ds, SensitivityParams::default(), 16, scale.seed + 99).expect("workload generation");
    let engine = crate::harness::engine(&ds.catalog, EngineConfig::default());

    let mut rows = Vec::new();
    for &n in &[2usize, 4, 6, 8, 11] {
        let queries = &pool[..n];
        let t0 = Instant::now();
        let swo = optimize_shared(&ds.catalog, &stats, queries, 5_000_000);
        let swo_time = t0.elapsed();

        let t0 = Instant::now();
        let out = engine.execute_batch(queries).expect("batch");
        let rl_time = t0.elapsed();

        let space = if swo.search_space == u64::MAX {
            ">1e19".to_string()
        } else {
            format!("{:.1e}", swo.search_space as f64)
        };
        rows.push(vec![
            n.to_string(),
            space,
            format!("{:.3}", swo_time.as_secs_f64()),
            swo.evaluations.to_string(),
            if swo.exhaustive { "yes" } else { "no" }.into(),
            format!("{:.3}", rl_time.as_secs_f64()),
            out.stats.join_tuples.to_string(),
        ]);
    }
    print_table(
        "SWO anecdote: sharing-aware optimization vs RouLette (search space is the          joint order space an exact optimizer must cover)",
        &["batch", "space", "SWO opt (s)", "evals", "exhaustive", "RouLette total (s)", "RL join tuples"],
        &rows,
    );
}

/// Matches of every key of `keys` in index 0 of the STeM `reader` pins.
fn count_matches(reader: &StemReader<'_>, keys: &[i64]) -> u64 {
    let mut out = 0;
    for &k in keys {
        reader.probe(0, k, VERSION_ALL, |_, _| out += 1);
    }
    out
}

/// Reproduces the §4.3 calibration: times each operator type at varying
/// input/output sizes and fits `c = κ·n_in + λ·n_out` by least squares.
pub fn calibrate_cost_model(_scale: Scale) {
    let mut rng = StdRng::seed_from_u64(11);
    let mut rows = Vec::new();

    // --- Selections: grouped filter over a query-set column --------------
    // Output fraction is varied across samples by narrowing the value
    // domain, keeping the regression well-conditioned.
    let preds: Vec<(QueryId, i64, i64)> = (0..64u32)
        .map(|q| {
            let lo = rng.gen_range(0..500);
            (QueryId(q), lo, lo + rng.gen_range(10..100))
        })
        .collect();
    let filter = GroupedFilter::build(&preds, 64);
    let mut samples = Vec::new();
    for &n in &[8192usize, 16384, 32768, 65536] {
        for &domain in &[600i64, 5_000, 100_000] {
            let values: Vec<i64> = (0..n).map(|_| rng.gen_range(0..domain)).collect();
            let restrict = {
                // Query-sets start as random halves so AND can empty rows.
                let mut m = QuerySet::empty(64);
                for q in 0..64u32 {
                    if rng.gen_bool(0.5) {
                        m.insert(QueryId(q));
                    }
                }
                m
            };
            let mut best = f64::INFINITY;
            let mut kept = 0u64;
            for _warm in 0..3 {
                let mut qsets = QuerySetColumn::new(1);
                for _ in 0..n {
                    qsets.push(restrict.words());
                }
                let t0 = Instant::now();
                kept = 0;
                for (i, &v) in values.iter().enumerate() {
                    if qsets.and_row(i, filter.mask_for(v)) {
                        kept += 1;
                    }
                }
                best = best.min(t0.elapsed().as_nanos() as f64);
            }
            samples.push(CostSample { n_in: n as u64, n_out: kept, time_ns: best });
        }
    }
    let (k, l) = calibrate(&samples).unwrap_or((f64::NAN, f64::NAN));
    rows.push(vec!["selection".into(), format!("{k:.2}"), format!("{l:.2}"), "9.32 / 4.62".into()]);

    // --- Joins: STeM probes at varying match fan-outs ----------------------
    let mut samples = Vec::new();
    for &n in &[4096usize, 16384, 65536] {
        for &fanout in &[1usize, 2, 8] {
            let stem = Stem::new(RelId(0), vec![roulette_core::ColId(0)], 1);
            let global = AtomicU32::new(0);
            let full = QuerySet::full(8);
            let mut qsets = QuerySetColumn::new(1);
            let mut vids = Vec::new();
            let mut keys = Vec::new();
            for i in 0..n {
                vids.push(i as u32);
                keys.push((i / fanout) as i64);
                qsets.push(full.words());
            }
            stem.insert_vector(&vids, &qsets, &[keys.clone()], &global);
            let mut best = f64::INFINITY;
            let mut out = 0u64;
            for _warm in 0..3 {
                let t0 = Instant::now();
                out = count_matches(&stem.read(), &keys);
                best = best.min(t0.elapsed().as_nanos() as f64);
            }
            samples.push(CostSample { n_in: n as u64, n_out: out, time_ns: best });
        }
    }
    let (k, l) = calibrate(&samples).unwrap_or((f64::NAN, f64::NAN));
    rows.push(vec!["join (probe)".into(), format!("{k:.2}"), format!("{l:.2}"), "38.57 / 43.29".into()]);

    // --- Routing selections: query-set mask AND with varied survival -------
    let mut samples = Vec::new();
    for &n in &[8192usize, 32768, 131072] {
        for &density in &[0.05f64, 0.3, 0.9] {
            let mask_set = {
                let mut m = QuerySet::empty(64);
                for q in 0..64u32 {
                    if rng.gen_bool(density) {
                        m.insert(QueryId(q));
                    }
                }
                m
            };
            // Rows carry random single-query sets so most empty out under a
            // sparse mask.
            let mut best = f64::INFINITY;
            let mut kept = 0u64;
            for _warm in 0..3 {
                let mut qsets = QuerySetColumn::new(1);
                for _ in 0..n {
                    let q = QueryId(rng.gen_range(0..64u32));
                    qsets.push(QuerySet::singleton(q, 64).words());
                }
                let t0 = Instant::now();
                kept = 0;
                for i in 0..n {
                    if qsets.and_row(i, mask_set.words()) {
                        kept += 1;
                    }
                }
                best = best.min(t0.elapsed().as_nanos() as f64);
            }
            samples.push(CostSample { n_in: n as u64, n_out: kept, time_ns: best });
        }
    }
    let (k, l) = calibrate(&samples).unwrap_or((f64::NAN, f64::NAN));
    rows.push(vec![
        "routing sel".into(),
        format!("{k:.2}"),
        format!("{l:.2}"),
        "3.60 / 0.92".into(),
    ]);

    print_table(
        "Cost-model calibration: fitted κ/λ (ns per tuple) vs paper's constants",
        &["operator", "κ", "λ", "paper κ/λ"],
        &rows,
    );
}
