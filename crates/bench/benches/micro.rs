//! Criterion micro-benchmarks for the shared operators: the grouped filter
//! vs per-query predicate evaluation (§5.1), STeM insert/probe throughput,
//! query-set intersection, and multi-step optimization latency (the
//! per-episode planning cost that replaces sharing-aware optimization).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use roulette_core::{ColId, QueryId, QuerySet, QuerySetColumn, RelId};
use roulette_exec::{GroupedFilter, JoinSpace, PlainFilter, ProbeScratch, Stem, Walk, VERSION_ALL};
use roulette_policy::{Policy, RandomPolicy};
use roulette_query::generator::{tpcds_pool, SensitivityParams};
use roulette_query::QueryBatch;
use roulette_storage::datagen::tpcds;
use std::hint::black_box;
use std::sync::atomic::AtomicU32;
use std::time::Duration;

/// Keep `cargo bench` wall-clock friendly: micro effects here are large
/// (2-20x), so short measurement windows resolve them fine.
fn tune(group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>) {
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
}

fn bench_filters(c: &mut Criterion) {
    let mut group = c.benchmark_group("shared_selection");
    tune(&mut group);
    let mut rng = StdRng::seed_from_u64(1);
    let values: Vec<i64> = (0..1024).map(|_| rng.gen_range(0..1000)).collect();
    for &n_queries in &[16usize, 64, 256, 1024] {
        let preds: Vec<(QueryId, i64, i64)> = (0..n_queries)
            .map(|q| {
                let lo = rng.gen_range(0..900i64);
                (QueryId(q as u32), lo, lo + 50)
            })
            .collect();
        let grouped = GroupedFilter::build(&preds, n_queries);
        let plain = PlainFilter::new(&preds, n_queries);
        group.throughput(Throughput::Elements(values.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("grouped", n_queries),
            &values,
            |b, values| {
                b.iter(|| {
                    let mut acc = 0u64;
                    for &v in values {
                        acc ^= grouped.mask_for(v)[0];
                    }
                    black_box(acc)
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("plain", n_queries), &values, |b, values| {
            let words = n_queries.div_ceil(64);
            let mut mask = vec![0u64; words];
            b.iter(|| {
                let mut acc = 0u64;
                for &v in values {
                    plain.mask_into(v, &mut mask);
                    acc ^= mask[0];
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

fn bench_stem(c: &mut Criterion) {
    let mut group = c.benchmark_group("stem");
    tune(&mut group);
    let mut rng = StdRng::seed_from_u64(2);
    let n = 64 * 1024usize;
    let keys: Vec<i64> = (0..n).map(|_| rng.gen_range(0..(n as i64 / 4))).collect();
    let vids: Vec<u32> = (0..n as u32).collect();
    let full = QuerySet::full(64);
    let mut qsets = QuerySetColumn::new(1);
    for _ in 0..n {
        qsets.push(full.words());
    }

    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("insert_64k", |b| {
        b.iter(|| {
            let stem = Stem::new(RelId(0), vec![ColId(0)], 1);
            let global = AtomicU32::new(0);
            for chunk in 0..(n / 1024) {
                let r = chunk * 1024..(chunk + 1) * 1024;
                let mut qc = QuerySetColumn::new(1);
                for _ in 0..1024 {
                    qc.push(full.words());
                }
                stem.insert_vector(&vids[r.clone()], &qc, &[keys[r].to_vec()], &global);
            }
            black_box(stem.len())
        })
    });

    let stem = Stem::new(RelId(0), vec![ColId(0)], 1);
    let global = AtomicU32::new(0);
    stem.insert_vector(&vids, &qsets, std::slice::from_ref(&keys), &global);
    // The operator the engine's probe step drives: one 1024-key vector
    // through the tiled walker + pair AND-select, gathering target vIDs.
    let mut row_masks = QuerySetColumn::new(1);
    row_masks.push_repeat(full.words(), 1024);
    let mut scratch = ProbeScratch::new();
    let mut out = QuerySetColumn::new(1);
    let mut out_vids = Vec::new();
    group.bench_function("probe_64k", |b| {
        b.iter(|| {
            out.clear();
            out_vids.clear();
            let probe_keys = keys.get(..1024).unwrap_or(&[]);
            let on_tile = |t: roulette_exec::MatchTile<'_>, _: &mut QuerySetColumn| {
                t.extend_vids(&mut out_vids);
                Walk::Continue
            };
            let (masks, scratch, out) = (&row_masks, &mut scratch, &mut out);
            stem.probe_tiles(0, probe_keys, VERSION_ALL, masks, scratch, out, None, on_tile);
            black_box((out.len(), out_vids.len()))
        })
    });
    group.finish();
}

fn bench_queryset(c: &mut Criterion) {
    let mut group = c.benchmark_group("queryset");
    tune(&mut group);
    for &n_queries in &[64usize, 512, 4096] {
        let words = n_queries.div_ceil(64);
        let full = QuerySet::full(n_queries);
        let mut col = QuerySetColumn::new(words);
        for _ in 0..1024 {
            col.push(full.words());
        }
        let mask = QuerySet::full(n_queries / 2);
        let mask_words: Vec<u64> = mask
            .words()
            .iter()
            .copied()
            .chain(std::iter::repeat(0))
            .take(words)
            .collect();
        group.throughput(Throughput::Elements(1024));
        group.bench_with_input(
            BenchmarkId::new("and_row_1024", n_queries),
            &mask_words,
            |b, mask_words| {
                b.iter(|| {
                    let mut col = col.clone();
                    let mut kept = 0u64;
                    for i in 0..1024 {
                        if col.and_row(i, mask_words) {
                            kept += 1;
                        }
                    }
                    black_box(kept)
                })
            },
        );
    }
    group.finish();
}

fn bench_planning(c: &mut Criterion) {
    // Per-episode plan construction latency — the cost RouLette pays
    // instead of sharing-aware optimization. Must stay microseconds even
    // for large batches (the paper's scalability argument).
    let mut group = c.benchmark_group("multi_step_optimization");
    tune(&mut group);
    let ds = tpcds::generate(0.05, 3);
    for &n_queries in &[16usize, 64, 256] {
        let queries = tpcds_pool(&ds, SensitivityParams::default(), n_queries, 5).expect("workload generation");
        let batch = QueryBatch::from_queries(ds.catalog.len(), &queries).unwrap();
        let space = JoinSpace::new(&batch);
        let mut policy = RandomPolicy::new(9);
        let root = ds.meta.store().fact;
        let all = QuerySet::full(n_queries);
        group.bench_with_input(
            BenchmarkId::new("plan_join_phase", n_queries),
            &batch,
            |b, batch| {
                b.iter(|| {
                    let plan = roulette_exec::planner::plan_join_phase(
                        batch,
                        &space,
                        &mut policy as &mut dyn Policy,
                        root,
                        &all,
                    );
                    black_box(plan.probe_count())
                })
            },
        );
    }
    group.finish();
}

fn bench_router(c: &mut Criterion) {
    // The engine's router body (`roulette_exec::route`) on one 4096-row
    // vector, in its two shapes (`routing::SHAPES`): column-at-a-time vs
    // the direct per-tuple multicast of the §5.1 ablation.
    use roulette_bench::routing::{routing_fixture, SHAPES};
    use roulette_exec::{route, EpisodeSink, Kernels, RouteScratch};
    let mut group = c.benchmark_group("router");
    tune(&mut group);
    for (shape, capacity, density, projected) in SHAPES {
        let fx = routing_fixture(capacity, density, projected, 4096);
        group.throughput(Throughput::Elements(fx.emitted));
        for (label, locality) in [("column", true), ("direct", false)] {
            group.bench_function(BenchmarkId::new(shape, label), |b| {
                let mut sink = EpisodeSink::new(false);
                let mut scratch = RouteScratch::default();
                b.iter(|| {
                    let kernels = Kernels::best();
                    route(
                        &fx.catalog, kernels, locality, &fx.leaf, &fx.qsets, &fx.cols, &mut sink,
                        &mut scratch,
                    );
                    sink.reset();
                })
            });
        }
    }
    group.finish();
}

fn bench_kernels(c: &mut Criterion) {
    // Scalar reference vs wide kernels for the four hot loops (DESIGN.md
    // §14), at a one-word (≤64 queries) and a multi-word (300 queries)
    // query-set width.
    use roulette_core::RowMask;
    use roulette_exec::{KernelMode, Kernels, Partition};
    let mut group = c.benchmark_group("kernels");
    tune(&mut group);
    let n = 4096usize;
    let mut rng = StdRng::seed_from_u64(5);
    let values: Vec<i64> = (0..n).map(|_| rng.gen_range(-200..1000)).collect();
    let modes = [
        ("scalar", Kernels::with_mode(KernelMode::Scalar)),
        ("wide", Kernels::with_mode(KernelMode::Wide)),
    ];
    for &capacity in &[64usize, 300] {
        let words = QuerySet::full(capacity).width();
        let preds: Vec<(QueryId, i64, i64)> = (0..capacity)
            .map(|q| {
                let lo = rng.gen_range(0..900i64);
                (QueryId(q as u32), lo, lo + 50)
            })
            .collect();
        let filter = GroupedFilter::build(&preds, capacity);
        let mut template = QuerySetColumn::new(words);
        let mut row_masks: Vec<u64> = Vec::with_capacity(n * words);
        for _ in 0..n {
            let row: Vec<u64> = (0..words).map(|_| rng.gen::<u64>() | 1).collect();
            template.push(&row);
            row_masks.extend((0..words).map(|_| rng.gen::<u64>()));
        }
        let mut keep_pat = RowMask::new();
        keep_pat.clear_resize(n);
        for i in 0..n {
            if rng.gen_range(0..100) < 55 {
                keep_pat.set(i);
            }
        }
        let routed = QuerySet::full(capacity);
        group.throughput(Throughput::Elements(n as u64));
        for (label, k) in &modes {
            group.bench_with_input(
                BenchmarkId::new(format!("filter_mask/{label}"), capacity),
                &values,
                |b, values| {
                    let mut qsets = template.clone();
                    let mut keep = RowMask::new();
                    b.iter(|| {
                        qsets.clear();
                        qsets.push_rows(template.raw());
                        k.filter_grouped(&filter, values, &mut qsets, &mut keep);
                        black_box(keep.count())
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("qset_and/{label}"), capacity),
                &row_masks,
                |b, masks| {
                    let mut qsets = template.clone();
                    let mut keep = RowMask::new();
                    b.iter(|| {
                        qsets.clear();
                        qsets.push_rows(template.raw());
                        k.qset_and(&mut qsets, masks, &mut keep);
                        black_box(keep.count())
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("compaction/{label}"), capacity),
                &keep_pat,
                |b, keep| {
                    let vals: Vec<u32> = (0..n as u32).collect();
                    b.iter(|| {
                        let mut qsets = template.clone();
                        let mut col = vals.clone();
                        k.compact_u32(&mut col, keep);
                        k.compact_qsets(&mut qsets, keep);
                        black_box(qsets.len())
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("routing/{label}"), capacity),
                &routed,
                |b, routed| {
                    let mut part = Partition::new();
                    b.iter(|| black_box(k.partition(&template, routed, &mut part)))
                },
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_filters,
    bench_stem,
    bench_queryset,
    bench_planning,
    bench_router,
    bench_kernels
);
criterion_main!(benches);
