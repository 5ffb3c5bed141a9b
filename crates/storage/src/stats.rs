//! Sampling-based statistics.
//!
//! RouLette itself sidesteps cardinality estimation — it measures
//! cardinalities at runtime (§2.4). The *baseline* engines, however, follow
//! the optimize-then-execute paradigm and need estimates: the query-at-a-
//! time optimizer and Match&Share's incremental global planner both consume
//! the selectivity and distinct-count estimates computed here from fixed-
//! size row samples.

use crate::catalog::Catalog;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use roulette_core::{ColId, RelId};
use std::collections::HashSet;

/// Per-relation sample plus derived statistics.
#[derive(Debug, Clone)]
pub struct RelStats {
    /// True row count.
    pub rows: usize,
    /// Sampled row indices (sorted, without replacement).
    sample: Vec<u32>,
}

/// Statistics over a catalog, computed from uniform row samples.
#[derive(Debug, Clone)]
pub struct Stats {
    per_rel: Vec<RelStats>,
    sample_size: usize,
}

impl Stats {
    /// Samples up to `sample_size` rows per relation.
    pub fn sample(catalog: &Catalog, sample_size: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let per_rel = catalog
            .relations()
            .map(|(_, rel)| {
                let rows = rel.rows();
                let sample = if rows <= sample_size {
                    (0..rows as u32).collect()
                } else {
                    // Floyd's algorithm would avoid the set, but sample sizes
                    // are small; a HashSet draw is simple and adequate.
                    let mut chosen = HashSet::with_capacity(sample_size);
                    while chosen.len() < sample_size {
                        chosen.insert(rng.gen_range(0..rows as u32));
                    }
                    let mut v: Vec<u32> = chosen.into_iter().collect();
                    v.sort_unstable();
                    v
                };
                RelStats { rows, sample }
            })
            .collect();
        Stats { per_rel, sample_size }
    }

    /// True row count of `rel`.
    #[inline]
    pub fn rows(&self, rel: RelId) -> usize {
        self.per_rel[rel.index()].rows
    }

    /// Configured sample size.
    #[inline]
    pub fn sample_size(&self) -> usize {
        self.sample_size
    }

    /// Estimated selectivity of `lo <= col <= hi` on `rel`.
    pub fn range_selectivity(
        &self,
        catalog: &Catalog,
        rel: RelId,
        col: ColId,
        lo: i64,
        hi: i64,
    ) -> f64 {
        let st = &self.per_rel[rel.index()];
        if st.sample.is_empty() {
            return 1.0;
        }
        let mut values = Vec::new();
        catalog.relation(rel).column(col).gather(&st.sample, &mut values);
        let hits = values.iter().filter(|&&v| v >= lo && v <= hi).count();
        // Laplace-smoothed so zero-hit samples don't zero out plans.
        (hits as f64 + 0.5) / (st.sample.len() as f64 + 1.0)
    }

    /// Estimated number of distinct values of `col` on `rel`.
    ///
    /// If (almost) every sampled value is unique the column is assumed to
    /// be a key (distinct = row count); otherwise the Chao1 estimator
    /// `d + f₁²/(2·f₂)` extrapolates from singleton/doubleton counts.
    pub fn distinct(&self, catalog: &Catalog, rel: RelId, col: ColId) -> f64 {
        let st = &self.per_rel[rel.index()];
        if st.sample.is_empty() {
            return 1.0;
        }
        let mut values = Vec::new();
        catalog.relation(rel).column(col).gather(&st.sample, &mut values);
        let mut freq: std::collections::HashMap<i64, u32> =
            std::collections::HashMap::with_capacity(st.sample.len());
        for v in values {
            *freq.entry(v).or_insert(0) += 1;
        }
        let d = freq.len() as f64;
        let n = st.sample.len() as f64;
        if d >= 0.95 * n {
            // Looks like a key.
            return st.rows as f64;
        }
        let f1 = freq.values().filter(|&&c| c == 1).count() as f64;
        let f2 = freq.values().filter(|&&c| c == 2).count() as f64;
        let chao = d + f1 * f1 / (2.0 * f2 + 1.0);
        chao.clamp(d, st.rows as f64)
    }

    /// Estimated selectivity of the equi-join `a.ca = b.cb`, the standard
    /// `1 / max(V(a,ca), V(b,cb))` formula.
    pub fn join_selectivity(
        &self,
        catalog: &Catalog,
        a: (RelId, ColId),
        b: (RelId, ColId),
    ) -> f64 {
        let da = self.distinct(catalog, a.0, a.1);
        let db = self.distinct(catalog, b.0, b.1);
        1.0 / da.max(db).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::RelationBuilder;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut f = RelationBuilder::new("fact");
        f.int64("fk", (0..10_000).map(|i| i % 100).collect());
        f.int64("v", (0..10_000).map(|i| i % 1000).collect());
        c.add(f.build()).unwrap();
        let mut d = RelationBuilder::new("dim");
        d.int64("pk", (0..100).collect());
        c.add(d.build()).unwrap();
        c
    }

    #[test]
    fn full_sample_on_small_relation() {
        let c = catalog();
        let s = Stats::sample(&c, 1000, 42);
        let dim = c.relation_id("dim").unwrap();
        assert_eq!(s.rows(dim), 100);
        let pk = c.relation(dim).column_id("pk").unwrap();
        // pk is a key: distinct ≈ rows.
        assert!((s.distinct(&c, dim, pk) - 100.0).abs() < 1.0);
    }

    #[test]
    fn range_selectivity_close_to_truth() {
        let c = catalog();
        let s = Stats::sample(&c, 2000, 7);
        let f = c.relation_id("fact").unwrap();
        let v = c.relation(f).column_id("v").unwrap();
        // v uniform over 0..999; [0, 99] selects ~10%.
        let sel = s.range_selectivity(&c, f, v, 0, 99);
        assert!((sel - 0.1).abs() < 0.03, "sel={sel}");
    }

    #[test]
    fn join_selectivity_uses_max_distinct() {
        let c = catalog();
        let s = Stats::sample(&c, 2000, 7);
        let f = c.relation_id("fact").unwrap();
        let d = c.relation_id("dim").unwrap();
        let fk = c.relation(f).column_id("fk").unwrap();
        let pk = c.relation(d).column_id("pk").unwrap();
        let sel = s.join_selectivity(&c, (f, fk), (d, pk));
        // ~1/100.
        assert!((sel - 0.01).abs() < 0.005, "sel={sel}");
    }

    #[test]
    fn empty_relation_degrades_gracefully() {
        let mut c = Catalog::new();
        let mut e = RelationBuilder::new("e");
        e.int64("x", vec![]);
        c.add(e.build()).unwrap();
        let s = Stats::sample(&c, 16, 1);
        let r = c.relation_id("e").unwrap();
        let x = c.relation(r).column_id("x").unwrap();
        assert_eq!(s.rows(r), 0);
        assert_eq!(s.range_selectivity(&c, r, x, 0, 10), 1.0);
        assert_eq!(s.distinct(&c, r, x), 1.0);
    }
}
