//! Query-at-a-time comparator engines (§6.1).
//!
//! Two optimize-then-execute engines share one hash-join pipeline:
//!
//! * **DBMS-V** ([`ExecMode::Vectorized`]) — a vectorized engine: the
//!   driving relation streams through the probe pipeline in
//!   1024-tuple chunks, keeping intermediates cache-resident;
//! * **MonetDB-style** ([`ExecMode::Materialized`]) — operator-at-a-time:
//!   every operator materializes its full intermediate result (including
//!   gathered key columns) before the next starts, which is fast for tiny
//!   intermediates and memory-bound for large ones — the §6.1 selectivity
//!   crossover.
//!
//! Both engines plan with the sampled-statistics DP optimizer and produce
//! the same per-query `(rows, checksum)` results as RouLette, enabling
//! result-equivalence testing across engines.

use crate::hashtable::JoinHashTable;
use crate::optimizer::{optimize, QueryPlan};
use roulette_core::{QueryId, RelId};
use roulette_exec::{row_hash, Outputs, QueryResult};
use roulette_query::SpjQuery;
use roulette_storage::{Catalog, Stats};

/// Pipeline granularity of the query-at-a-time engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// DBMS-V: chunked, cache-friendly execution.
    Vectorized,
    /// MonetDB-style: full operator-at-a-time materialization.
    Materialized,
}

/// A query-at-a-time engine over a catalog.
pub struct QatEngine<'a> {
    catalog: &'a Catalog,
    stats: Stats,
    mode: ExecMode,
    vector_size: usize,
}

impl<'a> QatEngine<'a> {
    /// Creates an engine; statistics are sampled once (1024-row samples).
    pub fn new(catalog: &'a Catalog, mode: ExecMode, seed: u64) -> Self {
        QatEngine { catalog, stats: Stats::sample(catalog, 1024, seed), mode, vector_size: 1024 }
    }

    /// The engine's plan for `q` (exposed for the sharing plan builders).
    pub fn plan(&self, q: &SpjQuery) -> QueryPlan {
        optimize(q, self.catalog, &self.stats)
    }

    /// Sampled statistics (shared with the plan builders).
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Executes one query, returning `(rows, checksum)`.
    pub fn execute(&self, q: &SpjQuery) -> QueryResult {
        self.execute_impl(q, None)
    }

    /// Executes one query, also collecting projected rows.
    pub fn execute_collect(&self, q: &SpjQuery) -> (QueryResult, Vec<Vec<i64>>) {
        let outputs = Outputs::new(1, true);
        let r = self.execute_impl(q, Some(&outputs));
        (r, outputs.take_collected(QueryId(0)))
    }

    /// Executes queries one after the other (the query-at-a-time
    /// methodology), returning per-query results.
    pub fn execute_serial(&self, queries: &[SpjQuery]) -> Vec<QueryResult> {
        queries.iter().map(|q| self.execute(q)).collect()
    }

    /// Executes the driving scan data-parallel over `threads` chunks
    /// (DBMS-V's single-client configuration in Fig. 20).
    pub fn execute_parallel(&self, q: &SpjQuery, threads: usize) -> QueryResult {
        let plan = self.plan(q);
        let tables = self.build_tables(q, &plan);
        let root_vids = self.filtered_vids(q, plan.root);
        let chunk = root_vids.len().div_ceil(threads.max(1)).max(1);
        let parts: Vec<QueryResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = root_vids
                .chunks(chunk)
                .map(|part| {
                    let plan = &plan;
                    let tables = &tables;
                    scope.spawn(move || self.run_pipeline(q, plan, tables, part, None))
                })
                .collect();
            roulette_core::sync::assert_no_locks_held();
            handles.into_iter().map(|h| h.join().expect("worker")).collect()
        });
        parts.into_iter().fold(QueryResult::default(), |acc, r| QueryResult {
            rows: acc.rows + r.rows,
            checksum: acc.checksum.wrapping_add(r.checksum),
            ..QueryResult::default()
        })
    }

    fn execute_impl(&self, q: &SpjQuery, outputs: Option<&Outputs>) -> QueryResult {
        let plan = self.plan(q);
        let tables = self.build_tables(q, &plan);
        let root_vids = self.filtered_vids(q, plan.root);
        self.run_pipeline(q, &plan, &tables, &root_vids, outputs)
    }

    /// Applies `rel`'s predicates, returning the surviving row ids: a
    /// chunk of rows at a time, each predicate narrowing the chunk's
    /// survivors over its gathered column.
    fn filtered_vids(&self, q: &SpjQuery, rel: RelId) -> Vec<u32> {
        const CHUNK: usize = 1024;
        let relation = self.catalog.relation(rel);
        let preds: Vec<_> = q.predicates_on(rel).collect();
        let mut vids = Vec::with_capacity(relation.rows());
        let mut values = Vec::new();
        for start in (0..relation.rows()).step_by(CHUNK) {
            let end = (start + CHUNK).min(relation.rows());
            let first = vids.len();
            vids.extend(start as u32..end as u32);
            for p in &preds {
                relation.column(p.col).gather_range(start, end, &mut values);
                let mut kept = first;
                for i in first..vids.len() {
                    let row = vids[i];
                    let v = values[row as usize - start];
                    if v >= p.lo && v <= p.hi {
                        vids[kept] = row;
                        kept += 1;
                    }
                }
                vids.truncate(kept);
            }
        }
        vids
    }

    /// Builds one hash table per probe step on the (filtered) target.
    fn build_tables(&self, q: &SpjQuery, plan: &QueryPlan) -> Vec<JoinHashTable> {
        plan.steps
            .iter()
            .map(|step| {
                let e = &q.joins[step.edge_idx];
                let (target_rel, target_col) = if e.left.0 == step.target { e.left } else { e.right };
                debug_assert_eq!(target_rel, step.target);
                let vids = self.filtered_vids(q, target_rel);
                let mut keys = Vec::new();
                self.catalog.relation(target_rel).column(target_col).gather(&vids, &mut keys);
                JoinHashTable::build(&keys, &vids)
            })
            .collect()
    }

    fn run_pipeline(
        &self,
        q: &SpjQuery,
        plan: &QueryPlan,
        tables: &[JoinHashTable],
        root_vids: &[u32],
        outputs: Option<&Outputs>,
    ) -> QueryResult {
        let chunk_size = match self.mode {
            ExecMode::Vectorized => self.vector_size,
            ExecMode::Materialized => root_vids.len().max(1),
        };
        let mut rows = 0u64;
        let mut checksum = 0u64;
        let mut values: Vec<i64> = Vec::new();

        // Column order: root, then step targets.
        let rel_order: Vec<RelId> =
            std::iter::once(plan.root).chain(plan.steps.iter().map(|s| s.target)).collect();
        let proj: Vec<(usize, roulette_core::ColId)> = q
            .projections
            .iter()
            .map(|&(rel, col)| {
                (rel_order.iter().position(|&r| r == rel).expect("projected rel joined"), col)
            })
            .collect();

        for chunk in root_vids.chunks(chunk_size.max(1)) {
            // `cols[k]` holds the vids of rel_order[k] for current tuples.
            let mut cols: Vec<Vec<u32>> = vec![chunk.to_vec()];
            for (s, step) in plan.steps.iter().enumerate() {
                let e = &q.joins[step.edge_idx];
                let (probe_rel, probe_col) =
                    if e.left.0 == step.target { e.right } else { e.left };
                let probe_idx =
                    rel_order.iter().position(|&r| r == probe_rel).expect("probe rel joined");
                // The gathered key column, materialized before probing: the
                // whole input at once (MonetDB-style) or one vector at a
                // time, as `chunk_size` sets.
                let mut keys = Vec::new();
                self.catalog.relation(probe_rel).column(probe_col).gather(&cols[probe_idx], &mut keys);
                let mut out: Vec<Vec<u32>> = vec![Vec::new(); cols.len() + 1];
                for (i, &key) in keys.iter().enumerate() {
                    tables[s].probe(key, |target_vid| {
                        for (k, col) in cols.iter().enumerate() {
                            out[k].push(col[i]);
                        }
                        out[cols.len()].push(target_vid);
                    });
                }
                cols = out;
                if cols[0].is_empty() {
                    break;
                }
            }
            if cols.len() == rel_order.len() {
                let n = cols[0].len();
                let projected: Vec<Vec<i64>> = proj
                    .iter()
                    .map(|&(k, col)| {
                        let mut vals = Vec::new();
                        self.catalog.relation(rel_order[k]).column(col).gather(&cols[k], &mut vals);
                        vals
                    })
                    .collect();
                for i in 0..n {
                    values.clear();
                    values.extend(projected.iter().map(|vals| vals[i]));
                    rows += 1;
                    checksum = checksum.wrapping_add(row_hash(&values));
                    if let Some(o) = outputs {
                        o.extend_collected(QueryId(0), &[values.clone()]);
                    }
                }
            }
        }
        QueryResult { rows, checksum, ..QueryResult::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roulette_core::EngineConfig;
    use roulette_exec::RouletteEngine;
    use roulette_storage::RelationBuilder;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut f = RelationBuilder::new("fact");
        f.int64("fk", (0..200).map(|i| i % 20).collect());
        f.int64("fk2", (0..200).map(|i| i % 5).collect());
        f.int64("v", (0..200).collect());
        c.add(f.build()).unwrap();
        let mut d = RelationBuilder::new("d1");
        d.int64("pk", (0..20).collect());
        d.int64("w", (0..20).collect());
        c.add(d.build()).unwrap();
        let mut d2 = RelationBuilder::new("d2");
        d2.int64("pk", (0..5).collect());
        d2.int64("w", (0..5).collect());
        c.add(d2.build()).unwrap();
        c
    }

    fn two_join_query(c: &Catalog) -> SpjQuery {
        SpjQuery::builder(c)
            .relation("fact").relation("d1").relation("d2")
            .join(("fact", "fk"), ("d1", "pk"))
            .join(("fact", "fk2"), ("d2", "pk"))
            .range("fact", "v", 0, 99)
            .range("d1", "w", 0, 9)
            .project("d1", "w")
            .build()
            .unwrap()
    }

    #[test]
    fn counts_match_nested_loop_ground_truth() {
        let c = catalog();
        let q = two_join_query(&c);
        // Ground truth: fact rows 0..100 with fk ∈ 0..10 → fk = v%20 < 10 →
        // v%20 ∈ 0..10 → 50 rows; every fk2 matches d2.
        let engine = QatEngine::new(&c, ExecMode::Vectorized, 1);
        let r = engine.execute(&q);
        assert_eq!(r.rows, 50);
    }

    #[test]
    fn vectorized_and_materialized_agree() {
        let c = catalog();
        let q = two_join_query(&c);
        let v = QatEngine::new(&c, ExecMode::Vectorized, 1).execute(&q);
        let m = QatEngine::new(&c, ExecMode::Materialized, 1).execute(&q);
        assert_eq!(v, m);
    }

    #[test]
    fn qat_matches_roulette_results() {
        let c = catalog();
        let q = two_join_query(&c);
        let qat = QatEngine::new(&c, ExecMode::Vectorized, 1).execute(&q);
        let rl = RouletteEngine::new(&c, EngineConfig::default().with_vector_size(64).unwrap())
            .execute_batch(&[q])
            .unwrap();
        assert_eq!(qat, rl.per_query[0]);
    }

    #[test]
    fn parallel_execution_matches_serial() {
        let c = catalog();
        let q = two_join_query(&c);
        let engine = QatEngine::new(&c, ExecMode::Vectorized, 1);
        let serial = engine.execute(&q);
        let parallel = engine.execute_parallel(&q, 4);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn collected_rows_are_projected() {
        let c = catalog();
        let q = two_join_query(&c);
        let engine = QatEngine::new(&c, ExecMode::Vectorized, 1);
        let (r, rows) = engine.execute_collect(&q);
        assert_eq!(rows.len() as u64, r.rows);
        assert!(rows.iter().all(|row| row.len() == 1 && (0..10).contains(&row[0])));
    }

    #[test]
    fn single_relation_query() {
        let c = catalog();
        let q = SpjQuery::builder(&c)
            .relation("fact")
            .range("fact", "v", 10, 19)
            .build()
            .unwrap();
        let r = QatEngine::new(&c, ExecMode::Vectorized, 1).execute(&q);
        assert_eq!(r.rows, 10);
    }
}
