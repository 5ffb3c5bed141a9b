//! Shared global-plan executor in the batched execution model
//! (SharedDB \[13\] / MQJoin \[25\] style).
//!
//! The online-sharing prototypes (Stitch&Share, Match&Share) both produce a
//! *global query plan*: a DAG of Data-Query-model operators in which a
//! sub-expression node is identified by its `(relation set, join edge set)`
//! — within tree-shaped queries that pair determines the result. This
//! module executes such DAGs operator-at-a-time: scans apply all queries'
//! selections via grouped filters and annotate tuples with query-sets,
//! joins intersect query-sets, and each query extracts its rows from its
//! final node. Per the paper's methodology, the prototypes "adopt all
//! useful optimizations and operators from RouLette" — hence the reuse of
//! the grouped filter and the checksum-compatible sinks.

use roulette_core::{ColId, QueryId, QuerySetColumn, RelId, RelSet};
use roulette_exec::{row_hash, GroupedFilter, QueryResult};
use roulette_query::{JoinPred, QueryBatch};
use roulette_storage::Catalog;
use std::collections::HashMap;

use crate::hashtable::JoinHashTable;

/// Identity of a shared sub-expression: its relations and applied edges.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SubExpr {
    /// Relations joined by the sub-expression.
    pub rels: RelSet,
    /// Canonical, sorted join edges applied.
    pub edges: Vec<JoinPred>,
}

impl SubExpr {
    /// A single-relation sub-expression.
    pub fn scan(rel: RelId) -> Self {
        SubExpr { rels: RelSet::singleton(rel), edges: Vec::new() }
    }

    /// This sub-expression extended by one edge joining in `target`.
    pub fn extend(&self, edge: JoinPred, target: RelId) -> Self {
        let mut edges = self.edges.clone();
        edges.push(edge.canonical());
        edges.sort_unstable();
        SubExpr { rels: self.rels.with(target), edges }
    }
}

/// A node of the global plan DAG.
#[derive(Debug, Clone)]
pub enum GNode {
    /// Shared scan + selection of one relation.
    Scan {
        /// Scanned relation.
        rel: RelId,
    },
    /// Shared hash join of two child nodes.
    Join {
        /// Left (probe) child.
        left: usize,
        /// Right (build) child.
        right: usize,
        /// Join edge.
        edge: JoinPred,
    },
}

/// A global query plan: DAG nodes plus each query's final node.
#[derive(Debug, Clone, Default)]
pub struct GlobalPlan {
    /// Nodes in topological (creation) order.
    pub nodes: Vec<GNode>,
    /// Final node per query (admission order).
    pub final_node: Vec<usize>,
}

impl GlobalPlan {
    /// Number of join nodes (shared-work metric: fewer = more sharing).
    pub fn join_nodes(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, GNode::Join { .. })).count()
    }
}

/// Incrementally builds a [`GlobalPlan`], deduplicating sub-expressions.
#[derive(Debug, Default)]
pub struct GlobalPlanBuilder {
    nodes: Vec<GNode>,
    map: HashMap<SubExpr, usize>,
    final_node: Vec<usize>,
}

impl GlobalPlanBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sub-expressions materialized so far.
    pub fn known(&self) -> impl Iterator<Item = (&SubExpr, &usize)> {
        self.map.iter()
    }

    /// Whether a sub-expression is already materialized.
    pub fn node_of(&self, key: &SubExpr) -> Option<usize> {
        self.map.get(key).copied()
    }

    /// Returns (creating if needed) the scan node of `rel`.
    pub fn scan(&mut self, rel: RelId) -> usize {
        let key = SubExpr::scan(rel);
        if let Some(&id) = self.map.get(&key) {
            return id;
        }
        let id = self.nodes.len();
        self.nodes.push(GNode::Scan { rel });
        self.map.insert(key, id);
        id
    }

    /// Returns (creating if needed) the join of `left_key` with `target`'s
    /// scan through `edge`.
    pub fn join(&mut self, left_key: &SubExpr, edge: JoinPred, target: RelId) -> (SubExpr, usize) {
        let new_key = left_key.extend(edge, target);
        if let Some(&id) = self.map.get(&new_key) {
            return (new_key, id);
        }
        let left = self.map[left_key];
        let right = self.scan(target);
        let id = self.nodes.len();
        self.nodes.push(GNode::Join { left, right, edge: edge.canonical() });
        self.map.insert(new_key.clone(), id);
        (new_key, id)
    }

    /// Adds a left-deep plan for one query: `root`, then `(edge, target)`
    /// steps in order. Records the query's final node.
    pub fn add_left_deep(&mut self, root: RelId, steps: &[(JoinPred, RelId)]) {
        self.scan(root);
        let mut key = SubExpr::scan(root);
        for &(edge, target) in steps {
            let (k, _) = self.join(&key, edge, target);
            key = k;
        }
        let final_id = self.map[&key];
        self.final_node.push(final_id);
    }

    /// Records `key`'s node as the next query's final node (incremental
    /// builders like Match&Share).
    pub fn finalize_query(&mut self, key: &SubExpr) {
        let id = self.map[key];
        self.final_node.push(id);
    }

    /// Finalizes the plan.
    pub fn build(self) -> GlobalPlan {
        GlobalPlan { nodes: self.nodes, final_node: self.final_node }
    }
}

/// Materialized output of one global-plan node.
struct NodeOut {
    cols: Vec<(RelId, Vec<u32>)>,
    qsets: QuerySetColumn,
}

impl NodeOut {
    fn vids_of(&self, rel: RelId) -> &[u32] {
        &self.cols.iter().find(|(r, _)| *r == rel).expect("column present").1
    }
}

/// Execution metrics + results of a global plan.
#[derive(Debug, Clone)]
pub struct SharedRun {
    /// Per-query results (admission order).
    pub per_query: Vec<QueryResult>,
    /// Σ of join-node output cardinalities (the §6.2 intermediate-tuples
    /// metric).
    pub join_tuples: u64,
    /// Output cardinality per node.
    pub node_outputs: Vec<u64>,
}

/// Executes a global plan over `catalog` for the batch's queries in the
/// batched (operator-at-a-time, full materialization) model.
pub fn execute_global(catalog: &Catalog, batch: &QueryBatch, plan: &GlobalPlan) -> SharedRun {
    let capacity = batch.capacity();
    let n_queries = batch.n_queries();

    // Grouped filters per selection group, shared by all scans.
    let filters: Vec<(RelId, ColId, GroupedFilter)> = batch
        .selection_groups()
        .iter()
        .map(|g| (g.rel, g.col, GroupedFilter::build(&g.preds, capacity)))
        .collect();

    let mut outputs: Vec<NodeOut> = Vec::with_capacity(plan.nodes.len());
    let mut node_counts: Vec<u64> = Vec::with_capacity(plan.nodes.len());
    let mut join_tuples = 0u64;

    for node in &plan.nodes {
        let out = match node {
            GNode::Scan { rel } => {
                let relation = catalog.relation(*rel);
                let base = batch.rel_queries(*rel).clone();
                let mut vids = Vec::new();
                let mut qsets = QuerySetColumn::new(base.width());
                let rel_filters: Vec<_> = filters
                    .iter()
                    .filter(|(frel, _, _)| frel == rel)
                    .map(|(_, fcol, filter)| {
                        let mut vals = Vec::new();
                        relation.column(*fcol).gather_range(0, relation.rows(), &mut vals);
                        (vals, filter)
                    })
                    .collect();
                for row in 0..relation.rows() {
                    let mut mask = base.clone();
                    let mut alive = !mask.is_empty();
                    for (vals, filter) in &rel_filters {
                        if alive {
                            alive = mask.intersect_words(filter.mask_for(vals[row]));
                        }
                    }
                    if alive {
                        vids.push(row as u32);
                        qsets.push(mask.words());
                    }
                }
                NodeOut { cols: vec![(*rel, vids)], qsets }
            }
            GNode::Join { left, right, edge } => {
                let l = &outputs[*left];
                let r = &outputs[*right];
                // Build on the right child.
                let (r_rel, r_col) = if r.cols.iter().any(|(rr, _)| *rr == edge.left.0) {
                    edge.left
                } else {
                    edge.right
                };
                let (l_rel, l_col) = if r_rel == edge.left.0 { edge.right } else { edge.left };
                let r_vids = r.vids_of(r_rel);
                let r_column = catalog.relation(r_rel).column(r_col);
                let mut keys = Vec::new();
                r_column.gather(r_vids, &mut keys);
                let row_ids: Vec<u32> = (0..r_vids.len() as u32).collect();
                let table = JoinHashTable::build(&keys, &row_ids);

                let l_vids = l.vids_of(l_rel);
                let mut l_keys = Vec::new();
                catalog.relation(l_rel).column(l_col).gather(l_vids, &mut l_keys);
                let width = l.qsets.words_per_set();
                let mut cols: Vec<(RelId, Vec<u32>)> = l
                    .cols
                    .iter()
                    .map(|(rel, _)| (*rel, Vec::new()))
                    .chain(r.cols.iter().map(|(rel, _)| (*rel, Vec::new())))
                    .collect();
                let n_left_cols = l.cols.len();
                let mut qsets = QuerySetColumn::new(width);
                for (i, &key) in l_keys.iter().enumerate() {
                    table.probe(key, |r_row| {
                        if qsets.push_and(l.qsets.row(i), r.qsets.row(r_row as usize)) {
                            for (k, (_, buf)) in cols.iter_mut().enumerate() {
                                if k < n_left_cols {
                                    buf.push(l.cols[k].1[i]);
                                } else {
                                    buf.push(r.cols[k - n_left_cols].1[r_row as usize]);
                                }
                            }
                        }
                    });
                }
                join_tuples += qsets.len() as u64;
                NodeOut { cols, qsets }
            }
        };
        node_counts.push(out.qsets.len() as u64);
        outputs.push(out);
    }

    // Extract per-query results from final nodes.
    let mut per_query = vec![QueryResult::default(); n_queries];
    let mut values: Vec<i64> = Vec::new();
    for (qi, &node_id) in plan.final_node.iter().enumerate() {
        let q = QueryId(qi as u32);
        let query = batch.query(q);
        let out = &outputs[node_id];
        let (w, b) = (q.index() / 64, q.index() % 64);
        let projected: Vec<Vec<i64>> = query
            .projections
            .iter()
            .map(|&(rel, col)| {
                let mut vals = Vec::new();
                catalog.relation(rel).column(col).gather(out.vids_of(rel), &mut vals);
                vals
            })
            .collect();
        for i in 0..out.qsets.len() {
            if (out.qsets.row(i)[w] >> b) & 1 == 1 {
                values.clear();
                values.extend(projected.iter().map(|vals| vals[i]));
                per_query[qi].rows += 1;
                per_query[qi].checksum =
                    per_query[qi].checksum.wrapping_add(row_hash(&values));
            }
        }
    }

    SharedRun { per_query, join_tuples, node_outputs: node_counts }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subexpr_extend_is_canonical() {
        let e1 = JoinPred { left: (RelId(1), ColId(0)), right: (RelId(0), ColId(0)) };
        let a = SubExpr::scan(RelId(0)).extend(e1, RelId(1));
        let e2 = JoinPred { left: (RelId(0), ColId(0)), right: (RelId(1), ColId(0)) };
        let b = SubExpr::scan(RelId(1)).extend(e2, RelId(0));
        assert_eq!(a, b);
    }

    #[test]
    fn builder_dedups_shared_prefixes() {
        let e_rs = JoinPred { left: (RelId(0), ColId(0)), right: (RelId(1), ColId(0)) };
        let e_rt = JoinPred { left: (RelId(0), ColId(1)), right: (RelId(2), ColId(0)) };
        let mut b = GlobalPlanBuilder::new();
        b.add_left_deep(RelId(0), &[(e_rs, RelId(1))]);
        b.add_left_deep(RelId(0), &[(e_rs, RelId(1)), (e_rt, RelId(2))]);
        let plan = b.build();
        // Nodes: scan r, join rs, scan t, join rst — the rs join is shared.
        assert_eq!(plan.join_nodes(), 2);
        assert_eq!(plan.final_node.len(), 2);
        assert_ne!(plan.final_node[0], plan.final_node[1]);
    }
}
