//! Multi-step optimization — the eddy's planning logic (§4.1, Algorithm 1).
//!
//! At each episode's start, the eddy builds the episode's two plans by a
//! sequence of policy decisions. Starting from the plan's input virtual
//! vector, each decision picks a candidate operator; *sharing* keeps one
//! output sub-expression, *divergence* splits the vector into
//! `(L ∪ {o}, Q ∩ Q_o)` and `(L, Q − Q_o)` with a routing selection on the
//! second branch; a null decision (no candidates) emits a router to the
//! query-set's RouLette sources.
//!
//! A second pass assigns *adaptive projections* (§5.2): bottom-up, each
//! probe records the minimal set of vID columns its output vectors must
//! carry, derived from downstream probe keys and the output projections;
//! top-down, each router then resolves its queries' projection columns
//! against the columns the vectors reaching it carry (its [`Leaf`] shape),
//! so routing a vector looks nothing up.

use crate::spaces::{JoinSpace, SelectionSpace};
use roulette_core::{ColId, QueryId, QuerySet, RelId, RelSet};
use roulette_policy::{OpId, PlanSpace, Policy, Scope};
use roulette_query::{EdgeId, QueryBatch};

/// A probe step of the join-phase plan.
#[derive(Debug)]
pub struct ProbeNode {
    /// The applied join edge.
    pub edge: EdgeId,
    /// Input lineage `L`.
    pub lineage: RelSet,
    /// Input query-set `Q`.
    pub queries: QuerySet,
    /// `Q ∩ Q_o` — queries continuing through the probe.
    pub main_queries: QuerySet,
    /// `Q − Q_o` — queries routed around the probe, when non-empty.
    pub div_queries: Option<QuerySet>,
    /// Lineage-side relation whose key drives the probe.
    pub probe_rel: RelId,
    /// Key column on the probe side.
    pub probe_col: ColId,
    /// Probed (target) relation.
    pub target_rel: RelId,
    /// Key column on the target side (a STeM index of `target_rel`).
    pub target_col: ColId,
    /// vID columns the main output vector carries (adaptive projection).
    pub keep_main: RelSet,
    /// vID columns the divergence vector carries.
    pub keep_div: RelSet,
    /// Plan for the probe output.
    pub main: JoinNode,
    /// Plan for the divergence branch.
    pub div: Option<JoinNode>,
}

/// One projected output column of a routed query, resolved at plan time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProjCol {
    /// The projected relation.
    pub rel: RelId,
    /// The projected column of `rel`.
    pub col: ColId,
    /// Position of `rel`'s vID column in the vectors reaching the router.
    pub slot: usize,
}

/// A router (null decision) and its shape, fixed once per plan: which
/// queries it serves and where each projected column is found in the
/// vectors that reach it. A leaf none of whose queries projects anything —
/// every `count(*)` — is *count-only*: it holds no column map and routing
/// it is a counting pass.
#[derive(Debug)]
pub struct Leaf {
    /// The routed queries.
    pub queries: QuerySet,
    /// One `(query, range into `cols`)` per routable query, ascending by
    /// query id; empty for a count-only leaf.
    per_query: Vec<(QueryId, u32, u32)>,
    /// The routable queries' projection columns, back to back.
    cols: Vec<ProjCol>,
    /// Queries projecting a relation the reaching vectors do not carry (a
    /// planner defect): they are quarantined instead of routed.
    unresolved: Vec<QueryId>,
}

impl Leaf {
    /// A leaf for `queries` with no column map yet (count-only).
    fn count_only(queries: QuerySet) -> Self {
        Leaf { queries, per_query: Vec::new(), cols: Vec::new(), unresolved: Vec::new() }
    }

    /// The leaf for `queries` resolved against the vID columns `carried`
    /// (in vector column order) of the vectors that will reach it;
    /// `projections[q]` lists query `q`'s output columns.
    pub fn resolve(
        queries: QuerySet,
        carried: &[RelId],
        projections: &[Vec<(RelId, ColId)>],
    ) -> Self {
        let mut leaf = Leaf::count_only(queries);
        leaf.resolve_against(carried, projections);
        leaf
    }

    fn resolve_against(&mut self, carried: &[RelId], projections: &[Vec<(RelId, ColId)>]) {
        let Leaf { queries, per_query, cols, unresolved } = self;
        let projs_of = |q: QueryId| projections.get(q.index()).map_or(&[][..], Vec::as_slice);
        if queries.iter().all(|q| projs_of(q).is_empty()) {
            return;
        }
        'queries: for q in queries.iter() {
            let start = cols.len();
            for &(rel, col) in projs_of(q) {
                let Some(slot) = carried.iter().position(|&r| r == rel) else {
                    cols.truncate(start);
                    unresolved.push(q);
                    continue 'queries;
                };
                cols.push(ProjCol { rel, col, slot });
            }
            per_query.push((q, start as u32, cols.len() as u32));
        }
    }

    /// Whether no routed query projects a column: routing is a count.
    #[inline]
    pub fn is_count_only(&self) -> bool {
        self.per_query.is_empty() && self.unresolved.is_empty()
    }

    /// The routable queries and their resolved projection columns,
    /// ascending by query id. Empty for a count-only leaf.
    #[inline]
    pub fn projected(&self) -> impl Iterator<Item = (QueryId, &[ProjCol])> + '_ {
        self.per_query.iter().map(|&(q, start, end)| {
            (q, self.cols.get(start as usize..end as usize).unwrap_or(&[]))
        })
    }

    /// Query `q`'s resolved projection columns: empty on a count-only
    /// leaf, `None` when `q` is unresolved (or not routed here).
    pub fn cols_of(&self, q: QueryId) -> Option<&[ProjCol]> {
        if self.is_count_only() {
            return Some(&[]);
        }
        let at = self.per_query.binary_search_by_key(&q, |&(q, _, _)| q).ok()?;
        let &(_, start, end) = self.per_query.get(at)?;
        self.cols.get(start as usize..end as usize)
    }

    /// Queries whose projections could not be resolved.
    #[inline]
    pub fn unresolved(&self) -> &[QueryId] {
        &self.unresolved
    }
}

/// A join-phase plan node.
#[derive(Debug)]
pub enum JoinNode {
    /// STeM probe (with optional divergence routing selection).
    Probe(Box<ProbeNode>),
    /// Router to the query-set's RouLette sources (null decision).
    Output(Leaf),
}

impl JoinNode {
    /// Renders the plan as an indented tree (EXPLAIN-style), resolving
    /// names through the catalog.
    pub fn explain(&self, catalog: &roulette_storage::Catalog) -> String {
        let mut out = String::new();
        self.explain_into(catalog, 0, &mut out);
        out
    }

    fn explain_into(&self, catalog: &roulette_storage::Catalog, depth: usize, out: &mut String) {
        use std::fmt::Write;
        let pad = "  ".repeat(depth);
        match self {
            JoinNode::Output(leaf) => {
                let _ = writeln!(out, "{pad}Router → {:?}", leaf.queries);
            }
            JoinNode::Probe(p) => {
                let probe = catalog.relation(p.probe_rel);
                let target = catalog.relation(p.target_rel);
                let _ = writeln!(
                    out,
                    "{pad}Probe STeM({}) on {}.{} = {}.{}  Q={:?}{}",
                    target.name(),
                    probe.name(),
                    probe.column_name(p.probe_col),
                    target.name(),
                    target.column_name(p.target_col),
                    p.main_queries,
                    if p.div_queries.is_some() { "  [diverges]" } else { "" },
                );
                p.main.explain_into(catalog, depth + 1, out);
                if let (Some(d), Some(dq)) = (&p.div, &p.div_queries) {
                    let _ = writeln!(out, "{pad}RoutingSelection → {dq:?}");
                    d.explain_into(catalog, depth + 1, out);
                }
            }
        }
    }

    /// Number of probe nodes in the plan (diagnostics).
    pub fn probe_count(&self) -> usize {
        match self {
            JoinNode::Output(_) => 0,
            JoinNode::Probe(p) => {
                1 + p.main.probe_count() + p.div.as_ref().map_or(0, |d| d.probe_count())
            }
        }
    }
}

/// Builds the episode's join-phase plan for a vector of `root` tuples
/// carrying `queries` (Algorithm 1 with the learned policy making
/// Definition 6's decisions).
pub fn plan_join_phase(
    batch: &QueryBatch,
    space: &JoinSpace<'_>,
    policy: &mut dyn Policy,
    root: RelId,
    queries: &QuerySet,
) -> JoinNode {
    build_join(batch, space, policy, RelSet::singleton(root), queries.clone())
}

fn build_join(
    batch: &QueryBatch,
    space: &JoinSpace<'_>,
    policy: &mut dyn Policy,
    lineage: RelSet,
    queries: QuerySet,
) -> JoinNode {
    let mut candidates: Vec<OpId> = Vec::new();
    batch.join_candidates(lineage, &queries, &mut candidates);
    if candidates.is_empty() {
        return JoinNode::Output(Leaf::count_only(queries));
    }
    let op = policy.choose(Scope::JOIN, lineage.0, &queries, &candidates, space);
    let edge = batch.edge(op);
    let edge_q = batch.edge_queries(op);
    let (a, _) = edge.rels();
    let (probe_side, target_side) = if lineage.contains(a) {
        (edge.left, edge.right)
    } else {
        (edge.right, edge.left)
    };

    let main_queries = queries.intersection(edge_q);
    let div_q = queries.difference(edge_q);
    let next_lineage = lineage.with(target_side.0);

    let main = build_join(batch, space, policy, next_lineage, main_queries.clone());
    let (div_queries, div) = if div_q.is_empty() {
        (None, None)
    } else {
        let child = build_join(batch, space, policy, lineage, div_q.clone());
        (Some(div_q), Some(child))
    };

    JoinNode::Probe(Box::new(ProbeNode {
        edge: op,
        lineage,
        queries,
        main_queries,
        div_queries,
        probe_rel: probe_side.0,
        probe_col: probe_side.1,
        target_rel: target_side.0,
        target_col: target_side.1,
        keep_main: RelSet::EMPTY, // assigned by `assign_projections`
        keep_div: RelSet::EMPTY,
        main,
        div,
    }))
}

/// Adaptive-projection pass over a plan whose input vector carries the
/// `root` relation's vIDs. Bottom-up it computes, per probe, the minimal
/// vID columns its outputs must carry (`proj_rels[q]` is the set of
/// relations query `q` projects; when `enabled` is false every lineage
/// column is kept — the "Plain" ablation configuration). Top-down it then
/// resolves every router's [`Leaf`] shape against the columns that reach
/// it (`projections[q]` lists query `q`'s output columns) — skipped
/// entirely when no query of the plan projects anything. Returns the
/// columns the plan's *input* vector must carry.
pub fn assign_projections(
    node: &mut JoinNode,
    root: RelId,
    proj_rels: &[RelSet],
    projections: &[Vec<(RelId, ColId)>],
    enabled: bool,
) -> RelSet {
    let (needed, projecting) = assign_keeps(node, proj_rels, enabled);
    if projecting {
        resolve_leaves(node, &[root], projections);
    }
    needed
}

/// The bottom-up half of [`assign_projections`]: returns the columns the
/// node's input must carry and whether any router below projects a column.
fn assign_keeps(node: &mut JoinNode, proj_rels: &[RelSet], enabled: bool) -> (RelSet, bool) {
    match node {
        JoinNode::Output(leaf) => {
            let mut needed = RelSet::EMPTY;
            for q in leaf.queries.iter() {
                needed = needed.union(proj_rels.get(q.index()).copied().unwrap_or(RelSet::EMPTY));
            }
            (needed, !needed.is_empty())
        }
        JoinNode::Probe(p) => {
            let (n_main, proj_main) = assign_keeps(&mut p.main, proj_rels, enabled);
            let (n_div, proj_div) = match &mut p.div {
                Some(d) => assign_keeps(d, proj_rels, enabled),
                None => (RelSet::EMPTY, false),
            };
            let needed = if enabled {
                p.keep_main = n_main;
                p.keep_div = n_div;
                n_main.minus(RelSet::singleton(p.target_rel))
                    .union(n_div)
                    .union(RelSet::singleton(p.probe_rel))
            } else {
                let all_main = p.lineage.with(p.target_rel);
                p.keep_main = all_main;
                p.keep_div = p.lineage;
                p.lineage
            };
            (needed, proj_main || proj_div)
        }
    }
}

/// The top-down half of [`assign_projections`]: `carried` is the column
/// order of the vectors reaching `node`. A probe's main output carries its
/// input's kept columns in input order, then the target's; its divergence
/// output carries the input's kept columns — the order `exec_probe` builds.
fn resolve_leaves(node: &mut JoinNode, carried: &[RelId], projections: &[Vec<(RelId, ColId)>]) {
    match node {
        JoinNode::Output(leaf) => {
            leaf.resolve_against(carried, projections);
        }
        JoinNode::Probe(p) => {
            let mut main: Vec<RelId> =
                carried.iter().copied().filter(|&r| p.keep_main.contains(r)).collect();
            if p.keep_main.contains(p.target_rel) {
                main.push(p.target_rel);
            }
            resolve_leaves(&mut p.main, &main, projections);
            if let Some(d) = &mut p.div {
                let div: Vec<RelId> =
                    carried.iter().copied().filter(|&r| p.keep_div.contains(r)).collect();
                resolve_leaves(d, &div, projections);
            }
        }
    }
}

/// Builds the episode's selection-phase plan: an operator order over the
/// relation's applicable selection groups.
pub fn plan_selection_phase(
    space: &SelectionSpace<'_>,
    policy: &mut dyn Policy,
    rel: RelId,
    queries: &QuerySet,
) -> Vec<OpId> {
    let scope = Scope::selection(rel);
    let mut order = Vec::with_capacity(space.len());
    let mut lineage = 0u64;
    let mut candidates: Vec<OpId> = Vec::new();
    loop {
        space.candidates(lineage, queries, &mut candidates);
        if candidates.is_empty() {
            return order;
        }
        let op = policy.choose(scope, lineage, queries, &candidates, space);
        order.push(op);
        lineage |= 1 << op;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roulette_policy::RandomPolicy;
    use roulette_query::SpjQuery;
    use roulette_storage::{Catalog, RelationBuilder};

    /// Figure 1/2's setup: Q1 = R⋈S⋈T⋈U (R-S, R-T, S-U),
    /// Q2 = R⋈S⋈U⋈V (R-S, S-U, S-V).
    fn fig2() -> (Catalog, QueryBatch) {
        let mut c = Catalog::new();
        for name in ["r", "s", "t", "u", "v"] {
            let mut b = RelationBuilder::new(name);
            for col in ["a", "b", "c", "d"] {
                b.int64(col, vec![0, 1]);
            }
            c.add(b.build()).unwrap();
        }
        let q1 = SpjQuery::builder(&c)
            .relation("r").relation("s").relation("t").relation("u")
            .join(("r", "a"), ("s", "a"))
            .join(("r", "b"), ("t", "b"))
            .join(("s", "c"), ("u", "c"))
            .build()
            .unwrap();
        let q2 = SpjQuery::builder(&c)
            .relation("r").relation("s").relation("u").relation("v")
            .join(("r", "a"), ("s", "a"))
            .join(("s", "c"), ("u", "c"))
            .join(("s", "d"), ("v", "d"))
            .build()
            .unwrap();
        let b = QueryBatch::from_queries(c.len(), &[q1, q2]).unwrap();
        (c, b)
    }

    /// Every query must be routed to output exactly once (Algorithm 1's
    /// correctness property), regardless of the policy's decisions.
    fn count_outputs(node: &JoinNode, per_query: &mut [usize]) {
        match node {
            JoinNode::Output(leaf) => {
                for q in leaf.queries.iter() {
                    per_query[q.index()] += 1;
                }
            }
            JoinNode::Probe(p) => {
                count_outputs(&p.main, per_query);
                if let Some(d) = &p.div {
                    count_outputs(d, per_query);
                }
            }
        }
    }

    #[test]
    fn every_query_reaches_exactly_one_output() {
        let (c, batch) = fig2();
        let space = JoinSpace::new(&batch);
        let r = c.relation_id("r").unwrap();
        let all = QuerySet::full(2);
        for seed in 0..30 {
            let mut policy = RandomPolicy::new(seed);
            let plan = plan_join_phase(&batch, &space, &mut policy, r, &all);
            let mut per_query = [0usize; 2];
            count_outputs(&plan, &mut per_query);
            assert_eq!(per_query, [1, 1], "seed {seed}");
        }
    }

    #[test]
    fn plans_from_every_scan_root_are_complete() {
        let (c, batch) = fig2();
        let space = JoinSpace::new(&batch);
        let all = QuerySet::full(2);
        for name in ["r", "s", "u"] {
            let root = c.relation_id(name).unwrap();
            let mut policy = RandomPolicy::new(7);
            let plan = plan_join_phase(&batch, &space, &mut policy, root, &all);
            let mut per_query = [0usize; 2];
            count_outputs(&plan, &mut per_query);
            assert_eq!(per_query, [1, 1], "root {name}");
        }
        // T is scanned only by Q1.
        let t = c.relation_id("t").unwrap();
        let mut policy = RandomPolicy::new(7);
        let q1_only = QuerySet::singleton(QueryId(0), 2);
        let plan = plan_join_phase(&batch, &space, &mut policy, t, &q1_only);
        let mut per_query = [0usize; 2];
        count_outputs(&plan, &mut per_query);
        assert_eq!(per_query, [1, 0]);
    }

    #[test]
    fn divergence_splits_query_sets_disjointly() {
        fn check(node: &JoinNode) {
            if let JoinNode::Probe(p) = node {
                if let Some(div_q) = &p.div_queries {
                    assert!(!p.main_queries.intersects(div_q));
                    let mut union = p.main_queries.clone();
                    union.union_with(div_q);
                    assert_eq!(union, p.queries);
                }
                check(&p.main);
                if let Some(d) = &p.div {
                    check(d);
                }
            }
        }
        let (c, batch) = fig2();
        let space = JoinSpace::new(&batch);
        let r = c.relation_id("r").unwrap();
        for seed in 0..10 {
            let mut policy = RandomPolicy::new(seed);
            let plan = plan_join_phase(&batch, &space, &mut policy, r, &QuerySet::full(2));
            check(&plan);
        }
    }

    #[test]
    fn projection_pass_keeps_probe_keys_and_projected_rels() {
        let (c, batch) = fig2();
        let space = JoinSpace::new(&batch);
        let r = c.relation_id("r").unwrap();
        let mut policy = RandomPolicy::new(3);
        let mut plan = plan_join_phase(&batch, &space, &mut policy, r, &QuerySet::full(2));
        // COUNT(*) queries: nothing projected.
        let input_needed = assign_projections(&mut plan, r, &[], &[], true);
        assert!(input_needed.is_subset_of(RelSet::singleton(r)));
        fn check(node: &JoinNode) {
            if let JoinNode::Probe(p) = node {
                // Whatever the main child probes from must be kept.
                if let JoinNode::Probe(m) = &p.main {
                    assert!(
                        p.keep_main.contains(m.probe_rel),
                        "dropped a column still needed as probe key"
                    );
                }
                check(&p.main);
                if let Some(d) = &p.div {
                    check(d);
                }
            }
        }
        check(&plan);
    }

    #[test]
    fn disabled_projections_keep_everything() {
        let (c, batch) = fig2();
        let space = JoinSpace::new(&batch);
        let r = c.relation_id("r").unwrap();
        let mut policy = RandomPolicy::new(3);
        let mut plan = plan_join_phase(&batch, &space, &mut policy, r, &QuerySet::full(2));
        assign_projections(&mut plan, r, &[], &[], false);
        if let JoinNode::Probe(p) = &plan {
            assert_eq!(p.keep_main, p.lineage.with(p.target_rel));
        } else {
            panic!("expected probe at root");
        }
    }

    /// Walks the plan the way `exec_probe` builds vectors and checks every
    /// router's resolved slots name the right column of what reaches it.
    fn check_leaves(
        node: &JoinNode,
        carried: &[RelId],
        projections: &[Vec<(RelId, ColId)>],
        routed: &mut [usize],
    ) {
        match node {
            JoinNode::Output(leaf) => {
                assert!(leaf.unresolved().is_empty());
                let projecting =
                    leaf.queries.iter().any(|q| !projections[q.index()].is_empty());
                assert_eq!(leaf.is_count_only(), !projecting);
                for q in leaf.queries.iter() {
                    let cols = leaf.cols_of(q).expect("every query resolves");
                    let want = if projecting { &projections[q.index()][..] } else { &[] };
                    assert_eq!(cols.len(), want.len());
                    for (pc, &(rel, col)) in cols.iter().zip(want) {
                        assert_eq!((pc.rel, pc.col), (rel, col));
                        assert_eq!(carried[pc.slot], rel, "slot names another column");
                    }
                    routed[q.index()] += 1;
                }
                if projecting {
                    let listed: Vec<QueryId> = leaf.projected().map(|(q, _)| q).collect();
                    assert_eq!(listed, leaf.queries.iter().collect::<Vec<_>>());
                }
            }
            JoinNode::Probe(p) => {
                let mut main: Vec<RelId> =
                    carried.iter().copied().filter(|&r| p.keep_main.contains(r)).collect();
                if p.keep_main.contains(p.target_rel) {
                    main.push(p.target_rel);
                }
                check_leaves(&p.main, &main, projections, routed);
                if let Some(d) = &p.div {
                    let div: Vec<RelId> =
                        carried.iter().copied().filter(|&r| p.keep_div.contains(r)).collect();
                    check_leaves(d, &div, projections, routed);
                }
            }
        }
    }

    #[test]
    fn leaves_resolve_projection_slots_in_vector_column_order() {
        let (c, batch) = fig2();
        let space = JoinSpace::new(&batch);
        let rel = |name: &str| c.relation_id(name).unwrap();
        // Q1 projects u, r, and r again (other column); Q2 projects nothing
        // in the first round and a late-joined relation in the second.
        let q1 = vec![(rel("u"), ColId(2)), (rel("r"), ColId(0)), (rel("r"), ColId(3))];
        for q2 in [vec![], vec![(rel("v"), ColId(1)), (rel("s"), ColId(0))]] {
            let projections = vec![q1.clone(), q2];
            let proj_rels: Vec<RelSet> = projections
                .iter()
                .map(|p| p.iter().fold(RelSet::EMPTY, |s, &(r, _)| s.with(r)))
                .collect();
            for enabled in [true, false] {
                for root in ["r", "s", "u"] {
                    for seed in 0..10 {
                        let root = rel(root);
                        let mut policy = RandomPolicy::new(seed);
                        let mut plan =
                            plan_join_phase(&batch, &space, &mut policy, root, &QuerySet::full(2));
                        assign_projections(&mut plan, root, &proj_rels, &projections, enabled);
                        let mut routed = [0usize; 2];
                        check_leaves(&plan, &[root], &projections, &mut routed);
                        assert_eq!(routed, [1, 1]);
                    }
                }
            }
        }
    }

    #[test]
    fn leaf_with_an_uncarried_projection_is_unresolved_not_a_panic() {
        let queries = QuerySet::full(3);
        let projections = vec![
            vec![(RelId(0), ColId(1))],
            vec![(RelId(0), ColId(0)), (RelId(7), ColId(0))],
            vec![],
        ];
        let leaf = Leaf::resolve(queries, &[RelId(4), RelId(0)], &projections);
        assert!(!leaf.is_count_only());
        assert_eq!(leaf.unresolved(), &[QueryId(1)]);
        assert_eq!(
            leaf.cols_of(QueryId(0)),
            Some(&[ProjCol { rel: RelId(0), col: ColId(1), slot: 1 }][..])
        );
        assert_eq!(leaf.cols_of(QueryId(1)), None);
        assert_eq!(leaf.cols_of(QueryId(2)), Some(&[][..]));
        let listed: Vec<QueryId> = leaf.projected().map(|(q, _)| q).collect();
        assert_eq!(listed, vec![QueryId(0), QueryId(2)]);
    }

    #[test]
    fn explain_renders_probes_and_routers() {
        let (c, batch) = fig2();
        let space = JoinSpace::new(&batch);
        let r = c.relation_id("r").unwrap();
        let mut policy = RandomPolicy::new(1);
        let plan = plan_join_phase(&batch, &space, &mut policy, r, &QuerySet::full(2));
        let text = plan.explain(&c);
        assert!(text.contains("Probe STeM("));
        assert!(text.contains("Router →"));
        // Both queries' routers appear.
        assert!(text.contains("Q0") && text.contains("Q1"));
    }

    #[test]
    fn selection_plan_orders_all_applicable_groups() {
        let mut c = Catalog::new();
        let mut b = RelationBuilder::new("r");
        b.int64("x", vec![0]);
        b.int64("y", vec![0]);
        c.add(b.build()).unwrap();
        let q0 = SpjQuery::builder(&c).relation("r").range("r", "x", 0, 5).build().unwrap();
        let q1 = SpjQuery::builder(&c).relation("r").range("r", "y", 0, 5).build().unwrap();
        let batch = QueryBatch::from_queries(1, &[q0, q1]).unwrap();
        let owners: Vec<QuerySet> = batch
            .selection_groups()
            .iter()
            .map(|g| {
                let mut qs = QuerySet::empty(2);
                for &(q, _, _) in &g.preds {
                    qs.insert(q);
                }
                qs
            })
            .collect();
        let full = QuerySet::full(2);
        let rel = RelId(0);
        let space = SelectionSpace::new(&batch, rel, &owners, &full);
        let mut policy = RandomPolicy::new(0);
        let order = plan_selection_phase(&space, &mut policy, rel, &full);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1]);
        // With only Q0 active, only its group is planned.
        let q0_only = QuerySet::singleton(QueryId(0), 2);
        let order = plan_selection_phase(&space, &mut policy, rel, &q0_only);
        assert_eq!(order.len(), 1);
    }
}
