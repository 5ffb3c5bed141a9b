//! The specialized Q-learning policy (§4.3, Algorithm 2).
//!
//! The full MDP of §4.2 has states that are *stacks* of extended vectors
//! `(n, L, Q)`. Two properties collapse it:
//!
//! * **independence** — vectors on the stack have disjoint query-sets and
//!   incur future costs independently, so each branch is optimized
//!   separately and the stack tail disappears from decisions and updates;
//! * **proportionality** — operator cost is linear in input size
//!   (`c = κ·n_in + λ·n_out`), so every state normalizes to a singleton
//!   `(1, L, Q)` and `Q`-values are costs *per input tuple*; future costs
//!   re-scale by the observed selectivity (`n_out / n_in`).
//!
//! The update rule (Algorithm 2) bootstraps from the successor states'
//! best Q-values: for the shared branch `(L ∪ {o}, Q ∩ Q_o)` and, on
//! divergence, the routed branch `(L, Q − Q_o)`:
//!
//! ```text
//! r  = (−κ_o·n_in − λ_o·n_out + γ·n_out·max_a Q(L∪{o}, Q∩Q_o, a)) / n_in
//! r += (−κ_σ·n_in − λ_σ·n_div + γ·n_div·max_a Q(L, Q−Q_o, a)) / n_in   (divergence)
//! Q(L, Q, o) ← (1−μ)·Q(L, Q, o) + μ·r
//! ```
//!
//! Rewards are negative costs; optimistic initialization (all zeros, the
//! best possible value) pushes early episodes toward exploration, and the
//! ε-greedy decision rule guarantees eventual convergence.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::log::LogEntry;
use crate::policy::Policy;
use crate::qtable::QTable;
use crate::space::{Lineage, OpId, PlanSpace, Scope};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use roulette_core::{CostModel, EngineConfig, OpKind, QuerySet};
use roulette_telemetry::PolicyProbe;

/// Learning-progress tallies backing [`Policy::probe`]. Updated with plain
/// arithmetic inside `choose`/`observe`, so keeping them costs a few adds.
#[derive(Debug, Clone, Copy)]
struct Introspection {
    decisions: u64,
    explorations: u64,
    observations: u64,
    td_abs_sum: f64,
    td_abs_max: f64,
    reward_sum: f64,
    reward_min: f64,
    reward_max: f64,
}

impl Default for Introspection {
    fn default() -> Self {
        Introspection {
            decisions: 0,
            explorations: 0,
            observations: 0,
            td_abs_sum: 0.0,
            td_abs_max: 0.0,
            reward_sum: 0.0,
            reward_min: f64::INFINITY,
            reward_max: f64::NEG_INFINITY,
        }
    }
}

/// The learned, sharing-aware planning policy.
pub struct QLearningPolicy {
    table: QTable,
    cost: CostModel,
    mu: f64,
    epsilon: f64,
    gamma: f64,
    rng: StdRng,
    scratch: Vec<OpId>,
    introspection: Introspection,
}

impl QLearningPolicy {
    /// Creates a policy with the given cost model and the engine's learning
    /// hyper-parameters.
    pub fn new(cost: CostModel, config: &EngineConfig) -> Self {
        QLearningPolicy {
            table: QTable::new(),
            cost,
            mu: config.mu,
            epsilon: config.epsilon,
            gamma: config.gamma,
            rng: StdRng::seed_from_u64(config.seed ^ 0x9E37_79B9_7F4A_7C15),
            scratch: Vec::with_capacity(16),
            introspection: Introspection::default(),
        }
    }

    /// Convenience constructor with paper defaults.
    pub fn with_defaults(seed: u64) -> Self {
        Self::new(CostModel::default(), &EngineConfig::default().with_seed(seed))
    }

    /// Number of materialized Q-table entries.
    pub fn table_len(&self) -> usize {
        self.table.len()
    }

    /// Direct Q-value access (diagnostics and tests).
    pub fn q_value(&self, scope: Scope, lineage: Lineage, queries: &QuerySet, op: OpId) -> f64 {
        self.table.get(scope, lineage, op, queries.words())
    }

    /// `max_a Q((lineage, queries), a)`, or 0 for terminal states.
    fn best_q(
        table: &QTable,
        scope: Scope,
        lineage: Lineage,
        queries: &QuerySet,
        space: &dyn PlanSpace,
        scratch: &mut Vec<OpId>,
    ) -> f64 {
        space.candidates(lineage, queries, scratch);
        if scratch.is_empty() {
            return 0.0;
        }
        let mut best = f64::NEG_INFINITY;
        for &op in scratch.iter() {
            let v = table.get(scope, lineage, op, queries.words());
            if v > best {
                best = v;
            }
        }
        best
    }
}

impl Policy for QLearningPolicy {
    fn choose(
        &mut self,
        scope: Scope,
        lineage: Lineage,
        queries: &QuerySet,
        candidates: &[OpId],
        _space: &dyn PlanSpace,
    ) -> OpId {
        debug_assert!(!candidates.is_empty());
        // Callers only ask with candidates; with none, op 0 is as good an
        // answer as any and draws nothing.
        let Some(&first) = candidates.first() else { return 0 };
        self.introspection.decisions += 1;
        // Sporadic random decisions guarantee that all state-action pairs
        // keep being visited (Q-learning's convergence requirement).
        if self.rng.gen_bool(self.epsilon) {
            self.introspection.explorations += 1;
            let pick = self.rng.gen_range(0..candidates.len());
            return candidates.get(pick).copied().unwrap_or(first);
        }
        // Argmax with uniform random tie-breaking: under optimistic
        // initialization many candidates share the maximal value 0, and a
        // deterministic tie-break would explore them in an arbitrary fixed
        // order.
        let mut best = first;
        let mut best_v = f64::NEG_INFINITY;
        let mut ties = 0u32;
        for &op in candidates {
            let v = self.table.get(scope, lineage, op, queries.words());
            if v > best_v {
                best_v = v;
                best = op;
                ties = 1;
            } else if v == best_v {
                ties += 1;
                if self.rng.gen_ratio(1, ties) {
                    best = op;
                }
            }
        }
        best
    }

    fn observe(&mut self, entry: &LogEntry, space: &dyn PlanSpace) {
        if entry.n_in == 0 {
            return; // no information in an empty vector
        }
        let n_in = entry.n_in as f64;
        let n_out = entry.n_out as f64;
        let op_q = space.op_queries(entry.op);
        let kind = space.op_kind(entry.op);

        // Shared branch (L ∪ {o}, Q ∩ Q_o).
        let next_lineage = space.apply(entry.lineage, entry.op);
        let next_queries = entry.queries.intersection(op_q);
        let q_next = Self::best_q(
            &self.table,
            entry.scope,
            next_lineage,
            &next_queries,
            space,
            &mut self.scratch,
        );
        let mut r = (-self.cost.kappa(kind) * n_in - self.cost.lambda(kind) * n_out
            + self.gamma * n_out * q_next)
            / n_in;

        // Divergence branch (L, Q − Q_o) with its routing selection.
        if let Some(n_div) = entry.n_div {
            let n_div = n_div as f64;
            let div_queries = entry.queries.difference(op_q);
            let q_div = Self::best_q(
                &self.table,
                entry.scope,
                entry.lineage,
                &div_queries,
                space,
                &mut self.scratch,
            );
            let k = OpKind::RoutingSelection;
            r += (-self.cost.kappa(k) * n_in - self.cost.lambda(k) * n_div
                + self.gamma * n_div * q_div)
                / n_in;
        }

        let mu = self.mu;
        let mut td = 0.0;
        self.table.update(entry.scope, entry.lineage, entry.op, entry.queries.words(), |old| {
            td = r - old;
            (1.0 - mu) * old + mu * r
        });
        let intro = &mut self.introspection;
        intro.observations += 1;
        intro.td_abs_sum += td.abs();
        intro.td_abs_max = intro.td_abs_max.max(td.abs());
        intro.reward_sum += r;
        intro.reward_min = intro.reward_min.min(r);
        intro.reward_max = intro.reward_max.max(r);
    }

    fn estimate(
        &self,
        scope: Scope,
        lineage: Lineage,
        queries: &QuerySet,
        space: &dyn PlanSpace,
    ) -> f64 {
        let mut scratch = Vec::with_capacity(16);
        Self::best_q(&self.table, scope, lineage, queries, space, &mut scratch)
    }

    fn reset(&mut self) {
        self.table.clear();
        self.introspection = Introspection::default();
    }

    fn probe(&self) -> Option<PolicyProbe> {
        let i = &self.introspection;
        let (reward_min, reward_max) =
            if i.observations == 0 { (0.0, 0.0) } else { (i.reward_min, i.reward_max) };
        Some(PolicyProbe {
            q_entries: self.table.len() as u64,
            decisions: i.decisions,
            explorations: i.explorations,
            observations: i.observations,
            td_error_mean: if i.observations == 0 {
                0.0
            } else {
                i.td_abs_sum / i.observations as f64
            },
            td_error_max: i.td_abs_max,
            reward_mean: if i.observations == 0 { 0.0 } else { i.reward_sum / i.observations as f64 },
            reward_min,
            reward_max,
        })
    }

    fn exploration(&self) -> Option<f64> {
        Some(self.epsilon)
    }

    fn set_exploration(&mut self, epsilon: f64) -> bool {
        self.epsilon = epsilon.clamp(0.0, 1.0);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::testing::ToySpace;

    fn config() -> EngineConfig {
        EngineConfig::default().with_learning(0.5, 0.0, 1.0).unwrap().with_seed(7)
    }

    fn entry(lineage: Lineage, queries: &QuerySet, op: OpId, n_in: u64, n_out: u64) -> LogEntry {
        LogEntry {
            scope: Scope::JOIN,
            lineage,
            queries: queries.clone(),
            op,
            n_in,
            n_out,
            n_div: None,
        }
    }

    #[test]
    fn update_matches_algorithm2_by_hand() {
        // One op, terminal afterwards: r = (−κ·n_in − λ·n_out)/n_in.
        let space = ToySpace::uniform(1, 1);
        let mut cost = CostModel::zero();
        cost.set(OpKind::Join, 2.0, 3.0);
        let mut p = QLearningPolicy::new(cost, &config());
        let qs = QuerySet::full(1);
        p.observe(&entry(0, &qs, 0, 10, 20), &space);
        // r = (−2·10 − 3·20)/10 = −8; Q = 0.5·0 + 0.5·(−8) = −4.
        assert!((p.q_value(Scope::JOIN, 0, &qs, 0) - (-4.0)).abs() < 1e-12);
    }

    #[test]
    fn future_costs_propagate_backwards() {
        // Two ops in sequence; learning the second op's cost must raise the
        // (absolute) estimate of choosing the first.
        let space = ToySpace::uniform(2, 1);
        let mut cost = CostModel::zero();
        cost.set(OpKind::Join, 1.0, 1.0);
        let mut p = QLearningPolicy::new(cost, &config());
        let qs = QuerySet::full(1);
        // First, learn Q((op0 applied), op1): selectivity 2 (10 → 20).
        p.observe(&entry(0b1, &qs, 1, 10, 20), &space);
        let q_after = p.q_value(Scope::JOIN, 0b1, &qs, 1);
        assert!(q_after < 0.0);
        // Now observe op0 at the root: its update must include γ·n_out·q.
        p.observe(&entry(0, &qs, 0, 10, 10), &space);
        let q_root = p.q_value(Scope::JOIN, 0, &qs, 0);
        // Direct cost: (−10−10)/10 = −2; future: (1·10·q_after)/10 = q_after.
        let expected = 0.5 * (-2.0 + q_after);
        assert!((q_root - expected).abs() < 1e-12, "{q_root} vs {expected}");
    }

    #[test]
    fn divergence_adds_routing_costs() {
        // op0 applies to query 0 only; vector carries {0,1} → divergence.
        let mut space = ToySpace::uniform(1, 2);
        space.op_queries[0] = QuerySet::singleton(roulette_core::QueryId(0), 2);
        let mut cost = CostModel::zero();
        cost.set(OpKind::Join, 1.0, 0.0);
        cost.set(OpKind::RoutingSelection, 0.5, 0.25);
        let mut p = QLearningPolicy::new(cost, &config());
        let qs = QuerySet::full(2);
        let e = LogEntry {
            scope: Scope::JOIN,
            lineage: 0,
            queries: qs.clone(),
            op: 0,
            n_in: 8,
            n_out: 4,
            n_div: Some(8),
        };
        p.observe(&e, &space);
        // r = (−1·8)/8 + (−0.5·8 − 0.25·8)/8 = −1 − 0.75 = −1.75; μ=0.5.
        assert!((p.q_value(Scope::JOIN, 0, &qs, 0) - (-0.875)).abs() < 1e-12);
    }

    #[test]
    fn greedy_choice_picks_max_q() {
        let space = ToySpace::uniform(2, 1);
        let mut p = QLearningPolicy::new(CostModel::default(), &config());
        let qs = QuerySet::full(1);
        // Make op1 look expensive.
        p.observe(&entry(0, &qs, 1, 10, 1000), &space);
        let pick = p.choose(Scope::JOIN, 0, &qs, &[0, 1], &space);
        assert_eq!(pick, 0); // op0 still optimistic (0) > op1's negative Q
    }

    #[test]
    fn epsilon_one_is_fully_random() {
        let space = ToySpace::uniform(3, 1);
        let cfg = EngineConfig::default().with_learning(0.5, 1.0, 1.0).unwrap().with_seed(1);
        let mut p = QLearningPolicy::new(CostModel::default(), &cfg);
        let qs = QuerySet::full(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(p.choose(Scope::JOIN, 0, &qs, &[0, 1, 2], &space));
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn zero_input_entries_are_ignored() {
        let space = ToySpace::uniform(1, 1);
        let mut p = QLearningPolicy::new(CostModel::default(), &config());
        let qs = QuerySet::full(1);
        p.observe(&entry(0, &qs, 0, 0, 0), &space);
        assert_eq!(p.table_len(), 0);
    }

    #[test]
    fn probe_tracks_learning_progress() {
        let space = ToySpace::uniform(2, 1);
        let mut p = QLearningPolicy::new(CostModel::default(), &config());
        let qs = QuerySet::full(1);
        let empty = p.probe().expect("q-learning always probes");
        assert_eq!(empty.decisions, 0);
        assert_eq!(empty.observations, 0);
        assert_eq!(empty.exploration_share(), 0.0);
        assert_eq!((empty.reward_min, empty.reward_max), (0.0, 0.0));
        for _ in 0..10 {
            p.choose(Scope::JOIN, 0, &qs, &[0, 1], &space);
        }
        p.observe(&entry(0, &qs, 0, 10, 20), &space);
        let probe = p.probe().expect("q-learning always probes");
        assert_eq!(probe.decisions, 10);
        assert_eq!(probe.observations, 1);
        assert_eq!(probe.q_entries, 1);
        // Single observation: td = r − 0, so mean == max and both match the
        // reward magnitude.
        assert!(probe.td_error_mean > 0.0);
        assert_eq!(probe.td_error_mean, probe.td_error_max);
        assert_eq!(probe.reward_min, probe.reward_max);
        assert!(probe.reward_mean < 0.0);
        // ε = 0 in config(): no exploration.
        assert_eq!(probe.explorations, 0);
        p.reset();
        let after = p.probe().expect("q-learning always probes");
        assert_eq!(after.decisions, 0);
        assert_eq!(after.q_entries, 0);
    }

    #[test]
    fn probe_counts_explorations_under_full_epsilon() {
        let space = ToySpace::uniform(2, 1);
        let cfg = EngineConfig::default().with_learning(0.5, 1.0, 1.0).unwrap().with_seed(5);
        let mut p = QLearningPolicy::new(CostModel::default(), &cfg);
        let qs = QuerySet::full(1);
        for _ in 0..20 {
            p.choose(Scope::JOIN, 0, &qs, &[0, 1], &space);
        }
        let probe = p.probe().expect("q-learning always probes");
        assert_eq!(probe.decisions, 20);
        assert_eq!(probe.explorations, 20);
        assert_eq!(probe.exploration_share(), 1.0);
    }

    #[test]
    fn exploration_knob_boosts_and_clamps() {
        let space = ToySpace::uniform(3, 1);
        // ε = 0 initially: purely greedy.
        let mut p = QLearningPolicy::new(CostModel::default(), &config());
        assert_eq!(p.exploration(), Some(0.0));
        // Boost past 1.0 clamps to fully random.
        assert!(p.set_exploration(2.5));
        assert_eq!(p.exploration(), Some(1.0));
        let qs = QuerySet::full(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(p.choose(Scope::JOIN, 0, &qs, &[0, 1, 2], &space));
        }
        assert_eq!(seen.len(), 3, "boosted ε explores every candidate");
        // And RandomPolicy has no knob.
        let mut r = crate::RandomPolicy::new(1);
        assert!(!crate::Policy::set_exploration(&mut r, 0.5));
        assert_eq!(crate::Policy::exploration(&r), None);
    }

    #[test]
    fn reset_discards_learned_state() {
        let space = ToySpace::uniform(1, 1);
        let mut p = QLearningPolicy::new(CostModel::default(), &config());
        let qs = QuerySet::full(1);
        p.observe(&entry(0, &qs, 0, 10, 10), &space);
        assert!(p.table_len() > 0);
        p.reset();
        assert_eq!(p.table_len(), 0);
        assert_eq!(p.q_value(Scope::JOIN, 0, &qs, 0), 0.0);
    }

    #[test]
    fn convergence_on_a_two_op_ordering_problem() {
        // Ops A (selectivity 0.1) and B (selectivity 2.0), both must run.
        // Optimal order A-then-B. After repeated episodes, Q(∅, A) must
        // beat Q(∅, B).
        let space = ToySpace::uniform(2, 1);
        let mut cost = CostModel::zero();
        cost.set(OpKind::Join, 1.0, 1.0);
        let cfg = EngineConfig::default().with_learning(0.3, 0.2, 1.0).unwrap().with_seed(11);
        let mut p = QLearningPolicy::new(cost, &cfg);
        let qs = QuerySet::full(1);
        let n = 1000u64;
        for _ in 0..200 {
            let first = p.choose(Scope::JOIN, 0, &qs, &[0, 1], &space);
            let (sel_a, sel_b) = (0.1, 2.0);
            if first == 0 {
                let out_a = (n as f64 * sel_a) as u64;
                p.observe(&entry(0, &qs, 0, n, out_a), &space);
                p.observe(&entry(0b1, &qs, 1, out_a, (out_a as f64 * sel_b) as u64), &space);
            } else {
                let out_b = (n as f64 * sel_b) as u64;
                p.observe(&entry(0, &qs, 1, n, out_b), &space);
                p.observe(&entry(0b10, &qs, 0, out_b, (out_b as f64 * sel_a) as u64), &space);
            }
        }
        let qa = p.q_value(Scope::JOIN, 0, &qs, 0);
        let qb = p.q_value(Scope::JOIN, 0, &qs, 1);
        assert!(qa > qb, "Q(A)={qa} should beat Q(B)={qb}");
        // And the learned estimate approximates the optimal plan cost:
        // A first: cost = (1000 + 100)/1000 + (100 + 200)/1000 = 1.4 → −1.4.
        let est = p.estimate(Scope::JOIN, 0, &qs, &space);
        assert!((est - (-1.4)).abs() < 0.2, "estimate {est}");
    }
}
