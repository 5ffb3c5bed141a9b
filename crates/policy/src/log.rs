//! The execution log (§4.3).
//!
//! By monitoring execution, the eddy generates a log entry for each
//! processed operator in the format `(L, Q, o, n_in, n_out, n_div)`, where
//! `n_div` is the output size of the divergence routing selection
//! `σ_{Q−Q_o}`, if any. At the end of each episode the entries drive
//! policy updates.

use crate::space::{Lineage, OpId, Scope};
use roulette_core::QuerySet;

/// One execution-log record.
#[derive(Debug, Clone)]
pub struct LogEntry {
    /// Plan space the operator belongs to.
    pub scope: Scope,
    /// Lineage `L` of the operator's input virtual vector.
    pub lineage: Lineage,
    /// Query-set `Q` of the input virtual vector.
    pub queries: QuerySet,
    /// The processed operator.
    pub op: OpId,
    /// Input cardinality.
    pub n_in: u64,
    /// Operator output cardinality.
    pub n_out: u64,
    /// Divergence routing-selection output cardinality, if the decision
    /// caused divergence.
    pub n_div: Option<u64>,
}

/// An episode's worth of log entries, reused across episodes to avoid
/// reallocation.
///
/// Retired entries are parked in a spare pool rather than dropped, so their
/// query-set buffers survive [`clear`](Self::clear) /
/// [`truncate`](Self::truncate) and are refilled in place by
/// [`push_reused`](Self::push_reused) — in steady state an episode's
/// logging allocates nothing.
#[derive(Debug, Default)]
pub struct ExecutionLog {
    entries: Vec<LogEntry>,
    spare: Vec<LogEntry>,
}

impl ExecutionLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an entry.
    #[inline]
    pub fn push(&mut self, entry: LogEntry) {
        self.entries.push(entry);
    }

    /// Appends an entry built from parts, recycling a retired entry's
    /// query-set buffer when one is available — the allocation-free
    /// counterpart of [`push`](Self::push) for the episode hot path.
    /// Takes `LogEntry`'s fields individually (rather than a constructed
    /// entry) precisely so callers never build one.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn push_reused(
        &mut self,
        scope: Scope,
        lineage: Lineage,
        queries: &QuerySet,
        op: OpId,
        n_in: u64,
        n_out: u64,
        n_div: Option<u64>,
    ) {
        match self.spare.pop() {
            Some(mut e) => {
                e.scope = scope;
                e.lineage = lineage;
                e.queries.copy_from(queries);
                e.op = op;
                e.n_in = n_in;
                e.n_out = n_out;
                e.n_div = n_div;
                self.entries.push(e);
            }
            None => self.entries.push(LogEntry {
                scope,
                lineage,
                queries: queries.clone(),
                op,
                n_in,
                n_out,
                n_div,
            }),
        }
    }

    /// The recorded entries in execution order.
    #[inline]
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Clears the log for the next episode, parking the retired entries for
    /// [`push_reused`](Self::push_reused).
    #[inline]
    pub fn clear(&mut self) {
        self.spare.append(&mut self.entries);
    }

    /// Drops entries recorded after a mark taken with [`len`](Self::len) —
    /// used by the episode watchdog to roll the log back to the start of an
    /// aborted join phase before the phase is replanned. The rolled-back
    /// entries are parked for [`push_reused`](Self::push_reused).
    #[inline]
    pub fn truncate(&mut self, len: usize) {
        self.spare.extend(self.entries.drain(len..));
    }

    /// Folds the entries recorded after a mark taken with
    /// [`len`](Self::len) that describe the same operator application —
    /// equal scope, lineage, query-set and operator — into the first of
    /// them, summing their cardinalities. The executor processes an
    /// oversized intermediate vector in chunks; one plan node then logs once
    /// per chunk, and folding gives the policy the one observation per node
    /// it would have had from the unchunked vector (a join's cardinalities
    /// add up over row ranges), whatever the chunk size. First occurrences
    /// keep their order; the folded duplicates are parked for
    /// [`push_reused`](Self::push_reused).
    pub fn merge_from(&mut self, mark: usize) {
        let mut kept = mark;
        for read in mark..self.entries.len() {
            let (head, tail) = self.entries.split_at_mut(read);
            let Some(e) = tail.first() else { break };
            let same = head.get_mut(mark..kept).and_then(|h| {
                h.iter_mut().find(|t| {
                    t.scope == e.scope
                        && t.lineage == e.lineage
                        && t.op == e.op
                        && t.queries == e.queries
                })
            });
            match same {
                Some(t) => {
                    t.n_in += e.n_in;
                    t.n_out += e.n_out;
                    t.n_div = match (t.n_div, e.n_div) {
                        (None, None) => None,
                        (a, b) => Some(a.unwrap_or(0) + b.unwrap_or(0)),
                    };
                }
                None => {
                    self.entries.swap(kept, read);
                    kept += 1;
                }
            }
        }
        self.truncate(kept);
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sum of join-operator outputs — the §6.2 "intermediate join tuples"
    /// metric.
    pub fn join_tuples(&self) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.scope == Scope::JOIN)
            .map(|e| e.n_out)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(scope: Scope, n_out: u64) -> LogEntry {
        LogEntry {
            scope,
            lineage: 1,
            queries: QuerySet::full(2),
            op: 0,
            n_in: 10,
            n_out,
            n_div: None,
        }
    }

    #[test]
    fn push_and_clear() {
        let mut log = ExecutionLog::new();
        assert!(log.is_empty());
        log.push(entry(Scope::JOIN, 5));
        assert_eq!(log.len(), 1);
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn truncate_rolls_back_to_mark() {
        let mut log = ExecutionLog::new();
        log.push(entry(Scope::JOIN, 1));
        let mark = log.len();
        log.push(entry(Scope::JOIN, 2));
        log.push(entry(Scope::JOIN, 3));
        log.truncate(mark);
        assert_eq!(log.len(), 1);
        assert_eq!(log.join_tuples(), 1);
    }

    #[test]
    fn push_reused_recycles_retired_entries() {
        let mut log = ExecutionLog::new();
        log.push(entry(Scope::JOIN, 5));
        log.clear();
        let qs = QuerySet::singleton(roulette_core::QueryId(1), 3);
        log.push_reused(Scope::JOIN, 9, &qs, 2, 10, 4, Some(6));
        // The recycled entry carries the new data, not the retired one's.
        let e = &log.entries()[0];
        assert_eq!(e.lineage, 9);
        assert_eq!(e.queries, qs);
        assert_eq!((e.op, e.n_in, e.n_out, e.n_div), (2, 10, 4, Some(6)));
        // Truncated entries are parked for reuse too.
        let mark = log.len();
        log.push_reused(Scope::JOIN, 1, &qs, 0, 1, 1, None);
        log.truncate(mark);
        assert_eq!(log.len(), 1);
        log.push_reused(Scope::JOIN, 2, &qs, 0, 2, 2, None);
        assert_eq!(log.entries()[1].lineage, 2);
    }

    #[test]
    fn merge_from_folds_chunked_entries_per_operator_application() {
        let q = |i| QuerySet::singleton(roulette_core::QueryId(i), 3);
        let mut log = ExecutionLog::new();
        // Before the mark: never touched, even with an equal key.
        log.push_reused(Scope::JOIN, 1, &q(0), 0, 7, 7, None);
        let mark = log.len();
        // Three chunks of one vector walking a two-node plan; the second
        // chunk produces nothing at the first node, so never reaches the
        // second, and only the third chunk diverges.
        log.push_reused(Scope::JOIN, 1, &q(0), 0, 10, 4, Some(0));
        log.push_reused(Scope::JOIN, 3, &q(0), 1, 4, 8, None);
        log.push_reused(Scope::JOIN, 1, &q(0), 0, 10, 0, Some(0));
        log.push_reused(Scope::JOIN, 1, &q(0), 0, 5, 1, Some(2));
        log.push_reused(Scope::JOIN, 3, &q(0), 1, 1, 3, None);
        // Same lineage and operator for another query-set: another node.
        log.push_reused(Scope::JOIN, 3, &q(1), 1, 2, 2, None);
        log.merge_from(mark);
        let got: Vec<_> = log
            .entries()
            .iter()
            .map(|e| (e.lineage, e.op, e.queries.clone(), e.n_in, e.n_out, e.n_div))
            .collect();
        assert_eq!(
            got,
            vec![
                (1, 0, q(0), 7, 7, None),
                (1, 0, q(0), 25, 5, Some(2)),
                (3, 1, q(0), 5, 11, None),
                (3, 1, q(1), 2, 2, None),
            ]
        );
        // The folded duplicates are parked, not dropped.
        assert_eq!(log.spare.len(), 3);
        // Nothing after the mark: a no-op.
        log.merge_from(log.len());
        assert_eq!(log.len(), 4);
    }

    #[test]
    fn join_tuples_counts_only_join_scope() {
        let mut log = ExecutionLog::new();
        log.push(entry(Scope::JOIN, 5));
        log.push(entry(Scope::JOIN, 7));
        log.push(entry(Scope::selection(roulette_core::RelId(0)), 100));
        assert_eq!(log.join_tuples(), 12);
    }
}
