//! Time-windowed relations under a logical clock.
//!
//! A [`WindowedRelation`] buffers integer tuples in arrival order, each
//! stamped with the logical [`Tick`] at which it was appended. Advancing
//! the clock expires every tuple older than the window and compacts the
//! buffer in place — the reclamation path measured by the `stem_expiry`
//! perfbench entry. A [`WindowedStore`] groups windowed relations with
//! their foreign-key edges and snapshots the live contents into a fresh
//! [`Catalog`] for one epoch of batch execution.
//!
//! # Why snapshot-per-epoch reclaims STeM state
//!
//! STeMs are append-only (batch-versioned, never mutated in place), so
//! expired tuples cannot be carved out of a live session's join state.
//! Instead, every epoch runs over a snapshot holding *only* live tuples;
//! when the epoch's session drops, the previous STeMs — including all
//! state built over now-expired tuples — are reclaimed wholesale, and the
//! in-epoch memory-pressure ladder (forced pruning, paused admissions,
//! heaviest-query eviction) still bounds growth within the epoch. Result
//! safety rides on the engine's history-independence invariant: a query's
//! result depends only on the tuples it scans, never on which other
//! tuples or queries shared the session (DESIGN.md §13).

use roulette_core::{Error, Result};
use roulette_storage::{Catalog, Column, Relation, RelationBuilder};

/// The logical clock: ticks are arbitrary monotone units (the stream
/// driver advances one tick per epoch).
pub type Tick = u64;

/// A relation whose tuples carry insertion ticks and expire after a
/// configurable window. Columns are `i64`-typed, matching the engine's
/// logical column view.
#[derive(Debug, Clone)]
pub struct WindowedRelation {
    name: String,
    column_names: Vec<String>,
    columns: Vec<Vec<i64>>,
    ticks: Vec<Tick>,
    last_tick: Tick,
}

impl WindowedRelation {
    /// An empty windowed relation with the given column names.
    pub fn new(name: impl Into<String>, columns: &[&str]) -> Self {
        WindowedRelation {
            name: name.into(),
            column_names: columns.iter().map(|c| (*c).to_string()).collect(),
            columns: columns.iter().map(|_| Vec::new()).collect(),
            ticks: Vec::new(),
            last_tick: 0,
        }
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Number of live (unexpired) tuples.
    pub fn len(&self) -> usize {
        self.ticks.len()
    }

    /// Whether no live tuples remain.
    pub fn is_empty(&self) -> bool {
        self.ticks.is_empty()
    }

    /// The insertion tick of the oldest live tuple.
    pub fn oldest_tick(&self) -> Option<Tick> {
        self.ticks.first().copied()
    }

    /// Appends a batch of row-major tuples stamped `now`. The clock is
    /// monotone: `now` must not precede the latest appended tick.
    pub fn append(&mut self, now: Tick, rows: &[Vec<i64>]) -> Result<()> {
        if now < self.last_tick {
            return Err(Error::Plan(format!(
                "stream clock moved backwards on '{}': {} after {}",
                self.name, now, self.last_tick
            )));
        }
        for row in rows {
            if row.len() != self.columns.len() {
                return Err(Error::Schema(format!(
                    "row of width {} appended to '{}' (width {})",
                    row.len(),
                    self.name,
                    self.columns.len()
                )));
            }
            for (col, v) in self.columns.iter_mut().zip(row.iter()) {
                col.push(*v);
            }
            self.ticks.push(now);
        }
        self.last_tick = now;
        Ok(())
    }

    /// Expires every tuple whose age at `now` reaches `window` ticks
    /// (a tuple appended at tick `t` is live while `now − t < window`).
    /// Returns the number of tuples reclaimed. Ticks are appended in
    /// monotone order, so expiry is a prefix compaction.
    pub fn expire(&mut self, now: Tick, window: Tick) -> u64 {
        let Some(cutoff) = now.checked_sub(window) else { return 0 };
        let k = self.ticks.partition_point(|&t| t <= cutoff);
        if k == 0 {
            return 0;
        }
        self.ticks.drain(..k);
        for col in &mut self.columns {
            col.drain(..k);
        }
        k as u64
    }

    /// Snapshots the live tuples, in arrival order, into an immutable
    /// [`Relation`] for batch execution. With a window at least as long as
    /// the whole stream, the snapshot is row-identical to a statically
    /// built relation holding the same tuples — the basis of the
    /// differential expiry tests. Each column is packed straight from the
    /// window's buffer.
    pub fn snapshot(&self) -> Result<Relation> {
        let mut b = RelationBuilder::new(self.name.clone());
        for (name, col) in self.column_names.iter().zip(self.columns.iter()) {
            b.column(name.clone(), Column::from_i64(col));
        }
        b.try_build()
    }
}

/// A named foreign-key edge between two windowed relations, re-declared on
/// every snapshot so scan ranking and workload generators see the schema.
#[derive(Debug, Clone)]
struct NamedEdge {
    from_rel: String,
    from_col: String,
    to_rel: String,
    to_col: String,
}

/// An ordered set of windowed relations plus schema edges. Relation
/// insertion order is preserved by every snapshot, so `RelId`/`ColId`
/// assignments are stable across epochs and queries built against one
/// snapshot remain valid against all of them.
#[derive(Debug, Clone, Default)]
pub struct WindowedStore {
    relations: Vec<WindowedRelation>,
    edges: Vec<NamedEdge>,
}

impl WindowedStore {
    /// An empty store.
    pub fn new() -> Self {
        WindowedStore::default()
    }

    /// Registers a relation; like [`Catalog`], at most 64 per store.
    pub fn add(&mut self, rel: WindowedRelation) -> Result<u16> {
        if self.relations.len() >= 64 {
            return Err(Error::Capacity("a store holds at most 64 relations".into()));
        }
        if self.relations.iter().any(|r| r.name() == rel.name()) {
            return Err(Error::Schema(format!("relation '{}' already exists", rel.name())));
        }
        let id = self.relations.len() as u16;
        self.relations.push(rel);
        Ok(id)
    }

    /// Declares a foreign-key edge by `(relation, column)` names; both
    /// endpoints must already be registered.
    pub fn add_fk(&mut self, from: (&str, &str), to: (&str, &str)) -> Result<()> {
        for (rel, col) in [from, to] {
            let found = self
                .relations
                .iter()
                .find(|r| r.name() == rel)
                .ok_or_else(|| Error::Schema(format!("no relation named '{rel}'")))?;
            if !found.column_names.iter().any(|c| c == col) {
                return Err(Error::Schema(format!(
                    "relation '{rel}' has no column '{col}'"
                )));
            }
        }
        self.edges.push(NamedEdge {
            from_rel: from.0.to_string(),
            from_col: from.1.to_string(),
            to_rel: to.0.to_string(),
            to_col: to.1.to_string(),
        });
        Ok(())
    }

    /// Number of registered relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Whether no relations are registered.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Total live tuples across all relations.
    pub fn total_rows(&self) -> u64 {
        self.relations.iter().map(|r| r.len() as u64).sum()
    }

    /// Iterates the relations in slot order.
    pub fn relations(&self) -> impl Iterator<Item = &WindowedRelation> {
        self.relations.iter()
    }

    /// Mutable access to a relation by name (arrival generators append
    /// through this).
    pub fn relation_mut(&mut self, name: &str) -> Option<&mut WindowedRelation> {
        self.relations.iter_mut().find(|r| r.name() == name)
    }

    /// Appends row-major tuples stamped `now` to the named relation.
    pub fn append(&mut self, name: &str, now: Tick, rows: &[Vec<i64>]) -> Result<()> {
        self.relation_mut(name)
            .ok_or_else(|| Error::Schema(format!("no relation named '{name}'")))?
            .append(now, rows)
    }

    /// Advances the window clock: expires aged tuples in every relation.
    /// Returns `(relation slot, tuples reclaimed)` for each relation that
    /// expired at least one tuple.
    pub fn advance(&mut self, now: Tick, window: Tick) -> Vec<(u16, u64)> {
        self.relations
            .iter_mut()
            .enumerate()
            .filter_map(|(i, r)| {
                let expired = r.expire(now, window);
                (expired > 0).then_some((i as u16, expired))
            })
            .collect()
    }

    /// Snapshots every relation's live tuples into a fresh [`Catalog`]
    /// (stable relation order, FK edges re-declared).
    pub fn snapshot(&self) -> Result<Catalog> {
        let mut catalog = Catalog::new();
        for rel in &self.relations {
            catalog.add(rel.snapshot()?)?;
        }
        for e in &self.edges {
            catalog.add_fk(
                (e.from_rel.as_str(), e.from_col.as_str()),
                (e.to_rel.as_str(), e.to_col.as_str()),
            )?;
        }
        Ok(catalog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel() -> WindowedRelation {
        WindowedRelation::new("t", &["k", "sel"])
    }

    #[test]
    fn append_and_snapshot_preserve_order() {
        let mut r = rel();
        r.append(1, &[vec![10, 0], vec![11, 1]]).unwrap();
        r.append(2, &[vec![12, 2]]).unwrap();
        assert_eq!(r.len(), 3);
        let snap = r.snapshot().unwrap();
        assert_eq!(snap.rows(), 3);
        let k = snap.column_id("k").unwrap();
        assert_eq!((0..3).map(|i| snap.column(k).value(i)).collect::<Vec<_>>(), vec![10, 11, 12]);
    }

    #[test]
    fn clock_must_be_monotone() {
        let mut r = rel();
        r.append(5, &[vec![1, 1]]).unwrap();
        assert!(matches!(r.append(4, &[vec![2, 2]]), Err(Error::Plan(_))));
    }

    #[test]
    fn width_mismatch_is_a_schema_error() {
        let mut r = rel();
        assert!(matches!(r.append(1, &[vec![1]]), Err(Error::Schema(_))));
    }

    #[test]
    fn expiry_reclaims_exactly_the_aged_prefix() {
        let mut r = rel();
        r.append(1, &[vec![1, 1], vec![2, 2]]).unwrap();
        r.append(2, &[vec![3, 3]]).unwrap();
        r.append(3, &[vec![4, 4]]).unwrap();
        // Window 2 at now=3: tuples from tick 1 (age 2) expire.
        assert_eq!(r.expire(3, 2), 2);
        assert_eq!(r.len(), 2);
        assert_eq!(r.oldest_tick(), Some(2));
        // Nothing more to expire at the same clock.
        assert_eq!(r.expire(3, 2), 0);
        let snap = r.snapshot().unwrap();
        let k = snap.column_id("k").unwrap();
        assert_eq!((0..2).map(|i| snap.column(k).value(i)).collect::<Vec<_>>(), vec![3, 4]);
    }

    #[test]
    fn window_longer_than_stream_expires_nothing() {
        let mut r = rel();
        for t in 1..=10u64 {
            r.append(t, &[vec![t as i64, 0]]).unwrap();
        }
        assert_eq!(r.expire(10, 100), 0);
        assert_eq!(r.len(), 10);
    }

    #[test]
    fn store_snapshot_has_stable_ids_and_edges() {
        let mut s = WindowedStore::new();
        s.add(WindowedRelation::new("fact", &["fk", "sel"])).unwrap();
        s.add(WindowedRelation::new("dim", &["key", "sel"])).unwrap();
        s.add_fk(("fact", "fk"), ("dim", "key")).unwrap();
        s.append("fact", 1, &[vec![0, 5]]).unwrap();
        s.append("dim", 1, &[vec![0, 7]]).unwrap();
        let c1 = s.snapshot().unwrap();
        s.append("fact", 2, &[vec![1, 6]]).unwrap();
        let c2 = s.snapshot().unwrap();
        assert_eq!(
            c1.relation_id("fact").unwrap(),
            c2.relation_id("fact").unwrap()
        );
        assert_eq!(c1.edges().len(), 1);
        assert_eq!(c1.edges(), c2.edges());
        assert_eq!(c2.relation(c2.relation_id("fact").unwrap()).rows(), 2);
    }

    #[test]
    fn store_rejects_unknown_edge_endpoints_and_duplicates() {
        let mut s = WindowedStore::new();
        s.add(WindowedRelation::new("fact", &["fk"])).unwrap();
        assert!(s.add_fk(("fact", "fk"), ("dim", "key")).is_err());
        assert!(s.add_fk(("fact", "nope"), ("fact", "fk")).is_err());
        assert!(s.add(WindowedRelation::new("fact", &["x"])).is_err());
    }

    #[test]
    fn advance_reports_per_relation_expiry() {
        let mut s = WindowedStore::new();
        s.add(WindowedRelation::new("a", &["x"])).unwrap();
        s.add(WindowedRelation::new("b", &["x"])).unwrap();
        s.append("a", 1, &[vec![1], vec![2]]).unwrap();
        s.append("b", 3, &[vec![3]]).unwrap();
        let expired = s.advance(4, 2);
        assert_eq!(expired, vec![(0, 2)]);
        assert_eq!(s.total_rows(), 1);
    }
}
