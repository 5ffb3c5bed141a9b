//! The catalog: the host DBMS's storage manager view that RouLette ingests
//! from (§3). Also records foreign-key join edges so workload generators
//! and the scan-order ranking heuristic can reason about the schema.

use crate::relation::Relation;
use roulette_core::{ColId, Error, RelId, Result};
use std::collections::HashMap;

/// A declared joinable edge between two relations (typically FK → PK).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FkEdge {
    /// Referencing (fact/child) relation.
    pub from_rel: RelId,
    /// Referencing column.
    pub from_col: ColId,
    /// Referenced (dimension/parent) relation.
    pub to_rel: RelId,
    /// Referenced column.
    pub to_col: ColId,
}

/// A set of relations plus schema metadata.
#[derive(Debug, Default)]
pub struct Catalog {
    relations: Vec<Relation>,
    by_name: HashMap<String, RelId>,
    edges: Vec<FkEdge>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers a relation; at most 64 per catalog (lineages are 64-bit
    /// bitsets).
    pub fn add(&mut self, rel: Relation) -> Result<RelId> {
        if self.relations.len() >= 64 {
            return Err(Error::Capacity("a catalog holds at most 64 relations".into()));
        }
        if self.by_name.contains_key(rel.name()) {
            return Err(Error::Schema(format!("relation '{}' already exists", rel.name())));
        }
        let id = RelId(self.relations.len() as u16);
        self.by_name.insert(rel.name().to_string(), id);
        self.relations.push(rel);
        Ok(id)
    }

    /// Number of relations.
    #[inline]
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Whether the catalog is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Relation by id.
    #[inline]
    pub fn relation(&self, id: RelId) -> &Relation {
        &self.relations[id.index()]
    }

    /// Heap bytes of every relation's columns
    /// ([`Relation::memory_bytes`]).
    pub fn memory_bytes(&self) -> usize {
        self.relations.iter().map(Relation::memory_bytes).sum()
    }

    /// Relation id by name.
    pub fn relation_id(&self, name: &str) -> Result<RelId> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| Error::Schema(format!("no relation named '{name}'")))
    }

    /// Iterates `(id, relation)` pairs.
    pub fn relations(&self) -> impl Iterator<Item = (RelId, &Relation)> {
        self.relations.iter().enumerate().map(|(i, r)| (RelId(i as u16), r))
    }

    /// Declares a foreign-key join edge by names.
    pub fn add_fk(
        &mut self,
        from: (&str, &str),
        to: (&str, &str),
    ) -> Result<()> {
        let from_rel = self.relation_id(from.0)?;
        let from_col = self.relation(from_rel).column_id(from.1)?;
        let to_rel = self.relation_id(to.0)?;
        let to_col = self.relation(to_rel).column_id(to.1)?;
        self.edges.push(FkEdge { from_rel, from_col, to_rel, to_col });
        Ok(())
    }

    /// Declared FK edges.
    #[inline]
    pub fn edges(&self) -> &[FkEdge] {
        &self.edges
    }

    /// Edges incident to `rel`.
    pub fn edges_of(&self, rel: RelId) -> impl Iterator<Item = &FkEdge> {
        self.edges.iter().filter(move |e| e.from_rel == rel || e.to_rel == rel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::RelationBuilder;

    fn two_table_catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut f = RelationBuilder::new("fact");
        f.int64("fk", vec![0, 1, 0]);
        c.add(f.build()).unwrap();
        let mut d = RelationBuilder::new("dim");
        d.int64("pk", vec![0, 1]);
        c.add(d.build()).unwrap();
        c.add_fk(("fact", "fk"), ("dim", "pk")).unwrap();
        c
    }

    #[test]
    fn add_and_lookup() {
        let c = two_table_catalog();
        assert_eq!(c.len(), 2);
        let f = c.relation_id("fact").unwrap();
        assert_eq!(c.relation(f).name(), "fact");
        assert!(c.relation_id("nope").is_err());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut c = Catalog::new();
        c.add(RelationBuilder::new("t").build()).unwrap();
        assert!(c.add(RelationBuilder::new("t").build()).is_err());
    }

    #[test]
    fn fk_edges_recorded_and_queryable() {
        let c = two_table_catalog();
        assert_eq!(c.edges().len(), 1);
        let f = c.relation_id("fact").unwrap();
        let d = c.relation_id("dim").unwrap();
        assert_eq!(c.edges_of(f).count(), 1);
        assert_eq!(c.edges_of(d).count(), 1);
        let e = c.edges()[0];
        assert_eq!(e.from_rel, f);
        assert_eq!(e.to_rel, d);
    }

    #[test]
    fn fk_with_unknown_column_errors() {
        let mut c = two_table_catalog();
        assert!(c.add_fk(("fact", "missing"), ("dim", "pk")).is_err());
    }

    #[test]
    fn capacity_capped_at_64() {
        let mut c = Catalog::new();
        for i in 0..64 {
            c.add(RelationBuilder::new(format!("t{i}")).build()).unwrap();
        }
        assert!(c.add(RelationBuilder::new("t64").build()).is_err());
    }
}
