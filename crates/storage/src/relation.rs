//! Relations: named collections of equal-length columns.

use crate::column::Column;
use roulette_core::{ColId, Error, Result};
use std::collections::HashMap;

/// An immutable in-memory relation.
#[derive(Debug, Clone)]
pub struct Relation {
    name: String,
    columns: Vec<Column>,
    column_names: Vec<String>,
    by_name: HashMap<String, ColId>,
    rows: usize,
}

impl Relation {
    /// Relation name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Column by id.
    #[inline]
    pub fn column(&self, id: ColId) -> &Column {
        &self.columns[id.index()]
    }

    /// Column id by name.
    pub fn column_id(&self, name: &str) -> Result<ColId> {
        self.by_name.get(name).copied().ok_or_else(|| {
            Error::Schema(format!("relation '{}' has no column '{}'", self.name, name))
        })
    }

    /// Column name by id.
    pub fn column_name(&self, id: ColId) -> &str {
        &self.column_names[id.index()]
    }

    /// Heap bytes of the relation's columns ([`Column::memory_bytes`]).
    pub fn memory_bytes(&self) -> usize {
        self.columns.iter().map(Column::memory_bytes).sum()
    }

    /// Iterates `(name, column)` pairs in declaration order.
    pub fn columns(&self) -> impl Iterator<Item = (&str, &Column)> {
        self.column_names.iter().map(|s| s.as_str()).zip(self.columns.iter())
    }
}

/// Builder for [`Relation`]s.
///
/// ```
/// use roulette_storage::RelationBuilder;
/// let mut b = RelationBuilder::new("item");
/// b.int64("i_item_sk", (0..10).collect());
/// b.strings("i_category", (0..10).map(|i| if i % 2 == 0 { "Books" } else { "Music" }));
/// let rel = b.build();
/// assert_eq!(rel.rows(), 10);
/// ```
#[derive(Debug, Default)]
pub struct RelationBuilder {
    name: String,
    columns: Vec<(String, Column)>,
}

impl RelationBuilder {
    /// Starts a relation named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        RelationBuilder { name: name.into(), columns: Vec::new() }
    }

    /// Adds an integer column, packed as it is added (the values' span
    /// picks the offset width; `data` is dropped).
    pub fn int64(&mut self, name: impl Into<String>, data: Vec<i64>) -> &mut Self {
        self.columns.push((name.into(), Column::from_i64(&data)));
        self
    }

    /// Adds a dictionary-encoded string column.
    pub fn strings<S: AsRef<str>, I: IntoIterator<Item = S>>(
        &mut self,
        name: impl Into<String>,
        data: I,
    ) -> &mut Self {
        self.columns.push((name.into(), Column::dict_from_strings(data)));
        self
    }

    /// Adds a pre-built column.
    pub fn column(&mut self, name: impl Into<String>, col: Column) -> &mut Self {
        self.columns.push((name.into(), col));
        self
    }

    /// Finalizes the relation, rejecting unequal column lengths and
    /// duplicate column names with a typed [`Error::Schema`]. Use this
    /// whenever the schema comes from outside the program (files, user
    /// input); `build` is for statically-known schemas.
    pub fn try_build(self) -> Result<Relation> {
        let rows = self.columns.first().map_or(0, |(_, c)| c.len());
        let mut by_name = HashMap::with_capacity(self.columns.len());
        let mut columns = Vec::with_capacity(self.columns.len());
        let mut column_names = Vec::with_capacity(self.columns.len());
        for (i, (name, col)) in self.columns.into_iter().enumerate() {
            if col.len() != rows {
                return Err(Error::Schema(format!(
                    "column '{}' of '{}' has {} rows, expected {}",
                    name,
                    self.name,
                    col.len(),
                    rows
                )));
            }
            if by_name.insert(name.clone(), ColId(i as u16)).is_some() {
                return Err(Error::Schema(format!(
                    "duplicate column '{}' in '{}'",
                    name, self.name
                )));
            }
            column_names.push(name);
            columns.push(col);
        }
        Ok(Relation { name: self.name, columns, column_names, by_name, rows })
    }

    /// Finalizes the relation.
    ///
    /// # Panics
    /// Panics if columns have unequal lengths or duplicate names — these are
    /// programming errors in data-generation code, not runtime conditions.
    /// For externally-sourced schemas, use [`RelationBuilder::try_build`].
    pub fn build(self) -> Relation {
        self.try_build().expect("statically-known schema must be valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Relation {
        let mut b = RelationBuilder::new("t");
        b.int64("a", vec![1, 2, 3]);
        b.strings("s", ["x", "y", "x"]);
        b.build()
    }

    #[test]
    fn lookup_by_name_and_id() {
        let r = sample();
        assert_eq!(r.name(), "t");
        assert_eq!(r.rows(), 3);
        assert_eq!(r.width(), 2);
        let a = r.column_id("a").unwrap();
        assert_eq!(r.column(a).value(2), 3);
        assert_eq!(r.column_name(a), "a");
        assert!(r.column_id("missing").is_err());
    }

    #[test]
    fn columns_iterates_in_declaration_order() {
        let r = sample();
        let names: Vec<_> = r.columns().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names, vec!["a", "s"]);
    }

    #[test]
    #[should_panic(expected = "rows")]
    fn unequal_lengths_panic() {
        let mut b = RelationBuilder::new("t");
        b.int64("a", vec![1, 2]);
        b.int64("b", vec![1]);
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_names_panic() {
        let mut b = RelationBuilder::new("t");
        b.int64("a", vec![1]);
        b.int64("a", vec![2]);
        let _ = b.build();
    }

    #[test]
    fn try_build_returns_typed_schema_errors() {
        let mut b = RelationBuilder::new("t");
        b.int64("a", vec![1, 2]);
        b.int64("b", vec![1]);
        assert!(matches!(b.try_build(), Err(Error::Schema(_))));
        let mut b = RelationBuilder::new("t");
        b.int64("a", vec![1]);
        b.int64("a", vec![2]);
        assert!(matches!(b.try_build(), Err(Error::Schema(_))));
    }

    #[test]
    fn empty_relation_allowed() {
        let r = RelationBuilder::new("empty").build();
        assert_eq!(r.rows(), 0);
        assert_eq!(r.width(), 0);
    }
}
