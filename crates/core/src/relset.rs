//! Relation-set bitsets used for plan lineages.
//!
//! A *lineage* (§4.1, Definition 2) is a set of base relations whose induced
//! subgraph of the join dependency graph is connected. Lineages are small —
//! bounded by the number of relations in the schema — so a single `u64`
//! bitset suffices and makes lineage manipulation branch-free.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::ids::RelId;
use std::fmt;

/// A set of base relations, packed into a 64-bit bitset.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct RelSet(pub u64);

impl RelSet {
    /// The empty relation set.
    pub const EMPTY: RelSet = RelSet(0);

    /// Creates a set containing a single relation.
    #[inline]
    pub fn singleton(rel: RelId) -> Self {
        debug_assert!(rel.index() < 64, "RelSet supports at most 64 relations");
        RelSet(1u64 << rel.index())
    }

    /// Creates a set from an iterator of relations.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = RelId>>(iter: I) -> Self {
        let mut s = RelSet::EMPTY;
        for r in iter {
            s.insert(r);
        }
        s
    }

    /// Creates the set `{R0, …, R(n-1)}`.
    #[inline]
    pub fn first_n(n: usize) -> Self {
        debug_assert!(n <= 64);
        if n == 64 {
            RelSet(u64::MAX)
        } else {
            RelSet((1u64 << n) - 1)
        }
    }

    /// Adds a relation to the set.
    #[inline]
    pub fn insert(&mut self, rel: RelId) {
        debug_assert!(rel.index() < 64);
        self.0 |= 1u64 << rel.index();
    }

    /// Removes a relation from the set.
    #[inline]
    pub fn remove(&mut self, rel: RelId) {
        self.0 &= !(1u64 << rel.index());
    }

    /// Returns this set with `rel` added (for functional-style plan search).
    #[inline]
    pub fn with(self, rel: RelId) -> Self {
        RelSet(self.0 | (1u64 << rel.index()))
    }

    /// Tests membership.
    #[inline]
    pub fn contains(self, rel: RelId) -> bool {
        rel.index() < 64 && (self.0 >> rel.index()) & 1 == 1
    }

    /// Number of relations in the set.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Set union.
    #[inline]
    pub fn union(self, other: RelSet) -> RelSet {
        RelSet(self.0 | other.0)
    }

    /// Set intersection.
    #[inline]
    pub fn intersect(self, other: RelSet) -> RelSet {
        RelSet(self.0 & other.0)
    }

    /// Set difference `self − other`.
    #[inline]
    pub fn minus(self, other: RelSet) -> RelSet {
        RelSet(self.0 & !other.0)
    }

    /// Whether the two sets share at least one relation.
    #[inline]
    pub fn intersects(self, other: RelSet) -> bool {
        self.0 & other.0 != 0
    }

    /// Whether `self ⊆ other`.
    #[inline]
    pub fn is_subset_of(self, other: RelSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// The lowest-numbered relation in the set, if any.
    #[inline]
    pub fn first(self) -> Option<RelId> {
        if self.0 == 0 {
            None
        } else {
            Some(RelId(self.0.trailing_zeros() as u16))
        }
    }

    /// Iterates over the members in increasing id order.
    #[inline]
    pub fn iter(self) -> RelSetIter {
        RelSetIter(self.0)
    }
}

impl IntoIterator for RelSet {
    type Item = RelId;
    type IntoIter = RelSetIter;

    fn into_iter(self) -> RelSetIter {
        self.iter()
    }
}

impl FromIterator<RelId> for RelSet {
    fn from_iter<I: IntoIterator<Item = RelId>>(iter: I) -> Self {
        RelSet::from_iter(iter)
    }
}

/// Iterator over the members of a [`RelSet`].
pub struct RelSetIter(u64);

impl Iterator for RelSetIter {
    type Item = RelId;

    #[inline]
    fn next(&mut self) -> Option<RelId> {
        if self.0 == 0 {
            None
        } else {
            let tz = self.0.trailing_zeros();
            self.0 &= self.0 - 1;
            Some(RelId(tz as u16))
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for RelSetIter {}

impl fmt::Debug for RelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for r in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{}", r)?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for RelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = RelSet::EMPTY;
        assert!(s.is_empty());
        s.insert(RelId(3));
        s.insert(RelId(0));
        assert!(s.contains(RelId(3)));
        assert!(s.contains(RelId(0)));
        assert!(!s.contains(RelId(1)));
        assert_eq!(s.len(), 2);
        s.remove(RelId(3));
        assert!(!s.contains(RelId(3)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn set_algebra() {
        let a = RelSet::from_iter([RelId(0), RelId(1), RelId(2)]);
        let b = RelSet::from_iter([RelId(1), RelId(3)]);
        assert_eq!(a.union(b), RelSet::from_iter([RelId(0), RelId(1), RelId(2), RelId(3)]));
        assert_eq!(a.intersect(b), RelSet::singleton(RelId(1)));
        assert_eq!(a.minus(b), RelSet::from_iter([RelId(0), RelId(2)]));
        assert!(a.intersects(b));
        assert!(!a.minus(b).intersects(b));
        assert!(RelSet::singleton(RelId(1)).is_subset_of(a));
        assert!(!b.is_subset_of(a));
    }

    #[test]
    fn iteration_in_order() {
        let s = RelSet::from_iter([RelId(5), RelId(1), RelId(9)]);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![RelId(1), RelId(5), RelId(9)]);
        assert_eq!(s.first(), Some(RelId(1)));
    }

    #[test]
    fn first_n_covers_prefix() {
        let s = RelSet::first_n(3);
        assert_eq!(s.len(), 3);
        assert!(s.contains(RelId(0)) && s.contains(RelId(2)));
        assert!(!s.contains(RelId(3)));
        assert_eq!(RelSet::first_n(64).len(), 64);
        assert_eq!(RelSet::first_n(0), RelSet::EMPTY);
    }

    #[test]
    fn debug_format_lists_members() {
        let s = RelSet::from_iter([RelId(2), RelId(0)]);
        assert_eq!(format!("{:?}", s), "{R0,R2}");
    }
}
