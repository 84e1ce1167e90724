//! Instantiations: database states.
//!
//! Paper, Section 1.1: *"An instantiation is a mapping α on `RN_U` such that
//! `α(η)` is a relation on `R(η)` for each `η` in `RN_U`."* Since all but
//! finitely many names map to the empty relation in any real state, an
//! [`Instantiation`] stores the nonempty part and synthesizes empty relations
//! of the correct type for everything else.

use crate::catalog::Catalog;
use crate::error::BaseError;
use crate::ids::RelId;
use crate::relation::{Relation, Row};
use std::collections::BTreeMap;
use std::fmt;

/// A database state: a finite-support mapping from relation names to
/// relations of their type.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Instantiation {
    rels: BTreeMap<RelId, Relation>,
}

impl Instantiation {
    /// The everywhere-empty instantiation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assign a relation to a name, checking the type matches.
    pub fn set(&mut self, rel: RelId, value: Relation, catalog: &Catalog) -> Result<(), BaseError> {
        if value.scheme() != catalog.scheme_of(rel) {
            return Err(BaseError::RelationTypeMismatch { rel });
        }
        self.rels.insert(rel, value);
        Ok(())
    }

    /// Insert rows into `α(rel)`, creating the relation if absent.
    pub fn insert_rows<I>(
        &mut self,
        rel: RelId,
        rows: I,
        catalog: &Catalog,
    ) -> Result<(), BaseError>
    where
        I: IntoIterator<Item = Row>,
    {
        let entry = self
            .rels
            .entry(rel)
            .or_insert_with(|| Relation::empty(catalog.scheme_of(rel).clone()));
        for row in rows {
            entry.insert(row)?;
        }
        Ok(())
    }

    /// `α(rel)`: the relation assigned to a name (owned; empty if unset).
    pub fn get(&self, rel: RelId, catalog: &Catalog) -> Relation {
        self.rels
            .get(&rel)
            .cloned()
            .unwrap_or_else(|| Relation::empty(catalog.scheme_of(rel).clone()))
    }

    /// Names with explicitly assigned relations (the finite support).
    pub fn support(&self) -> impl Iterator<Item = RelId> + '_ {
        self.rels.keys().copied()
    }

    /// Total number of stored tuples across the support.
    pub fn total_rows(&self) -> usize {
        self.rels.values().map(Relation::len).sum()
    }
}

impl fmt::Debug for Instantiation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.rels.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Symbol;

    #[test]
    fn unset_names_are_empty_of_correct_type() {
        let mut cat = Catalog::new();
        let r = cat.relation("R", &["A", "B"]).unwrap();
        let inst = Instantiation::new();
        let rel = inst.get(r, &cat);
        assert!(rel.is_empty());
        assert_eq!(rel.scheme(), cat.scheme_of(r));
    }

    #[test]
    fn set_checks_type() {
        let mut cat = Catalog::new();
        let r = cat.relation("R", &["A", "B"]).unwrap();
        let s = cat.relation("S", &["A"]).unwrap();
        let mut inst = Instantiation::new();
        let rel_a = Relation::empty(cat.scheme_of(s).clone());
        assert!(inst.set(r, rel_a.clone(), &cat).is_err());
        assert!(inst.set(s, rel_a, &cat).is_ok());
    }

    #[test]
    fn insert_rows_accumulates() {
        let mut cat = Catalog::new();
        let r = cat.relation("R", &["A"]).unwrap();
        let a = cat.lookup_attr("A").unwrap();
        let mut inst = Instantiation::new();
        inst.insert_rows(r, [vec![Symbol::new(a, 1)]], &cat)
            .unwrap();
        inst.insert_rows(r, [vec![Symbol::new(a, 2)], vec![Symbol::new(a, 1)]], &cat)
            .unwrap();
        assert_eq!(inst.get(r, &cat).len(), 2);
        assert_eq!(inst.total_rows(), 2);
        assert_eq!(inst.support().count(), 1);
    }
}
