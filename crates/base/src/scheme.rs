//! Relation schemes: finite, nonempty sets of attributes.
//!
//! A [`Scheme`] is stored as a sorted, deduplicated `Vec<AttrId>`. Schemes in
//! this domain are tiny (a handful of attributes), so a sorted vector beats a
//! tree/hash set on every axis: cache-friendly iteration, cheap subset tests
//! by merge-walk, and `Ord`/`Hash` for free.
//!
//! The paper requires schemes to be nonempty; [`Scheme::new`] enforces this,
//! while [`Scheme::empty`] exists for the *universe accumulation* use-case
//! (unions starting from zero) and for structural TRS bookkeeping.

use crate::error::BaseError;
use crate::ids::AttrId;
use std::fmt;

/// Widest scheme whose subsets [`Scheme::nonempty_subsets`] enumerates.
pub const MAX_SUBSET_ATTRS: usize = 16;

/// A finite set of attributes, sorted ascending.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Scheme {
    attrs: Vec<AttrId>,
}

impl Scheme {
    /// Build a scheme from an arbitrary attribute collection.
    ///
    /// Sorts and deduplicates. Errors if the result would be empty (the
    /// paper's relation schemes are nonempty).
    pub fn new<I: IntoIterator<Item = AttrId>>(attrs: I) -> Result<Self, BaseError> {
        let s = Self::collect(attrs);
        if s.is_empty() {
            return Err(BaseError::EmptyScheme);
        }
        Ok(s)
    }

    /// Build a possibly-empty attribute set (used when accumulating unions).
    pub fn collect<I: IntoIterator<Item = AttrId>>(attrs: I) -> Self {
        let mut v: Vec<AttrId> = attrs.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        Scheme { attrs: v }
    }

    /// The empty attribute set.
    pub fn empty() -> Self {
        Scheme { attrs: Vec::new() }
    }

    /// Number of attributes.
    #[inline]
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// Is this the empty set?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Iterate attributes in ascending order.
    #[inline]
    pub fn iter(&self) -> impl ExactSizeIterator<Item = AttrId> + '_ {
        self.attrs.iter().copied()
    }

    /// The attributes as a sorted slice.
    #[inline]
    pub fn as_slice(&self) -> &[AttrId] {
        &self.attrs
    }

    /// Membership test (binary search).
    #[inline]
    pub fn contains(&self, a: AttrId) -> bool {
        self.attrs.binary_search(&a).is_ok()
    }

    /// Position of `a` within the sorted attribute list.
    #[inline]
    pub fn position(&self, a: AttrId) -> Option<usize> {
        self.attrs.binary_search(&a).ok()
    }

    /// Is `self ⊆ other`? Merge-walk on the sorted representations.
    pub fn is_subset_of(&self, other: &Scheme) -> bool {
        let mut it = other.attrs.iter();
        'outer: for a in &self.attrs {
            for b in it.by_ref() {
                match b.cmp(a) {
                    std::cmp::Ordering::Less => continue,
                    std::cmp::Ordering::Equal => continue 'outer,
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// Is `self ⊊ other`?
    pub fn is_proper_subset_of(&self, other: &Scheme) -> bool {
        self.len() < other.len() && self.is_subset_of(other)
    }

    /// Set union.
    pub fn union(&self, other: &Scheme) -> Scheme {
        Scheme::collect(self.iter().chain(other.iter()))
    }

    /// Set intersection.
    pub fn intersect(&self, other: &Scheme) -> Scheme {
        Scheme {
            attrs: self.iter().filter(|a| other.contains(*a)).collect(),
        }
    }

    /// Set difference `self − other`.
    pub fn difference(&self, other: &Scheme) -> Scheme {
        Scheme {
            attrs: self.iter().filter(|a| !other.contains(*a)).collect(),
        }
    }

    /// All nonempty subsets, smallest first (for projection enumeration).
    ///
    /// Exponential by nature; schemes in this library are tiny. The result
    /// excludes the empty set but *includes* the full scheme.
    ///
    /// # Panics
    ///
    /// On a scheme wider than [`MAX_SUBSET_ATTRS`].
    pub fn nonempty_subsets(&self) -> Vec<Scheme> {
        let n = self.attrs.len();
        assert!(
            n <= MAX_SUBSET_ATTRS,
            "nonempty_subsets on an implausibly wide scheme"
        );
        let mut out = Vec::with_capacity((1usize << n) - 1);
        for mask in 1u32..(1u32 << n) {
            let attrs: Vec<AttrId> = (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| self.attrs[i])
                .collect();
            out.push(Scheme { attrs });
        }
        out.sort_by_key(|s| s.len());
        out
    }

    /// All nonempty *proper* subsets (the candidate targets of proper
    /// projections, Section 4 of the paper).
    pub fn proper_nonempty_subsets(&self) -> Vec<Scheme> {
        self.nonempty_subsets()
            .into_iter()
            .filter(|s| s.len() < self.len())
            .collect()
    }
}

impl FromIterator<AttrId> for Scheme {
    fn from_iter<I: IntoIterator<Item = AttrId>>(iter: I) -> Self {
        Scheme::collect(iter)
    }
}

impl fmt::Debug for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", a.0)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(ids: &[u32]) -> Scheme {
        Scheme::collect(ids.iter().map(|&i| AttrId(i)))
    }

    #[test]
    fn new_rejects_empty() {
        assert!(Scheme::new(std::iter::empty()).is_err());
        assert!(Scheme::new([AttrId(1)]).is_ok());
    }

    #[test]
    fn collect_sorts_and_dedups() {
        let sch = s(&[3, 1, 2, 1, 3]);
        assert_eq!(sch.as_slice(), &[AttrId(1), AttrId(2), AttrId(3)]);
    }

    #[test]
    fn subset_relations() {
        assert!(s(&[1, 2]).is_subset_of(&s(&[1, 2, 3])));
        assert!(s(&[1, 2]).is_proper_subset_of(&s(&[1, 2, 3])));
        assert!(s(&[1, 2]).is_subset_of(&s(&[1, 2])));
        assert!(!s(&[1, 2]).is_proper_subset_of(&s(&[1, 2])));
        assert!(!s(&[1, 4]).is_subset_of(&s(&[1, 2, 3])));
        assert!(s(&[]).is_subset_of(&s(&[1])));
    }

    #[test]
    fn set_algebra() {
        assert_eq!(s(&[1, 2]).union(&s(&[2, 3])), s(&[1, 2, 3]));
        assert_eq!(s(&[1, 2]).intersect(&s(&[2, 3])), s(&[2]));
        assert_eq!(s(&[1, 2, 3]).difference(&s(&[2])), s(&[1, 3]));
        assert_eq!(s(&[1]).intersect(&s(&[2])), Scheme::empty());
    }

    #[test]
    fn subsets_enumeration() {
        let sch = s(&[1, 2, 3]);
        let all = sch.nonempty_subsets();
        assert_eq!(all.len(), 7);
        assert!(all.contains(&sch));
        let proper = sch.proper_nonempty_subsets();
        assert_eq!(proper.len(), 6);
        assert!(!proper.contains(&sch));
        // Smallest-first ordering.
        assert_eq!(proper[0].len(), 1);
        assert_eq!(proper[5].len(), 2);
    }

    #[test]
    fn position_matches_sorted_order() {
        let sch = s(&[5, 1, 9]);
        assert_eq!(sch.position(AttrId(1)), Some(0));
        assert_eq!(sch.position(AttrId(5)), Some(1));
        assert_eq!(sch.position(AttrId(9)), Some(2));
        assert_eq!(sch.position(AttrId(7)), None);
    }
}
