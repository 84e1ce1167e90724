//! Verdicts: decision outcomes with their constructive witnesses.

use std::fmt;
use viewcap_base::Scheme;
use viewcap_core::capacity::ClosureProof;
use viewcap_core::equivalence::{DominanceWitness, EquivalenceWitness};

/// The decision procedures the engine memoizes, in the order cache files
/// list them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CheckKind {
    /// Capacity membership: `Q ∈ Cap(𝒱)` (Theorem 2.4.11).
    Member,
    /// View dominance: `Cap(𝒲) ⊆ Cap(𝒱)` (Lemma 1.5.4).
    Dominates,
    /// View equivalence: dominance both ways (Theorem 2.4.12).
    Equivalent,
    /// Simplification: the view's simplified normal form (Theorem 4.1.3).
    Simplify,
    /// Greedy nonredundant subset of the defining queries (Theorem 3.1.4).
    Nonredundant,
}

impl CheckKind {
    /// Every kind; a kind's byte in cache files is its index here.
    const ALL: [CheckKind; 5] = [
        CheckKind::Member,
        CheckKind::Dominates,
        CheckKind::Equivalent,
        CheckKind::Simplify,
        CheckKind::Nonredundant,
    ];

    /// The byte that stands for this kind in cache files.
    pub(crate) fn byte(self) -> u8 {
        self as u8
    }

    /// The kind a cache-file byte stands for.
    pub(crate) fn from_byte(b: u8) -> Option<CheckKind> {
        CheckKind::ALL.get(b as usize).copied()
    }
}

impl fmt::Display for CheckKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CheckKind::Member => "member",
            CheckKind::Dominates => "dominates",
            CheckKind::Equivalent => "equivalent",
            CheckKind::Simplify => "simplify",
            CheckKind::Nonredundant => "nonredundant",
        })
    }
}

/// A decided check, witness included.
///
/// Witnesses are the paper's constructions: a [`ClosureProof`] per derived
/// defining query. They stay valid for every request that maps to the same
/// cache key, because equal fingerprints mean isomorphic reduced templates
/// — only positional *labels* may need remapping
/// (see [`Decision::member_witness_names`](crate::Decision::member_witness_names)).
// Verdicts live behind `Arc` in the cache and in every `Decision`, so the
// variant-size imbalance never gets copied around.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum Verdict {
    /// Membership outcome.
    Member(Option<ClosureProof>),
    /// Dominance outcome.
    Dominates(Option<DominanceWitness>),
    /// Equivalence outcome.
    Equivalent(Option<EquivalenceWitness>),
    /// Simplification outcome: the TRSs of the simplified equivalent's
    /// defining queries, in result order. The schemes alone reproduce the
    /// simplified view's *shape* (Theorem 4.2.2 makes the queries behind
    /// them unique up to equivalence, and each is a projection of an
    /// original defining query — Theorem 4.2.1 — so they need not be
    /// stored to re-mint view-schema relations or render reports).
    Simplified(Vec<Scheme>),
    /// Nonredundant outcome: indices of the kept defining pairs, in the
    /// producing view's pair order (the cache key pins that order, so the
    /// indices are positional for every request that hits this entry).
    Nonredundant(Vec<u32>),
}

impl Verdict {
    /// Which procedure produced this verdict.
    pub fn kind(&self) -> CheckKind {
        match self {
            Verdict::Member(_) => CheckKind::Member,
            Verdict::Dominates(_) => CheckKind::Dominates,
            Verdict::Equivalent(_) => CheckKind::Equivalent,
            Verdict::Simplified(_) => CheckKind::Simplify,
            Verdict::Nonredundant(_) => CheckKind::Nonredundant,
        }
    }

    /// Did the check answer "yes"? Normalization verdicts are
    /// constructions, not predicates; they always count as "yes".
    pub fn is_yes(&self) -> bool {
        match self {
            Verdict::Member(w) => w.is_some(),
            Verdict::Dominates(w) => w.is_some(),
            Verdict::Equivalent(w) => w.is_some(),
            Verdict::Simplified(_) | Verdict::Nonredundant(_) => true,
        }
    }

    /// Total atom count across the witness's construction skeletons, if the
    /// answer was "yes". Symmetric in both directions for equivalence, so
    /// it is safe to report for cache hits of either orientation.
    pub fn witness_atoms(&self) -> Option<usize> {
        fn dom_atoms(w: &DominanceWitness) -> usize {
            w.proofs.iter().map(|p| p.skeleton.atom_count()).sum()
        }
        match self {
            Verdict::Member(w) => w.as_ref().map(|p| p.skeleton.atom_count()),
            Verdict::Dominates(w) => w.as_ref().map(dom_atoms),
            Verdict::Equivalent(w) => w
                .as_ref()
                .map(|e| dom_atoms(&e.v_dominates_w) + dom_atoms(&e.w_dominates_v)),
            Verdict::Simplified(_) | Verdict::Nonredundant(_) => None,
        }
    }
}
