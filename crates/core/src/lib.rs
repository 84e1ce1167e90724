//! # viewcap-core
//!
//! The primary contribution of Connors, *Equivalence of Views by Query
//! Capacity* (JCSS 33, 1986): views of multirelational databases compared by
//! the set of database queries their users can answer.
//!
//! * [`query`] / [`view`] — queries, views, induced instantiations, and
//!   surrogate queries (Sections 1.2–1.4, Theorem 1.4.2);
//! * [`capacity`] — query capacity `Cap(𝒱)`, its closure characterization,
//!   and the membership decision procedure with constructive witnesses
//!   (Theorems 1.5.2, 2.3.2, 2.4.11);
//! * [`closure`] — the bounded capacity frontier and the diff of two
//!   frontiers (Theorem 1.5.2);
//! * [`equivalence`] — dominance and equivalence of views (Lemma 1.5.4,
//!   Theorems 1.5.5, 2.4.12);
//! * [`redundancy`] — redundant defining queries, nonredundant equivalents,
//!   and the size bound (Section 3.1);
//! * [`essential`] — exhibited constructions, T-blocks, lineage,
//!   self-descendence, and essential tagged tuples / connected components
//!   (Sections 3.2–3.3);
//! * [`simplify`] / [`norm`] — proper projections, simple queries, and the
//!   simplified normal form with its uniqueness and maximality properties
//!   (Section 4).
//!
//! Each question has one procedure. Membership, the frontier, dominance
//! (membership per defining query) and the exhibited constructions all run
//! one walk of a [`ClosureContext`] over its query set's λ-skeletons; the
//! free functions build a fresh context for a single question.
//!
//! A literal implementation of the paper's `J_k`-style enumeration (Lemmas
//! 2.4.9/2.4.10) for tiny instances cross-checks the bounded search; it is
//! a test oracle, kept in `tests/support/paper_procedure.rs`.

pub mod capacity;
pub mod closure;
pub mod equivalence;
pub mod error;
pub mod essential;
pub mod norm;
pub mod query;
pub mod redundancy;
pub mod simplify;
pub mod view;

pub use capacity::{cap_contains, closure_contains, ClosureContext, ClosureProof, SearchBudget};
pub use closure::{capacity_members, closure_members, frontier_diff, ClosureMember, FrontierDiff};
pub use equivalence::{dominates, equivalent, DominanceWitness, EquivalenceWitness};
pub use error::CoreError;
pub use norm::NormContext;
pub use query::{Query, QuerySet};
pub use redundancy::{is_redundant, make_nonredundant, nonredundant_size_bound};
pub use simplify::{is_simple, proper_projections, simplify_view};
pub use view::View;
