//! # viewcap-template
//!
//! Multirelational templates — the tableau machinery of Section 2 of
//! Connors (JCSS 1986), extended from the single-relation "tagged tableaux"
//! of Aho–Sagiv–Ullman.
//!
//! A template is a finite set of *tagged tuples* `(t, η)`; it denotes a
//! mapping from instantiations to relations by enumerating *α-embeddings*
//! (valuations sending every tagged tuple into `α(η)`) and collecting the
//! images of the distinguished symbols. This crate provides:
//!
//! * the [`Template`] data type with the paper's validity conditions
//!   ([`template`]);
//! * **evaluation** `T(α)` ([`eval`]);
//! * **Algorithm 2.1.1**: converting an expression to an equivalent template
//!   ([`from_expr`]);
//! * **homomorphisms** and the containment/equivalence tests of
//!   Propositions 2.4.1–2.4.3 ([`hom`]), plus canonical forms and
//!   isomorphism ([`canon`]);
//! * **reduction** to a minimal equivalent template, Proposition 2.4.4
//!   ([`reduce()`]);
//! * template-level **projection and join** ([`ops`]);
//! * **template substitution** `T → β` with full block provenance —
//!   the paper's key tool (Section 2.2, Theorem 2.2.3) ([`subst`]);
//! * **connected components** via shared nondistinguished symbols
//!   (Section 3.3) ([`components`]);
//! * the **bounded search engine** over normalized expressions with
//!   semantic deduplication — the effective core behind the paper's
//!   decidability results ([`search`]);
//! * **expression-template recognition**, our constructive replacement for
//!   Propositions 2.4.5/2.4.6 ([`recognize`]);
//! * the **codec** every persisted format reads and writes through: frame,
//!   name tables, tagged-tuple rows, one error type ([`codec`]).

pub mod canon;
pub mod codec;
pub mod components;
pub mod display;
pub mod error;
pub mod eval;
pub mod from_expr;
pub mod hom;
pub mod index;
pub mod ops;
pub mod recognize;
pub mod reduce;
pub mod search;
pub mod snapshot;
pub mod subst;
pub mod template;

pub use canon::{canonical_key, canonical_key_with, is_isomorphic, CanonKey, KeyLabels};
pub use codec::{CodecError, Format};
pub use components::connected_components;
pub use error::TemplateError;
pub use eval::eval_template;
pub use from_expr::template_of_expr;
pub use hom::{
    candidate_lists, equivalent_templates, find_homomorphism, for_each_homomorphism,
    template_contains, Homomorphism, Valuation,
};
pub use index::{leapfrog_intersect, scheme_key, ByteTrie, TupleIndex};
pub use ops::{join_templates, project_template};
pub use recognize::expression_realization;
pub use reduce::reduce;
pub use search::{for_each_candidate, CandidateSpace, SearchLimits, SearchOverflow, SearchStats};
pub use snapshot::{load_space, save_space, space_digest, SPACE_FORMAT};
pub use subst::{apply_assignment, substitute, Assignment, Substitution};
pub use template::{TaggedTuple, Template};
