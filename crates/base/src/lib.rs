//! # viewcap-base
//!
//! The multirelational database substrate underlying Connors'
//! *Equivalence of Views by Query Capacity* (JCSS 33, 1986).
//!
//! This crate provides Section 1.1 of the paper:
//!
//! * an infinite universe of **attributes**, each with its own infinite,
//!   pairwise-disjoint **domain** of [`Symbol`]s containing one
//!   *distinguished* element `0_A` ([`symbol`]);
//! * **relation schemes** — finite nonempty attribute sets ([`scheme`]);
//! * a **catalog** of named relations (`RN_U` in the paper): every relation
//!   name has a fixed *type* (scheme), and fresh names of any type can be
//!   minted on demand ([`catalog`]);
//! * finite **relations** over a scheme with the standard operations of
//!   *projection* and *natural join* ([`relation`]);
//! * **instantiations** `α` mapping every relation name to a relation of its
//!   type ([`instance`]).
//!
//! Two representation decisions shape the whole workspace:
//!
//! 1. Domains are disjoint *by construction*: a [`Symbol`] carries its
//!    attribute, so it cannot occur in a foreign column.
//! 2. Data values and tableau symbols are the *same type*, exactly as in the
//!    paper, where templates are embedded into databases by valuations
//!    `Dom(A) → Dom(A)`.

pub mod catalog;
pub mod digest;
pub mod display;
pub mod error;
pub mod ids;
pub mod instance;
pub mod relation;
pub mod scheme;
pub mod symbol;

pub use catalog::Catalog;
pub use digest::{fnv1a64, rel_content_digest, ContentHasher, RelDigest};
pub use error::BaseError;
pub use ids::{AttrId, RelId};
pub use instance::Instantiation;
pub use relation::{Relation, Row};
pub use scheme::Scheme;
pub use symbol::{Symbol, SymbolGen};
