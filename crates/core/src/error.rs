//! Error types for the core crate.

use std::fmt;
use viewcap_base::{RelId, Scheme};
use viewcap_template::{SearchOverflow, TemplateError};

/// Errors raised while building views or running the decision procedures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// View schema names must be pairwise distinct.
    DuplicateViewName(RelId),
    /// A defining query's TRS must equal its view name's type.
    ViewTypeMismatch {
        /// The offending view-schema name.
        rel: RelId,
        /// Its declared type.
        expected: Scheme,
        /// The defining query's TRS.
        got: Scheme,
    },
    /// A view-schema name may not occur inside a defining query (the
    /// expansion of Theorem 1.4.2 assumes the defining queries are queries
    /// of the *underlying* schema).
    ViewNameInDefiningQuery(RelId),
    /// A "view query" mentioned a name outside the view schema.
    NotAViewQuery(RelId),
    /// Surrogate expression construction needs expression provenance on all
    /// defining queries (use the template-level surrogate otherwise).
    NoExpressionProvenance,
    /// The bounded search gave up; the answer is unknown at this budget.
    Search(SearchOverflow),
    /// Template-level failure.
    Template(TemplateError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::DuplicateViewName(r) => {
                write!(f, "view schema name {r:?} used more than once")
            }
            CoreError::ViewTypeMismatch { rel, expected, got } => write!(
                f,
                "defining query for {rel:?} has TRS {got:?}, expected {expected:?}"
            ),
            CoreError::ViewNameInDefiningQuery(r) => {
                write!(f, "view-schema name {r:?} occurs inside a defining query")
            }
            CoreError::NotAViewQuery(r) => write!(
                f,
                "expression mentions {r:?}, which is not in the view schema"
            ),
            CoreError::NoExpressionProvenance => write!(
                f,
                "surrogate expression requires expression provenance on every defining query"
            ),
            CoreError::Search(e) => write!(f, "{e}"),
            CoreError::Template(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<SearchOverflow> for CoreError {
    fn from(e: SearchOverflow) -> Self {
        CoreError::Search(e)
    }
}

impl From<TemplateError> for CoreError {
    fn from(e: TemplateError) -> Self {
        CoreError::Template(e)
    }
}
