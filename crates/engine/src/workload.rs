//! Workloads: batches of labeled decision requests.

use crate::verdict::CheckKind;
use viewcap_core::{Query, View};

/// One decision-procedure invocation.
#[derive(Clone, Debug)]
pub enum Check {
    /// Is `goal` in `Cap(view)`?
    Member {
        /// The view whose capacity is probed.
        view: View,
        /// The candidate member.
        goal: Query,
    },
    /// Does `dominator` dominate `dominated`?
    Dominates {
        /// The prospective dominator `𝒱`.
        dominator: View,
        /// The prospective dominated view `𝒲`.
        dominated: View,
    },
    /// Are the views equivalent?
    Equivalent {
        /// One side.
        left: View,
        /// The other side.
        right: View,
    },
}

impl Check {
    /// The procedure this check invokes.
    pub fn kind(&self) -> CheckKind {
        match self {
            Check::Member { .. } => CheckKind::Member,
            Check::Dominates { .. } => CheckKind::Dominates,
            Check::Equivalent { .. } => CheckKind::Equivalent,
        }
    }

    /// The views the check is posed over, in operand order: the view of a
    /// membership check, dominator then dominated, left then right.
    pub(crate) fn views(&self) -> impl DoubleEndedIterator<Item = &View> {
        let (first, second) = match self {
            Check::Member { view, .. } => (view, None),
            Check::Dominates {
                dominator,
                dominated,
            } => (dominator, Some(dominated)),
            Check::Equivalent { left, right } => (left, Some(right)),
        };
        std::iter::once(first).chain(second)
    }

    /// [`Check::views`], mutably — how view edits swap operands.
    pub(crate) fn views_mut(&mut self) -> impl Iterator<Item = &mut View> {
        let (first, second) = match self {
            Check::Member { view, .. } => (view, None),
            Check::Dominates {
                dominator,
                dominated,
            } => (dominator, Some(dominated)),
            Check::Equivalent { left, right } => (left, Some(right)),
        };
        std::iter::once(first).chain(second)
    }
}

/// A labeled check; the label rides through to reports.
#[derive(Clone, Debug)]
pub struct Request {
    /// Caller-chosen display label.
    pub label: String,
    /// The check to decide.
    pub check: Check,
}

/// An ordered batch of requests.
///
/// Order is the contract: batch results come back positionally aligned, and
/// deduplication always elects the *first* request of each fingerprint
/// class as the one that computes, which is what makes parallel execution
/// reproduce sequential output byte for byte.
#[derive(Clone, Debug, Default)]
pub struct Workload {
    /// The requests, in submission order.
    pub requests: Vec<Request>,
}

impl Workload {
    /// Empty workload.
    pub fn new() -> Self {
        Workload::default()
    }

    /// Append a labeled check.
    pub fn push(&mut self, label: impl Into<String>, check: Check) {
        self.requests.push(Request {
            label: label.into(),
            check,
        });
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Is the workload empty?
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}
