//! Closure exploration: enumerating the query capacity.
//!
//! `Cap(𝒱)` is infinite (it is closed under join), but its members with a
//! bounded construction size are finitely enumerable, and every member has
//! a canonical reduced template. This module materializes the capacity's
//! *frontier*: all pairwise-inequivalent members reachable by constructions
//! with at most `max_atoms` skeleton atoms — useful for auditing what a
//! view exposes, for the uniqueness experiments, and for the benchmark
//! harness.

use crate::capacity::{ClosureContext, SearchBudget};
use crate::query::Query;
use crate::view::View;
use std::ops::ControlFlow;
use viewcap_base::{Catalog, RelId};
use viewcap_expr::Expr;
use viewcap_template::{substitute, Assignment, SearchOverflow};

/// One enumerated member of a closure.
#[derive(Clone, Debug)]
pub struct ClosureMember {
    /// The member, as a query over the underlying schema (reduced
    /// template).
    pub query: Query,
    /// A construction skeleton realizing it, over the scratch `λ` names.
    pub skeleton: Expr,
    /// Number of atoms in the skeleton (construction size).
    pub construction_size: usize,
}

/// Enumerate the pairwise-inequivalent members of `closure(queries)`
/// realizable with at most `max_atoms` construction atoms.
///
/// Members are produced in nondecreasing construction size. The callback
/// may stop the enumeration.
pub fn for_each_closure_member(
    queries: &[Query],
    max_atoms: usize,
    catalog: &Catalog,
    budget: &SearchBudget,
    f: &mut dyn FnMut(&ClosureMember) -> ControlFlow<()>,
) -> Result<(), SearchOverflow> {
    if queries.is_empty() {
        return Ok(());
    }
    let mut scratch = catalog.clone();
    let mut beta = Assignment::new();
    let mut atoms: Vec<RelId> = Vec::with_capacity(queries.len());
    for q in queries {
        let lam = scratch.fresh_relation("lam", q.trs());
        beta.set(lam, q.template().clone(), &scratch)
            .expect("λ type minted to match");
        atoms.push(lam);
    }
    // The search engine already deduplicates semantically over the λ level;
    // two skeletons with equivalent λ-templates substitute to equivalent
    // members, but distinct λ-templates can also collide after
    // substitution, so dedup again at the member level.
    let mut seen: Vec<Query> = Vec::new();
    viewcap_template::for_each_candidate(
        &scratch,
        &atoms,
        max_atoms,
        None,
        &budget.limits,
        &mut |expr, skel| {
            let sub = substitute(skel, &beta, &scratch).expect("every λ assigned");
            let member = Query::from_template(&sub.result);
            if seen.iter().any(|s| s.equiv(&member)) {
                return ControlFlow::Continue(());
            }
            seen.push(member.clone());
            f(&ClosureMember {
                query: member,
                skeleton: expr.clone(),
                construction_size: expr.atom_count(),
            })
        },
    )?;
    Ok(())
}

/// Collect the bounded closure frontier as a vector.
pub fn closure_members(
    queries: &[Query],
    max_atoms: usize,
    catalog: &Catalog,
    budget: &SearchBudget,
) -> Result<Vec<ClosureMember>, SearchOverflow> {
    let mut out = Vec::new();
    for_each_closure_member(queries, max_atoms, catalog, budget, &mut |m| {
        out.push(m.clone());
        ControlFlow::Continue(())
    })?;
    Ok(out)
}

impl ClosureContext {
    /// Collect the bounded closure frontier through this shared context —
    /// identical members, in the identical order, to [`closure_members`]
    /// over the same query set, but reusing the context's lazily extended
    /// candidate space across sweeps (repeated or growing-`k` frontier
    /// requests pay only the incremental levels).
    pub fn members(&mut self, max_atoms: usize) -> Result<Vec<ClosureMember>, SearchOverflow> {
        let mut out: Vec<ClosureMember> = Vec::new();
        self.for_each_substitution(max_atoms, &mut |expr, _skel, sub| {
            let member = Query::from_template(&sub.result);
            if !out.iter().any(|m| m.query.equiv(&member)) {
                out.push(ClosureMember {
                    query: member,
                    skeleton: expr.clone(),
                    construction_size: expr.atom_count(),
                });
            }
            ControlFlow::Continue(())
        })?;
        Ok(out)
    }
}

/// The capacity-frontier diff between two view versions: which bounded
/// frontier members one version exposes and the other does not, by query
/// equivalence ([`frontier_diff`]).
#[derive(Clone, Debug, Default)]
pub struct FrontierDiff {
    /// Members derivable from the left version only (capabilities *lost*
    /// by an edit when left is the pre-edit version).
    pub only_left: Vec<ClosureMember>,
    /// Members derivable from the right version only (capabilities
    /// *gained*).
    pub only_right: Vec<ClosureMember>,
    /// Number of members common to both frontiers.
    pub common: usize,
}

impl FrontierDiff {
    /// True when both frontiers expose exactly the same members.
    pub fn is_empty(&self) -> bool {
        self.only_left.is_empty() && self.only_right.is_empty()
    }
}

/// Diff two bounded capacity frontiers (each as enumerated at the same
/// atom bound): the set difference by query equivalence, in each side's
/// enumeration order. Pure — the enumeration, and any sharing of it, is
/// the caller's.
pub fn frontier_diff(left: &[ClosureMember], right: &[ClosureMember]) -> FrontierDiff {
    let only = |these: &[ClosureMember], those: &[ClosureMember]| -> Vec<ClosureMember> {
        these
            .iter()
            .filter(|m| !those.iter().any(|n| n.query.equiv(&m.query)))
            .cloned()
            .collect()
    };
    let only_left = only(left, right);
    let only_right = only(right, left);
    FrontierDiff {
        common: left.len() - only_left.len(),
        only_left,
        only_right,
    }
}

/// Audit a view: the pairwise-inequivalent queries its users can answer
/// with constructions of at most `max_atoms` atoms (Theorem 1.5.2 frontier).
pub fn capacity_members(
    view: &View,
    max_atoms: usize,
    catalog: &Catalog,
    budget: &SearchBudget,
) -> Result<Vec<ClosureMember>, SearchOverflow> {
    let qs = view.query_set();
    closure_members(qs.queries(), max_atoms, catalog, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::closure_contains;
    use viewcap_expr::parse_expr;

    fn setup() -> Catalog {
        let mut cat = Catalog::new();
        cat.relation("R", &["A", "B", "C"]).unwrap();
        cat
    }

    fn q(cat: &Catalog, src: &str) -> Query {
        Query::from_expr(parse_expr(src, cat).unwrap(), cat)
    }

    #[test]
    fn members_are_pairwise_inequivalent_and_in_the_closure() {
        let cat = setup();
        let base = [q(&cat, "pi{A,B}(R)"), q(&cat, "pi{B,C}(R)")];
        let members = closure_members(&base, 2, &cat, &SearchBudget::default()).unwrap();
        assert!(!members.is_empty());
        for (i, m) in members.iter().enumerate() {
            for n in members.iter().skip(i + 1) {
                assert!(!m.query.equiv(&n.query), "duplicate member emitted");
            }
            // Membership is verifiable by the decision procedure.
            assert!(
                closure_contains(&base, &m.query, &cat, &SearchBudget::default())
                    .unwrap()
                    .is_some(),
                "emitted member fails the membership test"
            );
        }
    }

    #[test]
    fn frontier_contains_the_expected_core_queries() {
        let cat = setup();
        let base = [q(&cat, "pi{A,B}(R)"), q(&cat, "pi{B,C}(R)")];
        let members = closure_members(&base, 2, &cat, &SearchBudget::default()).unwrap();
        for expected in [
            "pi{A,B}(R)",
            "pi{B,C}(R)",
            "pi{A}(R)",
            "pi{B}(R)",
            "pi{C}(R)",
            "pi{A,B}(R) * pi{B,C}(R)",
            "pi{A,C}(pi{A,B}(R) * pi{B,C}(R))",
        ] {
            let goal = q(&cat, expected);
            assert!(
                members.iter().any(|m| m.query.equiv(&goal)),
                "frontier is missing {expected}"
            );
        }
        // The full relation is NOT in the capacity at any size.
        let full = q(&cat, "R");
        assert!(!members.iter().any(|m| m.query.equiv(&full)));
    }

    #[test]
    fn sizes_are_nondecreasing() {
        let cat = setup();
        let base = [q(&cat, "pi{A,B}(R)"), q(&cat, "pi{B,C}(R)")];
        let members = closure_members(&base, 3, &cat, &SearchBudget::default()).unwrap();
        let sizes: Vec<usize> = members.iter().map(|m| m.construction_size).collect();
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]));
        assert!(sizes.iter().all(|&s| s <= 3));
    }

    #[test]
    fn context_frontier_matches_one_shot_enumeration() {
        let cat = setup();
        let base = [q(&cat, "pi{A,B}(R)"), q(&cat, "pi{B,C}(R)")];
        let budget = SearchBudget::default();
        let mut context = ClosureContext::new(&base, &cat, &budget);
        for k in [1usize, 2, 3] {
            let shared = context.members(k).unwrap();
            let fresh = closure_members(&base, k, &cat, &budget).unwrap();
            assert_eq!(shared.len(), fresh.len(), "k={k}");
            for (s, f) in shared.iter().zip(fresh.iter()) {
                assert!(s.query.equiv(&f.query), "k={k}: member order diverged");
                assert_eq!(format!("{:?}", s.skeleton), format!("{:?}", f.skeleton));
                assert_eq!(s.construction_size, f.construction_size);
            }
        }
    }

    #[test]
    fn frontier_diff_is_the_set_difference() {
        let cat = setup();
        let budget = SearchBudget::default();
        let old = [q(&cat, "pi{A,B}(R)"), q(&cat, "pi{B,C}(R)")];
        let new = [q(&cat, "pi{A,B}(R)")];
        let lm = closure_members(&old, 2, &cat, &budget).unwrap();
        let rm = closure_members(&new, 2, &cat, &budget).unwrap();
        let diff = frontier_diff(&lm, &rm);
        let expect_left: Vec<&ClosureMember> = lm
            .iter()
            .filter(|m| !rm.iter().any(|n| n.query.equiv(&m.query)))
            .collect();
        let expect_right: Vec<&ClosureMember> = rm
            .iter()
            .filter(|m| !lm.iter().any(|n| n.query.equiv(&m.query)))
            .collect();
        assert_eq!(diff.only_left.len(), expect_left.len());
        assert_eq!(diff.only_right.len(), expect_right.len());
        for (d, e) in diff.only_left.iter().zip(expect_left) {
            assert!(d.query.equiv(&e.query));
        }
        for (d, e) in diff.only_right.iter().zip(expect_right) {
            assert!(d.query.equiv(&e.query));
        }
        assert_eq!(diff.common, lm.len() - diff.only_left.len());
        // Dropping π_BC loses capabilities and gains none.
        assert!(!diff.only_left.is_empty());
        assert!(diff.only_right.is_empty());
        // A version diffed against itself is empty.
        let refl = frontier_diff(&lm, &lm);
        assert!(refl.is_empty());
        assert_eq!(refl.common, lm.len());
    }

    #[test]
    fn capacity_members_goes_through_the_view() {
        let mut cat = setup();
        let ab = cat.scheme(&["A", "B"]).unwrap();
        let v1 = cat.fresh_relation("v1", ab);
        let view =
            View::from_exprs(vec![(parse_expr("pi{A,B}(R)", &cat).unwrap(), v1)], &cat).unwrap();
        let members = capacity_members(&view, 2, &cat, &SearchBudget::default()).unwrap();
        // π_AB(R), π_A(R), π_B(R), π_A(R)⋈π_B(R): the whole two-atom
        // frontier of a single binary projection.
        assert_eq!(members.len(), 4);
    }
}
