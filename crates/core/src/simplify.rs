//! Simplified views — the paper's normal form (Section 4).
//!
//! A query `T` is *simple* in a query set `𝒯` when replacing it by all of
//! its proper projections strictly shrinks the closure; a view is
//! *simplified* when every defining query is simple among them. Simplified
//! views cannot be decomposed any further, and:
//!
//! * every simplified view is nonredundant (**Theorem 4.1.1**);
//! * every view has an equivalent simplified view, reachable by repeatedly
//!   decomposing non-simple queries into their proper projections
//!   (**Lemma 4.1.2 / Theorem 4.1.3**);
//! * each simplified query is a projection of an original defining query
//!   (**Theorem 4.2.1**);
//! * the simplified equivalent is unique up to renaming (**Theorem 4.2.2**)
//!   and is the largest nonredundant equivalent (**Theorem 4.2.3**).

use crate::capacity::{closure_contains, SearchBudget};
use crate::error::CoreError;
use crate::norm::NormContext;
use crate::query::Query;
use crate::view::View;
use viewcap_base::{Catalog, Scheme};
use viewcap_template::SearchOverflow;

/// All proper projections `π_X ∘ T` for `∅ ≠ X ⊊ TRS(T)` (Section 4.1).
pub fn proper_projections(q: &Query, catalog: &Catalog) -> Vec<Query> {
    q.trs()
        .proper_nonempty_subsets()
        .into_iter()
        .map(|x| {
            q.project(&x, catalog)
                .expect("proper nonempty subsets are valid targets")
        })
        .collect()
}

/// Is `queries[i]` simple in the set? Decided under the default budget.
///
/// `T` is simple iff `T ∉ closure((𝒯 − {T}) ∪ properProjections(T))`:
/// the closure of the replacement set is always contained in the original
/// closure, and it equals it exactly when it still reaches `T`.
pub fn is_simple(queries: &[Query], i: usize, catalog: &Catalog) -> Result<bool, SearchOverflow> {
    let mut replacement: Vec<Query> = queries
        .iter()
        .enumerate()
        .filter(|(j, _)| *j != i)
        .map(|(_, q)| q.clone())
        .collect();
    replacement.extend(proper_projections(&queries[i], catalog));
    let budget = SearchBudget::default();
    Ok(closure_contains(&replacement, &queries[i], catalog, &budget)?.is_none())
}

/// Is every query simple (i.e. is the set simplified)?
///
/// Shares one [`NormContext`] across the per-query probes — the candidate
/// space over the queries-and-projections universe is built once.
pub fn is_simplified_set(
    queries: &[Query],
    catalog: &Catalog,
    budget: &SearchBudget,
) -> Result<bool, SearchOverflow> {
    NormContext::new(queries, catalog, budget)?.is_simplified_set(queries)
}

/// Lemma 4.1.2: transform a query set into an equivalent simplified one.
///
/// Loop invariant: the closure never changes. Each round removes redundancy
/// and replaces the first non-simple query by its proper projections; the
/// multiset of TRS sizes strictly decreases, so the loop terminates.
///
/// Runs in a shared [`NormContext`]: every round's redundancy and
/// simplicity probes filter one candidate space over the stable universe of
/// Theorem 4.2.1 instead of re-enumerating per subset. The control flow
/// (and hence the result sequence, modulo equivalence) is that of the
/// original per-subset loop.
pub fn simplify_queries(
    queries: &[Query],
    catalog: &Catalog,
    budget: &SearchBudget,
) -> Result<Vec<Query>, SearchOverflow> {
    NormContext::new(queries, catalog, budget)?.simplify_queries(queries)
}

/// Theorem 4.1.3: an equivalent simplified view, with fresh view-schema
/// names minted for the decomposed relations.
pub fn simplify_view(
    view: &View,
    catalog: &mut Catalog,
    budget: &SearchBudget,
) -> Result<View, CoreError> {
    let qs = view.query_set();
    let simplified = simplify_queries(qs.queries(), catalog, budget)?;
    let pairs = simplified
        .into_iter()
        .map(|q| {
            let name = catalog.fresh_relation("simp", q.trs());
            (q, name)
        })
        .collect();
    View::new(pairs, catalog)
}

/// Theorem 4.2.1 checker: find an original query and projection scheme with
/// `s ≡ π_X ∘ original[k]`.
pub fn projection_provenance(
    originals: &[Query],
    s: &Query,
    catalog: &Catalog,
) -> Option<(usize, Scheme)> {
    for (k, orig) in originals.iter().enumerate() {
        let trs = orig.trs();
        if s.trs() == trs && s.equiv(orig) {
            return Some((k, trs));
        }
        for x in trs.proper_nonempty_subsets() {
            if x == s.trs() {
                let proj = orig.project(&x, catalog).expect("X ⊆ TRS");
                if s.equiv(&proj) {
                    return Some((k, x));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equivalence::equivalent;
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
    fn proper_projections_enumerate_all_subschemes() {
        let cat = setup();
        let r = q(&cat, "R");
        let projs = proper_projections(&r, &cat);
        assert_eq!(projs.len(), 6); // 2³ − 2
        assert!(projs.iter().all(|p| p.trs().len() < 3));
    }

    #[test]
    fn example_3_1_5_v_is_not_simple_w_is() {
        let cat = setup();
        // 𝒱's single query S = π_AB(R) ⋈ π_BC(R) decomposes into its own
        // projections: not simple.
        let s = q(&cat, "pi{A,B}(R) * pi{B,C}(R)");
        assert!(!is_simple(&[s], 0, &cat).unwrap());
        // 𝒲's queries are one-relation projections: simple.
        let s1 = q(&cat, "pi{A,B}(R)");
        let s2 = q(&cat, "pi{B,C}(R)");
        let set = [s1, s2];
        assert!(is_simple(&set, 0, &cat).unwrap());
        assert!(is_simple(&set, 1, &cat).unwrap());
        assert!(is_simplified_set(&set, &cat, &SearchBudget::default()).unwrap());
    }

    #[test]
    fn the_full_relation_is_simple() {
        // R itself cannot be recovered from its proper projections.
        let cat = setup();
        let r = q(&cat, "R");
        assert!(is_simple(&[r], 0, &cat).unwrap());
    }

    #[test]
    fn theorem_4_1_3_simplification_of_example_3_1_5() {
        let mut cat = setup();
        let abc = cat.scheme(&["A", "B", "C"]).unwrap();
        let lam = cat.fresh_relation("lam", abc);
        let v = View::from_exprs(
            vec![(parse_expr("pi{A,B}(R) * pi{B,C}(R)", &cat).unwrap(), lam)],
            &cat,
        )
        .unwrap();
        let w = simplify_view(&v, &mut cat, &SearchBudget::default()).unwrap();
        assert_eq!(w.len(), 2);
        assert!(equivalent(&v, &w, &cat).unwrap().is_some());
        // The simplified queries are π_AB(R) and π_BC(R) up to equivalence.
        let wq = w.query_set();
        assert!(wq.contains_equiv(&q(&cat, "pi{A,B}(R)")));
        assert!(wq.contains_equiv(&q(&cat, "pi{B,C}(R)")));
        // Theorem 4.2.1: both are projections of the original query.
        for sq in wq.queries() {
            assert!(projection_provenance(v.query_set().queries(), sq, &cat).is_some());
        }
    }

    #[test]
    fn simplification_is_idempotent_up_to_equivalence() {
        let mut cat = setup();
        let abc = cat.scheme(&["A", "B", "C"]).unwrap();
        let lam = cat.fresh_relation("lam", abc);
        let v = View::from_exprs(
            vec![(parse_expr("pi{A,B}(R) * pi{B,C}(R)", &cat).unwrap(), lam)],
            &cat,
        )
        .unwrap();
        let w1 = simplify_view(&v, &mut cat, &SearchBudget::default()).unwrap();
        let w2 = simplify_view(&w1, &mut cat, &SearchBudget::default()).unwrap();
        assert!(w1.query_set().same_modulo_equiv(&w2.query_set()));
    }

    #[test]
    fn theorem_4_2_2_uniqueness_modulo_renaming() {
        // Simplify two different-but-equivalent presentations; the resulting
        // query sets must coincide modulo equivalence.
        let mut cat = setup();
        let abc = cat.scheme(&["A", "B", "C"]).unwrap();
        let ab = cat.scheme(&["A", "B"]).unwrap();
        let bc = cat.scheme(&["B", "C"]).unwrap();
        let lam = cat.fresh_relation("lam", abc);
        let l1 = cat.fresh_relation("l1", ab);
        let l2 = cat.fresh_relation("l2", bc);
        let v = View::from_exprs(
            vec![(parse_expr("pi{A,B}(R) * pi{B,C}(R)", &cat).unwrap(), lam)],
            &cat,
        )
        .unwrap();
        let w = View::from_exprs(
            vec![
                (parse_expr("pi{A,B}(R)", &cat).unwrap(), l1),
                (parse_expr("pi{B,C}(R)", &cat).unwrap(), l2),
            ],
            &cat,
        )
        .unwrap();
        let sv = simplify_view(&v, &mut cat, &SearchBudget::default()).unwrap();
        let sw = simplify_view(&w, &mut cat, &SearchBudget::default()).unwrap();
        assert!(sv.query_set().same_modulo_equiv(&sw.query_set()));
        assert_eq!(sv.len(), sw.len());
    }
}
