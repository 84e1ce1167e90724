//! Redundancy in views (paper, Section 3.1).
//!
//! A defining query `T` is *redundant* in a query set `𝒯` when
//! `T ∈ closure(𝒯 − {T})` — the rest already generate it. Removing
//! redundant queries one at a time preserves the capacity and terminates in
//! a *nonredundant* view (**Theorem 3.1.4**). Nonredundant equivalents need
//! not share a size (Example 3.1.5) but are bounded: **Lemma 3.1.6 /
//! Theorem 3.1.7** bound every nonredundant equivalent of `𝒱` by
//! `Σᵢ #(RN(Tᵢ))`.

use crate::capacity::{ClosureContext, ClosureProof, SearchBudget};
use crate::error::CoreError;
use crate::norm::NormContext;
use crate::query::Query;
use crate::view::View;
use viewcap_base::Catalog;
use viewcap_template::SearchOverflow;

/// Is `queries[i]` redundant in the set? Returns the witnessing
/// construction from the *other* queries when it is.
///
/// Routed through [`ClosureContext`] like every other membership question.
/// Note that redundancy tests cannot share one context across indices: the
/// generating set `𝒯 − {Tᵢ}` differs for every `i`, and the candidate space
/// is a function of the generating set's λ-atoms.
pub fn is_redundant_with(
    queries: &[Query],
    i: usize,
    catalog: &Catalog,
    budget: &SearchBudget,
) -> Result<Option<ClosureProof>, SearchOverflow> {
    let rest: Vec<Query> = queries
        .iter()
        .enumerate()
        .filter(|(j, _)| *j != i)
        .map(|(_, q)| q.clone())
        .collect();
    ClosureContext::new(&rest, catalog, budget).contains(&queries[i])
}

/// [`is_redundant_with`] under the default budget.
pub fn is_redundant(
    queries: &[Query],
    i: usize,
    catalog: &Catalog,
) -> Result<Option<ClosureProof>, SearchOverflow> {
    is_redundant_with(queries, i, catalog, &SearchBudget::default())
}

/// Indices of a nonredundant generating subset, found by greedy removal
/// (Theorem 3.1.4's argument). Deterministic: always removes the earliest
/// redundant query and restarts.
///
/// Runs in a shared [`NormContext`]: every `𝒯 − {Tᵢ}` membership question
/// filters one candidate space instead of enumerating its own, and the
/// restart loop replays memoized verdicts for free. The greedy control
/// flow — and hence the kept index set and its order — is unchanged.
pub fn nonredundant_indices(
    queries: &[Query],
    catalog: &Catalog,
    budget: &SearchBudget,
) -> Result<Vec<usize>, SearchOverflow> {
    NormContext::new(queries, catalog, budget)?.nonredundant_indices(queries)
}

/// Theorem 3.1.4: an equivalent nonredundant view, keeping the surviving
/// pairs (queries *and* names) of the original.
pub fn make_nonredundant(
    view: &View,
    catalog: &Catalog,
    budget: &SearchBudget,
) -> Result<View, CoreError> {
    let qs = view.query_set();
    let keep = nonredundant_indices(qs.queries(), catalog, budget)?;
    let pairs = keep.into_iter().map(|i| view.pairs()[i].clone()).collect();
    View::new(pairs, catalog)
}

/// Is the whole set nonredundant?
pub fn is_nonredundant_set(
    queries: &[Query],
    catalog: &Catalog,
    budget: &SearchBudget,
) -> Result<bool, SearchOverflow> {
    for i in 0..queries.len() {
        if is_redundant_with(queries, i, catalog, budget)?.is_some() {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Is the view nonredundant (distinct queries, none redundant)?
pub fn is_nonredundant_view(
    view: &View,
    catalog: &Catalog,
    budget: &SearchBudget,
) -> Result<bool, SearchOverflow> {
    let qs = view.query_set();
    // Pairwise-distinct queries (as mappings).
    for (i, (q, _)) in view.pairs().iter().enumerate() {
        for (p, _) in &view.pairs()[i + 1..] {
            if q.equiv(p) {
                return Ok(false);
            }
        }
    }
    is_nonredundant_set(qs.queries(), catalog, budget)
}

/// The Lemma 3.1.6 / Theorem 3.1.7 bound: every nonredundant view
/// equivalent to `view` has at most `Σᵢ #(RN(Tᵢ))` pairs.
pub fn nonredundant_size_bound(view: &View) -> usize {
    view.pairs().iter().map(|(q, _)| q.rel_names().len()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::closure_contains;
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
    fn example_3_1_1_join_is_redundant() {
        // S = S₁ ⋈ S₂ is redundant in {S, S₁, S₂}; {S₁, S₂} is nonredundant.
        let cat = setup();
        let s = q(&cat, "pi{A,B}(R) * pi{B,C}(R)");
        let s1 = q(&cat, "pi{A,B}(R)");
        let s2 = q(&cat, "pi{B,C}(R)");
        let set = vec![s, s1.clone(), s2.clone()];
        assert!(is_redundant(&set, 0, &cat).unwrap().is_some());
        // Note: S₁ and S₂ are ALSO redundant in the full triple (each is a
        // projection of S); the paper only asserts {S₁, S₂} nonredundant.
        assert!(is_redundant(&set, 1, &cat).unwrap().is_some());
        assert!(is_nonredundant_set(&[s1, s2], &cat, &SearchBudget::default()).unwrap());
    }

    #[test]
    fn duplicate_queries_are_redundant() {
        let cat = setup();
        let set = vec![q(&cat, "pi{A}(R)"), q(&cat, "pi{A}(R * R)")];
        assert!(is_redundant(&set, 0, &cat).unwrap().is_some());
    }

    #[test]
    fn theorem_3_1_4_nonredundant_equivalent() {
        let mut cat = setup();
        let abc = cat.scheme(&["A", "B", "C"]).unwrap();
        let ab = cat.scheme(&["A", "B"]).unwrap();
        let bc = cat.scheme(&["B", "C"]).unwrap();
        let l0 = cat.fresh_relation("l0", abc);
        let l1 = cat.fresh_relation("l1", ab);
        let l2 = cat.fresh_relation("l2", bc);
        let view = View::from_exprs(
            vec![
                (parse_expr("pi{A,B}(R) * pi{B,C}(R)", &cat).unwrap(), l0),
                (parse_expr("pi{A,B}(R)", &cat).unwrap(), l1),
                (parse_expr("pi{B,C}(R)", &cat).unwrap(), l2),
            ],
            &cat,
        )
        .unwrap();
        let slim = make_nonredundant(&view, &cat, &SearchBudget::default()).unwrap();
        assert!(slim.len() < view.len());
        assert!(is_nonredundant_view(&slim, &cat, &SearchBudget::default()).unwrap());
        assert!(equivalent(&view, &slim, &cat).unwrap().is_some());
        // The bound holds (Theorem 3.1.7).
        assert!(slim.len() <= nonredundant_size_bound(&view));
    }

    #[test]
    fn proposition_3_1_2_nonredundant_iff_proper_subsets_weaker() {
        // 𝒯 nonredundant iff every proper subset's closure misses some
        // member of 𝒯.
        let cat = setup();
        let set = [q(&cat, "pi{A,B}(R)"), q(&cat, "pi{B,C}(R)")];
        // Nonredundant: each singleton subset fails to generate the other.
        for drop in 0..2 {
            let subset: Vec<Query> = set
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != drop)
                .map(|(_, x)| x.clone())
                .collect();
            let missing = closure_contains(&subset, &set[drop], &cat, &SearchBudget::default())
                .unwrap()
                .is_none();
            assert!(missing, "proper subset already generates member {drop}");
        }
        // Redundant counterpart: {S, S₁, S₂} has a proper subset with the
        // same closure.
        let with_join = [
            q(&cat, "pi{A,B}(R) * pi{B,C}(R)"),
            set[0].clone(),
            set[1].clone(),
        ];
        let generated = closure_contains(
            &with_join[1..],
            &with_join[0],
            &cat,
            &SearchBudget::default(),
        )
        .unwrap()
        .is_some();
        assert!(generated);
    }

    #[test]
    fn proposition_3_1_3_subsets_of_nonredundant_sets_are_nonredundant() {
        let cat = setup();
        let set = [
            q(&cat, "pi{A,B}(R)"),
            q(&cat, "pi{B,C}(R)"),
            q(&cat, "pi{A,C}(R)"),
        ];
        let budget = SearchBudget::default();
        assert!(is_nonredundant_set(&set, &cat, &budget).unwrap());
        // Every 2-element subset stays nonredundant.
        for drop in 0..3 {
            let subset: Vec<Query> = set
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != drop)
                .map(|(_, x)| x.clone())
                .collect();
            assert!(
                is_nonredundant_set(&subset, &cat, &budget).unwrap(),
                "subset dropping {drop} became redundant"
            );
        }
    }

    #[test]
    fn bound_counts_relation_name_sets() {
        let mut cat = setup();
        cat.relation("S", &["A", "B"]).unwrap();
        let ab = cat.scheme(&["A", "B"]).unwrap();
        let abc = cat.scheme(&["A", "B", "C"]).unwrap();
        let l1 = cat.fresh_relation("l1", abc);
        let l2 = cat.fresh_relation("l2", ab);
        let view = View::from_exprs(
            vec![
                // RN = {R}: contributes 1.
                (parse_expr("pi{A,B}(R) * pi{B,C}(R)", &cat).unwrap(), l1),
                // RN = {R, S}: contributes 2.
                (parse_expr("pi{A,B}(R * S)", &cat).unwrap(), l2),
            ],
            &cat,
        )
        .unwrap();
        assert_eq!(nonredundant_size_bound(&view), 3);
    }
}
