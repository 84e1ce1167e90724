//! View dominance and equivalence (Theorems 1.5.5 and 2.4.12).
//!
//! `𝒱` *dominates* `𝒲` when `Cap(𝒲) ⊆ Cap(𝒱)`; the views are *equivalent*
//! when the capacities coincide. **Lemma 1.5.4** reduces dominance to
//! finitely many capacity-membership tests — each defining query of `𝒲`
//! must lie in `Cap(𝒱)` — and **Theorem 2.4.12** concludes decidability.
//!
//! Positive answers carry witnesses: one [`ClosureProof`] per defining
//! query, i.e. explicit constructions re-deriving one view's definition
//! from the other's.

use crate::capacity::{ClosureContext, ClosureProof, SearchBudget};
use crate::view::View;
use viewcap_base::Catalog;
use viewcap_template::SearchOverflow;

/// Witness that `𝒱` dominates `𝒲`: a construction for each defining query
/// of `𝒲` from `𝒱`'s defining query set.
#[derive(Clone, Debug)]
pub struct DominanceWitness {
    /// `proofs[j]` constructs `𝒲`'s `j`-th defining query from `𝒱`'s set.
    pub proofs: Vec<ClosureProof>,
}

/// Witness of equivalence: dominance both ways (Theorem 1.5.5).
#[derive(Clone, Debug)]
pub struct EquivalenceWitness {
    /// `𝒱` dominates `𝒲`.
    pub v_dominates_w: DominanceWitness,
    /// `𝒲` dominates `𝒱`.
    pub w_dominates_v: DominanceWitness,
}

/// Lemma 1.5.4 against a prebuilt [`ClosureContext`] over the dominator's
/// defining query set: all of `w`'s defining queries probe one shared
/// candidate-space enumeration. This is the entry point the batch engine
/// uses to amortize repeated dominance/equivalence checks against one view.
pub fn dominates_via(
    v_context: &mut ClosureContext,
    w: &View,
) -> Result<Option<DominanceWitness>, SearchOverflow> {
    let mut proofs = Vec::with_capacity(w.len());
    for (q, _) in w.pairs() {
        match v_context.contains(q)? {
            Some(p) => proofs.push(p),
            None => return Ok(None),
        }
    }
    Ok(Some(DominanceWitness { proofs }))
}

/// Lemma 1.5.4 with the default budget: does `v` dominate `w`?
pub fn dominates(
    v: &View,
    w: &View,
    catalog: &Catalog,
) -> Result<Option<DominanceWitness>, SearchOverflow> {
    let budget = SearchBudget::default();
    dominates_via(
        &mut ClosureContext::new(v.query_set().queries(), catalog, &budget),
        w,
    )
}

/// Theorems 1.5.5/2.4.12 with the default budget: are the views
/// equivalent? Dominance both ways, each direction in its own context.
pub fn equivalent(
    v: &View,
    w: &View,
    catalog: &Catalog,
) -> Result<Option<EquivalenceWitness>, SearchOverflow> {
    let Some(v_dominates_w) = dominates(v, w, catalog)? else {
        return Ok(None);
    };
    let Some(w_dominates_v) = dominates(w, v, catalog)? else {
        return Ok(None);
    };
    Ok(Some(EquivalenceWitness {
        v_dominates_w,
        w_dominates_v,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use viewcap_base::RelId;
    use viewcap_expr::parse_expr;

    /// Example 3.1.5 of the paper: 𝒟 = {R(A,B,C)},
    /// S₁ = π_AB(R), S₂ = π_BC(R), S = S₁ ⋈ S₂;
    /// 𝒱 = {(S, λ)}, 𝒲 = {(S₁, λ₁), (S₂, λ₂)}.
    fn example_3_1_5() -> (Catalog, View, View) {
        let mut cat = Catalog::new();
        cat.relation("R", &["A", "B", "C"]).unwrap();
        let ab = cat.scheme(&["A", "B"]).unwrap();
        let bc = cat.scheme(&["B", "C"]).unwrap();
        let abc = cat.scheme(&["A", "B", "C"]).unwrap();
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
        (cat, v, w)
    }

    #[test]
    fn example_3_1_5_views_are_equivalent() {
        let (cat, v, w) = example_3_1_5();
        let witness = equivalent(&v, &w, &cat).unwrap().expect("equivalent");
        // 𝒲 dominates 𝒱 because S = S₁ ⋈ S₂ …
        assert_eq!(witness.w_dominates_v.proofs.len(), 1);
        assert_eq!(witness.w_dominates_v.proofs[0].skeleton.atom_count(), 2);
        // … and 𝒱 dominates 𝒲 because Sᵢ are projections of S.
        assert_eq!(witness.v_dominates_w.proofs.len(), 2);
        for p in &witness.v_dominates_w.proofs {
            assert_eq!(p.skeleton.atom_count(), 1);
        }
    }

    #[test]
    fn inequivalent_views_are_rejected() {
        let (cat, _, w) = example_3_1_5();
        // A view exposing the whole of R strictly dominates 𝒲.
        let mut cat2 = cat.clone();
        let abc = cat2.scheme(&["A", "B", "C"]).unwrap();
        let full_name: RelId = cat2.fresh_relation("full", abc);
        let full =
            View::from_exprs(vec![(parse_expr("R", &cat2).unwrap(), full_name)], &cat2).unwrap();
        assert!(dominates(&full, &w, &cat2).unwrap().is_some());
        assert!(dominates(&w, &full, &cat2).unwrap().is_none());
        assert!(equivalent(&full, &w, &cat2).unwrap().is_none());
    }

    #[test]
    fn dominance_is_reflexive_and_equivalence_is_symmetric() {
        let (cat, v, w) = example_3_1_5();
        assert!(dominates(&v, &v, &cat).unwrap().is_some());
        assert!(dominates(&w, &w, &cat).unwrap().is_some());
        let a = equivalent(&v, &w, &cat).unwrap().is_some();
        let b = equivalent(&w, &v, &cat).unwrap().is_some();
        assert_eq!(a, b);
    }
}
