//! Expression-template recognition.
//!
//! The paper relies on two facts from Connors & Vianu, *Tableaux which
//! define expression mappings* (XP2 1981) — Propositions 2.4.5/2.4.6 — to
//! know that expression templates are recognizable. That paper is not
//! available; we implement recognition constructively instead:
//!
//! > A template `S` is an *m.r.e. template* (realizes some project–join
//! > expression) **iff** `S ≡ T_E` for a normalized expression `E` over
//! > `RN(S)` with at most `#(reduce(S))` atom occurrences.
//!
//! The "if" direction is trivial; "only if" follows from the syntactic
//! subtemplate lemma applied to the homomorphic image of `reduce(S)` inside
//! the template of any realizing expression. Recognition is therefore a
//! bounded search, and positive answers carry an explicit witness
//! expression: [`expression_realization`] is one probe of a fresh
//! [`CandidateSpace`] over `RN(S)`, and `Some` answers the yes/no question.

use crate::hom::equivalent_templates;
use crate::reduce::reduce;
use crate::search::{CandidateSpace, SearchLimits, SearchOverflow};
use crate::template::Template;
use std::ops::ControlFlow;
use viewcap_base::{Catalog, RelId};
use viewcap_expr::Expr;

/// Find a project–join expression realizing the template's mapping, if one
/// exists (Proposition 2.4.6, constructive).
pub fn expression_realization(
    t: &Template,
    catalog: &Catalog,
    limits: &SearchLimits,
) -> Result<Option<Expr>, SearchOverflow> {
    let red = reduce(t);
    let atoms: Vec<RelId> = red.rel_names().into_iter().collect();
    let trs = red.trs();
    let mut witness = None;
    CandidateSpace::new(&atoms).probe(catalog, red.len(), Some(&trs), limits, &mut |e, cand| {
        if equivalent_templates(cand, &red) {
            witness = Some(e.clone());
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    })?;
    Ok(witness)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::from_expr::template_of_expr;
    use crate::template::TaggedTuple;
    use viewcap_base::Symbol;
    use viewcap_expr::parse_expr;

    fn setup() -> Catalog {
        let mut cat = Catalog::new();
        cat.relation("R", &["A", "B"]).unwrap();
        cat.relation("S", &["B", "C"]).unwrap();
        cat
    }

    #[test]
    fn algorithm_outputs_are_recognized() {
        let cat = setup();
        for src in [
            "R",
            "pi{A}(R)",
            "R * S",
            "pi{A,C}(R * S)",
            "pi{B}(R) * pi{B}(S)",
        ] {
            let e = parse_expr(src, &cat).unwrap();
            let t = template_of_expr(&e, &cat);
            let w = expression_realization(&t, &cat, &SearchLimits::default())
                .unwrap()
                .unwrap_or_else(|| panic!("{src} not recognized"));
            // The witness realizes the same mapping.
            let wt = template_of_expr(&w, &cat);
            assert!(equivalent_templates(&wt, &t), "bad witness for {src}");
        }
    }

    #[test]
    fn non_expression_template_is_rejected() {
        // Two tuples tagged R sharing a nondistinguished A-symbol while BOTH
        // keep 0_B alive: a "cyclic" sharing pattern project–join cannot
        // create. In any T_E, two tuples share a symbol only via a
        // projection that hid the attribute — but here B remains
        // distinguished and A's shared symbol is nondistinguished while no
        // third party holds the cap. Concretely: {(a₁, 0_B), (a₁, b₂)}
        // tagged R — tuple 2 constrains tuple 1's row to agree on A with a
        // row whose B is unconstrained. Expressions cannot produce a
        // NONTRIVIAL such pattern; the reduced form here collapses, so use
        // three tuples forming a genuine triangle over {R, S}.
        let mut cat = Catalog::new();
        let r = cat.relation("R", &["A", "B"]).unwrap();
        let [a, b] = ["A", "B"].map(|n| cat.lookup_attr(n).unwrap());
        // T = {(0_A, b₁), (a₂, b₁), (a₂, 0_B)} over R: a path of shared
        // symbols connecting 0_A to 0_B through nondistinguished a₂, b₁.
        let t = Template::new(vec![
            TaggedTuple::new(r, vec![Symbol::distinguished(a), Symbol::new(b, 1)], &cat).unwrap(),
            TaggedTuple::new(r, vec![Symbol::new(a, 2), Symbol::new(b, 1)], &cat).unwrap(),
            TaggedTuple::new(r, vec![Symbol::new(a, 2), Symbol::distinguished(b)], &cat).unwrap(),
        ])
        .unwrap();
        let red = reduce(&t);
        assert_eq!(red.len(), 3, "the path template is already reduced");
        let w = expression_realization(&t, &cat, &SearchLimits::default()).unwrap();
        assert!(
            w.is_none(),
            "path-sharing template is not an m.r.e. template"
        );
    }

    #[test]
    fn recognition_is_invariant_under_renaming() {
        let cat = setup();
        let e = parse_expr("pi{A,C}(R * S)", &cat).unwrap();
        let t = template_of_expr(&e, &cat);
        // Rename nondistinguished symbols by shifting ordinals.
        let renamed = Template::new(
            t.tuples()
                .iter()
                .map(|tt| {
                    tt.map_symbols(|s| {
                        if s.is_distinguished() {
                            s
                        } else {
                            Symbol::new(s.attr(), s.ord() + 40)
                        }
                    })
                })
                .collect(),
        )
        .unwrap();
        assert!(
            expression_realization(&renamed, &cat, &SearchLimits::default())
                .unwrap()
                .is_some()
        );
    }
}
