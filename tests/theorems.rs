//! Machine checks of the paper's theorems on randomized workloads
//! (tests are named by the paper's numbering). Every test is seeded and
//! deterministic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::ControlFlow;
use viewcap::prelude::*;
use viewcap_gen::{
    random_expr, random_instantiation, random_query, random_view, random_world, WorldSpec,
};
use viewcap_template::{
    apply_assignment, eval_template, find_homomorphism, for_each_homomorphism, reduce, substitute,
    template_of_expr,
};

fn small_world(seed: u64) -> (StdRng, Catalog, Vec<RelId>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (cat, rels) = random_world(
        &mut rng,
        &WorldSpec {
            attrs: 4,
            relations: 3,
            min_arity: 1,
            max_arity: 3,
        },
    );
    (rng, cat, rels)
}

/// T1 — Theorem 1.4.2: surrogate queries answer view queries, on both the
/// expression and the template realization.
#[test]
fn theorem_1_4_2_surrogates_randomized() {
    let (mut rng, mut cat, rels) = small_world(101);
    for round in 0..8 {
        let view = random_view(&mut rng, &mut cat, &rels, 2, 2);
        let names = view.schema();
        // Random view query over the view schema.
        let vq = random_expr(&mut rng, &cat, &names, 1 + (round % 2));
        let alpha = random_instantiation(&mut rng, &cat, &rels, 4, 3);

        let direct = view.answer(&vq, &alpha, &cat).unwrap();
        let se = view.surrogate_expr(&vq, &cat).unwrap();
        assert_eq!(
            se.eval(&alpha, &cat),
            direct,
            "expression surrogate, round {round}"
        );
        let sq = view.surrogate_query(&vq, &cat).unwrap();
        assert_eq!(
            sq.eval(&alpha, &cat),
            direct,
            "template surrogate, round {round}"
        );
    }
}

/// T2 — Theorem 1.5.2: `Cap(𝒱)` contains the defining queries and is
/// closed under projection and join (spot-checked constructively).
#[test]
fn theorem_1_5_2_capacity_is_the_closure() {
    let (mut rng, mut cat, rels) = small_world(202);
    let view = random_view(&mut rng, &mut cat, &rels, 2, 2);
    let budget = SearchBudget::default();

    let qs = view.query_set();
    for q in qs.queries() {
        assert!(
            cap_contains(&view, q, &cat, &budget).unwrap().is_some(),
            "defining query must be in its own capacity"
        );
    }
    // Closure under join.
    let joined = qs.queries()[0].join(&qs.queries()[1]);
    assert!(cap_contains(&view, &joined, &cat, &budget)
        .unwrap()
        .is_some());
    // Closure under projection (first proper projection of the join).
    if let Some(x) = joined.trs().proper_nonempty_subsets().into_iter().next() {
        let projected = joined.project(&x, &cat).unwrap();
        assert!(cap_contains(&view, &projected, &cat, &budget)
            .unwrap()
            .is_some());
    }
}

/// T4 — Theorem 2.2.3: `[T→β](α) = T(β→α)` on randomized templates,
/// assignments, and instantiations.
#[test]
fn theorem_2_2_3_randomized() {
    let (mut rng, mut cat, rels) = small_world(303);
    for round in 0..10 {
        // β assigns random queries to fresh names ν₁, ν₂.
        let q1 = random_query(&mut rng, &cat, &rels, 1 + round % 2);
        let q2 = random_query(&mut rng, &cat, &rels, 1);
        let n1 = cat.fresh_relation("nu", q1.trs());
        let n2 = cat.fresh_relation("nu", q2.trs());
        let mut beta = viewcap_template::Assignment::new();
        beta.set(n1, q1.template().clone(), &cat).unwrap();
        beta.set(n2, q2.template().clone(), &cat).unwrap();

        // Random T over the ν's.
        let t_expr = random_expr(&mut rng, &cat, &[n1, n2], 1 + round % 3);
        let t = template_of_expr(&t_expr, &cat);

        let sub = substitute(&t, &beta, &cat).unwrap();
        let alpha = random_instantiation(&mut rng, &cat, &rels, 3, 3);
        let lhs = eval_template(&sub.result, &alpha, &cat);
        let rhs = eval_template(&t, &apply_assignment(&beta, &alpha, &cat), &cat);
        assert_eq!(lhs, rhs, "Theorem 2.2.3 failed in round {round}");
    }
}

/// T5 — Lemma 2.3.1: substitution commutes with projection and join.
#[test]
fn lemma_2_3_1_substitution_congruence() {
    use viewcap_template::{join_templates, project_template};
    let (mut rng, mut cat, rels) = small_world(404);
    let q1 = random_query(&mut rng, &cat, &rels, 2);
    let n1 = cat.fresh_relation("nu", q1.trs());
    let mut beta = viewcap_template::Assignment::new();
    beta.set(n1, q1.template().clone(), &cat).unwrap();

    let t1 = Template::atom(n1, &cat);
    // (i) π_X(T₁ → β) ≡ (π_X T₁) → β.
    for x in t1.trs().proper_nonempty_subsets() {
        let lhs = project_template(&substitute(&t1, &beta, &cat).unwrap().result, &x).unwrap();
        let rhs = substitute(&project_template(&t1, &x).unwrap(), &beta, &cat)
            .unwrap()
            .result;
        assert!(equivalent_templates(&lhs, &rhs), "π_{x:?} congruence");
    }
    // (ii) (T₁→β) ⋈ (T₁→β) ≡ (T₁ ⋈ T₁) → β.
    let sub = substitute(&t1, &beta, &cat).unwrap().result;
    let lhs = join_templates(&sub, &sub);
    let rhs = substitute(&join_templates(&t1, &t1), &beta, &cat)
        .unwrap()
        .result;
    assert!(equivalent_templates(&lhs, &rhs), "⋈ congruence");
}

/// Prop 2.4.1 — homomorphism ⇔ containment, cross-validated exactly via the
/// frozen-instantiation argument (the canonical database of the target
/// template).
#[test]
fn proposition_2_4_1_frozen_instantiation() {
    let (mut rng, cat, rels) = small_world(505);
    let mut checked = 0;
    for _ in 0..250 {
        let s_atoms = 1 + rng.gen_range(0..3);
        let t_atoms = 1 + rng.gen_range(0..3);
        let s = reduce(&template_of_expr(
            &random_expr(&mut rng, &cat, &rels, s_atoms),
            &cat,
        ));
        let t = reduce(&template_of_expr(
            &random_expr(&mut rng, &cat, &rels, t_atoms),
            &cat,
        ));
        if s.trs() != t.trs() {
            continue;
        }
        checked += 1;
        // Freeze S: its tagged tuples become data.
        let mut alpha = Instantiation::new();
        for tup in s.tuples() {
            alpha
                .insert_rows(tup.rel(), [tup.row().to_vec()], &cat)
                .unwrap();
        }
        let id_row: Vec<Symbol> = s.trs().iter().map(Symbol::distinguished).collect();
        let semantic = eval_template(&t, &alpha, &cat).contains(&id_row);
        let syntactic = find_homomorphism(&t, &s).is_some();
        assert_eq!(
            semantic, syntactic,
            "hom T→S must coincide with the frozen test"
        );
        // And `template_contains` must agree with it under equal TRS.
        assert_eq!(template_contains(&t, &s), syntactic);
    }
    assert!(checked >= 10, "got {checked} comparable samples");
}

/// T8/T9 — Theorems 3.1.4 and 3.1.7: nonredundant equivalents exist and are
/// bounded.
#[test]
fn theorems_3_1_4_and_3_1_7_randomized() {
    use viewcap_core::redundancy::{
        is_nonredundant_view, make_nonredundant, nonredundant_size_bound,
    };
    for seed in [606, 607, 608] {
        let (mut rng, mut cat, rels) = small_world(seed);
        let view = random_view(&mut rng, &mut cat, &rels, 3, 2);
        let budget = SearchBudget::default();
        let slim = make_nonredundant(&view, &cat, &budget).unwrap();
        assert!(is_nonredundant_view(&slim, &cat, &budget).unwrap());
        assert!(
            viewcap_core::equivalence::equivalent(&view, &slim, &cat)
                .unwrap()
                .is_some(),
            "nonredundant equivalent must stay equivalent (seed {seed})"
        );
        assert!(slim.len() <= nonredundant_size_bound(&view));
    }
}

/// T10 — Corollary 3.2.6: a query with an essential tagged tuple is
/// nonredundant in its set.
#[test]
fn corollary_3_2_6_essential_implies_nonredundant() {
    use viewcap_core::essential::essential_tuples;
    use viewcap_core::redundancy::is_redundant;
    let (mut rng, cat, rels) = small_world(707);
    let budget = SearchBudget::default();
    let mut verified = 0;
    for _ in 0..6 {
        let set = [
            random_query(&mut rng, &cat, &rels, 1),
            random_query(&mut rng, &cat, &rels, 1),
        ];
        if set[0].equiv(&set[1]) {
            continue;
        }
        for t_idx in 0..2 {
            let ess = essential_tuples(&set, t_idx, &cat, &budget).unwrap();
            if ess.iter().any(|&e| e) {
                assert!(
                    is_redundant(&set, t_idx, &cat).unwrap().is_none(),
                    "essential tuple inside a redundant member"
                );
                verified += 1;
            }
        }
    }
    assert!(verified >= 2, "only {verified} essential members seen");
}

/// T11 — Theorems 3.3.5/3.3.7: reduced members of nonredundant sets have an
/// essential connected component, and essential tuples are exactly the
/// union of essential components.
#[test]
fn theorems_3_3_5_and_3_3_7_components() {
    use viewcap_core::essential::{essential_connected_components, essential_tuples};
    use viewcap_core::redundancy::is_nonredundant_set;
    use viewcap_template::connected_components;
    let (mut rng, cat, rels) = small_world(808);
    let budget = SearchBudget::default();
    let mut verified = 0;
    'outer: for _ in 0..8 {
        let set = [
            random_query(&mut rng, &cat, &rels, 1),
            random_query(&mut rng, &cat, &rels, 1),
        ];
        if set[0].equiv(&set[1]) || !is_nonredundant_set(&set, &cat, &budget).unwrap() {
            continue 'outer;
        }
        for t_idx in 0..2 {
            let ess = essential_tuples(&set, t_idx, &cat, &budget).unwrap();
            let ecomps = essential_connected_components(&set, t_idx, &cat, &budget).unwrap();
            // Theorem 3.3.5: at least one essential component.
            assert!(
                !ecomps.is_empty(),
                "nonredundant reduced member lacks an essential component"
            );
            // Theorem 3.3.7: essentials = union of essential components.
            let mut from_comps = vec![false; ess.len()];
            for comp in &ecomps {
                for &i in comp {
                    from_comps[i] = true;
                }
            }
            assert_eq!(ess, from_comps, "stray essential tuple found");
            // Sanity: essential components are components.
            let comps = connected_components(set[t_idx].template());
            for ec in &ecomps {
                assert!(comps.contains(ec));
            }
        }
        verified += 1;
    }
    assert!(verified >= 2, "only {verified} nonredundant sets sampled");
}

/// T12/T13/T14 — Theorems 4.1.1, 4.1.3, 4.2.1 on randomized views.
#[test]
fn simplification_theorems_randomized() {
    use viewcap_core::redundancy::is_nonredundant_set;
    use viewcap_core::simplify::{is_simplified_set, projection_provenance, simplify_queries};
    for seed in [909, 910] {
        let (mut rng, cat, rels) = small_world(seed);
        let budget = SearchBudget::default();
        let originals = [
            random_query(&mut rng, &cat, &rels, 2),
            random_query(&mut rng, &cat, &rels, 1),
        ];
        let simplified = simplify_queries(&originals, &cat, &budget).unwrap();
        // Theorem 4.1.3: simplified and equivalent (same closure: mutual
        // membership).
        assert!(is_simplified_set(&simplified, &cat, &budget).unwrap());
        for q in &simplified {
            assert!(closure_contains(&originals, q, &cat, &budget)
                .unwrap()
                .is_some());
        }
        for q in &originals {
            assert!(closure_contains(&simplified, q, &cat, &budget)
                .unwrap()
                .is_some());
        }
        // Theorem 4.1.1: simplified ⇒ nonredundant.
        assert!(is_nonredundant_set(&simplified, &cat, &budget).unwrap());
        // Theorem 4.2.1: every simplified query is a projection of an
        // original.
        for q in &simplified {
            assert!(
                projection_provenance(&originals, q, &cat).is_some(),
                "simplified query lacks projection provenance (seed {seed})"
            );
        }
    }
}

/// T15 — Theorem 4.2.2: the simplified form is independent of presentation
/// order (uniqueness up to renaming).
#[test]
fn theorem_4_2_2_order_independence() {
    use viewcap_core::simplify::simplify_queries;
    let (mut rng, cat, rels) = small_world(111);
    let budget = SearchBudget::default();
    let a = random_query(&mut rng, &cat, &rels, 2);
    let b = random_query(&mut rng, &cat, &rels, 1);
    let s1 = simplify_queries(&[a.clone(), b.clone()], &cat, &budget).unwrap();
    let s2 = simplify_queries(&[b, a], &cat, &budget).unwrap();
    let qs1 = QuerySet::new(s1);
    let qs2 = QuerySet::new(s2);
    assert!(
        qs1.same_modulo_equiv(&qs2),
        "simplified sets differ across input orders"
    );
    assert_eq!(qs1.len(), qs2.len());
}

/// T16 — Theorem 4.2.3: no nonredundant equivalent is larger than the
/// simplified view (checked against the nonredundant reduction of the
/// original).
#[test]
fn theorem_4_2_3_simplified_is_maximal() {
    use viewcap_core::redundancy::nonredundant_indices;
    use viewcap_core::simplify::simplify_queries;
    let (mut rng, cat, rels) = small_world(121);
    let budget = SearchBudget::default();
    for _ in 0..3 {
        let originals = [
            random_query(&mut rng, &cat, &rels, 2),
            random_query(&mut rng, &cat, &rels, 1),
        ];
        let keep = nonredundant_indices(&originals, &cat, &budget).unwrap();
        let simplified = simplify_queries(&originals, &cat, &budget).unwrap();
        assert!(
            keep.len() <= simplified.len(),
            "a nonredundant equivalent exceeded the simplified size"
        );
    }
}

/// The uniqueness of surrogate queries (Theorem 1.4.2's second half):
/// two queries agreeing on every instantiation have equivalent templates.
#[test]
fn surrogate_uniqueness_via_template_equivalence() {
    let (mut rng, mut cat, rels) = small_world(131);
    let view = random_view(&mut rng, &mut cat, &rels, 2, 1);
    let names = view.schema();
    for _ in 0..5 {
        let vq = random_expr(&mut rng, &cat, &names, 2);
        let s1 = view.surrogate_query(&vq, &cat).unwrap();
        let s2 = Query::from_expr(view.surrogate_expr(&vq, &cat).unwrap(), &cat);
        assert!(
            s1.equiv(&s2),
            "the two surrogate realizations must coincide"
        );
    }
}

/// Homomorphism composition sanity backing Prop 2.4.1's use throughout:
/// homs compose, and enumeration finds the composite.
#[test]
fn homomorphisms_compose() {
    let (mut rng, cat, rels) = small_world(141);
    for _ in 0..10 {
        let a = reduce(&template_of_expr(
            &random_expr(&mut rng, &cat, &rels, 2),
            &cat,
        ));
        let b = reduce(&template_of_expr(
            &random_expr(&mut rng, &cat, &rels, 2),
            &cat,
        ));
        let c = reduce(&template_of_expr(
            &random_expr(&mut rng, &cat, &rels, 1),
            &cat,
        ));
        let (Some(_f), Some(_g)) = (find_homomorphism(&a, &b), find_homomorphism(&b, &c)) else {
            continue;
        };
        // Composite must exist from a to c.
        assert!(
            find_homomorphism(&a, &c).is_some(),
            "composition of homomorphisms missing"
        );
    }
}

/// Enumeration completeness smoke test: every hom found one at a time is in
/// the full enumeration.
#[test]
fn hom_enumeration_contains_the_witness() {
    let (mut rng, cat, rels) = small_world(151);
    for _ in 0..10 {
        let a = reduce(&template_of_expr(
            &random_expr(&mut rng, &cat, &rels, 2),
            &cat,
        ));
        let b = reduce(&template_of_expr(
            &random_expr(&mut rng, &cat, &rels, 2),
            &cat,
        ));
        if let Some(w) = find_homomorphism(&a, &b) {
            let mut seen = false;
            let _ = for_each_homomorphism(&a, &b, &mut |h| {
                if *h == w {
                    seen = true;
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
            assert!(seen);
        }
    }
}
