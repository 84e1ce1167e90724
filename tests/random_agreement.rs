//! Cross-validation of the three semantics in the workspace — expressions,
//! templates, and the relational engine — on randomized workloads.
//!
//! These are the "different implementations must agree" tests that anchor
//! everything else: Algorithm 2.1.1 (Proposition 2.1.2), normalization,
//! reduction, parsing, and the search engine are each checked against an
//! independent computation path.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::ControlFlow;
use viewcap::prelude::*;
use viewcap_expr::display::display_expr;
use viewcap_expr::{normalize, parse_expr};
use viewcap_gen::{
    chain_join_expr, chain_world, random_expr, random_instantiation, random_world, star_join_expr,
    star_world, WorldSpec,
};
use viewcap_template::{eval_template, reduce, template_of_expr, CandidateSpace, SearchLimits};

/// Proposition 2.1.2 at scale: `T_E(α) = E(α)` on random expressions and
/// random instantiations.
#[test]
fn algorithm_2_1_1_agrees_with_direct_evaluation() {
    let mut rng = StdRng::seed_from_u64(9001);
    let (cat, rels) = random_world(
        &mut rng,
        &WorldSpec {
            attrs: 5,
            relations: 3,
            min_arity: 1,
            max_arity: 3,
        },
    );
    for round in 0..40 {
        let atoms = 1 + round % 4;
        let e = random_expr(&mut rng, &cat, &rels, atoms);
        let t = template_of_expr(&e, &cat);
        let alpha = random_instantiation(&mut rng, &cat, &rels, 4, 3);
        assert_eq!(
            eval_template(&t, &alpha, &cat),
            e.eval(&alpha, &cat),
            "round {round}: template and expression disagree"
        );
    }
}

/// Reduction preserves the mapping.
#[test]
fn reduction_preserves_evaluation() {
    let mut rng = StdRng::seed_from_u64(9002);
    let (cat, rels) = random_world(&mut rng, &WorldSpec::default());
    for _ in 0..25 {
        let atoms = 1 + rng.gen_range(0..3);
        let e = random_expr(&mut rng, &cat, &rels, atoms);
        let t = template_of_expr(&e, &cat);
        let red = reduce(&t);
        assert!(red.len() <= t.len());
        let alpha = random_instantiation(&mut rng, &cat, &rels, 4, 3);
        assert_eq!(
            eval_template(&red, &alpha, &cat),
            eval_template(&t, &alpha, &cat)
        );
    }
}

/// Normalization preserves both the mapping and the induced template.
#[test]
fn normalization_preserves_semantics_and_templates() {
    let mut rng = StdRng::seed_from_u64(9003);
    let (cat, rels) = random_world(&mut rng, &WorldSpec::default());
    for _ in 0..25 {
        let atoms = 1 + rng.gen_range(0..4);
        let e = random_expr(&mut rng, &cat, &rels, atoms);
        let n = normalize(&e, &cat);
        assert_eq!(n.atom_count(), e.atom_count());
        let alpha = random_instantiation(&mut rng, &cat, &rels, 4, 3);
        assert_eq!(n.eval(&alpha, &cat), e.eval(&alpha, &cat));
        assert!(equivalent_templates(
            &template_of_expr(&n, &cat),
            &template_of_expr(&e, &cat)
        ));
    }
}

/// Print/parse round-trips preserve structure exactly.
#[test]
fn display_parse_round_trip() {
    let mut rng = StdRng::seed_from_u64(9004);
    let (cat, rels) = random_world(&mut rng, &WorldSpec::default());
    for _ in 0..40 {
        let atoms = 1 + rng.gen_range(0..4);
        let e = random_expr(&mut rng, &cat, &rels, atoms);
        let printed = display_expr(&e, &cat);
        let reparsed = parse_expr(&printed, &cat)
            .unwrap_or_else(|err| panic!("cannot reparse `{printed}`: {err}"));
        assert_eq!(reparsed, e, "round-trip changed `{printed}`");
    }
}

/// Every candidate the search engine emits really is the mapping of its
/// expression (enumeration soundness at integration scale).
#[test]
fn search_candidates_match_their_expressions() {
    let mut rng = StdRng::seed_from_u64(9005);
    let (cat, rels) = random_world(
        &mut rng,
        &WorldSpec {
            attrs: 4,
            relations: 2,
            min_arity: 2,
            max_arity: 3,
        },
    );
    let mut inspected = 0;
    let _ = CandidateSpace::new(&rels)
        .probe(&cat, 3, None, &SearchLimits::default(), &mut |expr, tpl| {
            inspected += 1;
            assert!(
                equivalent_templates(tpl, &template_of_expr(expr, &cat)),
                "candidate template out of sync with its expression"
            );
            if inspected >= 200 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .unwrap();
    assert!(
        inspected >= 20,
        "engine produced only {inspected} candidates"
    );
}

/// Chain-family agreement: evaluation through relations, expressions, and
/// templates on the canonical chain joins.
#[test]
fn chain_family_three_way_agreement() {
    let mut rng = StdRng::seed_from_u64(9006);
    for n in 1..=5 {
        let w = chain_world(n);
        let e = chain_join_expr(&w);
        let t = template_of_expr(&e, &w.catalog);
        let alpha = random_instantiation(&mut rng, &w.catalog, &w.rels, 6, 4);
        // Three-way: engine fold, expression eval, template eval.
        let mut it = w.rels.iter();
        let first = *it.next().unwrap();
        let engine = it.fold(alpha.get(first, &w.catalog), |acc, &r| {
            acc.join(&alpha.get(r, &w.catalog))
        });
        assert_eq!(e.eval(&alpha, &w.catalog), engine);
        assert_eq!(eval_template(&t, &alpha, &w.catalog), engine);
    }
}

/// Star-family agreement, plus projection down to the hub.
#[test]
fn star_family_agreement_with_projection() {
    let mut rng = StdRng::seed_from_u64(9007);
    for spokes in 1..=4 {
        let w = star_world(spokes);
        let join = star_join_expr(&w);
        let hub_scheme = w.catalog.scheme_of(w.rels[0]).clone();
        let e = Expr::project(join, hub_scheme.clone(), &w.catalog).unwrap();
        let t = template_of_expr(&e, &w.catalog);
        let alpha = random_instantiation(&mut rng, &w.catalog, &w.rels, 5, 3);
        let expected = e.eval(&alpha, &w.catalog);
        assert_eq!(eval_template(&t, &alpha, &w.catalog), expected);
        assert_eq!(*expected.scheme(), hub_scheme);
    }
}

/// Monotonicity of project–join mappings (the paper's queries are
/// monotone): growing α never loses output rows.
#[test]
fn mappings_are_monotone() {
    let mut rng = StdRng::seed_from_u64(9008);
    let (cat, rels) = random_world(&mut rng, &WorldSpec::default());
    for _ in 0..15 {
        let atoms = 1 + rng.gen_range(0..3);
        let e = random_expr(&mut rng, &cat, &rels, atoms);
        let small = random_instantiation(&mut rng, &cat, &rels, 3, 3);
        // Grow: add extra rows on top of `small`.
        let extra = random_instantiation(&mut rng, &cat, &rels, 2, 3);
        let mut big = small.clone();
        for &r in &rels {
            let rows: Vec<_> = extra.get(r, &cat).rows().cloned().collect();
            big.insert_rows(r, rows, &cat).unwrap();
        }
        let out_small = e.eval(&small, &cat);
        let out_big = e.eval(&big, &cat);
        assert!(out_small.is_subset_of(&out_big), "monotonicity violated");
    }
}
