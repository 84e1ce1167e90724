//! Decidability procedures (Theorems 2.4.11 / 2.4.12) exercised end to end:
//! witnesses are validated semantically, negative answers are cross-checked
//! against the literal paper procedure, and budgets behave.

#[path = "support/paper_procedure.rs"]
mod paper_procedure;

use paper_procedure::{closure_contains_paper, PaperProcedureConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use viewcap::prelude::*;
use viewcap_expr::parse_expr;
use viewcap_gen::{random_instantiation, random_query, random_world, WorldSpec};
use viewcap_template::{eval_template, SearchLimits};

fn q(cat: &Catalog, src: &str) -> Query {
    Query::from_expr(parse_expr(src, cat).unwrap(), cat)
}

/// Capacity-membership witnesses must evaluate identically to the goal.
#[test]
fn closure_witnesses_validate_by_evaluation() {
    let mut rng = StdRng::seed_from_u64(4040);
    let (cat, rels) = random_world(
        &mut rng,
        &WorldSpec {
            attrs: 4,
            relations: 2,
            min_arity: 2,
            max_arity: 3,
        },
    );
    let budget = SearchBudget::default();
    let mut positives = 0;
    for _ in 0..12 {
        let base = [
            random_query(&mut rng, &cat, &rels, 1),
            random_query(&mut rng, &cat, &rels, 1),
        ];
        // A goal guaranteed in the closure: join then (maybe) project.
        let goal = {
            let j = base[0].join(&base[1]);
            match j.trs().proper_nonempty_subsets().into_iter().next_back() {
                Some(x) => j.project(&x, &cat).unwrap(),
                None => j,
            }
        };
        let proof = closure_contains(&base, &goal, &cat, &budget)
            .unwrap()
            .expect("goal built from the base set");
        positives += 1;
        // Independent semantic validation on random instantiations.
        for round in 0..3 {
            let alpha = random_instantiation(&mut rng, &cat, &rels, 3 + round, 3);
            assert_eq!(
                eval_template(&proof.substituted, &alpha, &cat),
                goal.eval(&alpha, &cat),
                "witness disagrees with goal on data"
            );
        }
    }
    assert!(positives >= 10);
}

/// Bounded search and the literal paper procedure agree on a grid of tiny
/// instances (positive and negative).
#[test]
fn bounded_search_agrees_with_paper_procedure() {
    let mut cat = Catalog::new();
    cat.relation("R", &["A", "B"]).unwrap();
    cat.relation("S", &["B", "C"]).unwrap();
    let budget = SearchBudget::default();
    let config = PaperProcedureConfig::default();

    let bases: Vec<(&str, Vec<&str>)> = vec![
        ("projections of R", vec!["pi{A}(R)", "pi{B}(R)"]),
        ("R and S", vec!["R", "S"]),
        ("one projection", vec!["pi{A,B}(R)"]),
    ];
    let goals = [
        "pi{A}(R)",
        "pi{B}(R)",
        "pi{A}(R) * pi{B}(R)",
        "R",
        "R * S",
        "pi{A,C}(R * S)",
    ];
    for (name, base_srcs) in &bases {
        let base: Vec<Query> = base_srcs.iter().map(|s| q(&cat, s)).collect();
        for goal_src in &goals {
            let goal = q(&cat, goal_src);
            if goal.template().len() > 2 {
                continue; // keep the literal procedure tiny
            }
            let fast = closure_contains(&base, &goal, &cat, &budget)
                .unwrap()
                .is_some();
            let slow = closure_contains_paper(&base, &goal, &cat, &config)
                .unwrap()
                .is_some();
            assert_eq!(
                fast, slow,
                "procedures disagree on `{goal_src}` from {name}"
            );
        }
    }
}

/// Equivalence decisions on views built to be equivalent by construction.
#[test]
fn equivalence_detects_constructed_equivalents() {
    let mut cat = Catalog::new();
    cat.relation("R", &["A", "B"]).unwrap();
    cat.relation("S", &["B", "C"]).unwrap();
    let ab = cat.scheme(&["A", "B"]).unwrap();
    let b = cat.scheme(&["B"]).unwrap();
    let abc = cat.scheme(&["A", "B", "C"]).unwrap();

    // 𝒱 exposes R and π_B(S); 𝒲 exposes R ⋈ π_B(S) and π_B(S).
    // Cap(𝒱) = Cap(𝒲): R = π_AB(R ⋈ π_B(S))? No — that join filters R by S!
    // Use instead 𝒲 = {R ⋈ π_B(R), π_B(S)} where π_B(R) makes the join a
    // no-op: R ⋈ π_B(R) ≡ R.
    let v1 = cat.fresh_relation("v1", ab.clone());
    let v2 = cat.fresh_relation("v2", b.clone());
    let w1 = cat.fresh_relation("w1", ab);
    let w2 = cat.fresh_relation("w2", b);
    let v = View::from_exprs(
        vec![
            (parse_expr("R", &cat).unwrap(), v1),
            (parse_expr("pi{B}(S)", &cat).unwrap(), v2),
        ],
        &cat,
    )
    .unwrap();
    let w = View::from_exprs(
        vec![
            (parse_expr("R * pi{B}(R)", &cat).unwrap(), w1),
            (parse_expr("pi{B}(S)", &cat).unwrap(), w2),
        ],
        &cat,
    )
    .unwrap();
    assert!(equivalent(&v, &w, &cat).unwrap().is_some());

    // And a genuinely stronger view is not equivalent.
    let u1 = cat.fresh_relation("u1", abc);
    let u = View::from_exprs(vec![(parse_expr("R * S", &cat).unwrap(), u1)], &cat).unwrap();
    assert!(equivalent(&v, &u, &cat).unwrap().is_none());
}

/// Dominance is directional: the identity view dominates any projection
/// view of the same relation, never conversely (unless trivial).
#[test]
fn dominance_is_directional() {
    let mut cat = Catalog::new();
    cat.relation("R", &["A", "B", "C"]).unwrap();
    let abc = cat.scheme(&["A", "B", "C"]).unwrap();
    let ab = cat.scheme(&["A", "B"]).unwrap();
    let full_n = cat.fresh_relation("full", abc);
    let part_n = cat.fresh_relation("part", ab);
    let full = View::from_exprs(vec![(parse_expr("R", &cat).unwrap(), full_n)], &cat).unwrap();
    let part = View::from_exprs(
        vec![(parse_expr("pi{A,B}(R)", &cat).unwrap(), part_n)],
        &cat,
    )
    .unwrap();
    let down = dominates(&full, &part, &cat).unwrap();
    assert!(down.is_some());
    // The witness projects the identity.
    assert_eq!(down.unwrap().proofs[0].skeleton.atom_count(), 1);
    assert!(dominates(&part, &full, &cat).unwrap().is_none());
}

/// Exhausting the budget must surface as an error, not as "no".
#[test]
fn budget_overflow_is_an_error() {
    let mut cat = Catalog::new();
    cat.relation("R", &["A", "B", "C"]).unwrap();
    cat.relation("S", &["A", "B", "C"]).unwrap();
    let base = [q(&cat, "R"), q(&cat, "S"), q(&cat, "pi{A,B}(R)")];
    let goal = q(&cat, "R * S * pi{A}(R * S) * pi{B,C}(S * pi{A,B}(R))");
    let budget = SearchBudget {
        limits: SearchLimits {
            max_level_parts: 20_000,
            max_visits: 2,
        },
    };
    assert!(closure_contains(&base, &goal, &cat, &budget).is_err());
}

/// The atom bound is exactly the reduced goal size: raising it must not
/// change any verdict (the syntactic subtemplate lemma). The raised side
/// looks for an equivalent member in the closure frontier one atom past the
/// bound.
#[test]
fn raising_the_atom_bound_changes_nothing() {
    let mut cat = Catalog::new();
    cat.relation("R", &["A", "B", "C"]).unwrap();
    let base = [q(&cat, "pi{A,B}(R)"), q(&cat, "pi{B,C}(R)")];
    let goals = [
        ("pi{A}(R)", true),
        ("pi{A,B}(R) * pi{B,C}(R)", true),
        ("R", false),
        ("pi{A,C}(pi{A,B}(R) * pi{B,C}(R))", true),
    ];
    for (src, expected) in goals {
        let goal = q(&cat, src);
        let default = closure_contains(&base, &goal, &cat, &SearchBudget::default())
            .unwrap()
            .is_some();
        let raised = viewcap_core::ClosureContext::new(&base, &cat, &SearchBudget::default())
            .members(goal.template().len() + 1)
            .unwrap()
            .iter()
            .any(|m| m.query.equiv(&goal));
        assert_eq!(default, expected, "default bound wrong on {src}");
        assert_eq!(raised, expected, "raised bound changed verdict on {src}");
    }
}

/// Conditional queries via disjoint-TRS joins are IN the closure — the
/// π_{TRS(T₂)}(T₁ ⋈ T₂) construction.
#[test]
fn conditional_queries_are_derivable() {
    let mut cat = Catalog::new();
    cat.relation("R", &["A", "B"]).unwrap();
    cat.relation("S", &["C", "D"]).unwrap();
    // Q(α) = S(α) if R(α) ≠ ∅ else ∅  ==  π_CD(R ⋈ S) (disjoint schemes).
    let base = [q(&cat, "R"), q(&cat, "S")];
    let goal = q(&cat, "pi{C,D}(R * S)");
    let proof = closure_contains(&base, &goal, &cat, &SearchBudget::default())
        .unwrap()
        .expect("conditional query is expressible");
    assert!(proof.skeleton.atom_count() >= 2);
}
