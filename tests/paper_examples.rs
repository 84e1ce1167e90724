//! Machine-checked reproductions of the paper's figures and numbered
//! examples (Figures 1–2, Examples 3.1.1, 3.1.5 and 3.2.1–3.2.2).
//!
//! The source text is an OCR scan; where a figure's cell content is noisy
//! we reconstruct it from the surrounding definitions and *verify the
//! reconstruction* here (consistency with the definitions is the assertion,
//! not trust in the OCR).

use viewcap::prelude::*;
use viewcap_base::AttrId;
use viewcap_core::essential::{
    essential_connected_components, essential_tuples, ExhibitedConstruction,
};
use viewcap_core::redundancy::{is_nonredundant_view, is_redundant};
use viewcap_expr::parse_expr;
use viewcap_template::{
    apply_assignment, canon::is_isomorphic, connected_components, eval_template, find_homomorphism,
    for_each_homomorphism, reduce, substitute, template_of_expr, Homomorphism,
};

fn sym(a: AttrId, o: u32) -> Symbol {
    Symbol::new(a, o)
}

fn zero(a: AttrId) -> Symbol {
    Symbol::distinguished(a)
}

/// Figure 1 (and Example 2.2.2): the template substitution `T → β` over
/// `U = {A, B, C}`.
mod figure1 {
    use super::*;

    struct World {
        cat: Catalog,
        a: AttrId,
        b: AttrId,
        c: AttrId,
        eta: [RelId; 4],
    }

    fn world() -> World {
        let mut cat = Catalog::new();
        let eta1 = cat.relation("eta1", &["A", "B"]).unwrap();
        let eta2 = cat.relation("eta2", &["A", "B", "C"]).unwrap();
        let eta3 = cat.relation("eta3", &["A", "B", "C"]).unwrap();
        let eta4 = cat.relation("eta4", &["A", "B", "C"]).unwrap();
        let [a, b, c] = ["A", "B", "C"].map(|n| cat.lookup_attr(n).unwrap());
        World {
            cat,
            a,
            b,
            c,
            eta: [eta1, eta2, eta3, eta4],
        }
    }

    /// T = {τ₁=(0_A, b₁)@η₁, τ₂=(a₁, 0_B, c₂)@η₂, τ₃=(a₁, b₂, 0_C)@η₂}.
    fn template_t(w: &World) -> Template {
        Template::new(vec![
            TaggedTuple::new(w.eta[0], vec![zero(w.a), sym(w.b, 1)], &w.cat).unwrap(),
            TaggedTuple::new(w.eta[1], vec![sym(w.a, 1), zero(w.b), sym(w.c, 2)], &w.cat).unwrap(),
            TaggedTuple::new(w.eta[1], vec![sym(w.a, 1), sym(w.b, 2), zero(w.c)], &w.cat).unwrap(),
        ])
        .unwrap()
    }

    /// S₁ = {(a₃, 0_B, c₃)@η₃, (0_A, b₃, c₃)@η₃} with TRS {A,B}.
    fn template_s1(w: &World) -> Template {
        Template::new(vec![
            TaggedTuple::new(w.eta[2], vec![sym(w.a, 3), zero(w.b), sym(w.c, 3)], &w.cat).unwrap(),
            TaggedTuple::new(w.eta[2], vec![zero(w.a), sym(w.b, 3), sym(w.c, 3)], &w.cat).unwrap(),
        ])
        .unwrap()
    }

    /// S₂ = {(0_A, 0_B, c₄)@η₄, (a₄, b₄, 0_C)@η₄} with TRS {A,B,C}.
    fn template_s2(w: &World) -> Template {
        Template::new(vec![
            TaggedTuple::new(w.eta[3], vec![zero(w.a), zero(w.b), sym(w.c, 4)], &w.cat).unwrap(),
            TaggedTuple::new(w.eta[3], vec![sym(w.a, 4), sym(w.b, 4), zero(w.c)], &w.cat).unwrap(),
        ])
        .unwrap()
    }

    fn beta(w: &World) -> Assignment {
        let mut beta = Assignment::new();
        beta.set(w.eta[0], template_s1(w), &w.cat).unwrap();
        beta.set(w.eta[1], template_s2(w), &w.cat).unwrap();
        beta
    }

    #[test]
    fn t_realizes_the_papers_expression() {
        // In-text claim: T ≡ π_A(η₁) ⋈ π_BC(π_AB(η₂) ⋈ π_AC(η₂)).
        let w = world();
        let e = parse_expr(
            "pi{A}(eta1) * pi{B,C}(pi{A,B}(eta2) * pi{A,C}(eta2))",
            &w.cat,
        )
        .unwrap();
        assert!(equivalent_templates(
            &template_t(&w),
            &template_of_expr(&e, &w.cat)
        ));
    }

    #[test]
    fn substitution_produces_the_six_rows_of_figure_1() {
        let w = world();
        let t = template_t(&w);
        let sub = substitute(&t, &beta(&w), &w.cat).unwrap();
        assert_eq!(sub.result.len(), 6);

        let rows = sub.result.tuples();
        let t_syms: std::collections::BTreeSet<Symbol> = t.symbols().collect();
        let is_mark = |s: Symbol| !s.is_distinguished() && !t_syms.contains(&s);

        // Block ⟨τ₁, S₁⟩: (⟨τ₁,a₃⟩, b₁, ⟨τ₁,c₃⟩) and (0_A, ⟨τ₁,b₃⟩, ⟨τ₁,c₃⟩),
        // both tagged η₃ and sharing the marked c₃.
        let eta3_rows: Vec<_> = rows.iter().filter(|r| r.rel() == w.eta[2]).collect();
        assert_eq!(eta3_rows.len(), 2);
        let r_b1 = eta3_rows
            .iter()
            .find(|r| r.symbol_at(w.b) == Some(sym(w.b, 1)))
            .expect("row holding τ₁'s b₁");
        let r_0a = eta3_rows
            .iter()
            .find(|r| r.symbol_at(w.a) == Some(zero(w.a)))
            .expect("row holding 0_A");
        assert!(is_mark(r_b1.symbol_at(w.a).unwrap()));
        assert!(is_mark(r_0a.symbol_at(w.b).unwrap()));
        // The mark of c₃ is shared inside the block (same (τ₁, c₃) key).
        assert_eq!(r_b1.symbol_at(w.c), r_0a.symbol_at(w.c));
        assert!(is_mark(r_b1.symbol_at(w.c).unwrap()));

        // Blocks ⟨τ₂, S₂⟩ and ⟨τ₃, S₂⟩: four η₄ rows.
        let eta4_rows: Vec<_> = rows.iter().filter(|r| r.rel() == w.eta[3]).collect();
        assert_eq!(eta4_rows.len(), 4);
        // ⟨τ₂,σ₃⟩ = (a₁, 0_B, ⟨τ₂,c₄⟩) and ⟨τ₃,σ₃⟩ = (a₁, b₂, ⟨τ₃,c₄⟩):
        // both keep τ's shared a₁, with DIFFERENT marks for c₄.
        let r23 = eta4_rows
            .iter()
            .find(|r| r.symbol_at(w.b) == Some(zero(w.b)))
            .expect("⟨τ₂,σ₃⟩");
        let r33 = eta4_rows
            .iter()
            .find(|r| r.symbol_at(w.b) == Some(sym(w.b, 2)))
            .expect("⟨τ₃,σ₃⟩");
        assert_eq!(r23.symbol_at(w.a), Some(sym(w.a, 1)));
        assert_eq!(r33.symbol_at(w.a), Some(sym(w.a, 1)));
        assert!(is_mark(r23.symbol_at(w.c).unwrap()));
        assert!(is_mark(r33.symbol_at(w.c).unwrap()));
        assert_ne!(
            r23.symbol_at(w.c),
            r33.symbol_at(w.c),
            "marks are peculiar to their block"
        );
        // ⟨τ₂,σ₄⟩ = (⟨τ₂,a₄⟩, ⟨τ₂,b₄⟩, c₂) and ⟨τ₃,σ₄⟩ = (…, …, 0_C).
        let r24 = eta4_rows
            .iter()
            .find(|r| r.symbol_at(w.c) == Some(sym(w.c, 2)))
            .expect("⟨τ₂,σ₄⟩ keeps τ₂'s c₂");
        let r34 = eta4_rows
            .iter()
            .find(|r| r.symbol_at(w.c) == Some(zero(w.c)))
            .expect("⟨τ₃,σ₄⟩ keeps 0_C");
        for r in [r24, r34] {
            assert!(is_mark(r.symbol_at(w.a).unwrap()));
            assert!(is_mark(r.symbol_at(w.b).unwrap()));
        }

        // Block bookkeeping: one block per source tuple, two members each.
        assert_eq!(sub.blocks.len(), 3);
        for i in 0..3 {
            assert_eq!(sub.block_result_indices(i).len(), 2);
        }
    }

    #[test]
    fn substituted_template_is_isomorphic_to_a_hand_built_figure_1() {
        // Independently transcribe the six rows (fresh marks m*) and check
        // isomorphism — the figure is determined up to the mark names.
        let w = world();
        let sub = substitute(&template_t(&w), &beta(&w), &w.cat).unwrap();
        let m = |a: AttrId, o: u32| sym(a, o + 40); // marks, clear of T/S symbols
        let expected = Template::new(vec![
            // ⟨τ₁,σ₁⟩, ⟨τ₁,σ₂⟩
            TaggedTuple::new(w.eta[2], vec![m(w.a, 1), sym(w.b, 1), m(w.c, 1)], &w.cat).unwrap(),
            TaggedTuple::new(w.eta[2], vec![zero(w.a), m(w.b, 1), m(w.c, 1)], &w.cat).unwrap(),
            // ⟨τ₂,σ₃⟩, ⟨τ₂,σ₄⟩
            TaggedTuple::new(w.eta[3], vec![sym(w.a, 1), zero(w.b), m(w.c, 2)], &w.cat).unwrap(),
            TaggedTuple::new(w.eta[3], vec![m(w.a, 2), m(w.b, 2), sym(w.c, 2)], &w.cat).unwrap(),
            // ⟨τ₃,σ₃⟩, ⟨τ₃,σ₄⟩
            TaggedTuple::new(w.eta[3], vec![sym(w.a, 1), sym(w.b, 2), m(w.c, 3)], &w.cat).unwrap(),
            TaggedTuple::new(w.eta[3], vec![m(w.a, 3), m(w.b, 3), zero(w.c)], &w.cat).unwrap(),
        ])
        .unwrap();
        assert!(is_isomorphic(&sub.result, &expected));
    }

    #[test]
    fn t_arrow_beta_reduces_to_three_simple_projections() {
        // In-text claim (Corollary 2.2.4 discussion): T → β is an m.r.e.
        // template; it can be shown that T → β ≡ π_A(η₃) ⋈ π_B(η₄) ⋈ π_C(η₄).
        // (The OCR garbles the third factor; equivalence fixes it as π_C(η₄):
        // 0_C survives only in block ⟨τ₃, S₂⟩, which is tagged η₄.)
        let w = world();
        let sub = substitute(&template_t(&w), &beta(&w), &w.cat).unwrap();
        let e = parse_expr("pi{A}(eta3) * pi{B}(eta4) * pi{C}(eta4)", &w.cat).unwrap();
        assert!(equivalent_templates(
            &sub.result,
            &template_of_expr(&e, &w.cat)
        ));
        assert_eq!(reduce(&sub.result).len(), 3);
    }

    #[test]
    fn theorem_2_2_3_holds_on_the_figure() {
        // [T→β](α) = T(β→α) on a concrete α.
        let w = world();
        let t = template_t(&w);
        let beta = beta(&w);
        let sub = substitute(&t, &beta, &w.cat).unwrap();
        let mut alpha = Instantiation::new();
        alpha
            .insert_rows(
                w.eta[2],
                [
                    vec![sym(w.a, 10), sym(w.b, 10), sym(w.c, 10)],
                    vec![sym(w.a, 11), sym(w.b, 10), sym(w.c, 10)],
                ],
                &w.cat,
            )
            .unwrap();
        alpha
            .insert_rows(
                w.eta[3],
                [
                    vec![sym(w.a, 10), sym(w.b, 11), sym(w.c, 12)],
                    vec![sym(w.a, 12), sym(w.b, 12), sym(w.c, 13)],
                ],
                &w.cat,
            )
            .unwrap();
        let lhs = eval_template(&sub.result, &alpha, &w.cat);
        let rhs = eval_template(&t, &apply_assignment(&beta, &alpha, &w.cat), &w.cat);
        assert_eq!(lhs, rhs);
    }
}

/// Figure 2 (Examples 3.2.1–3.2.2): exhibited constructions, T-blocks,
/// immediate descendants, lineage, and the essential tuple τ₃.
mod figure2 {
    use super::*;
    use std::ops::ControlFlow;

    struct World {
        cat: Catalog,
        a: AttrId,
        b: AttrId,
        c: AttrId,
        eta1: RelId,
        eta2: RelId,
    }

    fn world() -> World {
        let mut cat = Catalog::new();
        let eta1 = cat.relation("eta1", &["A", "B"]).unwrap();
        let eta2 = cat.relation("eta2", &["A", "B", "C"]).unwrap();
        let [a, b, c] = ["A", "B", "C"].map(|n| cat.lookup_attr(n).unwrap());
        World {
            cat,
            a,
            b,
            c,
            eta1,
            eta2,
        }
    }

    /// S = {(0_A, 0_B)@η₁} — Figure 2a.
    fn template_s(w: &World) -> Template {
        Template::atom(w.eta1, &w.cat)
    }

    /// T = {τ₁=(0_A, b₁)@η₁, τ₂=(a₁, b₁, 0_C)@η₂, τ₃=(a₂, 0_B, 0_C)@η₂}
    /// — Figure 2b.
    fn template_t(w: &World) -> Template {
        Template::new(vec![
            TaggedTuple::new(w.eta1, vec![zero(w.a), sym(w.b, 1)], &w.cat).unwrap(),
            TaggedTuple::new(w.eta2, vec![sym(w.a, 1), sym(w.b, 1), zero(w.c)], &w.cat).unwrap(),
            TaggedTuple::new(w.eta2, vec![sym(w.a, 2), zero(w.b), zero(w.c)], &w.cat).unwrap(),
        ])
        .unwrap()
    }

    fn tuple_indices(w: &World, t: &Template) -> (usize, usize, usize) {
        let t1 = TaggedTuple::new(w.eta1, vec![zero(w.a), sym(w.b, 1)], &w.cat).unwrap();
        let t2 =
            TaggedTuple::new(w.eta2, vec![sym(w.a, 1), sym(w.b, 1), zero(w.c)], &w.cat).unwrap();
        let t3 = TaggedTuple::new(w.eta2, vec![sym(w.a, 2), zero(w.b), zero(w.c)], &w.cat).unwrap();
        (
            t.index_of(&t1).unwrap(),
            t.index_of(&t2).unwrap(),
            t.index_of(&t3).unwrap(),
        )
    }

    #[test]
    fn t_is_reduced_and_has_the_papers_components() {
        let w = world();
        let t = template_t(&w);
        assert_eq!(reduce(&t).len(), 3);
        let (i1, i2, i3) = tuple_indices(&w, &t);
        // Components: {τ₁, τ₂} linked by b₁, and {τ₃}.
        let comps = connected_components(&t);
        assert_eq!(comps.len(), 2);
        assert!(comps
            .iter()
            .any(|g| g.len() == 2 && g.contains(&i1) && g.contains(&i2)));
        assert!(comps.iter().any(|g| g == &vec![i3]));
    }

    /// Build the paper's exhibited construction (E → β, f) by hand:
    /// E = π_AC(λ₁ ⋈ π_BC(λ₂)) ⋈ π_BC(λ₃) with β(λ₁)=S, β(λ₂)=β(λ₃)=T.
    fn papers_construction(w: &World) -> (ExhibitedConstruction, [usize; 3]) {
        let s_query = viewcap_core::Query::from_template(&template_s(w));
        let t_query = viewcap_core::Query::from_template(&template_t(w));
        let queries = [s_query, t_query];

        let mut scratch = w.cat.clone();
        let ab = scratch.scheme(&["A", "B"]).unwrap();
        let abc = scratch.scheme(&["A", "B", "C"]).unwrap();
        let l1 = scratch.fresh_relation("lam1", ab);
        let l2 = scratch.fresh_relation("lam2", abc.clone());
        let l3 = scratch.fresh_relation("lam3", abc);

        let skeleton = parse_expr(
            &format!(
                "pi{{A,C}}({} * pi{{B,C}}({})) * pi{{B,C}}({})",
                scratch.rel_name(l1),
                scratch.rel_name(l2),
                scratch.rel_name(l3)
            ),
            &scratch,
        )
        .unwrap();
        let skeleton_template = template_of_expr(&skeleton, &scratch);
        assert_eq!(skeleton_template.len(), 3, "E has rows ε₁, ε₂, ε₃");

        let mut beta = Assignment::new();
        beta.set(l1, queries[0].template().clone(), &scratch)
            .unwrap();
        beta.set(l2, queries[1].template().clone(), &scratch)
            .unwrap();
        beta.set(l3, queries[1].template().clone(), &scratch)
            .unwrap();
        let substitution = substitute(&skeleton_template, &beta, &scratch).unwrap();

        // E → β must be a construction of T: equivalent templates.
        assert!(equivalent_templates(
            &substitution.result,
            queries[1].template()
        ));

        // Pick the homomorphism f of the example: τ₁ ↦ block ⟨ε₁, S⟩,
        // τ₂ ↦ the τ₃-copy inside ⟨ε₂, T⟩, τ₃ ↦ the τ₃-copy inside ⟨ε₃, T⟩.
        let goal = queries[1].template().clone();
        let (i1, i2, i3) = tuple_indices(w, &goal);

        // Identify which skeleton tuple is ε₁ (tag λ₁) etc.
        let eps_of = |lam: RelId| {
            skeleton_template
                .tuples()
                .iter()
                .position(|t| t.rel() == lam)
                .unwrap()
        };
        let (e1, e2, e3) = (eps_of(l1), eps_of(l2), eps_of(l3));

        // Target tuple indices: block member of source ε with inner index j.
        let member = |eps: usize, inner: usize| -> usize {
            substitution.blocks[eps]
                .iter()
                .find(|&&(j, _)| j == inner)
                .map(|&(_, r)| r)
                .unwrap()
        };
        let want = [
            (i1, member(e1, 0)),  // f(τ₁) ∈ S-block of ε₁ (S has one tuple)
            (i2, member(e2, i3)), // f(τ₂) = ⟨ε₂, τ₃⟩
            (i3, member(e3, i3)), // f(τ₃) = ⟨ε₃, τ₃⟩
        ];
        let mut found: Option<Homomorphism> = None;
        let _ = for_each_homomorphism(&goal, &substitution.result, &mut |h| {
            if want.iter().all(|&(src, dst)| h.tuple_map[src] == dst) {
                found = Some(h.clone());
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        let hom = found.expect("the paper's homomorphism exists");

        let ec = ExhibitedConstruction {
            goal_idx: 1,
            skeleton,
            catalog: scratch,
            lambda_queries: vec![(l1, 0), (l2, 1), (l3, 1)],
            skeleton_template,
            substitution,
            hom,
        };
        (ec, [i1, i2, i3])
    }

    #[test]
    fn descendants_and_lineage_match_example_3_2_1() {
        let w = world();
        let (ec, [i1, i2, i3]) = papers_construction(&w);
        // τ₁ has no immediate descendant (its child is in the S-block).
        assert_eq!(ec.immediate_descendant(i1, 1), None);
        assert!(!ec.child(i1, 1).in_t_block);
        // The immediate descendant of τ₂ is τ₃; of τ₃ is τ₃.
        assert_eq!(ec.immediate_descendant(i2, 1), Some(i3));
        assert_eq!(ec.immediate_descendant(i3, 1), Some(i3));
        // Lineages: τ₁ null; τ₂ and τ₃ have lineage τ₃, τ₃, … (cyclic).
        let l1 = ec.lineage(i1, 1);
        assert!(l1.seq.is_empty() && !l1.cyclic);
        let l2 = ec.lineage(i2, 1);
        assert_eq!(l2.seq, vec![i3]);
        assert!(l2.cyclic);
        // Self-descendence: only τ₃.
        assert!(!ec.is_self_descendent(i1, 1));
        assert!(!ec.is_self_descendent(i2, 1));
        assert!(ec.is_self_descendent(i3, 1));
    }

    #[test]
    fn example_3_2_2_tau3_is_essential() {
        let w = world();
        let queries = [
            viewcap_core::Query::from_template(&template_s(&w)),
            viewcap_core::Query::from_template(&template_t(&w)),
        ];
        let (i1, i2, i3) = tuple_indices(&w, queries[1].template());
        let ess = essential_tuples(&queries, 1, &w.cat, &SearchBudget::default()).unwrap();
        assert!(ess[i3], "τ₃ is essential (Example 3.2.2)");
        assert!(
            !ess[i1],
            "τ₁ is not self-descendent in Figure 2's construction"
        );
        assert!(
            !ess[i2],
            "τ₂ is not self-descendent in Figure 2's construction"
        );
        // {τ₃} is an essential connected component; by Theorem 3.3.7 the
        // essential tuples are exactly the union of essential components.
        let comps =
            essential_connected_components(&queries, 1, &w.cat, &SearchBudget::default()).unwrap();
        assert_eq!(comps, vec![vec![i3]]);
    }

    #[test]
    fn figure2_construction_is_equivalent_to_t() {
        // Also verify semantically on data: E→β and T agree on a sample α.
        let w = world();
        let (ec, _) = papers_construction(&w);
        let t = template_t(&w);
        let mut alpha = Instantiation::new();
        alpha
            .insert_rows(
                w.eta1,
                [
                    vec![sym(w.a, 7), sym(w.b, 7)],
                    vec![sym(w.a, 8), sym(w.b, 8)],
                ],
                &w.cat,
            )
            .unwrap();
        alpha
            .insert_rows(
                w.eta2,
                [
                    vec![sym(w.a, 7), sym(w.b, 7), sym(w.c, 9)],
                    vec![sym(w.a, 9), sym(w.b, 7), sym(w.c, 10)],
                ],
                &w.cat,
            )
            .unwrap();
        assert_eq!(
            eval_template(&ec.substitution.result, &alpha, &ec.catalog),
            eval_template(&t, &alpha, &w.cat)
        );
    }
}

/// Example 3.1.1: redundancy of S = S₁ ⋈ S₂.
#[test]
fn example_3_1_1_redundancy() {
    let mut cat = Catalog::new();
    cat.relation("R", &["A", "B", "C"]).unwrap();
    let s = Query::from_expr(parse_expr("pi{A,B}(R) * pi{B,C}(R)", &cat).unwrap(), &cat);
    let s1 = Query::from_expr(parse_expr("pi{A,B}(R)", &cat).unwrap(), &cat);
    let s2 = Query::from_expr(parse_expr("pi{B,C}(R)", &cat).unwrap(), &cat);
    let set = [s, s1.clone(), s2.clone()];
    let proof = is_redundant(&set, 0, &cat)
        .unwrap()
        .expect("S is redundant");
    // The witnessing construction joins the two projections.
    assert_eq!(proof.skeleton.atom_count(), 2);
    assert!(viewcap_core::redundancy::is_nonredundant_set(
        &[s1, s2],
        &cat,
        &SearchBudget::default()
    )
    .unwrap());
}

/// Example 3.1.5: equivalent nonredundant views of different sizes.
#[test]
fn example_3_1_5_sizes_differ() {
    let mut cat = Catalog::new();
    cat.relation("R", &["A", "B", "C"]).unwrap();
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

    assert!(equivalent(&v, &w, &cat).unwrap().is_some());
    assert!(is_nonredundant_view(&v, &cat, &SearchBudget::default()).unwrap());
    assert!(is_nonredundant_view(&w, &cat, &SearchBudget::default()).unwrap());
    assert_ne!(v.len(), w.len());
    // Theorem 3.1.7: both sizes respect the bound computed from either view.
    use viewcap_core::redundancy::nonredundant_size_bound;
    assert!(w.len() <= nonredundant_size_bound(&v).max(nonredundant_size_bound(&w)));
    // Section 4 adds: 𝒲 is simplified, 𝒱 is not.
    use viewcap_core::simplify::is_simplified_set;
    assert!(is_simplified_set(w.query_set().queries(), &cat, &SearchBudget::default()).unwrap());
    assert!(!is_simplified_set(v.query_set().queries(), &cat, &SearchBudget::default()).unwrap());
}

/// Prop 2.4.1 / Cor 2.4.2 sanity on the paper's own objects: containment of
/// the Figure 2 construction matches the frozen-instantiation test.
#[test]
fn homomorphism_vs_frozen_instantiation_on_paper_objects() {
    let mut cat = Catalog::new();
    let eta1 = cat.relation("eta1", &["A", "B"]).unwrap();
    let eta2 = cat.relation("eta2", &["A", "B", "C"]).unwrap();
    let [a, b, c] = ["A", "B", "C"].map(|n| cat.lookup_attr(n).unwrap());
    let t = Template::new(vec![
        TaggedTuple::new(eta1, vec![zero(a), sym(b, 1)], &cat).unwrap(),
        TaggedTuple::new(eta2, vec![sym(a, 1), sym(b, 1), zero(c)], &cat).unwrap(),
        TaggedTuple::new(eta2, vec![sym(a, 2), zero(b), zero(c)], &cat).unwrap(),
    ])
    .unwrap();

    // Freeze T into a database: each tagged tuple becomes a data row.
    let mut alpha = Instantiation::new();
    for tup in t.tuples() {
        alpha
            .insert_rows(tup.rel(), [tup.row().to_vec()], &cat)
            .unwrap();
    }
    // The distinguished row of TRS(T) must be derivable from the frozen
    // database — the identity embedding guarantees it.
    let out = eval_template(&t, &alpha, &cat);
    let id_row: Vec<Symbol> = t.trs().iter().map(Symbol::distinguished).collect();
    assert!(out.contains(&id_row));
    // And a template whose results always contain T's must admit a hom to T.
    assert!(find_homomorphism(&t, &t).is_some());
}
