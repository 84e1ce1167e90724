//! The literal paper procedure for closure membership
//! (Lemmas 2.4.9 / 2.4.10), on tiny instances.
//!
//! The paper decides `Q ∈ 𝒯̄` by enumerating `J_k`: every m.r. *expression*
//! template over the scratch names whose symbols come from fixed pools
//! `V_A` of `k + 1` symbols per attribute (`k = #(Q)`), and testing each
//! substitution against `Q`. The set `J_k` is astronomically large, so this
//! module exists purely as a **cross-check** for the bounded search of
//! [`viewcap_core::capacity`]: it refuses instances whose candidate count
//! exceeds a hard cap instead of running forever. It is test support, not
//! library code: include it with a `#[path]` module.
//!
//! Expression-template filtering uses the constructive recognition of
//! `viewcap-template` (our replacement for Proposition 2.4.6).

use viewcap_base::{Catalog, RelId, Symbol};
use viewcap_core::error::CoreError;
use viewcap_core::{Query, SearchBudget};
use viewcap_template::{
    equivalent_templates, recognize::is_expression_template, substitute, Assignment, TaggedTuple,
    Template,
};

/// Configuration for the literal procedure.
#[derive(Clone, Debug)]
pub struct PaperProcedureConfig {
    /// Refuse instances with more candidate subsets than this.
    pub candidate_cap: u128,
    /// Budget for the expression-template recognition subroutine.
    pub recognition_budget: SearchBudget,
}

impl Default for PaperProcedureConfig {
    fn default() -> Self {
        PaperProcedureConfig {
            candidate_cap: 500_000,
            recognition_budget: SearchBudget::default(),
        }
    }
}

/// Decide `goal ∈ closure(queries)` by the paper's `J_k` enumeration.
///
/// Returns the witnessing skeleton template over the scratch `λ` names, or
/// `None`. Errors when the instance exceeds the cap or recognition
/// overflows.
pub fn closure_contains_paper(
    queries: &[Query],
    goal: &Query,
    catalog: &Catalog,
    config: &PaperProcedureConfig,
) -> Result<Option<Template>, CoreError> {
    if queries.is_empty() {
        return Ok(None);
    }
    let k = goal.template().len();

    // Scratch λ names, as in Lemma 2.4.10's 𝐹-typed skeletons.
    let mut scratch = catalog.clone();
    let mut beta = Assignment::new();
    let mut lambdas: Vec<RelId> = Vec::with_capacity(queries.len());
    for q in queries {
        let lam = scratch.fresh_relation("lam", q.trs());
        beta.set(lam, q.template().clone(), &scratch)
            .expect("λ type minted to match");
        lambdas.push(lam);
    }

    // P: all tagged tuples over the λ names with symbols from the pools
    // V_A = {0_A, a_1, …, a_k}.
    let mut pool: Vec<TaggedTuple> = Vec::new();
    for &lam in &lambdas {
        let scheme = scratch.scheme_of(lam).clone();
        let width = scheme.len();
        let mut counters = vec![0u32; width];
        loop {
            let row: Vec<Symbol> = scheme
                .iter()
                .zip(&counters)
                .map(|(a, &c)| Symbol::new(a, c))
                .collect();
            pool.push(TaggedTuple::new(lam, row, &scratch).expect("pool row well-typed"));
            // Odometer over (k+1)-ary digits.
            let mut pos = 0;
            loop {
                if pos == width {
                    break;
                }
                counters[pos] += 1;
                if counters[pos] <= k as u32 {
                    break;
                }
                counters[pos] = 0;
                pos += 1;
            }
            if pos == width {
                break;
            }
        }
    }

    // Candidate count: Σ_{s=1..k} C(|P|, s).
    let n = pool.len() as u128;
    let mut total: u128 = 0;
    let mut binom: u128 = 1;
    for s in 1..=(k as u128) {
        binom = binom.saturating_mul(n + 1 - s) / s;
        total = total.saturating_add(binom);
    }
    if total > config.candidate_cap {
        return Err(CoreError::PaperProcedureTooLarge {
            estimated: total,
            cap: config.candidate_cap,
        });
    }

    // Enumerate subsets of size 1..=k.
    let mut chosen: Vec<usize> = Vec::with_capacity(k);
    let mut found: Option<Template> = None;
    enumerate_subsets(&pool, k, 0, &mut chosen, &mut |subset| {
        let Ok(skel) = Template::new(subset.to_vec()) else {
            return false; // violates condition (iii)
        };
        // Lemma 2.4.9: only expression templates participate.
        match is_expression_template(&skel, &scratch, &config.recognition_budget.limits) {
            Ok(true) => {}
            Ok(false) => return false,
            Err(_) => return false, // conservative: skip unrecognizable
        }
        let Ok(sub) = substitute(&skel, &beta, &scratch) else {
            return false;
        };
        if equivalent_templates(&sub.result, goal.template()) {
            found = Some(skel);
            true
        } else {
            false
        }
    });
    Ok(found)
}

/// Enumerate nonempty subsets of `pool` of size ≤ `k`; the callback returns
/// `true` to stop.
fn enumerate_subsets(
    pool: &[TaggedTuple],
    k: usize,
    start: usize,
    chosen: &mut Vec<usize>,
    f: &mut impl FnMut(&[TaggedTuple]) -> bool,
) -> bool {
    if !chosen.is_empty() {
        let subset: Vec<TaggedTuple> = chosen.iter().map(|&i| pool[i].clone()).collect();
        if f(&subset) {
            return true;
        }
    }
    if chosen.len() == k {
        return false;
    }
    for i in start..pool.len() {
        chosen.push(i);
        if enumerate_subsets(pool, k, i + 1, chosen, f) {
            return true;
        }
        chosen.pop();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use viewcap_core::closure_contains;
    use viewcap_expr::parse_expr;

    fn setup() -> Catalog {
        let mut cat = Catalog::new();
        cat.relation("R", &["A", "B"]).unwrap();
        cat
    }

    fn q(cat: &Catalog, src: &str) -> Query {
        Query::from_expr(parse_expr(src, cat).unwrap(), cat)
    }

    #[test]
    fn agrees_with_bounded_search_on_tiny_instances() {
        let cat = setup();
        let set = [q(&cat, "pi{A}(R)"), q(&cat, "pi{B}(R)")];
        let cases = [
            ("pi{A}(R)", true),
            ("pi{B}(R)", true),
            ("pi{A}(R) * pi{B}(R)", true), // cross product
            ("R", false),                  // lost correlation
        ];
        // The cross-check drives the bounded search the way production
        // callers do: one shared ClosureContext probed per goal.
        let mut context = viewcap_core::ClosureContext::new(&set, &cat, &SearchBudget::default());
        for (src, expected) in cases {
            let goal = q(&cat, src);
            let fast = context.contains(&goal).unwrap().is_some();
            let fresh = closure_contains(&set, &goal, &cat, &SearchBudget::default())
                .unwrap()
                .is_some();
            let slow = closure_contains_paper(&set, &goal, &cat, &PaperProcedureConfig::default())
                .unwrap()
                .is_some();
            assert_eq!(fast, expected, "bounded search wrong on {src}");
            assert_eq!(
                fresh, fast,
                "shared context disagrees with fresh search on {src}"
            );
            assert_eq!(slow, expected, "paper procedure wrong on {src}");
        }
        assert_eq!(context.probes(), cases.len() as u64);
    }

    #[test]
    fn refuses_oversized_instances() {
        let mut cat = Catalog::new();
        cat.relation("Wide", &["A", "B", "C", "D", "E"]).unwrap();
        let goal = q(&cat, "Wide * Wide");
        let set = [q(&cat, "Wide"), q(&cat, "pi{A,B,C,D}(Wide)")];
        let config = PaperProcedureConfig {
            candidate_cap: 10,
            ..Default::default()
        };
        assert!(matches!(
            closure_contains_paper(&set, &goal, &cat, &config),
            Err(CoreError::PaperProcedureTooLarge { .. })
        ));
    }
}
