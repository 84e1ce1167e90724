//! Query capacity and the membership decision procedure.
//!
//! **Definition (1.4).** `Cap(𝒱)` is the set of database queries `Ē` that
//! act as surrogates for view queries. **Theorem 1.5.2** characterizes it as
//! the *closure* of the defining query set under projection and join, and
//! **Theorem 2.3.2** characterizes the closure constructively: `Q ∈ 𝒯̄` iff
//! some template substitution `T → β` with an m.r.e. template `T` and
//! `β(RN(T)) ⊆ 𝒯` realizes `Q` (a *construction*).
//!
//! **Theorem 2.4.11** makes membership decidable. Our procedure (justified
//! by the syntactic subtemplate lemma stated in `viewcap_template::search`,
//! replacing the paper's `J_k` enumeration):
//!
//! 1. mint a scratch relation name `λᵢ` of type `TRS(Tᵢ)` per query in `𝒯`;
//! 2. enumerate normalized expressions over the `λᵢ` with at most
//!    `#(reduce(Q))` atom occurrences (deduplicated semantically);
//! 3. for each candidate skeleton, substitute `β(λᵢ) = Tᵢ` and test
//!    equivalence with `Q` (Corollary 2.4.2).
//!
//! A positive answer returns a [`ClosureProof`] — the construction itself —
//! which callers can independently validate by evaluation.

use crate::query::Query;
use std::collections::{BTreeSet, HashMap};
use std::ops::ControlFlow;
use viewcap_base::{Catalog, RelId};
use viewcap_expr::Expr;
use viewcap_obs as obs;
use viewcap_template::{
    equivalent_templates, load_space, save_space, space_digest, substitute, Assignment,
    CandidateSpace, SearchLimits, SearchOverflow, SearchStats, Substitution, Template,
};

use crate::view::View;

/// Space hydrate/persist telemetry. Counters are workload-deterministic
/// (the jobs-determinism suite pins them); only the `*_ns` histogram
/// carries timing.
static SPACE_LOAD_HIST: obs::Hist = obs::Hist::new("space.load_ns");
static SPACE_HYDRATES: obs::Counter = obs::Counter::new("space.hydrates");
static SPACE_LEVELS_REUSED: obs::Counter = obs::Counter::new("space.levels_reused");
static SPACE_HYDRATE_REJECTS: obs::Counter = obs::Counter::new("space.hydrate_rejects");

/// The work a bounded search may do before it answers "unknown".
///
/// The atom bound is not part of the budget: a membership probe always
/// stops at `#(reduce(Q))` atoms, the completeness bound of the syntactic
/// subtemplate lemma.
#[derive(Clone, Debug, Default)]
pub struct SearchBudget {
    /// Limits handed to the underlying enumeration.
    pub limits: SearchLimits,
}

/// A construction witnessing `Q ∈ closure(𝒯)` (Theorem 2.3.2).
///
/// Deliberately catalog-free: proofs are long-lived (the `viewcap-engine`
/// verdict cache memoizes them, and cache persistence writes them to disk),
/// so they must not pin the scratch-catalog snapshot they were computed in.
/// Display goes through [`ClosureProof::skeleton_with_names`], which maps
/// the scratch `λᵢ` onto caller-chosen names structurally; the `substituted`
/// template mentions only underlying-schema names and evaluates against the
/// caller's own catalog.
#[derive(Clone, Debug)]
pub struct ClosureProof {
    /// The skeleton expression over the scratch names `λᵢ`.
    pub skeleton: Expr,
    /// For each `λ` used anywhere in the search: `(λ, index into 𝒯)`.
    pub lambda_queries: Vec<(RelId, usize)>,
    /// The skeleton's (reduced) template over the `λᵢ`.
    pub skeleton_template: Template,
    /// The substituted template over the underlying schema, equivalent to
    /// the goal.
    pub substituted: Template,
}

impl ClosureProof {
    /// The query-set index assigned to a given `λ`.
    pub fn query_index_of(&self, lambda: RelId) -> Option<usize> {
        self.lambda_queries
            .iter()
            .find(|(l, _)| *l == lambda)
            .map(|(_, i)| *i)
    }

    /// The skeleton with each scratch `λ` replaced by a caller-chosen name
    /// for the corresponding query (e.g. the view-schema names) — useful
    /// for displaying witnesses in the caller's vocabulary.
    ///
    /// `names[i]` must have type `TRS(queries[i])`; view-schema names always
    /// qualify. The replacement is purely structural (no catalog lookups),
    /// so it also works for names minted *after* this proof's catalog
    /// snapshot — e.g. when a memoized verdict is served to a view that was
    /// defined later (the `viewcap-engine` cache-hit path).
    pub fn skeleton_with_names(&self, names: &[RelId]) -> Expr {
        self.skeleton
            .rename_rels(&|lam| self.query_index_of(lam).and_then(|i| names.get(i)).copied())
    }
}

/// The per-query-set state of the membership procedure, built once and
/// probed per goal.
///
/// Everything expensive about `closure_contains` — the scratch catalog with
/// its minted `λᵢ`, the assignment `β(λᵢ) = Tᵢ`, the RN maps, and above all
/// the bounded enumeration of normalized λ-skeletons — depends only on the
/// query set, never on the goal. A `ClosureContext` owns that state
/// (including a lazily extended [`CandidateSpace`]); [`ClosureContext::contains`]
/// is then a cheap probe: it filters the memoized candidate roots by the
/// goal's target scheme and RN set and tests substitution equivalence.
///
/// **Soundness of sharing.** The candidate space is a function of
/// `(catalog, λ-atoms, atom bound)` alone; a goal only *selects* from it
/// (by TRS, RN, and bound) and never contributes to it, so two goals probed
/// against one context see exactly the candidates each would see from a
/// fresh enumeration, in the same order. Per-probe [`SearchLimits`]
/// semantics are preserved by the space (budgets are counted per probe and
/// overflow still means "unknown"); the differential conformance suite
/// checks verdict *and* witness agreement against fresh per-goal runs.
pub struct ClosureContext {
    /// Scratch catalog: the caller's catalog plus the minted `λᵢ`.
    scratch: Catalog,
    /// `β(λᵢ) = Tᵢ`.
    beta: Assignment,
    /// `(λ, index into the query set)`, in query-set order.
    lambda_queries: Vec<(RelId, usize)>,
    /// Union of the queries' RN sets (quick goal rejection).
    union_rn: BTreeSet<RelId>,
    /// Each λ's RN contribution (skeleton-level RN filter).
    rn_of_lambda: HashMap<RelId, BTreeSet<RelId>>,
    /// The shared, lazily extended enumeration memo.
    space: CandidateSpace,
    /// Budget applied to every probe.
    budget: SearchBudget,
    /// Goals probed so far (for reuse reporting).
    probes: u64,
    /// A staged snapshot, applied lazily on the first probe (building a
    /// context must stay cheap — prewarm creates contexts it may never
    /// probe).
    pending_snapshot: Option<Vec<u8>>,
    /// Levels supplied by a hydrated snapshot (0 when cold). The space may
    /// extend past this in memory; `export_space` re-persists only then.
    hydrated_levels: usize,
}

impl ClosureContext {
    /// Build the per-query-set state. Cheap: no enumeration happens until
    /// the first [`ClosureContext::contains`] call.
    pub fn new(queries: &[Query], catalog: &Catalog, budget: &SearchBudget) -> ClosureContext {
        let mut scratch = catalog.clone();
        let mut beta = Assignment::new();
        let mut lambda_queries = Vec::with_capacity(queries.len());
        let mut atoms = Vec::with_capacity(queries.len());
        for (i, q) in queries.iter().enumerate() {
            let lam = scratch.fresh_relation("lam", q.trs());
            beta.set(lam, q.template().clone(), &scratch)
                .expect("λ type minted to match");
            lambda_queries.push((lam, i));
            atoms.push(lam);
        }
        let union_rn: BTreeSet<RelId> = queries.iter().flat_map(|q| q.rel_names()).collect();
        let rn_of_lambda: HashMap<RelId, BTreeSet<RelId>> = lambda_queries
            .iter()
            .map(|&(lam, i)| (lam, queries[i].rel_names()))
            .collect();
        let space = CandidateSpace::new(&atoms);
        ClosureContext {
            scratch,
            beta,
            lambda_queries,
            union_rn,
            rn_of_lambda,
            space,
            budget: budget.clone(),
            probes: 0,
            pending_snapshot: None,
            hydrated_levels: 0,
        }
    }

    /// Content digest addressing this context's candidate space: the
    /// ordered sequence of λ-atom schemes, by attribute *name* — identical
    /// across catalogs declaring the same relations in any order, and
    /// shared by any query set with the same TRS sequence.
    pub fn space_key(&self) -> u128 {
        space_digest(&self.scratch, &self.atoms())
    }

    fn atoms(&self) -> Vec<RelId> {
        self.lambda_queries.iter().map(|&(lam, _)| lam).collect()
    }

    /// Stage serialized snapshot bytes for this context's space. Nothing
    /// is parsed here; hydration happens lazily on the first probe, so
    /// contexts that are never probed never pay the load.
    pub fn stage_snapshot(&mut self, bytes: Vec<u8>) {
        self.pending_snapshot = Some(bytes);
    }

    /// Apply a staged snapshot, if any. A snapshot that fails validation
    /// (corrupt, version-skewed, or describing a different space) is
    /// discarded and the context stays cold — hydration is an
    /// optimization, never a correctness dependency.
    fn hydrate_pending(&mut self) {
        let Some(bytes) = self.pending_snapshot.take() else {
            return;
        };
        if self.space.built_levels() > 0 {
            return;
        }
        let t0 = obs::now_ns();
        match load_space(&bytes, &self.scratch, &self.atoms()) {
            Ok(space) => {
                self.hydrated_levels = space.built_levels();
                self.space = space;
                SPACE_HYDRATES.add(1);
                SPACE_LEVELS_REUSED.add(self.hydrated_levels as u64);
            }
            Err(_) => {
                SPACE_HYDRATE_REJECTS.add(1);
            }
        }
        if obs::enabled() {
            SPACE_LOAD_HIST.record(obs::now_ns().saturating_sub(t0));
        }
    }

    /// Serialize this context's space — `Some` only when it holds levels
    /// beyond what hydration supplied, i.e. exactly when persisting would
    /// save future processes work a snapshot has not already captured.
    /// Returns the space key alongside the snapshot bytes.
    pub fn export_space(&self) -> Option<(u128, Vec<u8>)> {
        if self.space.built_levels() == 0 || self.space.built_levels() <= self.hydrated_levels {
            return None;
        }
        Some((self.space_key(), save_space(&self.space, &self.scratch)))
    }

    /// Levels a hydrated snapshot supplied (0 for a cold context).
    pub fn hydrated_levels(&self) -> usize {
        self.hydrated_levels
    }

    /// Levels built by in-process enumeration (beyond any snapshot).
    pub fn rebuilt_levels(&self) -> usize {
        self.space
            .built_levels()
            .saturating_sub(self.hydrated_levels)
    }

    /// The one bounded walk over λ-skeletons behind every probe: count the
    /// probe, hydrate a staged snapshot, then visit the shared space's roots
    /// with at most `max_atoms` atoms, each with its substitution
    /// `β(skeleton)`. With a `goal`, only constructions of it reach `f`:
    /// skeletons whose TRS and RN match the goal's and whose substitution is
    /// equivalent to it (Theorem 2.3.2).
    ///
    /// Returns `Ok(true)` when `f` broke.
    fn walk(
        &mut self,
        goal: Option<&Query>,
        max_atoms: usize,
        f: &mut dyn FnMut(&Expr, &Template, Substitution) -> ControlFlow<()>,
    ) -> Result<bool, SearchOverflow> {
        self.probes += 1;
        self.hydrate_pending();
        if self.lambda_queries.is_empty() {
            return Ok(false);
        }
        // Quick rejection: equivalent mappings have equal RN sets, and every
        // construction's RN is covered by the union of the queries' RNs.
        let goal = goal.map(|g| (g, g.trs(), g.rel_names()));
        if let Some((_, _, goal_rn)) = &goal {
            if !goal_rn.iter().all(|r| self.union_rn.contains(r)) {
                return Ok(false);
            }
        }
        let ClosureContext {
            scratch,
            beta,
            rn_of_lambda,
            space,
            budget,
            ..
        } = self;
        let scratch: &Catalog = scratch;
        space.probe(
            scratch,
            max_atoms,
            goal.as_ref().map(|(_, trs, _)| trs),
            &budget.limits,
            &mut |expr, skel| {
                if let Some((_, _, goal_rn)) = &goal {
                    // RN(goal) must equal the union of the assigned
                    // queries' RNs over the skeleton's tags.
                    let skel_rn: BTreeSet<RelId> = skel
                        .rel_names()
                        .into_iter()
                        .flat_map(|lam| rn_of_lambda[&lam].iter().copied())
                        .collect();
                    if skel_rn != *goal_rn {
                        return ControlFlow::Continue(());
                    }
                }
                let sub = substitute(skel, beta, scratch).expect("every λ is assigned");
                if let Some((goal, _, _)) = &goal {
                    if !equivalent_templates(&sub.result, goal.template()) {
                        return ControlFlow::Continue(());
                    }
                }
                f(expr, skel, sub)
            },
        )
    }

    /// Decide `goal ∈ closure(queries)` by probing the shared candidate
    /// space; identical to a fresh [`closure_contains`] call, including
    /// overflow behavior. The proof is the first construction of the goal.
    ///
    /// `Err` means the search budget was exhausted — the answer is unknown,
    /// *not* "no".
    pub fn contains(&mut self, goal: &Query) -> Result<Option<ClosureProof>, SearchOverflow> {
        /// One span per closure probe; level builds it triggers nest
        /// inside as `template.level_build` spans.
        static PROBE_SPAN: obs::SpanDef =
            obs::SpanDef::new("core.closure.probe", "enum", "span.core.closure.probe");
        let mut span = PROBE_SPAN.start();
        span.arg("goal_atoms", goal.template().len() as u64);
        let mut first = None;
        self.walk(Some(goal), goal.template().len(), &mut |expr, skel, sub| {
            first = Some((expr.clone(), skel.clone(), sub.result));
            ControlFlow::Break(())
        })?;
        Ok(
            first.map(|(skeleton, skeleton_template, substituted)| ClosureProof {
                skeleton,
                lambda_queries: self.lambda_queries.clone(),
                skeleton_template,
                substituted,
            }),
        )
    }

    /// Enumerate every construction of `goal` from the query set — each
    /// normalized λ-skeleton within the atom bound whose substitution is
    /// equivalent to the goal — through the same shared candidate space as
    /// [`ClosureContext::contains`]. Where `contains` breaks at the first
    /// witness, this keeps visiting until the callback breaks; the
    /// essential-tuple procedures (Sections 3.2–3.3) are built on it, so
    /// they amortize enumeration across calls instead of re-enumerating
    /// per invocation.
    ///
    /// Returns `Ok(true)` when the callback broke early.
    pub fn for_each_construction(
        &mut self,
        goal: &Query,
        f: &mut dyn FnMut(&Expr, &Template, &Substitution) -> ControlFlow<()>,
    ) -> Result<bool, SearchOverflow> {
        self.walk(Some(goal), goal.template().len(), &mut |expr, skel, sub| {
            f(expr, skel, &sub)
        })
    }

    /// Enumerate every candidate construction over the query set with at
    /// most `max_atoms` skeleton atoms — all roots of the shared space, no
    /// goal filter — each with its substituted template over the underlying
    /// schema. `crate::closure::ClosureContext::members` builds the
    /// deduplicated closure frontier on top; routing through the context
    /// shares the lazily extended space across repeated frontier sweeps
    /// and with the membership probes of the same query set (the engine's
    /// pooled `frontier`/`diff` path).
    ///
    /// Returns `Ok(true)` when the callback broke early.
    pub fn for_each_substitution(
        &mut self,
        max_atoms: usize,
        f: &mut dyn FnMut(&Expr, &Template, &Substitution) -> ControlFlow<()>,
    ) -> Result<bool, SearchOverflow> {
        self.walk(None, max_atoms, &mut |expr, skel, sub| f(expr, skel, &sub))
    }

    /// The scratch catalog (the caller's catalog plus the minted λ names) —
    /// constructions enumerated by [`ClosureContext::for_each_construction`]
    /// live in it.
    pub fn scratch_catalog(&self) -> &Catalog {
        &self.scratch
    }

    /// `(λ, index into the query set)` for every scratch name, in query-set
    /// order.
    pub fn lambda_queries(&self) -> &[(RelId, usize)] {
        &self.lambda_queries
    }

    /// Cumulative enumeration counters of the underlying candidate space —
    /// the total search work this context has paid across all its goals.
    pub fn search_stats(&self) -> SearchStats {
        self.space.stats()
    }

    /// Goals probed through this context.
    pub fn probes(&self) -> u64 {
        self.probes
    }
}

/// Decide `goal ∈ closure(queries)` and produce a construction on success.
///
/// `Err` means the search budget was exhausted — the answer is unknown,
/// *not* "no".
///
/// One-shot wrapper over [`ClosureContext`]; callers deciding several goals
/// against one query set should build the context once and call
/// [`ClosureContext::contains`] per goal — the bounded enumeration is
/// goal-independent and amortizes across probes.
pub fn closure_contains(
    queries: &[Query],
    goal: &Query,
    catalog: &Catalog,
    budget: &SearchBudget,
) -> Result<Option<ClosureProof>, SearchOverflow> {
    ClosureContext::new(queries, catalog, budget).contains(goal)
}

/// Theorem 2.4.11: is `goal` in the query capacity of the view?
///
/// By Theorem 1.5.2, `Cap(𝒱)` is the closure of the defining query set.
pub fn cap_contains(
    view: &View,
    goal: &Query,
    catalog: &Catalog,
    budget: &SearchBudget,
) -> Result<Option<ClosureProof>, SearchOverflow> {
    let qs = view.query_set();
    closure_contains(qs.queries(), goal, catalog, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn members_of_the_set_are_in_the_closure() {
        let cat = setup();
        let s1 = q(&cat, "pi{A,B}(R)");
        let s2 = q(&cat, "pi{B,C}(R)");
        let proof = closure_contains(&[s1.clone(), s2], &s1, &cat, &SearchBudget::default())
            .unwrap()
            .expect("S1 ∈ closure({S1,S2})");
        assert_eq!(proof.skeleton.atom_count(), 1);
    }

    #[test]
    fn joins_and_projections_are_in_the_closure() {
        let cat = setup();
        let s1 = q(&cat, "pi{A,B}(R)");
        let s2 = q(&cat, "pi{B,C}(R)");
        let set = [s1, s2];
        for target in [
            "pi{A,B}(R) * pi{B,C}(R)",
            "pi{A}(R)",
            "pi{B}(R)",
            "pi{A,C}(pi{A,B}(R) * pi{B,C}(R))",
        ] {
            let goal = q(&cat, target);
            assert!(
                closure_contains(&set, &goal, &cat, &SearchBudget::default())
                    .unwrap()
                    .is_some(),
                "{target} should be in the closure"
            );
        }
    }

    #[test]
    fn the_full_relation_is_not_derivable_from_projections() {
        // The decomposition is lossy: R ∉ closure({π_AB(R), π_BC(R)}).
        let cat = setup();
        let s1 = q(&cat, "pi{A,B}(R)");
        let s2 = q(&cat, "pi{B,C}(R)");
        let goal = q(&cat, "R");
        assert!(
            closure_contains(&[s1, s2], &goal, &cat, &SearchBudget::default())
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn hidden_attributes_are_unrecoverable() {
        // π_C(R) ∉ closure({π_AB(R)}): C never appears.
        let cat = setup();
        let s1 = q(&cat, "pi{A,B}(R)");
        let goal = q(&cat, "pi{C}(R)");
        assert!(
            closure_contains(&[s1], &goal, &cat, &SearchBudget::default())
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn proof_substituted_template_is_equivalent_to_goal() {
        let cat = setup();
        let s1 = q(&cat, "pi{A,B}(R)");
        let s2 = q(&cat, "pi{B,C}(R)");
        let goal = q(&cat, "pi{A,C}(pi{A,B}(R) * pi{B,C}(R))");
        let proof = closure_contains(&[s1, s2], &goal, &cat, &SearchBudget::default())
            .unwrap()
            .unwrap();
        assert!(equivalent_templates(&proof.substituted, goal.template()));
        // And the skeleton only mentions λ names from the proof's table.
        for r in proof.skeleton.rel_names() {
            assert!(proof.query_index_of(r).is_some());
        }
    }

    #[test]
    fn cap_contains_goes_through_the_view() {
        let mut cat = setup();
        let ab = cat.scheme(&["A", "B"]).unwrap();
        let bc = cat.scheme(&["B", "C"]).unwrap();
        let v1 = cat.fresh_relation("v1", ab);
        let v2 = cat.fresh_relation("v2", bc);
        let view = View::from_exprs(
            vec![
                (parse_expr("pi{A,B}(R)", &cat).unwrap(), v1),
                (parse_expr("pi{B,C}(R)", &cat).unwrap(), v2),
            ],
            &cat,
        )
        .unwrap();
        let yes = q(&cat, "pi{A}(R)");
        let no = q(&cat, "R");
        assert!(cap_contains(&view, &yes, &cat, &SearchBudget::default())
            .unwrap()
            .is_some());
        assert!(cap_contains(&view, &no, &cat, &SearchBudget::default())
            .unwrap()
            .is_none());
    }

    #[test]
    fn shared_context_amortizes_and_agrees_with_fresh_runs() {
        let cat = setup();
        let set = [q(&cat, "pi{A,B}(R)"), q(&cat, "pi{B,C}(R)")];
        let budget = SearchBudget::default();
        let goals = [
            "pi{A,B}(R)",
            "pi{B,C}(R)",
            "pi{A}(R)",
            "pi{B}(R)",
            "pi{A,B}(R) * pi{B,C}(R)",
            "pi{A,C}(pi{A,B}(R) * pi{B,C}(R))",
            "R",
        ];
        let mut context = ClosureContext::new(&set, &cat, &budget);
        let mut per_goal_combos = 0u64;
        for src in goals {
            let goal = q(&cat, src);
            let shared = context.contains(&goal).unwrap();
            let fresh = closure_contains(&set, &goal, &cat, &budget).unwrap();
            assert_eq!(shared.is_some(), fresh.is_some(), "{src}");
            if let (Some(s), Some(f)) = (&shared, &fresh) {
                // Identical witnesses, not merely equivalent ones: same
                // skeleton, same λ table, same substituted template.
                assert_eq!(
                    format!("{:?}", s.skeleton),
                    format!("{:?}", f.skeleton),
                    "{src}"
                );
                assert_eq!(s.lambda_queries, f.lambda_queries, "{src}");
                assert!(equivalent_templates(&s.substituted, &f.substituted));
            }
            // Each fresh run pays its own enumeration from scratch.
            let mut fresh_ctx = ClosureContext::new(&set, &cat, &budget);
            let _ = fresh_ctx.contains(&q(&cat, src)).unwrap();
            per_goal_combos += fresh_ctx.search_stats().combos;
        }
        // The shared context's total enumeration work is strictly below the
        // per-goal sum: the space was built once and probed seven times.
        assert!(
            context.search_stats().combos < per_goal_combos,
            "shared {} vs per-goal {}",
            context.search_stats().combos,
            per_goal_combos
        );
        assert_eq!(context.probes(), goals.len() as u64);
    }

    #[test]
    fn context_bound_extension_is_order_independent() {
        // Probing a small-bound goal first must not change what a later
        // large-bound goal sees, and vice versa.
        let cat = setup();
        let set = [q(&cat, "pi{A,B}(R)"), q(&cat, "pi{B,C}(R)")];
        let budget = SearchBudget::default();
        let small = q(&cat, "pi{A}(R)"); // 1-atom goal template
        let large = q(&cat, "pi{A,C}(pi{A,B}(R) * pi{B,C}(R))"); // 2 atoms
        let mut up = ClosureContext::new(&set, &cat, &budget);
        let s1 = up.contains(&small).unwrap();
        let l1 = up.contains(&large).unwrap();
        let mut down = ClosureContext::new(&set, &cat, &budget);
        let l2 = down.contains(&large).unwrap();
        let s2 = down.contains(&small).unwrap();
        for (a, b) in [(&s1, &s2), (&l1, &l2)] {
            match (a, b) {
                (Some(x), Some(y)) => {
                    assert_eq!(format!("{:?}", x.skeleton), format!("{:?}", y.skeleton));
                }
                (None, None) => {}
                _ => panic!("probe order changed a verdict"),
            }
        }
    }

    #[test]
    fn rn_prefilter_rejects_foreign_names() {
        let mut cat = setup();
        cat.relation("S", &["A", "B"]).unwrap();
        let s1 = q(&cat, "pi{A,B}(R)");
        let goal = q(&cat, "S");
        assert!(
            closure_contains(&[s1], &goal, &cat, &SearchBudget::default())
                .unwrap()
                .is_none()
        );
    }
}
