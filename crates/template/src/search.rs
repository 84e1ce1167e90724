//! The bounded search engine over normalized project–join expressions.
//!
//! This is the effective core behind the paper's decidability results
//! (Theorems 2.4.11 / 2.4.12). Instead of the paper's astronomically large
//! `J_k` enumeration of candidate templates, we enumerate *normalized
//! expressions* over a set of typed atoms together with their (reduced)
//! templates, composed bottom-up at the template level:
//!
//! ```text
//! part  ::=  atom  |  π_X(join)      with ∅ ≠ X ⊊ TRS(join)
//! join  ::=  a set of ≥ 1 parts     (equivalent parts are interchangeable,
//!                                    and P ⋈ P ≡ P, so sets — not
//!                                    multisets — suffice)
//! root  ::=  join
//! ```
//!
//! Completeness rests on the *syntactic subtemplate lemma*:
//! whenever the sought query is realizable at all, it is realizable by a
//! normalized expression whose atom count is bounded by the tuple count of
//! the (reduced) goal template. One corner is documented in
//! [`for_each_candidate`]: skeletons requiring a fully hidden operand whose
//! hidden columns overlap the live TRS may escape the normalized grammar;
//! the literal paper procedure (the test oracle in
//! `tests/support/paper_procedure.rs`) serves as a cross-check on small
//! instances.
//!
//! Intermediate templates are always reduced, and candidates are
//! deduplicated *semantically*: reduced templates are bucketed by canonical
//! key and confirmed by homomorphism, so each distinct mapping is visited
//! once, which keeps level sizes small.

use crate::canon::{canonical_key, CanonKey};
use crate::hom::equivalent_templates;
use crate::index::{scheme_key, ByteTrie};
use crate::ops::{join_templates, project_template};
use crate::reduce::reduce;
use crate::template::Template;
use std::collections::HashMap;
use std::fmt;
use std::ops::ControlFlow;
use viewcap_base::scheme::MAX_SUBSET_ATTRS;
use viewcap_base::{Catalog, RelId, Scheme};
use viewcap_obs as obs;

/// Span over each committed enumeration level; `combos` counts the join
/// combinations the level visited (also summed into the
/// `template.search.combos` counter, which the jobs-determinism suite
/// pins — level content is work, not timing).
static LEVEL_SPAN: obs::SpanDef =
    obs::SpanDef::new("template.level_build", "enum", "span.template.level_build");
static COMBOS_COUNTER: obs::Counter = obs::Counter::new("template.search.combos");
static PARTS_COUNTER: obs::Counter = obs::Counter::new("template.search.parts_kept");

/// Resource limits for the bounded search.
#[derive(Clone, Debug)]
pub struct SearchLimits {
    /// Maximum number of deduplicated parts per atom-count level.
    pub max_level_parts: usize,
    /// Maximum number of join combinations examined.
    pub max_visits: u64,
}

impl Default for SearchLimits {
    fn default() -> Self {
        SearchLimits {
            max_level_parts: 20_000,
            max_visits: 2_000_000,
        }
    }
}

/// The search exceeded its limits before finishing.
///
/// Callers must treat this as "unknown", never as "no".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SearchOverflow {
    /// Which limit tripped.
    pub context: &'static str,
}

impl fmt::Display for SearchOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bounded search overflow: {}", self.context)
    }
}

impl std::error::Error for SearchOverflow {}

/// Cumulative counters of the enumeration work a space has built; the
/// engine's enumeration statistics sum them over its contexts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Join combinations examined.
    pub combos: u64,
    /// Deduplicated candidate roots kept.
    pub roots_visited: u64,
    /// Parts kept after deduplication.
    pub parts_kept: u64,
    /// Candidates dropped as semantically duplicate (parts/joins/roots).
    pub dedup_hits: u64,
}

use viewcap_expr::Expr;

/// Callback type for the combination enumerator.
type ComboSink<'a> = &'a mut dyn FnMut(&[(usize, usize)]) -> Result<(), SearchOverflow>;

/// Proper nonempty subsets of `trs` in *content* order: by length, then by
/// the sequence of attribute-name ranks.
///
/// `Scheme` stores attributes sorted by [`viewcap_base::AttrId`] — interning
/// order, a catalog-declaration artifact — so the raw
/// [`Scheme::proper_nonempty_subsets`] order varies across catalogs that
/// declare the same relations in different orders. Sorting by name rank
/// (`ranks` from [`Catalog::attr_name_ranks`]) makes level expansion — and
/// therefore which equivalent witness the search keeps first — identical
/// across permuted catalogs, which is what lets cold runs emit
/// byte-identical witnesses and makes persisted spaces portable.
///
/// A scheme wider than [`MAX_SUBSET_ATTRS`] (reachable by joining wide
/// atoms) has too many projections to enumerate; that is an overflow —
/// "unknown" — like any other exhausted budget.
fn canonical_proper_subsets(trs: &Scheme, ranks: &[u32]) -> Result<Vec<Scheme>, SearchOverflow> {
    if trs.len() > MAX_SUBSET_ATTRS {
        return Err(SearchOverflow {
            context: "scheme too wide to enumerate its projections",
        });
    }
    let mut subs = trs.proper_nonempty_subsets();
    subs.sort_by_cached_key(|s| {
        let mut key: Vec<u32> = s.iter().map(|a| ranks[a.index()]).collect();
        key.sort_unstable();
        (s.len(), key)
    });
    Ok(subs)
}

/// A deduplicated candidate: an expression and its reduced template.
pub(crate) struct Part {
    pub(crate) expr: Expr,
    pub(crate) tpl: Template,
}

/// Semantic dedup: canonical-key buckets confirmed by equivalence.
///
/// Insertions are journaled so a partially built level can be rolled back
/// (see [`CandidateSpace::ensure_level`]); [`Dedup::commit`] discards the
/// journal once a level is final.
pub(crate) struct Dedup {
    buckets: HashMap<CanonKey, Vec<Template>>,
    trail: Vec<CanonKey>,
}

impl Dedup {
    pub(crate) fn new() -> Self {
        Dedup {
            buckets: HashMap::new(),
            trail: Vec::new(),
        }
    }

    /// Returns `true` when an equivalent template was already recorded.
    pub(crate) fn seen(&mut self, t: &Template, stats: &mut SearchStats) -> bool {
        let key = canonical_key(t);
        let exact = key.is_exact();
        let bucket = self.buckets.entry(key.clone()).or_default();
        // Exact keys are complete for isomorphism, so a nonempty bucket
        // already holds an isomorphic — hence equivalent — template; the
        // homomorphism confirm is only needed for the inexact fallback.
        let hit = if exact {
            !bucket.is_empty()
        } else {
            bucket.iter().any(|u| equivalent_templates(u, t))
        };
        if hit {
            stats.dedup_hits += 1;
            return true;
        }
        bucket.push(t.clone());
        self.trail.push(key);
        false
    }

    /// Journal position for a later [`Dedup::rollback`].
    fn checkpoint(&self) -> usize {
        self.trail.len()
    }

    /// Undo every insertion after `checkpoint` (insertions are push-only,
    /// so reverse popping restores the buckets exactly).
    fn rollback(&mut self, checkpoint: usize) {
        while self.trail.len() > checkpoint {
            let key = self.trail.pop().expect("trail len checked");
            let bucket = self.buckets.get_mut(&key).expect("journaled key exists");
            bucket.pop();
            if bucket.is_empty() {
                self.buckets.remove(&key);
            }
        }
    }

    /// Forget the journal (the recorded insertions are now permanent).
    pub(crate) fn commit(&mut self) {
        self.trail.clear();
    }
}

/// One fully built enumeration level of a [`CandidateSpace`].
pub(crate) struct Level {
    /// Cumulative join combinations examined after completing this level —
    /// the deterministic, goal-independent visit count a fresh search would
    /// have consumed. Probes compare it against their own
    /// [`SearchLimits::max_visits`] to reproduce per-probe overflow.
    pub(crate) visits_after: u64,
    /// Parts kept at this level (what a fresh search checks against
    /// [`SearchLimits::max_level_parts`]).
    pub(crate) parts_kept: usize,
    /// Deduplicated candidate roots in fresh visit order (new parts, then
    /// new joins).
    pub(crate) roots: Vec<Part>,
    /// Root indices keyed by target relation scheme (rendered as bytes),
    /// preserving order within a scheme.
    pub(crate) roots_by_trs: ByteTrie,
    /// The joins committed at this level, in enumeration order — kept so a
    /// snapshot can replay `join_dedup` exactly (roots alone lose joins
    /// that earlier roots deduplicated away).
    pub(crate) joins: Vec<Part>,
}

/// A persistent, lazily extended memo of the bounded enumeration.
///
/// The candidate space over a fixed `(catalog, atoms)` pair depends only on
/// the atoms and the level bound — never on any goal. A `CandidateSpace`
/// therefore builds each atom-count level exactly once and lets any number
/// of goals *probe* it ([`CandidateSpace::probe`]): a probe walks the
/// already-built levels (filtered down to roots with its target TRS via a
/// per-level index), extending the space only when it needs a level no
/// earlier probe reached.
///
/// **Per-probe budget semantics.** Level content is limit-independent, so
/// the space records, per level, the cumulative combination count and the
/// kept-part count a fresh search would have observed. A probe overflows
/// exactly when a fresh [`for_each_candidate`] run with the same
/// `(max_atoms, limits)` would: recorded counts are compared against the
/// *probe's* limits, and a level being built mid-probe aborts (and rolls
/// back, leaving the space unchanged) when the probing caller's budget is
/// exhausted. Overflow still means "unknown", never "no".
///
/// The space does not own the catalog: every probe borrows it, and every
/// probe of one space must pass the same catalog (the one the atoms were
/// minted in) — callers such as `viewcap-core`'s `ClosureContext` own the
/// scratch catalog and the space side by side.
pub struct CandidateSpace {
    pub(crate) atoms: Vec<RelId>,
    /// `parts[k]` = deduplicated parts of exactly `k` atoms (index 0 unused).
    pub(crate) parts: Vec<Vec<Part>>,
    pub(crate) levels: Vec<Level>,
    pub(crate) part_dedup: Dedup,
    pub(crate) join_dedup: Dedup,
    pub(crate) root_dedup: Dedup,
    /// Cumulative counters over all committed build work.
    pub(crate) stats: SearchStats,
}

impl CandidateSpace {
    /// An empty space over `atoms`; no level is built until a probe asks.
    pub fn new(atoms: &[RelId]) -> Self {
        CandidateSpace {
            atoms: atoms.to_vec(),
            parts: vec![Vec::new()],
            levels: Vec::new(),
            part_dedup: Dedup::new(),
            join_dedup: Dedup::new(),
            root_dedup: Dedup::new(),
            stats: SearchStats::default(),
        }
    }

    /// Cumulative counters over every committed level build — the total
    /// enumeration work this space has paid, however many probes shared it.
    pub fn stats(&self) -> SearchStats {
        self.stats
    }

    /// Number of fully built atom-count levels.
    pub fn built_levels(&self) -> usize {
        self.levels.len()
    }

    /// Enumerate candidates with at most `max_atoms` atoms whose TRS is
    /// `target_trs` (all roots when `None`), reusing every already-built
    /// level and extending the space on demand.
    ///
    /// Returns `Ok(true)` when the callback broke, `Ok(false)` when the
    /// (bounded) space was exhausted. The work of any level it had to
    /// build is added to [`CandidateSpace::stats`].
    ///
    /// `catalog` must be the catalog the atoms live in, the same for every
    /// probe of this space.
    pub fn probe(
        &mut self,
        catalog: &Catalog,
        max_atoms: usize,
        target_trs: Option<&Scheme>,
        limits: &SearchLimits,
        f: &mut dyn FnMut(&Expr, &Template) -> ControlFlow<()>,
    ) -> Result<bool, SearchOverflow> {
        for k in 1..=max_atoms {
            if k > self.levels.len() {
                self.ensure_level(catalog, k, limits)?;
            } else if self.levels[k - 1].visits_after > limits.max_visits {
                // A fresh run with these limits would have overflowed while
                // examining this level's combinations.
                return Err(SearchOverflow {
                    context: "combination budget exhausted",
                });
            }
            let level = &self.levels[k - 1];
            if level.parts_kept > limits.max_level_parts {
                return Err(SearchOverflow {
                    context: "per-level part budget exhausted",
                });
            }
            // Visit this level's roots, narrowed to the target scheme.
            let all: Vec<u32>;
            let indices: &[u32] = match target_trs {
                Some(want) => level.roots_by_trs.get(&scheme_key(want)),
                None => {
                    all = (0..level.roots.len() as u32).collect();
                    &all
                }
            };
            for &i in indices {
                let root = &level.roots[i as usize];
                if f(&root.expr, &root.tpl).is_break() {
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    /// Build level `k` (which must be the next unbuilt level) under the
    /// probing caller's limits. On overflow the partial level is rolled
    /// back — dedup journals undone, nothing committed — so a later probe
    /// with a larger budget rebuilds it identically.
    fn ensure_level(
        &mut self,
        catalog: &Catalog,
        k: usize,
        limits: &SearchLimits,
    ) -> Result<(), SearchOverflow> {
        debug_assert_eq!(k, self.levels.len() + 1);
        let mut span = LEVEL_SPAN.start();
        span.arg("level", k as u64);
        let cp_parts = self.part_dedup.checkpoint();
        let cp_joins = self.join_dedup.checkpoint();
        let cp_roots = self.root_dedup.checkpoint();
        let stats_before = self.stats;
        match self.build_level(catalog, k, limits) {
            Ok(()) => {
                self.part_dedup.commit();
                self.join_dedup.commit();
                self.root_dedup.commit();
                let combos = self.stats.combos - stats_before.combos;
                span.arg("combos", combos);
                COMBOS_COUNTER.add(combos);
                PARTS_COUNTER.add(self.stats.parts_kept - stats_before.parts_kept);
                Ok(())
            }
            Err(overflow) => {
                self.part_dedup.rollback(cp_parts);
                self.join_dedup.rollback(cp_joins);
                self.root_dedup.rollback(cp_roots);
                self.stats = stats_before;
                Err(overflow)
            }
        }
    }

    fn build_level(
        &mut self,
        catalog: &Catalog,
        k: usize,
        limits: &SearchLimits,
    ) -> Result<(), SearchOverflow> {
        let CandidateSpace {
            atoms,
            parts,
            levels,
            part_dedup,
            join_dedup,
            root_dedup,
            stats,
            ..
        } = self;
        // Visits continue cumulatively across levels, exactly as one fresh
        // bottom-up search would count them.
        let mut visits: u64 = levels.last().map_or(0, |l| l.visits_after);
        let ranks = catalog.attr_name_ranks();

        // -------- new parts of size k (and, for k ≥ 2, new joins of size k)
        let mut new_parts: Vec<Part> = Vec::new();
        let mut new_joins: Vec<Part> = Vec::new();

        if k == 1 {
            for &r in atoms.iter() {
                let tpl = Template::atom(r, catalog);
                if !part_dedup.seen(&tpl, stats) {
                    new_parts.push(Part {
                        expr: Expr::rel(r),
                        tpl: tpl.clone(),
                    });
                }
                // Proper projections of the atom, in content order.
                for x in canonical_proper_subsets(&tpl.trs(), &ranks)? {
                    let p = reduce(&project_template(&tpl, &x).expect("X ⊆ TRS"));
                    if !part_dedup.seen(&p, stats) {
                        new_parts.push(Part {
                            expr: Expr::project(Expr::rel(r), x, catalog).expect("X ⊆ TRS of atom"),
                            tpl: p,
                        });
                    }
                }
            }
        } else {
            // Join combinations: strictly increasing (size, index) choices
            // totalling k with ≥ 2 children.
            let mut stack: Vec<(usize, usize)> = Vec::new();
            let flow = combos(
                parts,
                k,
                (1, 0),
                &mut stack,
                &mut visits,
                limits,
                &mut |chosen| {
                    let children: Vec<&Part> = chosen.iter().map(|&(s, i)| &parts[s][i]).collect();
                    let mut tpl = children[0].tpl.clone();
                    for c in &children[1..] {
                        tpl = join_templates(&tpl, &c.tpl);
                    }
                    let tpl = reduce(&tpl);
                    if join_dedup.seen(&tpl, stats) {
                        return Ok(());
                    }
                    let expr = Expr::join(children.iter().map(|c| c.expr.clone()).collect())
                        .expect("≥ 2 children");
                    // Proper projections become parts of size k, in
                    // content order.
                    for x in canonical_proper_subsets(&tpl.trs(), &ranks)? {
                        let p = reduce(&project_template(&tpl, &x).expect("X ⊆ TRS"));
                        if !part_dedup.seen(&p, stats) {
                            new_parts.push(Part {
                                expr: Expr::project(expr.clone(), x, catalog)
                                    .expect("X ⊆ TRS of join"),
                                tpl: p,
                            });
                        }
                    }
                    new_joins.push(Part { expr, tpl });
                    Ok(())
                },
            )?;
            debug_assert!(flow.is_continue());
        }

        // Commit the level. The kept-part count is recorded (not enforced)
        // here: level content is limit-independent, so the budget check is
        // the *probe's* job — `probe` errs before visiting a level whose
        // recorded count exceeds its own `max_level_parts`, exactly where a
        // fresh search with those limits would have erred.
        stats.parts_kept += new_parts.len() as u64;
        stats.combos = visits;
        let mut roots: Vec<Part> = Vec::new();
        let mut roots_by_trs = ByteTrie::new();
        for cand in new_parts.iter().chain(new_joins.iter()) {
            // Root dedup is TRS-blind here, where a fresh filtered search
            // only dedups roots matching its target. The decisions agree:
            // equivalent templates always share a TRS, so whether a root is
            // a duplicate depends only on earlier same-TRS roots — a set the
            // filter never changes.
            if !root_dedup.seen(&cand.tpl, stats) {
                stats.roots_visited += 1;
                let idx = roots.len() as u32;
                roots_by_trs.insert(&scheme_key(&cand.tpl.trs()), idx);
                roots.push(Part {
                    expr: cand.expr.clone(),
                    tpl: cand.tpl.clone(),
                });
            }
        }
        levels.push(Level {
            visits_after: visits,
            parts_kept: new_parts.len(),
            roots,
            roots_by_trs,
            joins: new_joins,
        });
        parts.push(new_parts);
        Ok(())
    }
}

/// Enumerate deduplicated `(expression, reduced template)` candidates over
/// `atoms` with at most `max_atoms` atom occurrences.
///
/// * `target_trs`: if given, only roots with exactly this TRS reach the
///   callback (parts of other TRS still participate as subexpressions).
/// * Returns `Ok(true)` when the callback broke (found what it wanted),
///   `Ok(false)` when the space was exhausted.
///
/// This is the one-shot entry point: it builds a throwaway
/// [`CandidateSpace`] and probes it once. Callers with several goals over
/// one atom set should hold a `CandidateSpace` (or a
/// `viewcap-core::ClosureContext`) and probe it per goal instead — the
/// enumeration is goal-independent and amortizes.
pub fn for_each_candidate(
    catalog: &Catalog,
    atoms: &[RelId],
    max_atoms: usize,
    target_trs: Option<&Scheme>,
    limits: &SearchLimits,
    f: &mut dyn FnMut(&Expr, &Template) -> ControlFlow<()>,
) -> Result<bool, SearchOverflow> {
    CandidateSpace::new(atoms).probe(catalog, max_atoms, target_trs, limits, f)
}

/// Enumerate strictly increasing `(size, index)` selections from `parts`
/// totalling exactly `total`, with at least two elements.
fn combos(
    parts: &[Vec<Part>],
    remaining: usize,
    min: (usize, usize),
    current: &mut Vec<(usize, usize)>,
    visits: &mut u64,
    limits: &SearchLimits,
    f: ComboSink<'_>,
) -> Result<ControlFlow<()>, SearchOverflow> {
    if remaining == 0 {
        if current.len() >= 2 {
            *visits += 1;
            if *visits > limits.max_visits {
                return Err(SearchOverflow {
                    context: "combination budget exhausted",
                });
            }
            f(current)?;
        }
        return Ok(ControlFlow::Continue(()));
    }
    for size in min.0..=remaining {
        // A single child covering everything is not a join.
        if current.is_empty() && size == remaining {
            continue;
        }
        let start = if size == min.0 { min.1 } else { 0 };
        for idx in start..parts[size].len() {
            current.push((size, idx));
            let flow = combos(
                parts,
                remaining - size,
                (size, idx + 1),
                current,
                visits,
                limits,
                f,
            )?;
            current.pop();
            if flow.is_break() {
                return Ok(ControlFlow::Break(()));
            }
        }
    }
    Ok(ControlFlow::Continue(()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::from_expr::template_of_expr;
    use viewcap_expr::parse_expr;

    fn setup() -> (Catalog, Vec<RelId>) {
        let mut cat = Catalog::new();
        let r = cat.relation("R", &["A", "B"]).unwrap();
        let s = cat.relation("S", &["B", "C"]).unwrap();
        (cat, vec![r, s])
    }

    fn collect(
        cat: &Catalog,
        atoms: &[RelId],
        max_atoms: usize,
        target: Option<&Scheme>,
    ) -> Vec<(Expr, Template)> {
        let mut out = Vec::new();
        let found = for_each_candidate(
            cat,
            atoms,
            max_atoms,
            target,
            &SearchLimits::default(),
            &mut |e, t| {
                out.push((e.clone(), t.clone()));
                ControlFlow::Continue(())
            },
        )
        .unwrap();
        assert!(!found);
        out
    }

    #[test]
    fn level_one_contains_atoms_and_their_projections() {
        let (cat, atoms) = setup();
        let cands = collect(&cat, &atoms, 1, None);
        // R, π_A(R), π_B(R), S, π_B(S), π_C(S)
        assert_eq!(cands.len(), 6);
    }

    #[test]
    fn finds_the_lossy_join_at_two_atoms() {
        let (cat, atoms) = setup();
        let goal = reduce(&template_of_expr(
            &parse_expr("pi{A,C}(R * S)", &cat).unwrap(),
            &cat,
        ));
        let mut hit = false;
        let found = for_each_candidate(
            &cat,
            &atoms,
            2,
            Some(&goal.trs()),
            &SearchLimits::default(),
            &mut |_, t| {
                if equivalent_templates(t, &goal) {
                    hit = true;
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        )
        .unwrap();
        assert!(found && hit);
    }

    #[test]
    fn dedup_collapses_equivalent_candidates() {
        let (cat, atoms) = setup();
        // All candidates at ≤ 3 atoms must be pairwise inequivalent.
        let cands = collect(&cat, &atoms, 3, None);
        for (i, (_, a)) in cands.iter().enumerate() {
            for (_, b) in cands.iter().skip(i + 1) {
                assert!(
                    !equivalent_templates(a, b),
                    "duplicate mapping visited twice"
                );
            }
        }
    }

    #[test]
    fn candidates_agree_with_their_expressions() {
        // Every emitted (expr, template) pair must satisfy template ≡ T_expr.
        let (cat, atoms) = setup();
        for (e, t) in collect(&cat, &atoms, 2, None) {
            let direct = template_of_expr(&e, &cat);
            assert!(
                equivalent_templates(&t, &direct),
                "candidate template disagrees with its expression"
            );
        }
    }

    #[test]
    fn target_trs_filters_roots() {
        let (cat, atoms) = setup();
        let b = cat.lookup_attr("B").unwrap();
        let target = Scheme::new([b]).unwrap();
        for (_, t) in collect(&cat, &atoms, 2, Some(&target)) {
            assert_eq!(t.trs(), target);
        }
    }

    #[test]
    fn stats_count_roots() {
        let (cat, atoms) = setup();
        let mut space = CandidateSpace::new(&atoms);
        space
            .probe(&cat, 1, None, &SearchLimits::default(), &mut |_, _| {
                ControlFlow::Continue(())
            })
            .unwrap();
        let stats = space.stats();
        assert_eq!(stats.roots_visited, 6); // R, π_A R, π_B R, S, π_B S, π_C S
        assert_eq!(stats.parts_kept, 6);
    }

    #[test]
    fn zero_budget_and_empty_atom_sets_are_empty_searches() {
        let (cat, atoms) = setup();
        // max_atoms = 0: nothing to enumerate, exhausts immediately.
        let found = for_each_candidate(
            &cat,
            &atoms,
            0,
            None,
            &SearchLimits::default(),
            &mut |_, _| panic!("no candidates expected"),
        )
        .unwrap();
        assert!(!found);
        // No atoms: likewise.
        let found =
            for_each_candidate(&cat, &[], 3, None, &SearchLimits::default(), &mut |_, _| {
                panic!("no candidates expected")
            })
            .unwrap();
        assert!(!found);
    }

    #[test]
    fn duplicate_atoms_are_deduplicated() {
        let (cat, atoms) = setup();
        let doubled: Vec<RelId> = atoms.iter().chain(atoms.iter()).copied().collect();
        let plain = collect(&cat, &atoms, 2, None);
        let duped = collect(&cat, &doubled, 2, None);
        assert_eq!(plain.len(), duped.len());
    }

    #[test]
    fn space_probes_share_the_enumeration() {
        let (cat, atoms) = setup();
        let mut space = CandidateSpace::new(&atoms);
        let limits = SearchLimits::default();
        let count = |space: &mut CandidateSpace| {
            let mut n = 0usize;
            space
                .probe(&cat, 3, None, &limits, &mut |_, _| {
                    n += 1;
                    ControlFlow::Continue(())
                })
                .unwrap();
            n
        };
        let n1 = count(&mut space);
        let after_first = space.stats();
        let n2 = count(&mut space);
        assert_eq!(n1, n2, "probes must see identical roots");
        assert!(after_first.combos > 0, "first probe pays the enumeration");
        assert_eq!(
            space.stats(),
            after_first,
            "second probe is served from the memo"
        );
        assert_eq!(space.built_levels(), 3);
    }

    #[test]
    fn space_extends_incrementally_and_matches_fresh_runs() {
        let (cat, atoms) = setup();
        let limits = SearchLimits::default();
        let collect_fresh = |max_atoms: usize| collect(&cat, &atoms, max_atoms, None);
        let mut space = CandidateSpace::new(&atoms);
        for max_atoms in [1usize, 2, 3] {
            let mut shared: Vec<(Expr, Template)> = Vec::new();
            space
                .probe(&cat, max_atoms, None, &limits, &mut |e, t| {
                    shared.push((e.clone(), t.clone()));
                    ControlFlow::Continue(())
                })
                .unwrap();
            let fresh = collect_fresh(max_atoms);
            assert_eq!(shared.len(), fresh.len(), "bound {max_atoms}");
            for ((es, ts), (ef, tf)) in shared.iter().zip(&fresh) {
                assert_eq!(format!("{es:?}"), format!("{ef:?}"), "bound {max_atoms}");
                assert!(equivalent_templates(ts, tf));
            }
        }
        // Total build work equals one full bound-3 enumeration, not the sum
        // of three fresh runs.
        let mut fresh3 = CandidateSpace::new(&atoms);
        fresh3
            .probe(
                &cat,
                3,
                None,
                &limits,
                &mut |_, _| ControlFlow::Continue(()),
            )
            .unwrap();
        assert_eq!(space.stats().combos, fresh3.stats().combos);
    }

    #[test]
    fn space_trs_index_narrows_roots() {
        let (cat, atoms) = setup();
        let b = cat.lookup_attr("B").unwrap();
        let target = Scheme::new([b]).unwrap();
        let mut space = CandidateSpace::new(&atoms);
        let mut narrowed = Vec::new();
        space
            .probe(
                &cat,
                2,
                Some(&target),
                &SearchLimits::default(),
                &mut |_, t| {
                    narrowed.push(t.clone());
                    ControlFlow::Continue(())
                },
            )
            .unwrap();
        assert!(narrowed.iter().all(|t| t.trs() == target));
        let fresh = collect(&cat, &atoms, 2, Some(&target));
        assert_eq!(narrowed.len(), fresh.len());
    }

    /// Differential: a TRS-narrowed probe of a persistent space (served by
    /// the per-level byte-trie root index) must agree with a fresh
    /// flat-scan oracle — enumerate everything, filter by TRS — across the
    /// whole budget sweep 1–1000: same roots in the same order, and the
    /// same overflow verdicts (the space's recorded counts must reproduce
    /// per-probe limits exactly).
    #[test]
    fn differential_trs_index_matches_flat_scan_across_budgets() {
        let (cat, atoms) = setup();
        let attr = |n: &str| cat.lookup_attr(n).unwrap();
        let targets: Vec<Scheme> = [
            vec!["A"],
            vec!["B"],
            vec!["C"],
            vec!["A", "B"],
            vec!["B", "C"],
            vec!["A", "C"],
            vec!["A", "B", "C"],
        ]
        .iter()
        .map(|names| Scheme::collect(names.iter().map(|n| attr(n))))
        .collect();

        let mut space = CandidateSpace::new(&atoms);
        for max_visits in (1u64..=1000).step_by(13).chain([2, 3, 1000]) {
            let limits = SearchLimits {
                max_level_parts: 20_000,
                max_visits,
            };
            for target in &targets {
                let mut indexed: Vec<String> = Vec::new();
                let shared = space.probe(&cat, 3, Some(target), &limits, &mut |e, _| {
                    indexed.push(format!("{e:?}"));
                    ControlFlow::Continue(())
                });
                let mut flat: Vec<String> = Vec::new();
                let fresh = for_each_candidate(&cat, &atoms, 3, None, &limits, &mut |e, t| {
                    if t.trs() == *target {
                        flat.push(format!("{e:?}"));
                    }
                    ControlFlow::Continue(())
                });
                match (&shared, &fresh) {
                    (Ok(_), Ok(_)) => assert_eq!(
                        indexed, flat,
                        "roots diverged at budget {max_visits}, target {target:?}"
                    ),
                    (Err(a), Err(b)) => assert_eq!(
                        a.context, b.context,
                        "overflow reasons diverged at budget {max_visits}"
                    ),
                    _ => panic!(
                        "overflow divergence at budget {max_visits}: \
                         indexed {shared:?} vs flat {fresh:?}"
                    ),
                }
            }
        }
        // The sweep exercised both regimes.
        assert!(space.built_levels() == 3, "large budgets built the space");
    }

    #[test]
    fn overflowed_builds_roll_back_and_larger_budgets_rebuild() {
        let (cat, atoms) = setup();
        let mut space = CandidateSpace::new(&atoms);
        let tiny = SearchLimits {
            max_level_parts: 20_000,
            max_visits: 1,
        };
        let err = space
            .probe(&cat, 3, None, &tiny, &mut |_, _| ControlFlow::Continue(()))
            .unwrap_err();
        assert_eq!(err.context, "combination budget exhausted");
        let levels_after_overflow = space.built_levels();
        // A generous probe rebuilds the aborted level and sees exactly what
        // a fresh search sees.
        let mut n = 0usize;
        space
            .probe(&cat, 3, None, &SearchLimits::default(), &mut |_, _| {
                n += 1;
                ControlFlow::Continue(())
            })
            .unwrap();
        assert_eq!(n, collect(&cat, &atoms, 3, None).len());
        assert!(space.built_levels() > levels_after_overflow);
        // And the tiny budget still overflows afterwards — recorded counts
        // reproduce per-probe limits even once the space is built.
        let err = space
            .probe(&cat, 3, None, &tiny, &mut |_, _| ControlFlow::Continue(()))
            .unwrap_err();
        assert_eq!(err.context, "combination budget exhausted");
    }

    #[test]
    fn per_probe_part_budget_is_respected_after_commit() {
        let (cat, atoms) = setup();
        let mut space = CandidateSpace::new(&atoms);
        // Build level 1 with a generous budget (6 parts kept).
        space
            .probe(&cat, 1, None, &SearchLimits::default(), &mut |_, _| {
                ControlFlow::Continue(())
            })
            .unwrap();
        let strict = SearchLimits {
            max_level_parts: 3,
            max_visits: 2_000_000,
        };
        let err = space
            .probe(
                &cat,
                1,
                None,
                &strict,
                &mut |_, _| ControlFlow::Continue(()),
            )
            .unwrap_err();
        assert_eq!(err.context, "per-level part budget exhausted");
        // Matches the fresh outcome under the same limits.
        let fresh = for_each_candidate(&cat, &atoms, 1, None, &strict, &mut |_, _| {
            ControlFlow::Continue(())
        });
        assert_eq!(fresh.unwrap_err().context, err.context);
    }

    #[test]
    fn tiny_visit_budget_overflows() {
        let (cat, atoms) = setup();
        let limits = SearchLimits {
            max_level_parts: 20_000,
            max_visits: 1,
        };
        let res = for_each_candidate(&cat, &atoms, 3, None, &limits, &mut |_, _| {
            ControlFlow::Continue(())
        });
        assert!(res.is_err());
    }
}
