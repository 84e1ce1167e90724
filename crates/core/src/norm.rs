//! Shared normalization contexts — one set of memo tables for the whole
//! simplify/reduce pipeline (Sections 3.1 and 4).
//!
//! The Section 4 procedures ask the *same shape* of question over and over:
//! `goal ∈ closure(subset)` for many subsets of one small **universe** of
//! queries. [`ClosureContext`](crate::capacity::ClosureContext) cannot be
//! shared across those calls because its candidate space is a function of
//! the generating set, and the generating set changes on every call
//! (`𝒯 − {Tᵢ}`, `(𝒯 − {T}) ∪ properProjections(T)`, …).
//!
//! [`NormContext`] restores sharing with three observations:
//!
//! 1. **The universe is stable.** By Theorem 4.2.1 every query arising
//!    during simplification is equivalent to a projection of an original
//!    defining query, and `π_X ∘ π_Y = π_X` for `X ⊆ Y`, so the set
//!    `originals ∪ properProjections(originals)` (modulo equivalence) is
//!    closed under every step the pipeline takes. The context interns that
//!    universe once — one λ, one RN set, one memoized projection list per
//!    equivalence class — and every subsequent question is a pair of class
//!    ids.
//! 2. **Verdicts are monotone in the generating set.** The closure is
//!    monotone: if a construction of `goal` uses only classes `W`, then
//!    `goal ∈ closure(S)` for every `S ⊇ W`; dually, if `goal ∉
//!    closure(S)`, then `goal ∉ closure(S′)` for every `S′ ⊆ S`. The
//!    context therefore keeps, per goal, the *witness sets* of successful
//!    probes and the *probed sets* of failed ones, and decides most of the
//!    greedy loops' heavily-overlapping questions by subset checks instead
//!    of enumeration. Two witness families are seeded for free, without any
//!    search: `goal ∈ closure(S)` whenever `goal ∈ S` (the one-atom
//!    skeleton `λ_goal`), and `π_X ∘ T ∈ closure(S)` whenever `T ∈ S` (the
//!    skeleton `π_X(λ_T)`).
//! 3. **Verdicts live in the image space.** The skeleton-level search of
//!    [`ClosureContext`](crate::capacity::ClosureContext) must keep every
//!    semantically distinct *λ-expression* because its callers consume
//!    witness constructions. A membership verdict only needs reachability
//!    of the goal's *substituted* equivalence class, and substitution
//!    distributes over join and projection, so distinct skeletons whose
//!    substituted templates coincide are interchangeable. The fallback
//!    therefore enumerates reduced substituted classes directly
//!    ([`ClassSpace`]), where the combinatorics collapse by orders of
//!    magnitude, and dedups them by exact canonical key — reduced
//!    equivalent templates are isomorphic, so no homomorphism confirms are
//!    needed on the hot path. Spaces are pooled by allowed class set, so an
//!    exact repeat (or another goal over the same subset) reuses the
//!    enumeration, and positive probes stop at the first level that reaches
//!    the goal.
//!
//! On top sit class-space variants of the Section 3.1/4 loops with the
//! *same control flow* as the one-shot functions in [`crate::redundancy`]
//! and [`crate::simplify`] (which now delegate here), so kept-index sets,
//! result order, and report lines are byte-identical; conformance tests pin
//! that. Verdicts agree with fresh per-subset runs wherever those complete
//! within budget; under budgets tight enough to overflow, the lattice may
//! answer definitively where a fresh run would report "unknown" (never the
//! reverse for a question it actually searches).

use crate::capacity::SearchBudget;
use crate::query::Query;
use std::collections::{BTreeSet, HashMap};
use viewcap_base::{Catalog, RelId, Scheme};
use viewcap_obs as obs;

/// Class-store activity: distinct classes minted vs. intern calls that
/// resolved to an existing class, and join/projection constructions
/// answered from the per-context memos. All work counts (no timing), so
/// the jobs-determinism suite can pin them.
static CLASS_NEW: obs::Counter = obs::Counter::new("core.norm.class.new");
static CLASS_HIT: obs::Counter = obs::Counter::new("core.norm.class.hit");
static JOIN_MEMO_HIT: obs::Counter = obs::Counter::new("core.norm.join.memo_hit");
static PROJ_MEMO_HIT: obs::Counter = obs::Counter::new("core.norm.proj.memo_hit");
use viewcap_template::{
    canonical_key, equivalent_templates, join_templates, project_template, reduce, CanonKey,
    SearchLimits, SearchOverflow, SearchStats, Template,
};

/// The per-universe state of the normalization pipeline: interned
/// equivalence classes, pooled per-subset class spaces, and the monotone
/// verdict lattice.
pub struct NormContext {
    /// Caller's catalog (projection targets are interned schemes).
    catalog: Catalog,
    /// Class representatives (first-interned query of each class), in
    /// discovery order: originals first, then their proper projections.
    classes: Vec<Query>,
    /// `RN` of each class (quick rejection).
    rn_of_class: Vec<BTreeSet<RelId>>,
    /// Canonical-key buckets for class lookup (equal keys ⇒ equivalent;
    /// inexact keys fall back to a linear scan).
    buckets: HashMap<CanonKey, Vec<usize>>,
    /// Memoized proper-projection classes, one entry per proper nonempty
    /// TRS subset in subset order (duplicates preserved).
    projections: Vec<Option<Vec<usize>>>,
    /// Whether class `c`'s projection witnesses were seeded into the
    /// lattice.
    seeded: Vec<bool>,
    /// Exact memo: `(sorted allowed classes, goal) → verdict`.
    verdicts: HashMap<(Vec<usize>, usize), bool>,
    /// Positive lattice: per goal, witness class sets (sorted). `goal ∈
    /// closure(S)` for every `S` ⊇ some witness set.
    witnesses: HashMap<usize, Vec<Vec<usize>>>,
    /// Negative lattice: per goal, probed sets (sorted) that failed to
    /// generate it. `goal ∉ closure(S)` for every `S` ⊆ some failed set.
    negatives: HashMap<usize, Vec<Vec<usize>>>,
    /// Pooled bounded enumerations over substituted classes, keyed by
    /// sorted allowed class set.
    spaces: HashMap<Vec<usize>, ClassSpace>,
    /// Join/projection-memoized class store shared by all pooled spaces.
    store: ClassStore,
    /// Budget applied to every probe.
    budget: SearchBudget,
    /// Membership questions asked (lattice and memo hits included).
    probes: u64,
    /// Questions that fell through to the bounded enumeration.
    searched: u64,
}

/// Reduction tuned for the candidate stream: strip rows removable by a
/// one-row subsumption mapping — a cheap special case of [`reduce`]'s
/// removal condition — then finish with the full greedy reduce.
///
/// A row `τ` is dominated by a same-tag row `σ` when every column either
/// agrees or holds a nondistinguished symbol private to `τ` that can be
/// remapped consistently; the symbol map extending that remapping by the
/// identity is a homomorphism into `T − {τ}`, so removal is exactly one of
/// the steps `reduce` would take (TRS is preserved because distinguished
/// columns must agree). Joins of already-reduced operands shed most rows
/// this way, and the prepass avoids the O(n) restarted homomorphism
/// searches the full reduce pays per removal. The result is a core like
/// `reduce`'s — possibly a different (isomorphic) representative, which
/// the class space's isomorphism-invariant keys absorb.
fn fast_reduce(t: &Template) -> Template {
    if t.len() <= 1 {
        return t.clone();
    }
    let mut rows: Vec<viewcap_template::TaggedTuple> = t.tuples().to_vec();
    'removed: loop {
        let mut occ: HashMap<viewcap_base::Symbol, u32> = HashMap::new();
        for r in &rows {
            for &s in r.row() {
                if !s.is_distinguished() {
                    *occ.entry(s).or_default() += 1;
                }
            }
        }
        for i in 0..rows.len() {
            if rows.len() == 1 {
                break;
            }
            let mut mine: HashMap<viewcap_base::Symbol, u32> = HashMap::new();
            for &s in rows[i].row() {
                if !s.is_distinguished() {
                    *mine.entry(s).or_default() += 1;
                }
            }
            for j in 0..rows.len() {
                if i == j || rows[i].rel() != rows[j].rel() {
                    continue;
                }
                let mut theta: HashMap<viewcap_base::Symbol, viewcap_base::Symbol> = HashMap::new();
                let mut ok = true;
                for (&a, &b) in rows[i].row().iter().zip(rows[j].row()) {
                    if a.is_distinguished() {
                        if a != b {
                            ok = false;
                            break;
                        }
                        continue;
                    }
                    // Nondistinguished: a == b pins the identity; a ≠ b
                    // needs a symbol private to row i. Either way the map
                    // must stay consistent across row i's columns.
                    if a != b && occ.get(&a) != mine.get(&a) {
                        ok = false;
                        break;
                    }
                    match theta.entry(a) {
                        std::collections::hash_map::Entry::Occupied(e) => {
                            if *e.get() != b {
                                ok = false;
                                break;
                            }
                        }
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(b);
                        }
                    }
                }
                if ok {
                    rows.remove(i);
                    continue 'removed;
                }
            }
        }
        break;
    }
    let slim = Template::new(rows).expect("subsumption keeps the template valid");
    reduce(&slim)
}

/// Is sorted `a` a subset of sorted `b`?
fn sorted_subset(a: &[usize], b: &[usize]) -> bool {
    let mut it = b.iter();
    'outer: for x in a {
        for y in it.by_ref() {
            match y.cmp(x) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

impl NormContext {
    /// Build the universe for a set of defining queries: the queries
    /// themselves plus all their proper projections, interned modulo
    /// equivalence. Cheap relative to search: no enumeration happens until
    /// a probe falls through the verdict lattice.
    pub fn new(queries: &[Query], catalog: &Catalog, budget: &SearchBudget) -> NormContext {
        let mut classes: Vec<Query> = Vec::new();
        let mut buckets: HashMap<CanonKey, Vec<usize>> = HashMap::new();
        let mut intern = |q: &Query, classes: &mut Vec<Query>| -> usize {
            let ids = buckets.entry(q.content_key(catalog).clone()).or_default();
            if let Some(&c) = ids.iter().find(|&&c| classes[c].equiv(q)) {
                return c;
            }
            let c = classes.len();
            classes.push(q.clone());
            ids.push(c);
            c
        };
        for q in queries {
            intern(q, &mut classes);
        }
        // Close under proper projection. Projections of projections are
        // projections of the originals (π_X ∘ π_Y = π_X for X ⊆ Y), so one
        // pass over the original classes suffices.
        let n_orig = classes.len();
        for c in 0..n_orig {
            let orig = classes[c].clone();
            for x in orig.trs().proper_nonempty_subsets() {
                let p = orig
                    .project(&x, catalog)
                    .expect("proper nonempty subsets are valid targets");
                intern(&p, &mut classes);
            }
        }

        let rn_of_class = classes.iter().map(|q| q.rel_names()).collect();
        let projections = vec![None; classes.len()];
        let seeded = vec![false; classes.len()];
        NormContext {
            catalog: catalog.clone(),
            classes,
            rn_of_class,
            buckets,
            projections,
            seeded,
            verdicts: HashMap::new(),
            witnesses: HashMap::new(),
            negatives: HashMap::new(),
            spaces: HashMap::new(),
            store: ClassStore::new(),
            budget: budget.clone(),
            probes: 0,
            searched: 0,
        }
    }

    /// Number of universe classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// The representative query of a class.
    pub fn class_query(&self, c: usize) -> &Query {
        &self.classes[c]
    }

    /// The universe class of `q`.
    ///
    /// Every query the pipeline produces is equivalent to a universe member
    /// (Theorem 4.2.1); callers must only pass such queries.
    pub fn class_of(&self, q: &Query) -> usize {
        if let Some(ids) = self.buckets.get(q.content_key(&self.catalog)) {
            if let Some(&c) = ids.iter().find(|&&c| self.classes[c].equiv(q)) {
                return c;
            }
        }
        // Inexact canonical keys need not agree across equivalent queries;
        // fall back to a scan before declaring the query foreign.
        self.classes
            .iter()
            .position(|x| x.equiv(q))
            .expect("query outside the context's universe (Theorem 4.2.1)")
    }

    /// The proper-projection classes of class `c`, one per proper nonempty
    /// TRS subset in subset order (duplicate classes preserved, mirroring
    /// [`crate::simplify::proper_projections`]).
    pub fn projection_classes(&mut self, c: usize) -> Vec<usize> {
        if let Some(memo) = &self.projections[c] {
            return memo.clone();
        }
        let q = self.classes[c].clone();
        let out: Vec<usize> = q
            .trs()
            .proper_nonempty_subsets()
            .into_iter()
            .map(|x| {
                let p = q
                    .project(&x, &self.catalog)
                    .expect("proper nonempty subsets are valid targets");
                self.class_of(&p)
            })
            .collect();
        self.projections[c] = Some(out.clone());
        out
    }

    /// Seed the free witnesses of class `c`: each proper projection `p` of
    /// `c` is generated by the skeleton `π_X(λ_c)`, so `{c}` is a witness
    /// set for `p` — no search needed.
    fn seed_projection_witnesses(&mut self, c: usize) {
        if self.seeded[c] {
            return;
        }
        self.seeded[c] = true;
        for p in self.projection_classes(c) {
            let ws = self.witnesses.entry(p).or_default();
            if !ws.iter().any(|w| w.as_slice() == [c]) {
                ws.push(vec![c]);
            }
        }
    }

    /// Record a successful probe's witness class set.
    fn record_witness(&mut self, goal: usize, mut w: Vec<usize>) {
        w.sort_unstable();
        w.dedup();
        let ws = self.witnesses.entry(goal).or_default();
        if !ws.iter().any(|x| sorted_subset(x, &w)) {
            ws.retain(|x| !sorted_subset(&w, x));
            ws.push(w);
        }
    }

    /// Record a failed probe's allowed set (keeping maximal sets only).
    fn record_negative(&mut self, goal: usize, key: &[usize]) {
        let ns = self.negatives.entry(goal).or_default();
        if !ns.iter().any(|x| sorted_subset(key, x)) {
            ns.retain(|x| !sorted_subset(x, key));
            ns.push(key.to_vec());
        }
    }

    /// Decide `classes[goal] ∈ closure({classes[c] | c ∈ allowed})`.
    /// Verdict-identical to a fresh
    /// [`closure_contains`](crate::capacity::closure_contains) over the
    /// corresponding queries wherever that run completes within budget.
    ///
    /// `Err` means the search budget was exhausted — the answer is unknown,
    /// *not* "no".
    pub fn contains_classes(
        &mut self,
        allowed: &[usize],
        goal: usize,
    ) -> Result<bool, SearchOverflow> {
        self.probes += 1;
        let mut key: Vec<usize> = allowed.to_vec();
        key.sort_unstable();
        key.dedup();
        if key.is_empty() {
            return Ok(false);
        }
        // Membership is free: the one-atom skeleton λ_goal.
        if key.binary_search(&goal).is_ok() {
            return Ok(true);
        }
        // Quick rejection: every construction's RN is covered by the union
        // of the allowed classes' RNs.
        let covered = self.rn_of_class[goal]
            .iter()
            .all(|r| key.iter().any(|&c| self.rn_of_class[c].contains(r)));
        if !covered {
            return Ok(false);
        }
        if let Some(&v) = self.verdicts.get(&(key.clone(), goal)) {
            return Ok(v);
        }
        // Monotone lattice: witnesses first (free projection seeds, then
        // recorded search winners), then failed supersets.
        for &c in &key {
            self.seed_projection_witnesses(c);
        }
        if let Some(ws) = self.witnesses.get(&goal) {
            if ws.iter().any(|w| sorted_subset(w, &key)) {
                self.verdicts.insert((key, goal), true);
                return Ok(true);
            }
        }
        if let Some(ns) = self.negatives.get(&goal) {
            if ns.iter().any(|n| sorted_subset(&key, n)) {
                self.verdicts.insert((key, goal), false);
                return Ok(false);
            }
        }

        let witness_lams = self.search(&key, goal)?;
        match witness_lams {
            Some(w) => {
                self.record_witness(goal, w);
                self.verdicts.insert((key, goal), true);
                Ok(true)
            }
            None => {
                self.record_negative(goal, &key);
                self.verdicts.insert((key, goal), false);
                Ok(false)
            }
        }
    }

    /// The bounded enumeration fallback: probe the pooled class space of
    /// the allowed set. Returns the universe classes used by the goal's
    /// first derivation on success.
    ///
    /// Verdict-equal to the skeleton-level search of
    /// [`ClosureContext`](crate::capacity::ClosureContext): a skeleton with
    /// `≤ max_atoms` atoms whose substituted template is equivalent to the
    /// goal exists iff the goal's substituted class is reachable within
    /// `max_atoms` (substitution distributes over join and projection, and
    /// equivalent operands yield equivalent joins/projections).
    fn search(&mut self, key: &[usize], goal: usize) -> Result<Option<Vec<usize>>, SearchOverflow> {
        self.searched += 1;
        let max_atoms = self.classes[goal].template().len();
        let NormContext {
            classes,
            spaces,
            store,
            budget,
            ..
        } = self;
        let space = spaces
            .entry(key.to_vec())
            .or_insert_with(|| ClassSpace::new(key, classes, store));
        let goal_t = fast_reduce(classes[goal].template());
        let goal_key = canonical_key(&goal_t);
        space.probe(&goal_t, &goal_key, max_atoms, &budget.limits, store)
    }

    /// Class-space [`nonredundant_indices`](crate::redundancy::nonredundant_indices):
    /// greedy removal of the earliest redundant class with restart. Same
    /// control flow, so the kept indices (and their order) are identical.
    pub fn nonredundant_classes(
        &mut self,
        classes: &[usize],
    ) -> Result<Vec<usize>, SearchOverflow> {
        let mut keep: Vec<usize> = (0..classes.len()).collect();
        'outer: loop {
            for pos in 0..keep.len() {
                let rest: Vec<usize> = keep
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != pos)
                    .map(|(_, &k)| classes[k])
                    .collect();
                if self.contains_classes(&rest, classes[keep[pos]])? {
                    keep.remove(pos);
                    continue 'outer;
                }
            }
            return Ok(keep);
        }
    }

    /// Class-space [`is_simple_with`](crate::simplify::is_simple_with):
    /// `classes[i]` is simple iff the others together with its proper
    /// projections fail to generate it.
    pub fn is_simple_class(&mut self, classes: &[usize], i: usize) -> Result<bool, SearchOverflow> {
        let mut allowed: Vec<usize> = classes
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, &c)| c)
            .collect();
        allowed.extend(self.projection_classes(classes[i]));
        Ok(!self.contains_classes(&allowed, classes[i])?)
    }

    /// Class-space [`is_simplified_set`](crate::simplify::is_simplified_set).
    pub fn is_simplified_classes(&mut self, classes: &[usize]) -> Result<bool, SearchOverflow> {
        for i in 0..classes.len() {
            if !self.is_simple_class(classes, i)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Class-space [`simplify_queries`](crate::simplify::simplify_queries):
    /// dedup, then repeatedly drop redundancy and decompose the first
    /// non-simple class into its proper projections. Same control flow and
    /// same push order, so the resulting class sequence matches the
    /// one-shot result query-for-query (modulo equivalence — which, for
    /// the report lines, means scheme-for-scheme).
    pub fn simplify_classes(&mut self, input: &[usize]) -> Result<Vec<usize>, SearchOverflow> {
        let mut qs: Vec<usize> = Vec::with_capacity(input.len());
        for &c in input {
            if !qs.contains(&c) {
                qs.push(c);
            }
        }
        'outer: loop {
            let keep = self.nonredundant_classes(&qs)?;
            qs = keep.into_iter().map(|i| qs[i]).collect();

            for i in 0..qs.len() {
                if !self.is_simple_class(&qs, i)? {
                    let victim = qs.remove(i);
                    for p in self.projection_classes(victim) {
                        if !qs.contains(&p) {
                            qs.push(p);
                        }
                    }
                    continue 'outer;
                }
            }
            return Ok(qs);
        }
    }

    /// [`nonredundant_indices`](crate::redundancy::nonredundant_indices)
    /// over queries of this context's universe.
    pub fn nonredundant_indices(
        &mut self,
        queries: &[Query],
    ) -> Result<Vec<usize>, SearchOverflow> {
        let classes: Vec<usize> = queries.iter().map(|q| self.class_of(q)).collect();
        self.nonredundant_classes(&classes)
    }

    /// [`is_simplified_set`](crate::simplify::is_simplified_set) over
    /// queries of this context's universe.
    pub fn is_simplified_set(&mut self, queries: &[Query]) -> Result<bool, SearchOverflow> {
        let classes: Vec<usize> = queries.iter().map(|q| self.class_of(q)).collect();
        self.is_simplified_classes(&classes)
    }

    /// [`simplify_queries`](crate::simplify::simplify_queries) over queries
    /// of this context's universe, returning the class representatives.
    pub fn simplify_queries(&mut self, queries: &[Query]) -> Result<Vec<Query>, SearchOverflow> {
        let classes: Vec<usize> = queries.iter().map(|q| self.class_of(q)).collect();
        let out = self.simplify_classes(&classes)?;
        Ok(out.into_iter().map(|c| self.classes[c].clone()).collect())
    }

    /// Cumulative enumeration counters summed over every pooled candidate
    /// space — the total search work paid across this context's probes.
    pub fn search_stats(&self) -> SearchStats {
        let mut total = SearchStats::default();
        for space in self.spaces.values() {
            let s = space.stats;
            total.combos += s.combos;
            total.roots_visited += s.roots_visited;
            total.parts_kept += s.parts_kept;
            total.dedup_hits += s.dedup_hits;
        }
        total
    }

    /// Membership questions asked through this context (lattice and memo
    /// hits included).
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Questions that fell through the verdict lattice to the bounded
    /// enumeration.
    pub fn searches(&self) -> u64 {
        self.searched
    }
}

/// A content-addressed store of *substituted* equivalence classes: reduced
/// templates interned by canonical key, with memoized join and projection
/// results. Shared by every pooled [`ClassSpace`] of a context — the
/// per-subset spaces overlap heavily (all draw from one universe), so each
/// distinct join or projection is constructed, reduced, and canonicalized
/// exactly once per context no matter how many subsets enumerate it.
struct ClassStore {
    /// Reduced representative templates.
    reprs: Vec<Template>,
    /// Canonical key of each representative.
    keys: Vec<CanonKey>,
    /// Cached TRS of each representative.
    schemes: Vec<Scheme>,
    /// Key index; an inexact key may bucket several representatives.
    by_key: HashMap<CanonKey, Vec<u32>>,
    /// Whether any representative carries an inexact key.
    any_inexact: bool,
    /// Class of `reduce(join(a, b))`, keyed by unordered operand pair
    /// (join is commutative up to equivalence).
    join_memo: HashMap<(u32, u32), u32>,
    /// Class of `reduce(π_X(a))`.
    proj_memo: HashMap<(u32, Scheme), u32>,
}

impl ClassStore {
    fn new() -> ClassStore {
        ClassStore {
            reprs: Vec::new(),
            keys: Vec::new(),
            schemes: Vec::new(),
            by_key: HashMap::new(),
            any_inexact: false,
            join_memo: HashMap::new(),
            proj_memo: HashMap::new(),
        }
    }

    /// Intern a reduced template, returning its class id.
    fn intern(&mut self, t: Template) -> u32 {
        let key = canonical_key(&t);
        let exact = key.is_exact();
        if let Some(ids) = self.by_key.get(&key) {
            if exact {
                // Exact keys are complete for isomorphism, and reduced
                // equivalent templates are isomorphic.
                if let Some(&id) = ids.first() {
                    CLASS_HIT.add(1);
                    return id;
                }
            } else if let Some(&id) = ids
                .iter()
                .find(|&&i| equivalent_templates(&self.reprs[i as usize], &t))
            {
                CLASS_HIT.add(1);
                return id;
            }
        }
        CLASS_NEW.add(1);
        let id = self.reprs.len() as u32;
        self.any_inexact |= !exact;
        self.by_key.entry(key.clone()).or_default().push(id);
        self.schemes.push(t.trs());
        self.keys.push(key);
        self.reprs.push(t);
        id
    }

    /// Find a reduced template's class without interning it.
    fn find(&self, t: &Template, key: &CanonKey) -> Option<u32> {
        if key.is_exact() {
            return self.by_key.get(key)?.first().copied();
        }
        // Inexact keys need not agree across equivalent templates; check
        // the same-key bucket first, then scan the other inexact classes.
        if let Some(ids) = self.by_key.get(key) {
            if let Some(&id) = ids
                .iter()
                .find(|&&i| equivalent_templates(&self.reprs[i as usize], t))
            {
                return Some(id);
            }
        }
        if !self.any_inexact {
            return None;
        }
        let trs = t.trs();
        (0..self.reprs.len() as u32).find(|&i| {
            !self.keys[i as usize].is_exact()
                && self.keys[i as usize] != *key
                && self.schemes[i as usize] == trs
                && equivalent_templates(&self.reprs[i as usize], t)
        })
    }

    /// The class of `reduce(join(a, b))`.
    fn join(&mut self, a: u32, b: u32) -> u32 {
        let k = (a.min(b), a.max(b));
        if let Some(&c) = self.join_memo.get(&k) {
            JOIN_MEMO_HIT.add(1);
            return c;
        }
        let j = join_templates(&self.reprs[k.0 as usize], &self.reprs[k.1 as usize]);
        let c = self.intern(fast_reduce(&j));
        self.join_memo.insert(k, c);
        c
    }

    /// The class of `reduce(π_X(a))`. Requires `∅ ≠ X ⊆ TRS(a)`.
    fn project(&mut self, a: u32, x: &Scheme) -> u32 {
        if let Some(&c) = self.proj_memo.get(&(a, x.clone())) {
            PROJ_MEMO_HIT.add(1);
            return c;
        }
        let p = project_template(&self.reprs[a as usize], x)
            .expect("projection targets are nonempty TRS subsets");
        let c = self.intern(fast_reduce(&p));
        self.proj_memo.insert((a, x.clone()), c);
        c
    }
}

/// Bounded enumeration of the substituted classes reachable from one
/// allowed set of universe classes.
///
/// Where [`CandidateSpace`](viewcap_template::CandidateSpace) enumerates
/// λ-skeletons (every semantically distinct normalized *expression* over
/// the atoms), this enumerates their images in a shared [`ClassStore`].
/// Levels are skeleton atom counts; a class sits at the first level that
/// reaches it. Level `m ≥ 2` joins every pair of earlier classes whose
/// levels sum to `m` (binary splits cover all multiway joins by
/// associativity), and classes are closed under proper projections at the
/// same level (`π_X(join)` parts add no atoms). Completeness mirrors the
/// skeleton search's: a class reachable by an `a`-atom skeleton is present
/// after level `a` is built.
///
/// The projection closure of the *top* built level is deferred: those
/// projections are never join operands unless a deeper level is built, so
/// goal checks on the open level scan its join classes on demand (one
/// memoized projection onto the goal's TRS each) instead of materializing
/// the full subset lattice of every join — the bulk of the closure work.
struct ClassSpace {
    /// Classes first reached at each built level, in discovery order.
    by_level: Vec<Vec<u32>>,
    /// Store class → (first level reached, universe classes of the first
    /// derivation) in this space.
    reached: HashMap<u32, (usize, Vec<usize>)>,
    /// Levels whose join enumeration ran.
    built: usize,
    /// Levels whose projection closure ran (`built` or `built − 1`; the
    /// top level stays open until a deeper level needs its projections as
    /// operands).
    proj_closed: usize,
    /// Classes of the open level awaiting projection closure.
    deferred: Vec<u32>,
    /// Cumulative candidates examined / classes reached after each built
    /// level — per-probe budget replay. A late projection closure folds
    /// into its level's entry.
    combos_after: Vec<u64>,
    classes_after: Vec<usize>,
    /// A limit tripped mid-build; every probe needing the unbuilt part
    /// reports this overflow.
    poisoned: Option<&'static str>,
    stats: SearchStats,
}

impl ClassSpace {
    /// Seed level 1: the allowed classes themselves (projection closure
    /// deferred like any top level).
    fn new(atoms: &[usize], classes: &[Query], store: &mut ClassStore) -> ClassSpace {
        let mut space = ClassSpace {
            by_level: vec![Vec::new()],
            reached: HashMap::new(),
            built: 1,
            proj_closed: 0,
            deferred: Vec::new(),
            combos_after: Vec::new(),
            classes_after: Vec::new(),
            poisoned: None,
            stats: SearchStats::default(),
        };
        for &c in atoms {
            space.stats.combos += 1;
            let gid = store.intern(fast_reduce(classes[c].template()));
            space.reach(gid, 1, vec![c]);
        }
        space.deferred = space.by_level[0].clone();
        space.combos_after.push(space.stats.combos);
        space.classes_after.push(space.reached.len());
        space
    }

    /// Record a class at `level` if it is new to this space. Returns
    /// whether it was new.
    fn reach(&mut self, gid: u32, level: usize, mut wit: Vec<usize>) -> bool {
        use std::collections::hash_map::Entry;
        match self.reached.entry(gid) {
            Entry::Occupied(_) => {
                self.stats.dedup_hits += 1;
                false
            }
            Entry::Vacant(e) => {
                wit.sort_unstable();
                wit.dedup();
                e.insert((level, wit));
                self.by_level[level - 1].push(gid);
                self.stats.parts_kept += 1;
                true
            }
        }
    }

    /// Build levels up to `m` (exclusive of `m`'s projection closure).
    fn ensure_level(
        &mut self,
        m: usize,
        limits: &SearchLimits,
        store: &mut ClassStore,
    ) -> Result<(), SearchOverflow> {
        /// One span per class-space level extension (only when work runs;
        /// already-built levels return before the span starts).
        static LEVEL_SPAN: obs::SpanDef = obs::SpanDef::new(
            "core.norm.level_build",
            "enum",
            "span.core.norm.level_build",
        );
        let mut span = if self.built < m {
            let mut s = LEVEL_SPAN.start();
            s.arg("target_level", m as u64);
            Some(s)
        } else {
            None
        };
        while self.built < m {
            if let Some(context) = self.poisoned {
                return Err(SearchOverflow { context });
            }
            if self.proj_closed < self.built {
                self.close_open_level(limits, store)?;
            }
            self.build_join_level(self.built + 1, limits, store)?;
        }
        if let Some(s) = span.as_mut() {
            s.arg("combos", self.stats.combos);
        }
        if let Some(context) = self.poisoned {
            if self.combos_after.len() < m {
                return Err(SearchOverflow { context });
            }
        }
        Ok(())
    }

    /// Run the deferred projection closure of the open level (needed once
    /// a deeper level wants its projections as join operands).
    fn close_open_level(
        &mut self,
        limits: &SearchLimits,
        store: &mut ClassStore,
    ) -> Result<(), SearchOverflow> {
        let level = self.built;
        let level_floor = if level > 1 {
            self.classes_after[level - 2]
        } else {
            0
        };
        let mut queue = std::mem::take(&mut self.deferred);
        while let Some(id) = queue.pop() {
            let trs = store.schemes[id as usize].clone();
            for x in trs.proper_nonempty_subsets() {
                self.stats.combos += 1;
                if self.stats.combos > limits.max_visits {
                    self.poisoned = Some("visit budget exhausted");
                    return Err(SearchOverflow {
                        context: "visit budget exhausted",
                    });
                }
                let pid = store.project(id, &x);
                let wit = self.reached[&id].1.clone();
                if self.reach(pid, level, wit) {
                    queue.push(pid);
                }
                if self.reached.len() - level_floor > limits.max_level_parts {
                    self.poisoned = Some("per-level part budget exhausted");
                    return Err(SearchOverflow {
                        context: "per-level part budget exhausted",
                    });
                }
            }
        }
        self.proj_closed = level;
        // Fold the closure into the level's replay counters.
        self.combos_after[level - 1] = self.stats.combos;
        self.classes_after[level - 1] = self.reached.len();
        Ok(())
    }

    /// Enumerate the joins of level `m`: every pair of earlier classes
    /// whose levels sum to `m`.
    fn build_join_level(
        &mut self,
        m: usize,
        limits: &SearchLimits,
        store: &mut ClassStore,
    ) -> Result<(), SearchOverflow> {
        let level_floor = self.reached.len();
        self.by_level.push(Vec::new());
        let mut fresh: Vec<u32> = Vec::new();
        for a in 1..=(m / 2) {
            let b = m - a;
            for xi in 0..self.by_level[a - 1].len() {
                let yi0 = if a == b { xi } else { 0 };
                for yi in yi0..self.by_level[b - 1].len() {
                    let (x, y) = (self.by_level[a - 1][xi], self.by_level[b - 1][yi]);
                    self.stats.combos += 1;
                    if self.stats.combos > limits.max_visits {
                        self.poisoned = Some("visit budget exhausted");
                        return Err(SearchOverflow {
                            context: "visit budget exhausted",
                        });
                    }
                    let gid = store.join(x, y);
                    let mut wit = self.reached[&x].1.clone();
                    wit.extend_from_slice(&self.reached[&y].1);
                    if self.reach(gid, m, wit) {
                        fresh.push(gid);
                    }
                    if self.reached.len() - level_floor > limits.max_level_parts {
                        self.poisoned = Some("per-level part budget exhausted");
                        return Err(SearchOverflow {
                            context: "per-level part budget exhausted",
                        });
                    }
                }
            }
        }
        self.deferred = fresh;
        self.built = m;
        self.combos_after.push(self.stats.combos);
        self.classes_after.push(self.reached.len());
        Ok(())
    }

    /// Is the goal's class reachable within `max_atoms`? Returns the
    /// universe classes of its first derivation. Builds levels lazily and
    /// stops at the first level that reaches the goal.
    fn probe(
        &mut self,
        goal_t: &Template,
        goal_key: &CanonKey,
        max_atoms: usize,
        limits: &SearchLimits,
        store: &mut ClassStore,
    ) -> Result<Option<Vec<usize>>, SearchOverflow> {
        let goal_trs = goal_t.trs();
        for level in 1..=max_atoms {
            self.ensure_level(level, limits, store)?;
            // Per-probe budget replay for levels built by earlier probes.
            if self.combos_after[level - 1] > limits.max_visits {
                return Err(SearchOverflow {
                    context: "visit budget exhausted",
                });
            }
            let at_level = self.classes_after[level - 1]
                - if level > 1 {
                    self.classes_after[level - 2]
                } else {
                    0
                };
            if at_level > limits.max_level_parts {
                return Err(SearchOverflow {
                    context: "per-level part budget exhausted",
                });
            }
            if let Some(gid) = store.find(goal_t, goal_key) {
                if let Some((lv, wit)) = self.reached.get(&gid) {
                    if *lv <= level {
                        return Ok(Some(wit.clone()));
                    }
                }
            }
            // Open level: the projection closure hasn't run, so check the
            // goal against each join class's projection onto its TRS.
            if level == self.built && self.proj_closed < level && !goal_trs.is_empty() {
                for di in 0..self.deferred.len() {
                    let id = self.deferred[di];
                    let trs = &store.schemes[id as usize];
                    if goal_trs == *trs || !goal_trs.is_subset_of(trs) {
                        continue;
                    }
                    self.stats.roots_visited += 1;
                    let pid = store.project(id, &goal_trs);
                    let hit = if goal_key.is_exact() {
                        store.keys[pid as usize] == *goal_key
                    } else {
                        equivalent_templates(&store.reprs[pid as usize], goal_t)
                    };
                    if hit {
                        return Ok(Some(self.reached[&id].1.clone()));
                    }
                }
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::closure_contains;
    use crate::redundancy::nonredundant_indices;
    use crate::simplify::{is_simple_with, proper_projections, simplify_queries};
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
    fn sorted_subset_is_subset() {
        assert!(sorted_subset(&[], &[]));
        assert!(sorted_subset(&[], &[1, 2]));
        assert!(sorted_subset(&[1], &[1, 2]));
        assert!(sorted_subset(&[2], &[1, 2]));
        assert!(sorted_subset(&[1, 2], &[1, 2]));
        assert!(!sorted_subset(&[3], &[1, 2]));
        assert!(!sorted_subset(&[0], &[1, 2]));
        assert!(!sorted_subset(&[1, 2], &[1]));
        assert!(!sorted_subset(&[1, 3], &[1, 2, 4]));
        assert!(sorted_subset(&[2, 4], &[1, 2, 3, 4, 5]));
    }

    #[test]
    fn universe_holds_originals_and_projections() {
        let cat = setup();
        let set = [q(&cat, "pi{A,B}(R) * pi{B,C}(R)"), q(&cat, "pi{B,C}(R)")];
        let mut ctx = NormContext::new(&set, &cat, &SearchBudget::default());
        // Originals intern to the first two classes.
        assert_eq!(ctx.class_of(&set[0]), 0);
        assert_eq!(ctx.class_of(&set[1]), 1);
        // Every proper projection is in the universe.
        for s in &set {
            for p in proper_projections(s, &cat) {
                let c = ctx.class_of(&p);
                assert!(ctx.class_query(c).equiv(&p));
            }
        }
        // And the universe is closed under projections of projections.
        for c in 0..ctx.class_count() {
            for p in ctx.projection_classes(c) {
                assert!(p < ctx.class_count());
            }
        }
    }

    #[test]
    fn contains_classes_matches_fresh_closure_runs() {
        let cat = setup();
        let set = [
            q(&cat, "pi{A,B}(R) * pi{B,C}(R)"),
            q(&cat, "pi{A,B}(R)"),
            q(&cat, "pi{B,C}(R)"),
        ];
        let budget = SearchBudget::default();
        let mut ctx = NormContext::new(&set, &cat, &budget);
        let n = ctx.class_count();
        // Every subset of the originals against every universe goal.
        let subsets: Vec<Vec<usize>> = (1u32..(1 << set.len()))
            .map(|mask| (0..set.len()).filter(|i| mask & (1 << i) != 0).collect())
            .collect();
        for allowed in &subsets {
            for goal in 0..n {
                let shared = ctx.contains_classes(allowed, goal).unwrap();
                let queries: Vec<Query> = allowed
                    .iter()
                    .map(|&c| ctx.class_query(c).clone())
                    .collect();
                let fresh =
                    closure_contains(&queries, ctx.class_query(goal), &cat, &budget).unwrap();
                assert_eq!(
                    shared,
                    fresh.is_some(),
                    "allowed {allowed:?} goal {goal} diverged"
                );
            }
        }
    }

    #[test]
    fn lattice_shortcuts_agree_with_search_on_replay() {
        // Run the same battery twice on one context; the second pass is
        // answered entirely by memo/lattice and must agree.
        let cat = setup();
        let set = [
            q(&cat, "pi{A,B}(R) * pi{B,C}(R)"),
            q(&cat, "pi{A,B}(R)"),
            q(&cat, "pi{B,C}(R)"),
        ];
        let budget = SearchBudget::default();
        let mut ctx = NormContext::new(&set, &cat, &budget);
        let n = ctx.class_count();
        let mut first = Vec::new();
        for allowed in [[0usize].as_slice(), &[1], &[2], &[1, 2], &[0, 1, 2]] {
            for goal in 0..n {
                first.push(ctx.contains_classes(allowed, goal).unwrap());
            }
        }
        let searched_after_first = ctx.searches();
        let mut second = Vec::new();
        for allowed in [[0usize].as_slice(), &[1], &[2], &[1, 2], &[0, 1, 2]] {
            for goal in 0..n {
                second.push(ctx.contains_classes(allowed, goal).unwrap());
            }
        }
        assert_eq!(first, second);
        assert_eq!(
            ctx.searches(),
            searched_after_first,
            "replay fell through to the enumeration"
        );
    }

    #[test]
    fn nonredundant_classes_match_the_one_shot_loop() {
        let cat = setup();
        let sets = [
            vec![
                q(&cat, "pi{A,B}(R) * pi{B,C}(R)"),
                q(&cat, "pi{A,B}(R)"),
                q(&cat, "pi{B,C}(R)"),
            ],
            vec![q(&cat, "pi{A,B}(R)"), q(&cat, "pi{B,C}(R)")],
            vec![q(&cat, "pi{A}(R)"), q(&cat, "pi{A}(R * R)")],
        ];
        let budget = SearchBudget::default();
        for set in &sets {
            let mut ctx = NormContext::new(set, &cat, &budget);
            let shared = ctx.nonredundant_indices(set).unwrap();
            let fresh = reference_nonredundant(set, &cat, &budget);
            assert_eq!(shared, fresh);
            // And the public one-shot (which delegates here) agrees too.
            assert_eq!(nonredundant_indices(set, &cat, &budget).unwrap(), fresh);
        }
    }

    /// The pre-context greedy loop over per-subset `ClosureContext`s —
    /// kept as a test oracle.
    fn reference_nonredundant(
        queries: &[Query],
        catalog: &Catalog,
        budget: &SearchBudget,
    ) -> Vec<usize> {
        let mut keep: Vec<usize> = (0..queries.len()).collect();
        'outer: loop {
            for pos in 0..keep.len() {
                let subset: Vec<Query> = keep.iter().map(|&k| queries[k].clone()).collect();
                let rest: Vec<Query> = subset
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != pos)
                    .map(|(_, q)| q.clone())
                    .collect();
                if closure_contains(&rest, &subset[pos], catalog, budget)
                    .unwrap()
                    .is_some()
                {
                    keep.remove(pos);
                    continue 'outer;
                }
            }
            return keep;
        }
    }

    #[test]
    fn simplify_classes_match_the_one_shot_loop() {
        let cat = setup();
        let set = [q(&cat, "pi{A,B}(R) * pi{B,C}(R)")];
        let budget = SearchBudget::default();
        let mut ctx = NormContext::new(&set, &cat, &budget);
        let shared = ctx.simplify_queries(&set).unwrap();
        let fresh = simplify_queries(&set, &cat, &budget).unwrap();
        assert_eq!(shared.len(), fresh.len());
        for (s, f) in shared.iter().zip(&fresh) {
            assert!(s.equiv(f), "result order diverged");
            assert_eq!(s.trs(), f.trs());
        }
    }

    #[test]
    fn is_simple_agrees_with_the_one_shot() {
        let cat = setup();
        let set = [
            q(&cat, "pi{A,B}(R) * pi{B,C}(R)"),
            q(&cat, "pi{A,B}(R)"),
            q(&cat, "pi{B,C}(R)"),
        ];
        let budget = SearchBudget::default();
        let mut ctx = NormContext::new(&set, &cat, &budget);
        let classes: Vec<usize> = set.iter().map(|q| ctx.class_of(q)).collect();
        for i in 0..set.len() {
            assert_eq!(
                ctx.is_simple_class(&classes, i).unwrap(),
                is_simple_with(&set, i, &cat, &budget).unwrap(),
                "query {i}"
            );
        }
    }
}
