//! Template homomorphisms and the containment / equivalence tests.
//!
//! Paper, Section 2.4: a *homomorphism* from `T` to `S` is a valuation `f`
//! with `f(0_A) = 0_A` for every attribute and `f(τ) ∈ S` for every tagged
//! tuple `τ ∈ T`. The fundamental facts (from Aho–Sagiv–Ullman, restated as
//! Propositions 2.4.1–2.4.3):
//!
//! * `S(α) ⊆ T(α)` for every instantiation `α` **iff** there is a
//!   homomorphism from `T` to `S` ([`template_contains`]);
//! * `T ≡ S` **iff** homomorphisms exist in both directions
//!   ([`equivalent_templates`]);
//! * both are decidable — realized here by backtracking search with
//!   candidate precomputation and most-constrained-first ordering.
//!
//! A [`Homomorphism`] records both the symbol valuation and the induced
//! tuple mapping; the latter is what the essential-tuple machinery of
//! Section 3 consumes. Valuations and consistent tuple maps are in
//! bijection, so enumerating tuple maps enumerates valuations without
//! duplicates.

use crate::index::TupleIndex;
use crate::template::Template;
use std::collections::HashMap;
use std::ops::ControlFlow;
use viewcap_base::Symbol;
use viewcap_obs as obs;

/// Trie-indexed candidate-join activity: calls to [`candidate_lists`]
/// and the total candidate targets they surfaced (the pairs the
/// backtracking search actually has to consider).
static JOIN_CALLS: obs::Counter = obs::Counter::new("template.join.calls");
static JOIN_CANDIDATES: obs::Counter = obs::Counter::new("template.join.candidates");

/// A finite symbol mapping (the meaningful fragment of a valuation).
///
/// Symbols absent from the map are fixed; distinguished symbols are always
/// fixed.
pub type Valuation = HashMap<Symbol, Symbol>;

/// A homomorphism between templates: the symbol valuation together with the
/// tuple mapping it induces.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Homomorphism {
    /// Images of the source's nondistinguished symbols.
    pub symbol_map: Valuation,
    /// `tuple_map[i] = j` means source tuple `i` maps onto target tuple `j`
    /// (indices into the canonical tuple orders).
    pub tuple_map: Vec<usize>,
}

impl Homomorphism {
    /// Apply the valuation to a symbol (identity outside the map).
    pub fn apply(&self, s: Symbol) -> Symbol {
        if s.is_distinguished() {
            s
        } else {
            self.symbol_map.get(&s).copied().unwrap_or(s)
        }
    }
}

/// Candidate target-tuple lists per source tuple.
///
/// A target tuple is a candidate for a source tuple when the tags agree and
/// every distinguished source entry meets the same distinguished entry in
/// the target (valuations fix distinguished symbols).
///
/// Candidates come from the target's byte-trie [`TupleIndex`]
/// ([`Template::tuple_index`], built once and shared by clones): each
/// source tuple narrows the postings of its relation tag by its ground
/// (distinguished) positions — a multiway sorted intersection on large tag
/// buckets, a direct row check over the (already tag-pruned) bucket on
/// small ones, where intersection seeks cost more than they save. Postings
/// are in tuple order and both paths preserve it, so the lists — and
/// therefore the backtracking search — are identical to the flat reference
/// scan's.
pub fn candidate_lists(src: &Template, dst: &Template) -> Option<Vec<Vec<usize>>> {
    candidate_lists_indexed(src, dst, dst.tuple_index())
}

/// Below this tag-bucket size, filtering the bucket against the target
/// rows directly beats per-position posting seeks.
const LEAPFROG_MIN_BUCKET: usize = 16;

/// Below this candidate-list length the backtracking search keeps the
/// static list rather than re-intersecting postings per depth — pruning a
/// handful of candidates costs more than letting the bind step reject
/// them.
const DYNAMIC_PRUNE_MIN: usize = 8;

/// [`candidate_lists`] against a prebuilt index (what [`HomSearch`] uses,
/// so one cached build serves both the static lists and the dynamic
/// pruning).
fn candidate_lists_indexed(
    src: &Template,
    dst: &Template,
    index: &TupleIndex,
) -> Option<Vec<Vec<usize>>> {
    let mut out = Vec::with_capacity(src.len());
    let mut required: Vec<(usize, Symbol)> = Vec::new();
    let mut buf: Vec<u32> = Vec::new();
    let mut surfaced: u64 = 0;
    JOIN_CALLS.add(1);
    for st in src.tuples() {
        buf.clear();
        let bucket = index.by_tag(st.rel());
        if bucket.len() < LEAPFROG_MIN_BUCKET {
            'target: for &j in bucket {
                let dt = &dst.tuples()[j as usize];
                for (a, b) in st.row().iter().zip(dt.row()) {
                    if a.is_distinguished() && a != b {
                        continue 'target;
                    }
                }
                buf.push(j);
            }
        } else {
            required.clear();
            for (p, a) in st.row().iter().enumerate() {
                if a.is_distinguished() {
                    required.push((p, *a));
                }
            }
            index.candidates(st.rel(), &required, &mut buf);
        }
        if buf.is_empty() {
            JOIN_CANDIDATES.add(surfaced);
            return None;
        }
        surfaced += buf.len() as u64;
        out.push(buf.iter().map(|&j| j as usize).collect());
    }
    JOIN_CANDIDATES.add(surfaced);
    Some(out)
}

/// The flat O(|src| · |dst|) reference scan — the semantic oracle the
/// differential tests compare the trie-indexed join against. Not part of
/// the public API: decision procedures reach candidates through
/// [`find_homomorphism`] / [`template_contains`], which drive the index.
#[cfg(test)]
pub(crate) fn candidate_lists_flat(src: &Template, dst: &Template) -> Option<Vec<Vec<usize>>> {
    let mut out = Vec::with_capacity(src.len());
    for st in src.tuples() {
        let mut cands = Vec::new();
        'target: for (j, dt) in dst.tuples().iter().enumerate() {
            if dt.rel() != st.rel() {
                continue;
            }
            for (a, b) in st.row().iter().zip(dt.row()) {
                if a.is_distinguished() && a != b {
                    continue 'target;
                }
            }
            cands.push(j);
        }
        if cands.is_empty() {
            return None;
        }
        out.push(cands);
    }
    Some(out)
}

/// Backtracking engine shared by existence and enumeration queries.
struct HomSearch<'a> {
    src: &'a Template,
    dst: &'a Template,
    /// Source tuple indices in search order (most constrained first).
    order: Vec<usize>,
    cands: Vec<Vec<usize>>,
    /// Byte-trie index over the target (the target's cached index), shared
    /// by the static candidate lists and the per-depth bound-attribute
    /// pruning.
    index: &'a TupleIndex,
    binding: Valuation,
    trail: Vec<Symbol>,
    assignment: Vec<usize>,
    /// Scratch for the per-depth `(position, symbol)` requirements.
    req_buf: Vec<(usize, Symbol)>,
    /// Scratch for index intersections.
    cand_buf: Vec<u32>,
}

impl<'a> HomSearch<'a> {
    fn new(src: &'a Template, dst: &'a Template) -> Option<Self> {
        let index = dst.tuple_index();
        let cands = candidate_lists_indexed(src, dst, index)?;
        let mut order: Vec<usize> = (0..src.len()).collect();
        order.sort_by_key(|&i| cands[i].len());
        Some(HomSearch {
            src,
            dst,
            order,
            cands,
            index,
            binding: HashMap::new(),
            trail: Vec::new(),
            assignment: vec![usize::MAX; src.len()],
            req_buf: Vec::new(),
            cand_buf: Vec::new(),
        })
    }

    /// Try mapping source tuple `i` onto target tuple `j`; on success returns
    /// the number of new bindings pushed on the trail.
    fn try_bind(&mut self, i: usize, j: usize) -> Option<usize> {
        let st = &self.src.tuples()[i];
        let dt = &self.dst.tuples()[j];
        let mut pushed = 0;
        for (a, b) in st.row().iter().zip(dt.row()) {
            if a.is_distinguished() {
                continue; // candidate list already enforced equality
            }
            match self.binding.get(a) {
                Some(&bound) if bound == *b => {}
                Some(_) => {
                    self.undo(pushed);
                    return None;
                }
                None => {
                    self.binding.insert(*a, *b);
                    self.trail.push(*a);
                    pushed += 1;
                }
            }
        }
        Some(pushed)
    }

    fn undo(&mut self, n: usize) {
        for _ in 0..n {
            let s = self.trail.pop().expect("trail underflow");
            self.binding.remove(&s);
        }
    }

    /// Candidates for source tuple `i` under the current partial valuation.
    ///
    /// On long candidate lists, every position whose source symbol is
    /// already bound adds a `(position, image)` requirement; intersecting
    /// those postings (plus the distinguished positions') drops exactly the
    /// targets [`HomSearch::try_bind`] would reject on a bound-symbol
    /// conflict. Short lists — and depths with nothing bound — keep the
    /// static list and let the bind step reject. Pruning yields a
    /// subsequence of the static (tuple-order) list, so the search visits
    /// survivors in the same order as the unpruned search — same first
    /// homomorphism, same enumeration order.
    fn pruned_candidates(&mut self, i: usize) -> Vec<usize> {
        if self.cands[i].len() < DYNAMIC_PRUNE_MIN || self.binding.is_empty() {
            return self.cands[i].clone();
        }
        let st = &self.src.tuples()[i];
        self.req_buf.clear();
        for (p, a) in st.row().iter().enumerate() {
            if !a.is_distinguished() {
                if let Some(&b) = self.binding.get(a) {
                    self.req_buf.push((p, b));
                }
            }
        }
        if self.req_buf.is_empty() {
            return self.cands[i].clone();
        }
        for (p, a) in st.row().iter().enumerate() {
            if a.is_distinguished() {
                self.req_buf.push((p, *a));
            }
        }
        self.cand_buf.clear();
        self.index
            .candidates(st.rel(), &self.req_buf, &mut self.cand_buf);
        self.cand_buf.iter().map(|&j| j as usize).collect()
    }

    fn run<F>(&mut self, depth: usize, f: &mut F) -> ControlFlow<()>
    where
        F: FnMut(&Homomorphism) -> ControlFlow<()>,
    {
        if depth == self.order.len() {
            let hom = Homomorphism {
                symbol_map: self.binding.clone(),
                tuple_map: self.assignment.clone(),
            };
            return f(&hom);
        }
        let i = self.order[depth];
        let cands = self.pruned_candidates(i);
        for j in cands {
            if let Some(pushed) = self.try_bind(i, j) {
                self.assignment[i] = j;
                let flow = self.run(depth + 1, f);
                self.assignment[i] = usize::MAX;
                self.undo(pushed);
                if flow.is_break() {
                    return ControlFlow::Break(());
                }
            }
        }
        ControlFlow::Continue(())
    }
}

/// Find one homomorphism from `src` to `dst`, if any.
pub fn find_homomorphism(src: &Template, dst: &Template) -> Option<Homomorphism> {
    let mut found = None;
    let _ = for_each_homomorphism(src, dst, &mut |h| {
        found = Some(h.clone());
        ControlFlow::Break(())
    });
    found
}

/// Enumerate every homomorphism from `src` to `dst`.
///
/// The callback can stop the enumeration by returning
/// [`ControlFlow::Break`]. Returns whether enumeration was broken.
pub fn for_each_homomorphism<F>(src: &Template, dst: &Template, f: &mut F) -> ControlFlow<()>
where
    F: FnMut(&Homomorphism) -> ControlFlow<()>,
{
    match HomSearch::new(src, dst) {
        None => ControlFlow::Continue(()),
        Some(mut search) => search.run(0, f),
    }
}

/// Proposition 2.4.1: does `inner(α) ⊆ outer(α)` hold for *every*
/// instantiation `α`? Decided by searching for a homomorphism from `outer`
/// to `inner`.
///
/// Relations on different schemes are never comparable, so templates with
/// different TRS are never in the containment relation; the proposition
/// implicitly compares same-TRS templates and we guard accordingly (a
/// homomorphism can still exist across a TRS mismatch — it just proves
/// nothing about the mappings).
pub fn template_contains(outer: &Template, inner: &Template) -> bool {
    outer.trs() == inner.trs() && find_homomorphism(outer, inner).is_some()
}

/// Corollary 2.4.2 / Proposition 2.4.3: do `a` and `b` realize the same
/// mapping? Decided by homomorphisms in both directions.
pub fn equivalent_templates(a: &Template, b: &Template) -> bool {
    template_contains(a, b) && template_contains(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::TaggedTuple;
    use viewcap_base::{Catalog, RelId};

    fn setup() -> (Catalog, RelId) {
        let mut cat = Catalog::new();
        let r = cat.relation("R", &["A", "B", "C"]).unwrap();
        (cat, r)
    }

    /// Template for π_AB(R): row (0_A, 0_B, c₁).
    fn pi_ab(cat: &Catalog, r: RelId) -> Template {
        let [a, b, c] = ["A", "B", "C"].map(|n| cat.lookup_attr(n).unwrap());
        Template::new(vec![TaggedTuple::new(
            r,
            vec![
                Symbol::distinguished(a),
                Symbol::distinguished(b),
                Symbol::new(c, 1),
            ],
            cat,
        )
        .unwrap()])
        .unwrap()
    }

    /// Template for π_AB(R) ⋈ π_BC(R): rows (0,0,c₁) and (a₂,0,0).
    fn pi_ab_join_pi_bc(cat: &Catalog, r: RelId) -> Template {
        let [a, b, c] = ["A", "B", "C"].map(|n| cat.lookup_attr(n).unwrap());
        Template::new(vec![
            TaggedTuple::new(
                r,
                vec![
                    Symbol::distinguished(a),
                    Symbol::distinguished(b),
                    Symbol::new(c, 1),
                ],
                cat,
            )
            .unwrap(),
            TaggedTuple::new(
                r,
                vec![
                    Symbol::new(a, 2),
                    Symbol::distinguished(b),
                    Symbol::distinguished(c),
                ],
                cat,
            )
            .unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn identity_homomorphism_exists() {
        let (cat, r) = setup();
        let t = pi_ab_join_pi_bc(&cat, r);
        let h = find_homomorphism(&t, &t).expect("identity exists");
        assert_eq!(h.tuple_map.len(), 2);
        // identity maps each tuple to itself under some hom (maybe others too)
        assert!(template_contains(&t, &t));
    }

    #[test]
    fn lossy_join_containment_direction() {
        // R ⊑ π_AB(R) ⋈ π_BC(R): the decomposition contains the original.
        // In template terms: R(α) ⊆ [π_AB ⋈ π_BC](α) for all α, so by
        // Prop 2.4.1 there is a hom from the join template to atom(R).
        let (cat, r) = setup();
        let atom = Template::atom(r, &cat);
        let join = pi_ab_join_pi_bc(&cat, r);
        assert!(template_contains(&join, &atom));
        // and NOT conversely (the join is lossy):
        assert!(!template_contains(&atom, &join));
        assert!(!equivalent_templates(&atom, &join));
    }

    #[test]
    fn trs_mismatch_blocks_containment_even_with_hom() {
        let (cat, r) = setup();
        let atom = Template::atom(r, &cat); // TRS {A,B,C}
        let proj = pi_ab(&cat, r); // TRS {A,B}
                                   // A raw homomorphism proj → atom exists (c₁ ↦ 0_C) …
        assert!(find_homomorphism(&proj, &atom).is_some());
        // … but the mappings land on different schemes, so neither
        // containment nor equivalence holds.
        assert!(!template_contains(&proj, &atom));
        assert!(!template_contains(&atom, &proj));
        assert!(!equivalent_templates(&atom, &proj));
    }

    #[test]
    fn homomorphism_may_merge_symbols() {
        // π_AB(R) ⋈ π_AB(R) must be equivalent to π_AB(R): the two rows can
        // merge by mapping their distinct c-symbols together.
        let (cat, r) = setup();
        let [a, b, c] = ["A", "B", "C"].map(|n| cat.lookup_attr(n).unwrap());
        let row = |cv: u32| {
            vec![
                Symbol::distinguished(a),
                Symbol::distinguished(b),
                Symbol::new(c, cv),
            ]
        };
        let doubled = Template::new(vec![
            TaggedTuple::new(r, row(1), &cat).unwrap(),
            TaggedTuple::new(r, row(2), &cat).unwrap(),
        ])
        .unwrap();
        let single = pi_ab(&cat, r);
        assert!(equivalent_templates(&doubled, &single));
    }

    #[test]
    fn nondistinguished_may_map_to_distinguished() {
        // hom from π_AB(R) template (0,0,c1) to atom(R) (0,0,0): c1 ↦ 0_C.
        let (cat, r) = setup();
        let proj = pi_ab(&cat, r);
        let atom = Template::atom(r, &cat);
        let h = find_homomorphism(&proj, &atom).expect("c1 ↦ 0_C");
        let c = cat.lookup_attr("C").unwrap();
        assert_eq!(h.apply(Symbol::new(c, 1)), Symbol::distinguished(c));
    }

    #[test]
    fn enumeration_counts_all_homs() {
        // Two interchangeable rows: hom count from doubled to doubled is 4
        // (each row maps to either row independently — c-symbols are free).
        let (cat, r) = setup();
        let [a, b, c] = ["A", "B", "C"].map(|n| cat.lookup_attr(n).unwrap());
        let row = |cv: u32| {
            vec![
                Symbol::distinguished(a),
                Symbol::distinguished(b),
                Symbol::new(c, cv),
            ]
        };
        let doubled = Template::new(vec![
            TaggedTuple::new(r, row(1), &cat).unwrap(),
            TaggedTuple::new(r, row(2), &cat).unwrap(),
        ])
        .unwrap();
        let mut n = 0;
        let _ = for_each_homomorphism(&doubled, &doubled, &mut |_| {
            n += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(n, 4);
    }

    #[test]
    fn indexed_candidate_lists_match_the_flat_scan() {
        // The trie-indexed construction must produce exactly the lists the
        // flat O(|src|·|dst|) reference scan produces, in the same order.
        let naive = candidate_lists_flat;
        let mut cat = Catalog::new();
        let r = cat.relation("R", &["A", "B", "C"]).unwrap();
        let s = cat.relation("S", &["A", "B"]).unwrap();
        let [a, b, c] = ["A", "B", "C"].map(|n| cat.lookup_attr(n).unwrap());
        let row_r = |av: u32, bv: u32, cv: u32| {
            TaggedTuple::new(
                r,
                vec![Symbol::new(a, av), Symbol::new(b, bv), Symbol::new(c, cv)],
                &cat,
            )
            .unwrap()
        };
        let row_s = |av: u32, bv: u32| {
            TaggedTuple::new(s, vec![Symbol::new(a, av), Symbol::new(b, bv)], &cat).unwrap()
        };
        let src = Template::new(vec![row_r(0, 1, 2), row_s(0, 3)]).unwrap();
        // Small target.
        let dst = Template::new(vec![
            row_r(0, 4, 5),
            row_r(0, 0, 6),
            row_s(0, 7),
            row_s(8, 9),
        ])
        .unwrap();
        assert_eq!(candidate_lists(&src, &dst), naive(&src, &dst));
        // Large target: many same-tag tuples, so the multiway intersection
        // actually narrows; lists must still come out in tuple order.
        let mut rows = Vec::new();
        for v in 0..16u32 {
            rows.push(row_r(0, v + 10, v + 40));
            rows.push(row_s(0, v + 70));
        }
        let big = Template::new(rows).unwrap();
        assert_eq!(candidate_lists(&src, &big), naive(&src, &big));
        // And a no-candidate case returns None both ways.
        let only_s = Template::new(vec![row_s(0, 1)]).unwrap();
        let only_r = Template::new(vec![row_r(0, 1, 2)]).unwrap();
        assert_eq!(candidate_lists(&only_s, &only_r), naive(&only_s, &only_r));
        assert_eq!(candidate_lists(&only_s, &only_r), None);

        // A thousand-relation catalog, one tuple per tag (a fleet's wide
        // join): tags past one varint byte must keep separate buckets, so
        // each source tuple meets exactly its own tag's one target tuple
        // where the flat scan examines all thousand.
        let mut wide = Catalog::new();
        let tags: Vec<RelId> = (0..1000)
            .map(|i| {
                let v = format!("V{i}");
                wide.relation(&format!("T{i}"), &["K", &v]).unwrap()
            })
            .collect();
        let atom = |i: usize| Template::atom(tags[i], &wide).tuples()[0].clone();
        let dst = Template::new((0..1000).map(atom).collect()).unwrap();
        for k in [1usize, 2, 4, 8] {
            let src = Template::new((0..k).map(|i| atom(i * (1000 / k))).collect()).unwrap();
            assert_eq!(candidate_lists(&src, &dst), naive(&src, &dst), "{k} tuples");
            let examined: usize = src
                .tuples()
                .iter()
                .map(|st| dst.tuple_index().by_tag(st.rel()).len())
                .sum();
            assert_eq!(examined, src.len(), "{k} tuples");
        }
    }

    /// Deterministic splitmix64 stream for the seeded differential suite.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// All homomorphisms via the production search (trie-indexed,
    /// bound-attribute pruned), in visit order.
    fn collect_homs(src: &Template, dst: &Template) -> Vec<Homomorphism> {
        let mut out = Vec::new();
        let _ = for_each_homomorphism(src, dst, &mut |h| {
            out.push(h.clone());
            ControlFlow::Continue(())
        });
        out
    }

    /// Oracle: the same backtracking over flat-scan candidate lists with no
    /// index pruning — every rejection happens inside the bind step. Visit
    /// order must match the production search exactly (the pruned lists are
    /// subsequences of these, and pruning only removes bind failures).
    fn oracle_homs(src: &Template, dst: &Template) -> Vec<Homomorphism> {
        #[allow(clippy::too_many_arguments)]
        fn rec(
            src: &Template,
            dst: &Template,
            order: &[usize],
            cands: &[Vec<usize>],
            depth: usize,
            binding: &mut Valuation,
            assignment: &mut Vec<usize>,
            out: &mut Vec<Homomorphism>,
        ) {
            if depth == order.len() {
                out.push(Homomorphism {
                    symbol_map: binding.clone(),
                    tuple_map: assignment.clone(),
                });
                return;
            }
            let i = order[depth];
            'cand: for &j in &cands[i] {
                let st = &src.tuples()[i];
                let dt = &dst.tuples()[j];
                let mut pushed: Vec<Symbol> = Vec::new();
                for (a, b) in st.row().iter().zip(dt.row()) {
                    if a.is_distinguished() {
                        continue;
                    }
                    match binding.get(a) {
                        Some(&bound) if bound == *b => {}
                        Some(_) => {
                            for s in pushed.drain(..) {
                                binding.remove(&s);
                            }
                            continue 'cand;
                        }
                        None => {
                            binding.insert(*a, *b);
                            pushed.push(*a);
                        }
                    }
                }
                assignment[i] = j;
                rec(src, dst, order, cands, depth + 1, binding, assignment, out);
                assignment[i] = usize::MAX;
                for s in pushed {
                    binding.remove(&s);
                }
            }
        }
        let Some(cands) = candidate_lists_flat(src, dst) else {
            return Vec::new();
        };
        let mut order: Vec<usize> = (0..src.len()).collect();
        order.sort_by_key(|&i| cands[i].len());
        let mut binding = Valuation::new();
        let mut assignment = vec![usize::MAX; src.len()];
        let mut out = Vec::new();
        rec(
            src,
            dst,
            &order,
            &cands,
            0,
            &mut binding,
            &mut assignment,
            &mut out,
        );
        out
    }

    #[test]
    fn differential_trie_join_matches_flat_oracle_on_random_templates() {
        use viewcap_base::AttrId;
        let mut cat = Catalog::new();
        let r = cat.relation("R", &["A", "B", "C"]).unwrap();
        let s = cat.relation("S", &["B", "C"]).unwrap();
        let attrs_r: Vec<AttrId> = ["A", "B", "C"]
            .iter()
            .map(|n| cat.lookup_attr(n).unwrap())
            .collect();
        let attrs_s: Vec<AttrId> = ["B", "C"]
            .iter()
            .map(|n| cat.lookup_attr(n).unwrap())
            .collect();
        let mut state = 0xC0FFEE_u64;
        let random_template = |state: &mut u64| -> Template {
            loop {
                let n = 1 + (splitmix(state) as usize) % 5;
                let mut rows = Vec::new();
                for _ in 0..n {
                    let (rel, attrs) = if splitmix(state).is_multiple_of(2) {
                        (r, &attrs_r)
                    } else {
                        (s, &attrs_s)
                    };
                    // Small ordinal range forces symbol collisions, which
                    // is what exercises the bound-attribute pruning.
                    let row: Vec<Symbol> = attrs
                        .iter()
                        .map(|&a| Symbol::new(a, (splitmix(state) % 4) as u32))
                        .collect();
                    if let Ok(t) = TaggedTuple::new(rel, row, &cat) {
                        rows.push(t);
                    }
                }
                if let Ok(t) = Template::new(rows) {
                    return t;
                }
            }
        };
        for round in 0..200 {
            let a = random_template(&mut state);
            let b = random_template(&mut state);
            // Both probe orders: a → b and b → a.
            for (src, dst) in [(&a, &b), (&b, &a)] {
                assert_eq!(
                    candidate_lists(src, dst),
                    candidate_lists_flat(src, dst),
                    "candidate lists diverged in round {round}"
                );
                assert_eq!(
                    collect_homs(src, dst),
                    oracle_homs(src, dst),
                    "hom enumeration diverged in round {round}"
                );
            }
        }
    }

    #[test]
    fn tags_must_match() {
        let mut cat = Catalog::new();
        let r = cat.relation("R", &["A"]).unwrap();
        let s = cat.relation("S", &["A"]).unwrap();
        let tr = Template::atom(r, &cat);
        let ts = Template::atom(s, &cat);
        assert!(!template_contains(&tr, &ts));
        assert!(!template_contains(&ts, &tr));
    }
}
