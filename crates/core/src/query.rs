//! Queries as semantic objects.
//!
//! The paper's queries are *expression mappings* — what an expression (or
//! template) denotes, independent of its realization (Section 1.2, and the
//! reminder opening Section 2). A [`Query`] therefore stores a **reduced
//! template** as the canonical semantic representative, plus the originating
//! expression when one exists (for display and for surrogate expressions).
//!
//! Equality of mappings is decidable (Proposition 2.4.3) and exposed as
//! [`Query::equiv`].

use std::collections::BTreeSet;
use std::sync::OnceLock;
use viewcap_base::{AttrId, Catalog, Instantiation, RelId, Relation, Scheme};
use viewcap_expr::Expr;
use viewcap_template::{
    canonical_key_with, equivalent_templates, eval_template, join_templates, project_template,
    reduce, template_of_expr, CanonKey, KeyLabels, Template, TemplateError,
};

/// The value `table` (sorted by key) holds for `id`, which the caller
/// knows is present.
fn lookup<K: Ord + Copy, V: Copy>(table: &[(K, V)], id: K) -> V {
    let i = table
        .binary_search_by_key(&id, |&(k, _)| k)
        .expect("id is mentioned by the template");
    table[i].1
}

/// An expression mapping: a query of a database schema.
#[derive(Clone, Debug)]
pub struct Query {
    /// Reduced template — the canonical semantic representative.
    template: Template,
    /// Expression provenance, when the query was built from an expression.
    expr: Option<Expr>,
    /// Lazily computed *content* key plus, for the debug-mode misuse
    /// guard, the content digests of the relations the template mentions
    /// at the time the key was computed (see [`Query::content_key`]).
    content: OnceLock<(Vec<(RelId, u128)>, CanonKey)>,
}

impl Query {
    /// The query realized by an expression (Algorithm 2.1.1 + reduction).
    pub fn from_expr(expr: Expr, catalog: &Catalog) -> Query {
        let template = reduce(&template_of_expr(&expr, catalog));
        Query {
            template,
            expr: Some(expr),
            content: OnceLock::new(),
        }
    }

    /// The query realized by a template.
    pub fn from_template(template: &Template) -> Query {
        Query {
            template: reduce(template),
            expr: None,
            content: OnceLock::new(),
        }
    }

    /// The canonical (reduced) template.
    pub fn template(&self) -> &Template {
        &self.template
    }

    /// The originating expression, if any.
    pub fn expr(&self) -> Option<&Expr> {
        self.expr.as_ref()
    }

    /// `TRS` of the mapping.
    pub fn trs(&self) -> Scheme {
        self.template.trs()
    }

    /// `RN` of the mapping.
    pub fn rel_names(&self) -> BTreeSet<RelId> {
        self.template.rel_names()
    }

    /// Do the two queries denote the same mapping? (Prop 2.4.3.)
    pub fn equiv(&self, other: &Query) -> bool {
        equivalent_templates(&self.template, &other.template)
    }

    /// Catalog-content-addressed canonical key of the reduced template —
    /// the canonicalization behind `viewcap-engine`'s persistent
    /// fingerprints, and the key `NormContext` buckets its classes by.
    /// Equal keys imply equivalent queries (isomorphic reduced templates
    /// denote the same mapping); the converse holds whenever the key is
    /// exact.
    ///
    /// Tuples are labeled by relation *content digests*
    /// ([`Catalog::rel_digest`]) and rows traversed in attribute *name*
    /// order, so two catalogs declaring the same relations in any order
    /// assign equal keys to equal query content. Only the relations and
    /// attributes the template mentions are digested and ranked, so the
    /// cost follows the query, not the catalog: unrelated relations and
    /// attributes never enter the computation. Computed once per query and
    /// memoized (clones inherit the memo); a query is bound to the catalog
    /// it was built against (its template embeds that catalog's ids), and
    /// the key is stable under later growth of that same catalog, so one
    /// memo cell suffices. Debug builds assert that precondition: passing a
    /// catalog that assigns the mentioned relations *different content*
    /// than the memoized call's catalog panics instead of silently
    /// returning a key that is wrong for the new catalog.
    pub fn content_key(&self, catalog: &Catalog) -> &CanonKey {
        let (mentioned, key) = self.content.get_or_init(|| {
            // Sorted by id (`rel_names` is a set), so labels are a binary
            // search away.
            let mentioned: Vec<(RelId, u128)> = self
                .template
                .rel_names()
                .into_iter()
                .map(|r| (r, catalog.rel_digest(r).as_u128()))
                .collect();
            // Rank the template's own attributes by name; only their
            // relative order reaches the key (see `KeyLabels`).
            let mut attrs: Vec<AttrId> = self.template.symbols().map(|s| s.attr()).collect();
            attrs.sort_unstable();
            attrs.dedup();
            attrs.sort_unstable_by_key(|&a| catalog.attr_name(a));
            let mut ranks: Vec<(AttrId, u64)> = (0u64..).zip(attrs).map(|(i, a)| (a, i)).collect();
            ranks.sort_unstable();
            let key = canonical_key_with(
                &self.template,
                &KeyLabels {
                    rel_label: &|r| lookup(&mentioned, r),
                    attr_rank: &|a| lookup(&ranks, a),
                },
            );
            (mentioned, key)
        });
        debug_assert!(
            mentioned
                .iter()
                .all(|&(r, digest)| r.index() < catalog.rel_count()
                    && catalog.rel_digest(r).as_u128() == digest),
            "Query::content_key called with a catalog that disagrees with \
             the one the key was memoized against"
        );
        key
    }

    /// Evaluate the mapping on an instantiation.
    pub fn eval(&self, alpha: &Instantiation, catalog: &Catalog) -> Relation {
        eval_template(&self.template, alpha, catalog)
    }

    /// `π_X ∘ Q` (requires `∅ ≠ X ⊆ TRS(Q)`).
    ///
    /// Expression provenance is carried through when present.
    pub fn project(&self, x: &Scheme, catalog: &Catalog) -> Result<Query, TemplateError> {
        let template = reduce(&project_template(&self.template, x)?);
        let expr = self
            .expr
            .as_ref()
            .and_then(|e| Expr::project(e.clone(), x.clone(), catalog).ok());
        Ok(Query {
            template,
            expr,
            content: OnceLock::new(),
        })
    }

    /// `Q ⋈ Q'`.
    pub fn join(&self, other: &Query) -> Query {
        let template = reduce(&join_templates(&self.template, &other.template));
        let expr = match (&self.expr, &other.expr) {
            (Some(a), Some(b)) => Expr::join(vec![a.clone(), b.clone()]).ok(),
            _ => None,
        };
        Query {
            template,
            expr,
            content: OnceLock::new(),
        }
    }
}

/// A query set (Section 1.5): an ordered collection of queries with
/// equivalence-aware helpers.
///
/// View definitions need positional access (pairs line up with view-schema
/// names), so this is a thin wrapper over `Vec<Query>` rather than a
/// deduplicating set; use [`QuerySet::dedup_equiv`] where the paper reasons
/// modulo equivalence.
#[derive(Clone, Debug, Default)]
pub struct QuerySet {
    queries: Vec<Query>,
}

impl QuerySet {
    /// Build from queries.
    pub fn new(queries: Vec<Query>) -> Self {
        QuerySet { queries }
    }

    /// The underlying queries.
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Does the set contain a query equivalent to `q`?
    pub fn contains_equiv(&self, q: &Query) -> bool {
        self.queries.iter().any(|x| x.equiv(q))
    }

    /// Index of the first query equivalent to `q`.
    pub fn position_equiv(&self, q: &Query) -> Option<usize> {
        self.queries.iter().position(|x| x.equiv(q))
    }

    /// Keep the first representative of each equivalence class.
    pub fn dedup_equiv(&self) -> QuerySet {
        let mut out: Vec<Query> = Vec::with_capacity(self.queries.len());
        for q in &self.queries {
            if !out.iter().any(|x| x.equiv(q)) {
                out.push(q.clone());
            }
        }
        QuerySet { queries: out }
    }

    /// Append a query.
    pub fn push(&mut self, q: Query) {
        self.queries.push(q);
    }

    /// Remove and return the query at `i`.
    pub fn remove(&mut self, i: usize) -> Query {
        self.queries.remove(i)
    }

    /// Same queries up to pairwise equivalence (both directions)?
    ///
    /// This is the equality notion of Theorem 4.2.2.
    pub fn same_modulo_equiv(&self, other: &QuerySet) -> bool {
        self.queries.iter().all(|q| other.contains_equiv(q))
            && other.queries.iter().all(|q| self.contains_equiv(q))
    }
}

impl FromIterator<Query> for QuerySet {
    fn from_iter<I: IntoIterator<Item = Query>>(iter: I) -> Self {
        QuerySet {
            queries: iter.into_iter().collect(),
        }
    }
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

    /// The content key as labeled from the whole catalog: every
    /// relation's digest and every interned attribute's name rank.
    fn whole_catalog_key(q: &Query, cat: &Catalog) -> CanonKey {
        let digests: Vec<u128> = cat
            .relations()
            .map(|r| cat.rel_digest(r).as_u128())
            .collect();
        let ranks = cat.attr_name_ranks();
        canonical_key_with(
            q.template(),
            &KeyLabels {
                rel_label: &|r| digests[r.index()],
                attr_rank: &|a| ranks[a.index()] as u64,
            },
        )
    }

    /// A random expression from a xorshift stream: relation leaves, binary
    /// joins and proper projections, evaluated as a stack program.
    fn random_expr(cat: &Catalog, rels: &[RelId], state: &mut u64) -> Expr {
        let mut next = || {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            *state as usize
        };
        let mut stack: Vec<Expr> = Vec::new();
        for _ in 0..1 + next() % 9 {
            let op = next();
            match op % 4 {
                0 | 1 => stack.push(Expr::rel(rels[op / 4 % rels.len()])),
                2 if stack.len() >= 2 => {
                    let b = stack.pop().unwrap();
                    let a = stack.pop().unwrap();
                    stack.push(Expr::join(vec![a, b]).unwrap());
                }
                3 if !stack.is_empty() => {
                    let e = stack.pop().unwrap();
                    let trs = e.trs(cat);
                    let mask = op / 4;
                    let keep: Vec<_> = (0..trs.len())
                        .filter(|i| mask & (1 << i) != 0)
                        .map(|i| trs.iter().nth(i).unwrap())
                        .collect();
                    stack.push(if keep.is_empty() || keep.len() == trs.len() {
                        e
                    } else {
                        Expr::project(e, Scheme::new(keep).unwrap(), cat).unwrap()
                    });
                }
                _ => {}
            }
        }
        stack.pop().unwrap_or(Expr::rel(rels[0]))
    }

    #[test]
    fn content_key_matches_the_whole_catalog_labeling() {
        // Attribute ids follow interning order, which disagrees with name
        // order here, so ranking only the mentioned attributes must still
        // reproduce the whole catalog's relative order.
        let mut cat = Catalog::new();
        let mut rels = vec![
            cat.relation("S", &["Q", "C"]).unwrap(),
            cat.relation("R", &["M", "B", "Z"]).unwrap(),
            cat.relation("T", &["B", "Q"]).unwrap(),
            cat.relation("U", &["Z", "M", "A"]).unwrap(),
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..300 {
            let q = Query::from_expr(random_expr(&cat, &rels, &mut state), &cat);
            assert_eq!(q.content_key(&cat), &whole_catalog_key(&q, &cat));
        }
        // Chains Cᵢ(Xᵢ, Xᵢ₊₁) with names that sort against the chain order.
        let names = ["X3", "X1", "X4", "X0", "X2", "X5"];
        rels.clear();
        for (i, pair) in names.windows(2).enumerate() {
            rels.push(cat.relation(&format!("C{i}"), pair).unwrap());
        }
        for len in 1..rels.len() {
            for start in 0..rels.len() - len + 1 {
                let chain = (start..start + len)
                    .map(|i| format!("C{i}"))
                    .collect::<Vec<_>>()
                    .join(" * ");
                let ends = format!("{},{}", names[start], names[start + len]);
                for src in [chain.clone(), format!("pi{{{ends}}}({chain})")] {
                    let q = Query::from_expr(parse_expr(&src, &cat).unwrap(), &cat);
                    assert_eq!(q.content_key(&cat), &whole_catalog_key(&q, &cat), "{src}");
                }
            }
        }
    }

    #[test]
    fn content_key_ignores_unrelated_catalog_growth() {
        // The query mentions attributes B, K, Q; unrelated relations bring
        // names that sort before (A0…, AA…), between (C5…, M1…) and after
        // (Z9…) them, half declared before the query's relations and half
        // after.
        let build = |extra: usize| {
            let mut cat = Catalog::new();
            let prefixes = ["A0", "AA", "C5", "M1", "Z9"];
            let declare = |cat: &mut Catalog, i: usize| {
                let a = format!("{}{i}", prefixes[i % 5]);
                let b = format!("{}{i}", prefixes[(i + 2) % 5]);
                cat.relation(&format!("X{i}"), &[&a, &b]).unwrap();
            };
            for i in 0..extra / 2 {
                declare(&mut cat, i);
            }
            cat.relation("S", &["Q", "K"]).unwrap();
            cat.relation("R", &["K", "B"]).unwrap();
            for i in extra / 2..extra {
                declare(&mut cat, i);
            }
            let srcs = ["R * S", "pi{B,Q}(R * S)", "pi{K}(S) * R"];
            let queries: Vec<Query> = srcs
                .iter()
                .map(|src| Query::from_expr(parse_expr(src, &cat).unwrap(), &cat))
                .collect();
            (cat, queries)
        };
        let (small, small_qs) = build(2);
        let (large, large_qs) = build(500);
        assert_eq!(large.rel_count(), 502);
        for (s, l) in small_qs.iter().zip(&large_qs) {
            assert_eq!(s.content_key(&small), l.content_key(&large));
            assert_eq!(l.content_key(&large), &whole_catalog_key(l, &large));
        }
    }

    #[test]
    fn equivalence_sees_through_syntax() {
        let cat = setup();
        // R ⋈ π_AB(R) ≡ R.
        let q1 = Query::from_expr(parse_expr("R * pi{A,B}(R)", &cat).unwrap(), &cat);
        let q2 = Query::from_expr(parse_expr("R", &cat).unwrap(), &cat);
        assert!(q1.equiv(&q2));
        assert_eq!(q1.template().len(), 1); // reduction collapsed the join
    }

    #[test]
    fn projection_and_join_compose() {
        let cat = setup();
        let r = Query::from_expr(parse_expr("R", &cat).unwrap(), &cat);
        let ab = cat.scheme_of(cat.lookup_rel("R").unwrap()).clone();
        let mut it = ab.iter();
        let a = it.next().unwrap();
        let b = it.next().unwrap();
        let x = Scheme::new([a, b]).unwrap();
        let p = r.project(&x, &cat).unwrap();
        assert_eq!(p.trs(), x);
        let j = p.join(&r);
        assert!(j.equiv(&r)); // π_AB(R) ⋈ R ≡ R
        assert!(j.expr().is_some());
    }

    #[test]
    fn query_set_dedups_by_equivalence() {
        let cat = setup();
        let q1 = Query::from_expr(parse_expr("pi{A,B}(R)", &cat).unwrap(), &cat);
        let q2 = Query::from_expr(parse_expr("pi{A,B}(R * R)", &cat).unwrap(), &cat);
        let q3 = Query::from_expr(parse_expr("pi{B,C}(R)", &cat).unwrap(), &cat);
        let qs = QuerySet::new(vec![q1.clone(), q2, q3.clone()]);
        let dd = qs.dedup_equiv();
        assert_eq!(dd.len(), 2);
        assert!(dd.contains_equiv(&q1));
        assert!(dd.contains_equiv(&q3));
        assert!(qs.same_modulo_equiv(&dd));
    }

    #[test]
    fn position_equiv_finds_first_match() {
        let cat = setup();
        let q1 = Query::from_expr(parse_expr("pi{A}(R)", &cat).unwrap(), &cat);
        let q2 = Query::from_expr(parse_expr("pi{B}(R)", &cat).unwrap(), &cat);
        let qs = QuerySet::new(vec![q1.clone(), q2.clone()]);
        assert_eq!(qs.position_equiv(&q2), Some(1));
        let q3 = Query::from_expr(parse_expr("pi{C}(R)", &cat).unwrap(), &cat);
        assert_eq!(qs.position_equiv(&q3), None);
    }
}
