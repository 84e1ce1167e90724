//! Views, induced instantiations, and surrogate queries
//! (paper, Sections 1.3–1.4).
//!
//! A view of a database schema `𝒟` is a finite set of pairs `(Eᵢ, νᵢ)`
//! where each `Eᵢ` is a query of `𝒟` with `TRS(Eᵢ) = R(νᵢ)` and the view
//! names `νᵢ` are distinct. The view reorganizes any database state `α`
//! into the *induced instantiation* `α_𝒱` assigning `Eᵢ(α)` to `νᵢ`, and
//! view users pose queries against `α_𝒱`.
//!
//! **Theorem 1.4.2** (surrogate queries): every view query `E` has a unique
//! underlying-schema query `Ē` with `Ē(α) = E(α_𝒱)` for all `α`. We provide
//! both realizations of `Ē`: by expression expansion (Lemma 1.4.1) when the
//! defining queries carry expressions, and by template substitution always.

use crate::error::CoreError;
use crate::query::{Query, QuerySet};
use std::collections::BTreeSet;
use std::sync::Arc;
use viewcap_base::{Catalog, Instantiation, RelId, Relation};
use viewcap_expr::Expr;
use viewcap_template::{substitute, template_of_expr, Assignment, Template};

/// A view: defining queries paired with distinct view-schema names.
///
/// The pairs are shared, so a clone costs a reference count and keeps the
/// queries' filled memos ([`Query::content_key`]).
#[derive(Clone, Debug)]
pub struct View {
    pairs: Arc<[(Query, RelId)]>,
}

impl View {
    /// Build a view, validating the paper's side conditions:
    /// distinct names, `TRS(Eᵢ) = R(νᵢ)`, and defining queries that do not
    /// mention view-schema names.
    pub fn new(pairs: Vec<(Query, RelId)>, catalog: &Catalog) -> Result<View, CoreError> {
        let names: BTreeSet<RelId> = pairs.iter().map(|(_, v)| *v).collect();
        if names.len() != pairs.len() {
            let dup = pairs
                .iter()
                .map(|(_, v)| *v)
                .find(|v| pairs.iter().filter(|(_, w)| w == v).count() > 1)
                .expect("duplicate exists");
            return Err(CoreError::DuplicateViewName(dup));
        }
        for (q, v) in &pairs {
            let expected = catalog.scheme_of(*v).clone();
            let got = q.trs();
            if got != expected {
                return Err(CoreError::ViewTypeMismatch {
                    rel: *v,
                    expected,
                    got,
                });
            }
        }
        for (q, _) in &pairs {
            if let Some(v) = q.rel_names().iter().find(|r| names.contains(r)) {
                return Err(CoreError::ViewNameInDefiningQuery(*v));
            }
        }
        Ok(View {
            pairs: pairs.into(),
        })
    }

    /// Convenience: build from expressions.
    pub fn from_exprs(pairs: Vec<(Expr, RelId)>, catalog: &Catalog) -> Result<View, CoreError> {
        View::new(
            pairs
                .into_iter()
                .map(|(e, v)| (Query::from_expr(e, catalog), v))
                .collect(),
            catalog,
        )
    }

    /// The defining pairs.
    pub fn pairs(&self) -> &[(Query, RelId)] {
        &self.pairs
    }

    /// Number of pairs (`#(𝒱)`).
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Views may not be empty in the paper; this mirrors `Vec::is_empty`.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The view schema `{νᵢ}`.
    pub fn schema(&self) -> Vec<RelId> {
        self.pairs.iter().map(|(_, v)| *v).collect()
    }

    /// The defining query set `𝒯 = {Tᵢ}` (with positional correspondence).
    pub fn query_set(&self) -> QuerySet {
        self.pairs.iter().map(|(q, _)| q.clone()).collect()
    }

    /// The induced instantiation `α_𝒱` (Section 1.3): `νᵢ ↦ Eᵢ(α)`,
    /// everything else unchanged.
    pub fn induced(&self, alpha: &Instantiation, catalog: &Catalog) -> Instantiation {
        let mut out = alpha.clone();
        for (q, v) in self.pairs.iter() {
            out.set(*v, q.eval(alpha, catalog), catalog)
                .expect("view validation fixed the types");
        }
        out
    }

    /// Answer a view query by the paper's convention: evaluate it against
    /// the induced instantiation.
    pub fn answer(
        &self,
        view_query: &Expr,
        alpha: &Instantiation,
        catalog: &Catalog,
    ) -> Result<Relation, CoreError> {
        self.check_view_query(view_query)?;
        Ok(view_query.eval(&self.induced(alpha, catalog), catalog))
    }

    fn check_view_query(&self, view_query: &Expr) -> Result<(), CoreError> {
        let schema: BTreeSet<RelId> = self.schema().into_iter().collect();
        for r in view_query.rel_names() {
            if !schema.contains(&r) {
                return Err(CoreError::NotAViewQuery(r));
            }
        }
        Ok(())
    }

    /// The surrogate query `Ē` of Theorem 1.4.2, as an expression
    /// (Lemma 1.4.1 expansion). Requires expression provenance on every
    /// defining query.
    pub fn surrogate_expr(&self, view_query: &Expr, catalog: &Catalog) -> Result<Expr, CoreError> {
        self.check_view_query(view_query)?;
        let lookup = |rel: RelId| -> Option<Expr> {
            self.pairs
                .iter()
                .find(|(_, v)| *v == rel)
                .and_then(|(q, _)| q.expr().cloned())
        };
        // Ensure every mentioned name has a body with provenance.
        for r in view_query.rel_names() {
            if lookup(r).is_none() {
                return Err(CoreError::NoExpressionProvenance);
            }
        }
        view_query
            .expand(&lookup, catalog)
            .map_err(|_| CoreError::NoExpressionProvenance)
    }

    /// The surrogate query of Theorem 1.4.2, as a [`Query`] via template
    /// substitution — always available, whatever the provenance.
    pub fn surrogate_query(
        &self,
        view_query: &Expr,
        catalog: &Catalog,
    ) -> Result<Query, CoreError> {
        self.check_view_query(view_query)?;
        let vq_template: Template = template_of_expr(view_query, catalog);
        let mut beta = Assignment::new();
        for (q, v) in self.pairs.iter() {
            beta.set(*v, q.template().clone(), catalog)?;
        }
        let sub = substitute(&vq_template, &beta, catalog)?;
        Ok(Query::from_template(&sub.result))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viewcap_base::{Scheme, Symbol};
    use viewcap_expr::parse_expr;

    /// Employee database: Emp(Name, Dept), Dept(Dept, Mgr).
    fn setup() -> (Catalog, View) {
        let mut cat = Catalog::new();
        cat.relation("Emp", &["Name", "Dept"]).unwrap();
        cat.relation("Dept", &["Dept", "Mgr"]).unwrap();
        let nd = cat.scheme(&["Name", "Dept"]).unwrap();
        let nm = cat.scheme(&["Name", "Mgr"]).unwrap();
        let v_emp = cat.fresh_relation("VEmp", nd);
        let v_mgr = cat.fresh_relation("VMgr", nm);
        let e1 = parse_expr("Emp", &cat).unwrap();
        let e2 = parse_expr("pi{Name,Mgr}(Emp * Dept)", &cat).unwrap();
        let view = View::from_exprs(vec![(e1, v_emp), (e2, v_mgr)], &cat).unwrap();
        (cat, view)
    }

    fn sample(cat: &Catalog) -> Instantiation {
        let emp = cat.lookup_rel("Emp").unwrap();
        let dept = cat.lookup_rel("Dept").unwrap();
        let [n, d, m] = ["Name", "Dept", "Mgr"].map(|x| cat.lookup_attr(x).unwrap());
        let mut alpha = Instantiation::new();
        alpha
            .insert_rows(
                emp,
                [
                    vec![Symbol::new(n, 1), Symbol::new(d, 1)],
                    vec![Symbol::new(n, 2), Symbol::new(d, 2)],
                ],
                cat,
            )
            .unwrap();
        alpha
            .insert_rows(
                dept,
                [
                    vec![Symbol::new(d, 1), Symbol::new(m, 9)],
                    vec![Symbol::new(d, 2), Symbol::new(m, 8)],
                ],
                cat,
            )
            .unwrap();
        alpha
    }

    #[test]
    fn validation_rejects_bad_views() {
        let mut cat = Catalog::new();
        cat.relation("R", &["A", "B"]).unwrap();
        let ab = cat.scheme(&["A", "B"]).unwrap();
        let a = cat.scheme(&["A"]).unwrap();
        let v1 = cat.fresh_relation("v1", ab.clone());
        let v2 = cat.fresh_relation("v2", a);
        let r_query = Query::from_expr(parse_expr("R", &cat).unwrap(), &cat);

        // Duplicate names.
        assert!(matches!(
            View::new(vec![(r_query.clone(), v1), (r_query.clone(), v1)], &cat),
            Err(CoreError::DuplicateViewName(_))
        ));
        // Type mismatch: TRS {A,B} vs R(v2) = {A}.
        assert!(matches!(
            View::new(vec![(r_query.clone(), v2)], &cat),
            Err(CoreError::ViewTypeMismatch { .. })
        ));
        // View name inside a defining query.
        let self_ref = Query::from_expr(Expr::rel(v1), &cat);
        assert!(matches!(
            View::new(vec![(self_ref, v1)], &cat),
            Err(CoreError::ViewNameInDefiningQuery(_))
        ));
    }

    #[test]
    fn induced_instantiation_assigns_view_relations() {
        let (cat, view) = setup();
        let alpha = sample(&cat);
        let induced = view.induced(&alpha, &cat);
        let v_mgr = view.schema()[1];
        let rel = induced.get(v_mgr, &cat);
        assert_eq!(rel.len(), 2);
        // Underlying relations unchanged.
        let emp = cat.lookup_rel("Emp").unwrap();
        assert_eq!(induced.get(emp, &cat), alpha.get(emp, &cat));
    }

    #[test]
    fn theorem_1_4_2_surrogates_agree_with_view_answers() {
        let (cat, view) = setup();
        let alpha = sample(&cat);
        let v_emp = cat.rel_name(view.schema()[0]).to_owned();
        let v_mgr = cat.rel_name(view.schema()[1]).to_owned();
        // A view query joining both view relations.
        let src = format!("pi{{Dept,Mgr}}({v_emp} * {v_mgr})");
        let vq = parse_expr(&src, &cat).unwrap();

        let direct = view.answer(&vq, &alpha, &cat).unwrap();
        let surrogate_e = view.surrogate_expr(&vq, &cat).unwrap();
        assert_eq!(surrogate_e.eval(&alpha, &cat), direct);
        let surrogate_q = view.surrogate_query(&vq, &cat).unwrap();
        assert_eq!(surrogate_q.eval(&alpha, &cat), direct);
        // The surrogate mentions only underlying names.
        let schema: BTreeSet<RelId> = view.schema().into_iter().collect();
        assert!(surrogate_e.rel_names().is_disjoint(&schema));
    }

    #[test]
    fn answer_rejects_foreign_names() {
        let (cat, view) = setup();
        let alpha = sample(&cat);
        let vq = parse_expr("Emp", &cat).unwrap(); // underlying, not view, name
        assert!(matches!(
            view.answer(&vq, &alpha, &cat),
            Err(CoreError::NotAViewQuery(_))
        ));
    }

    #[test]
    fn surrogate_query_works_without_expression_provenance() {
        // Build the view from templates only.
        let mut cat = Catalog::new();
        let r = cat.relation("R", &["A", "B"]).unwrap();
        let ab = cat.scheme(&["A", "B"]).unwrap();
        let v = cat.fresh_relation("v", ab);
        let q = Query::from_template(&Template::atom(r, &cat));
        let view = View::new(vec![(q, v)], &cat).unwrap();
        let vq = Expr::rel(v);
        let surrogate = view.surrogate_query(&vq, &cat).unwrap();
        assert_eq!(
            surrogate.trs(),
            Scheme::new(cat.scheme(&["A", "B"]).unwrap().iter()).unwrap()
        );
        assert!(view.surrogate_expr(&vq, &cat).is_err());
    }
}
