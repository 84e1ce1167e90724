//! Expression normalization.
//!
//! Normal form (the grammar the bounded decision procedures enumerate; the
//! syntactic subtemplate lemma in `viewcap_template::search` is why it is
//! enough):
//!
//! * joins are flattened — no join node has a join child;
//! * nested projections are collapsed — `π_X(π_Y(E)) ⇒ π_X(E)` (legal
//!   because `X ⊆ Y`);
//! * trivial projections are dropped — `π_TRS(E)(E) ⇒ E`;
//! * join operands are sorted by a canonical structural key, making the
//!   operand list a canonical multiset representative.
//!
//! Each rewrite preserves the expression mapping, the number of atom
//! occurrences, *and* the template produced by Algorithm 2.1.1 (up to
//! renaming of nondistinguished symbols) — the property the syntactic
//! subtemplate lemma relies on.

use crate::expr::Expr;
use viewcap_base::Catalog;

/// Normalize an expression (see module docs).
pub fn normalize(e: &Expr, catalog: &Catalog) -> Expr {
    match e {
        Expr::Rel(r) => Expr::Rel(*r),
        Expr::Project(child, x) => {
            let child = normalize(child, catalog);
            // Collapse π_X(π_Y(E)) to π_X(E).
            let child = match child {
                Expr::Project(inner, _) => *inner,
                other => other,
            };
            if child.trs(catalog) == *x {
                child // trivial projection
            } else {
                Expr::Project(Box::new(child), x.clone())
            }
        }
        Expr::Join(es) => {
            let mut flat = Vec::with_capacity(es.len());
            for child in es {
                match normalize(child, catalog) {
                    Expr::Join(grandchildren) => flat.extend(grandchildren),
                    other => flat.push(other),
                }
            }
            flat.sort_by_key(structural_key);
            Expr::join_all(flat)
        }
    }
}

/// Is the expression already in normal form?
pub fn is_normalized(e: &Expr, catalog: &Catalog) -> bool {
    normalize(e, catalog) == *e
}

/// A total order on expressions for canonical join-operand sorting.
///
/// Purely structural (ids and schemes), so two structurally equal
/// expressions always sort together.
fn structural_key(e: &Expr) -> Vec<u32> {
    let mut key = Vec::new();
    push_key(e, &mut key);
    key
}

fn push_key(e: &Expr, key: &mut Vec<u32>) {
    match e {
        Expr::Rel(r) => {
            key.push(0);
            key.push(r.0);
        }
        Expr::Project(child, x) => {
            key.push(1);
            key.push(x.len() as u32);
            key.extend(x.iter().map(|a| a.0));
            push_key(child, key);
        }
        Expr::Join(es) => {
            key.push(2);
            key.push(es.len() as u32);
            for child in es {
                push_key(child, key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viewcap_base::{Catalog, Scheme};

    fn setup() -> (Catalog, Expr, Expr) {
        let mut cat = Catalog::new();
        let r = cat.relation("R", &["A", "B"]).unwrap();
        let s = cat.relation("S", &["B", "C"]).unwrap();
        (cat, Expr::rel(r), Expr::rel(s))
    }

    #[test]
    fn flattens_nested_joins() {
        let (cat, r, s) = setup();
        let inner = Expr::join(vec![r.clone(), s.clone()]).unwrap();
        let outer = Expr::join(vec![inner, r.clone()]).unwrap();
        let n = normalize(&outer, &cat);
        match &n {
            Expr::Join(es) => assert_eq!(es.len(), 3),
            other => panic!("expected flat join, got {other:?}"),
        }
        assert_eq!(n.atom_count(), outer.atom_count());
    }

    #[test]
    fn collapses_projection_towers() {
        let (mut cat, r, _) = setup();
        let a = cat.attr("A");
        let ab = cat.scheme(&["A", "B"]).unwrap();
        let pa = Scheme::new([a]).unwrap();
        let tower = Expr::project(
            Expr::project(r.clone(), ab, &cat).unwrap(),
            pa.clone(),
            &cat,
        )
        .unwrap();
        let n = normalize(&tower, &cat);
        assert_eq!(n, Expr::Project(Box::new(r), pa));
    }

    #[test]
    fn drops_trivial_projection() {
        let (mut cat, r, _) = setup();
        let ab = cat.scheme(&["A", "B"]).unwrap();
        let p = Expr::project(r.clone(), ab, &cat).unwrap();
        assert_eq!(normalize(&p, &cat), r);
    }

    #[test]
    fn join_operands_are_canonically_sorted() {
        let (cat, r, s) = setup();
        let j1 = Expr::join(vec![r.clone(), s.clone()]).unwrap();
        let j2 = Expr::join(vec![s, r]).unwrap();
        assert_eq!(normalize(&j1, &cat), normalize(&j2, &cat));
    }

    #[test]
    fn normalization_preserves_semantics() {
        use viewcap_base::{Instantiation, Symbol};
        let (mut cat, r, s) = setup();
        let a = cat.attr("A");
        let b = cat.attr("B");
        let c = cat.attr("C");
        let rid = cat.lookup_rel("R").unwrap();
        let sid = cat.lookup_rel("S").unwrap();
        let mut alpha = Instantiation::new();
        alpha
            .insert_rows(
                rid,
                [
                    vec![Symbol::new(a, 1), Symbol::new(b, 1)],
                    vec![Symbol::new(a, 2), Symbol::new(b, 2)],
                ],
                &cat,
            )
            .unwrap();
        alpha
            .insert_rows(sid, [vec![Symbol::new(b, 1), Symbol::new(c, 3)]], &cat)
            .unwrap();
        let e = Expr::project(
            Expr::join(vec![
                Expr::join(vec![r.clone(), s.clone()]).unwrap(),
                r.clone(),
            ])
            .unwrap(),
            Scheme::new([a, c]).unwrap(),
            &cat,
        )
        .unwrap();
        let n = normalize(&e, &cat);
        assert_eq!(e.eval(&alpha, &cat), n.eval(&alpha, &cat));
        assert!(is_normalized(&n, &cat));
    }
}
