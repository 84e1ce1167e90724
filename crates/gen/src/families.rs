//! Structured workload families for the benchmark harness.
//!
//! * **Chain**: relations `R₀(A₀,A₁), R₁(A₁,A₂), …` — joins correlate
//!   neighbours; the template of the full chain join has one tuple per
//!   link. Sweeping the length scales homomorphism and evaluation costs.
//! * **Star**: a hub `H(A₁, …, A_n)` with spokes `Sᵢ(Aᵢ, Bᵢ)` — wide
//!   schemes stress scheme operations and projection enumeration.

use viewcap_base::{Catalog, RelId, Scheme};
use viewcap_expr::Expr;

/// A structured schema with its base relations.
#[derive(Clone, Debug)]
pub struct StructuredWorld {
    /// The catalog.
    pub catalog: Catalog,
    /// Base relation names, in family order.
    pub rels: Vec<RelId>,
}

/// Build the chain schema of `n` links.
pub fn chain_world(n: usize) -> StructuredWorld {
    assert!(n >= 1);
    let mut cat = Catalog::new();
    let attrs: Vec<_> = (0..=n).map(|i| cat.attr(&format!("A{i}"))).collect();
    let rels = (0..n)
        .map(|i| {
            let scheme = Scheme::new([attrs[i], attrs[i + 1]]).expect("two attrs");
            cat.add_relation(&format!("R{i}"), scheme).expect("fresh")
        })
        .collect();
    StructuredWorld { catalog: cat, rels }
}

/// The full chain join `R₀ ⋈ R₁ ⋈ ⋯`.
pub fn chain_join_expr(world: &StructuredWorld) -> Expr {
    Expr::join_all(world.rels.iter().map(|&r| Expr::rel(r)).collect())
}

/// Build the star schema with `spokes` spokes.
pub fn star_world(spokes: usize) -> StructuredWorld {
    assert!(spokes >= 1);
    let mut cat = Catalog::new();
    let hub_attrs: Vec<_> = (0..spokes).map(|i| cat.attr(&format!("A{i}"))).collect();
    let hub = cat
        .add_relation("Hub", Scheme::new(hub_attrs.clone()).expect("≥1"))
        .expect("fresh");
    let mut rels = vec![hub];
    for (i, &a) in hub_attrs.iter().enumerate() {
        let b = cat.attr(&format!("B{i}"));
        let scheme = Scheme::new([a, b]).expect("two attrs");
        rels.push(cat.add_relation(&format!("S{i}"), scheme).expect("fresh"));
    }
    StructuredWorld { catalog: cat, rels }
}

/// The star join `Hub ⋈ S₀ ⋈ S₁ ⋈ ⋯`.
pub fn star_join_expr(world: &StructuredWorld) -> Expr {
    Expr::join_all(world.rels.iter().map(|&r| Expr::rel(r)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_shapes() {
        let w = chain_world(4);
        assert_eq!(w.rels.len(), 4);
        let e = chain_join_expr(&w);
        assert_eq!(e.atom_count(), 4);
        assert_eq!(e.trs(&w.catalog).len(), 5);
    }

    #[test]
    fn star_shapes() {
        let w = star_world(3);
        assert_eq!(w.rels.len(), 4); // hub + 3 spokes
        let e = star_join_expr(&w);
        assert_eq!(e.trs(&w.catalog).len(), 6); // A0..A2, B0..B2
    }

    #[test]
    fn single_link_chain_is_an_atom() {
        let w = chain_world(1);
        let e = chain_join_expr(&w);
        assert_eq!(e.atom_count(), 1);
    }
}
