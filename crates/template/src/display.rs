//! Paper-style rendering of templates.
//!
//! Reproduces the grid presentation of the paper's Figures 1 and 2: one row
//! per tagged tuple, one column per universe attribute, and a trailing tag
//! column `η: ABC`. Cells outside the tag's scheme print as `·` (the paper
//! fills them with throwaway fresh symbols; our sparse representation omits
//! them).
//!
//! Symbols render as `0A` (distinguished) or `a1` (nondistinguished: the
//! attribute name lowercased plus the ordinal).

use crate::template::Template;
use viewcap_base::{Catalog, Scheme, Symbol};

/// Render a symbol (`0A` / `a1` style).
pub fn display_symbol(s: Symbol, catalog: &Catalog) -> String {
    let name = catalog.attr_name(s.attr());
    if s.is_distinguished() {
        format!("0{name}")
    } else {
        format!("{}{}", name.to_lowercase(), s.ord())
    }
}

/// Render a template as the paper's grid, with columns for every attribute
/// in `universe` (pass `catalog.universe()` for the full picture).
pub fn display_template(t: &Template, universe: &Scheme, catalog: &Catalog) -> String {
    let mut widths: Vec<usize> = universe
        .iter()
        .map(|a| catalog.attr_name(a).len() + 1)
        .collect();
    let mut grid: Vec<(Vec<String>, String)> = Vec::with_capacity(t.len());
    for tup in t.tuples() {
        let cells: Vec<String> = universe
            .iter()
            .map(|a| match tup.symbol_at(a) {
                Some(s) => display_symbol(s, catalog),
                None => "·".to_owned(),
            })
            .collect();
        for (w, c) in widths.iter_mut().zip(&cells) {
            *w = (*w).max(c.chars().count());
        }
        let scheme_names: Vec<&str> = catalog
            .scheme_of(tup.rel())
            .iter()
            .map(|a| catalog.attr_name(a))
            .collect();
        let tag = format!("{}: {}", catalog.rel_name(tup.rel()), scheme_names.join(""));
        grid.push((cells, tag));
    }

    let mut out = String::new();
    // Header.
    for (a, w) in universe.iter().zip(&widths) {
        out.push_str(&format!("{:>w$}  ", catalog.attr_name(a), w = *w));
    }
    out.push_str("| tag\n");
    for (cells, tag) in grid {
        for (c, w) in cells.iter().zip(&widths) {
            let pad = w.saturating_sub(c.chars().count());
            out.push_str(&" ".repeat(pad));
            out.push_str(c);
            out.push_str("  ");
        }
        out.push_str("| ");
        out.push_str(&tag);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::project_template;
    use viewcap_base::Catalog;

    #[test]
    fn symbols_render_like_the_paper() {
        let mut cat = Catalog::new();
        let a = cat.attr("A");
        assert_eq!(display_symbol(Symbol::distinguished(a), &cat), "0A");
        assert_eq!(display_symbol(Symbol::new(a, 3), &cat), "a3");
    }

    #[test]
    fn grid_contains_every_cell_and_tag() {
        let mut cat = Catalog::new();
        let r = cat.relation("R", &["A", "B"]).unwrap();
        cat.attr("C");
        let b = cat.lookup_attr("B").unwrap();
        let t = project_template(&Template::atom(r, &cat), &Scheme::new([b]).unwrap()).unwrap();
        let s = display_template(&t, &cat.universe(), &cat);
        assert!(s.contains("0B"));
        assert!(s.contains("a1"));
        assert!(s.contains("·")); // C column is out of scheme
        assert!(s.contains("R: AB"));
    }
}
