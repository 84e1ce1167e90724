//! Durable, content-addressed snapshots of [`CandidateSpace`] enumeration
//! levels.
//!
//! A candidate space over a fixed atom sequence is goal-independent and —
//! now that level expansion is content-ordered (see
//! `search::canonical_proper_subsets`) — *catalog-declaration-order
//! independent*: any catalog declaring relations with the same ordered
//! sequence of target relation schemes builds byte-for-byte the same
//! levels. That makes the space worth persisting once and sharing across a
//! fleet: a fresh process loads the snapshot instead of re-enumerating.
//!
//! **Addressing.** A snapshot is keyed by [`space_digest`]: a 128-bit
//! content hash of, per atom in order, the sorted attribute *names* of its
//! scheme. Deliberately independent of relation
//! names (scratch λ names embed mint counters), of query bodies, and of
//! search limits (level content is limit-independent) — any two view
//! contexts whose λ-atoms have the same TRS sequence share one snapshot.
//!
//! **Payload** (version 1, inside the [`crate::codec`] frame, magic
//! `VCAPSPCE`):
//!
//! ```text
//! attr_table  codec name table       options  u8, always 0b11
//! atoms       u32 count, schemes
//! dedup_hits  u64                    levels   u32 count, then per level:
//!   visits_after u64; parts and joins: each u32 count, (expr, template)s
//! scheme      u32 count, attr refs sorted by attribute name
//! expr        tag u8: 0 atom position u32 | 1 scheme, child | 2 u32 n, n children
//! template    codec tagged-tuple rows; the rel ref is an atom position
//! ```
//!
//! The options byte (and the matching word in [`space_digest`]) is the
//! constant `0b11`; it stays so that stored snapshots and space keys keep
//! their values.
//!
//! Relations are addressed *positionally* (index into the atom sequence).
//! Per level the snapshot stores exactly what [`CandidateSpace`] cannot
//! rederive cheaply — the deduplicated parts and joins in enumeration
//! order, plus the cumulative visit count. Everything else (dedup buckets,
//! root lists, per-level TRS tries, stats) is rebuilt by *replaying* the
//! commit path on load, so a loaded space is indistinguishable from a
//! freshly built one — and the replay doubles as semantic validation: a
//! tampered snapshot whose templates stop being pairwise-inequivalent is
//! rejected. Every bad input is a [`CodecError`], never a panic or a
//! silently wrong space.

use crate::codec::{
    self, put_template, put_u32, put_u64, CodecError, Format, Interner, Reader, MAX_EXPR_DEPTH,
};
use crate::index::{scheme_key, ByteTrie};
use crate::search::{CandidateSpace, Level, Part, SearchStats};
use crate::template::{TaggedTuple, Template};
use std::collections::HashMap;
use viewcap_base::{AttrId, Catalog, ContentHasher, RelId, Scheme, Symbol};
use viewcap_expr::Expr;

/// The snapshot format's frame.
pub const SPACE_FORMAT: Format = Format {
    magic: b"VCAPSPCE",
    version: 1,
    label: "space snapshot",
};

/// Content digest addressing a space: the ordered sequence of atom target
/// relation schemes, by attribute *name*.
///
/// Independent of attribute/relation interning order, of the atoms'
/// (scratch) names, and of later catalog growth — two catalogs declaring
/// the same relations in any order agree on every view's space digest.
pub fn space_digest(catalog: &Catalog, atoms: &[RelId]) -> u128 {
    let mut h = ContentHasher::new();
    h.word(0x5350_4143_4553_4E41); // domain tag: space snapshot
    h.word(OPTIONS_BYTE as u64);
    h.word(atoms.len() as u64);
    for &r in atoms {
        let scheme = catalog.scheme_of(r);
        let mut names: Vec<&str> = scheme.iter().map(|a| catalog.attr_name(a)).collect();
        names.sort_unstable();
        h.word(names.len() as u64);
        for name in names {
            h.str(name);
        }
    }
    h.finish()
}

/// The options byte: the search always dedups semantically (bit 0) and
/// reduces intermediate templates (bit 1).
const OPTIONS_BYTE: u8 = 0b11;

// ------------------------------------------------------------- serializing

/// Writes one snapshot's body, interning attribute names as it goes.
struct Writer<'a> {
    catalog: &'a Catalog,
    attrs: Interner<'a>,
    atom_pos: HashMap<RelId, u32>,
    body: Vec<u8>,
}

impl Writer<'_> {
    fn scheme(&mut self, s: &Scheme) {
        // Name order, not AttrId order: canonical bytes whatever the
        // catalog's interning order was.
        let mut names: Vec<&str> = s.iter().map(|a| self.catalog.attr_name(a)).collect();
        names.sort_unstable();
        put_u32(&mut self.body, names.len() as u32);
        for name in names {
            put_u32(&mut self.body, self.attrs.intern(name));
        }
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Rel(r) => {
                self.body.push(0);
                put_u32(&mut self.body, self.atom_pos[r]);
            }
            Expr::Project(child, x) => {
                self.body.push(1);
                self.scheme(x);
                self.expr(child);
            }
            Expr::Join(es) => {
                self.body.push(2);
                put_u32(&mut self.body, es.len() as u32);
                for child in es {
                    self.expr(child);
                }
            }
        }
    }

    fn part(&mut self, p: &Part) {
        self.expr(&p.expr);
        let (cat, attrs, atom_pos) = (self.catalog, &mut self.attrs, &self.atom_pos);
        // Every atom and attribute resolves, so this never aborts.
        let _ = put_template(
            &mut self.body,
            &p.tpl,
            |r| Some(atom_pos[&r]),
            |a| Some(attrs.intern(cat.attr_name(a))),
        );
    }
}

/// Serialize a space's committed levels into one self-contained snapshot.
///
/// `catalog` must be the catalog the space's atoms live in (the same one
/// every probe passes). The result round-trips through [`load_space`].
pub fn save_space(space: &CandidateSpace, catalog: &Catalog) -> Vec<u8> {
    let mut w = Writer {
        catalog,
        attrs: Interner::default(),
        atom_pos: (0..).zip(&space.atoms).map(|(i, &r)| (r, i)).collect(),
        body: Vec::new(),
    };
    // Body first (interning attribute refs as it goes), table after.
    w.body.push(OPTIONS_BYTE);
    put_u32(&mut w.body, space.atoms.len() as u32);
    for &r in &space.atoms {
        w.scheme(catalog.scheme_of(r));
    }
    put_u64(&mut w.body, space.stats.dedup_hits);
    put_u32(&mut w.body, space.levels.len() as u32);
    for (k, level) in space.levels.iter().enumerate() {
        put_u64(&mut w.body, level.visits_after);
        for parts in [&space.parts[k + 1], &level.joins] {
            put_u32(&mut w.body, parts.len() as u32);
            for p in parts {
                w.part(p);
            }
        }
    }

    let mut payload = Vec::with_capacity(w.body.len() + 64);
    w.attrs.put_table(&mut payload);
    payload.extend_from_slice(&w.body);
    codec::seal(&SPACE_FORMAT, &payload)
}

// ------------------------------------------------------------ deserializing

/// Resolves a snapshot's references against the loading catalog.
struct Loader<'a> {
    catalog: &'a Catalog,
    /// Snapshot attr ref → live AttrId.
    attrs: Vec<AttrId>,
    /// Snapshot atom position → live RelId.
    atoms: &'a [RelId],
}

impl Loader<'_> {
    fn scheme(&self, r: &mut Reader<'_>) -> Result<Scheme, CodecError> {
        let n = r.count(4)?;
        let attrs = (0..n)
            .map(|_| r.lookup(|i| self.attrs.get(i as usize).copied()))
            .collect::<Result<Vec<_>, _>>()?;
        Scheme::new(attrs).map_err(|_| r.corrupt("empty or invalid scheme"))
    }

    fn expr(&self, r: &mut Reader<'_>, depth: usize) -> Result<Expr, CodecError> {
        if depth > MAX_EXPR_DEPTH {
            return Err(r.corrupt("expression nested too deep"));
        }
        match r.u8()? {
            0 => Ok(Expr::rel(
                r.lookup(|i| self.atoms.get(i as usize).copied())?,
            )),
            1 => {
                let x = self.scheme(r)?;
                let child = self.expr(r, depth + 1)?;
                Expr::project(child, x, self.catalog)
                    .map_err(|_| r.corrupt("projection outside child TRS"))
            }
            2 => {
                let n = r.count(2)?;
                if n < 2 {
                    return Err(r.corrupt("join with fewer than 2 children"));
                }
                let children = (0..n)
                    .map(|_| self.expr(r, depth + 1))
                    .collect::<Result<Vec<_>, _>>()?;
                Expr::join(children).map_err(|_| r.corrupt("invalid join"))
            }
            _ => Err(r.corrupt("unknown expression tag")),
        }
    }

    fn template(&self, r: &mut Reader<'_>) -> Result<Template, CodecError> {
        r.template(
            |i| self.atoms.get(i as usize).copied(),
            |i| self.attrs.get(i as usize).copied(),
            |rel, mut row| {
                // Rows are positional against the relation's scheme, which
                // sorts by the *loading* catalog's AttrIds — a different
                // order than the snapshotting catalog's. Symbols carry
                // their attribute, so re-sort.
                row.sort_unstable_by_key(|sym: &Symbol| sym.attr());
                TaggedTuple::new(rel, row, self.catalog).ok()
            },
        )
    }

    /// One level's parts or joins; `seen` rejects a duplicate.
    fn parts(
        &self,
        r: &mut Reader<'_>,
        mut seen: impl FnMut(&Template) -> bool,
    ) -> Result<Vec<Part>, CodecError> {
        let n = r.count(9)?;
        let mut parts = Vec::with_capacity(n);
        for _ in 0..n {
            let expr = self.expr(r, 0)?;
            let tpl = self.template(r)?;
            if seen(&tpl) {
                return Err(r.corrupt("duplicate candidate in snapshot"));
            }
            parts.push(Part { expr, tpl });
        }
        Ok(parts)
    }
}

/// Load a snapshot into a fresh [`CandidateSpace`] over `atoms` in
/// `catalog`.
///
/// The snapshot must describe a space with the same atom signature (the
/// ordered sequence of TRS attribute-name sets) and carry the options byte
/// `0b11`; anything else is a [`CodecError::Mismatch`]. Dedup state, root
/// lists, per-level TRS indexes, and stats are rebuilt by replaying the
/// commit path over the stored parts and joins, so every probe of the
/// returned space behaves exactly as it would on a freshly enumerated
/// one.
pub fn load_space(
    bytes: &[u8],
    catalog: &Catalog,
    atoms: &[RelId],
) -> Result<CandidateSpace, CodecError> {
    let mut r = codec::open(bytes, &SPACE_FORMAT)?;

    // Attribute name table, resolved against the live catalog.
    let attrs = r
        .table()?
        .iter()
        .map(|name| catalog.lookup_attr(name))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|_| CodecError::Mismatch("attribute not in this catalog"))?;
    let tables = Loader {
        catalog,
        attrs,
        atoms,
    };

    // Options + atom signature must agree with the loading space.
    if r.u8()? != OPTIONS_BYTE {
        return Err(CodecError::Mismatch("search options differ"));
    }
    if r.count(4)? != atoms.len() {
        return Err(CodecError::Mismatch("atom count differs"));
    }
    for &rel in atoms {
        if &tables.scheme(&mut r)? != catalog.scheme_of(rel) {
            return Err(CodecError::Mismatch("atom scheme differs"));
        }
    }
    let dedup_hits = r.u64()?;

    // Replay the levels through the same dedup + commit path the builder
    // uses; any replay contradiction (a stored candidate that dedups away)
    // means the snapshot does not describe a canonical enumeration.
    let mut space = CandidateSpace::new(atoms);
    let mut scratch = SearchStats::default();
    let n_levels = r.count(12)?;
    for _ in 0..n_levels {
        let visits_after = r.u64()?;
        if let Some(last) = space.levels.last() {
            if visits_after < last.visits_after {
                return Err(r.corrupt("level visit counts decreasing"));
            }
        }
        let parts = tables.parts(&mut r, |t| space.part_dedup.seen(t, &mut scratch))?;
        let joins = tables.parts(&mut r, |t| space.join_dedup.seen(t, &mut scratch))?;
        // Commit exactly as `build_level` does.
        space.stats.parts_kept += parts.len() as u64;
        space.stats.combos = visits_after;
        let mut roots: Vec<Part> = Vec::new();
        let mut roots_by_trs = ByteTrie::new();
        for cand in parts.iter().chain(joins.iter()) {
            if !space.root_dedup.seen(&cand.tpl, &mut space.stats) {
                space.stats.roots_visited += 1;
                let idx = roots.len() as u32;
                roots_by_trs.insert(&scheme_key(&cand.tpl.trs()), idx);
                roots.push(Part {
                    expr: cand.expr.clone(),
                    tpl: cand.tpl.clone(),
                });
            }
        }
        space.levels.push(Level {
            visits_after,
            parts_kept: parts.len(),
            roots,
            roots_by_trs,
            joins,
        });
        space.parts.push(parts);
    }
    r.finish()?;
    space.part_dedup.commit();
    space.join_dedup.commit();
    space.root_dedup.commit();
    // The builder's hit count spans part, join, *and* root dedup; the
    // replay only re-observes the root hits, so restore the recorded
    // total outright.
    space.stats.dedup_hits = dedup_hits;
    Ok(space)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::SearchLimits;
    use std::ops::ControlFlow;

    fn setup() -> (Catalog, Vec<RelId>) {
        let mut cat = Catalog::new();
        let r = cat.relation("R", &["A", "B"]).unwrap();
        let s = cat.relation("S", &["B", "C"]).unwrap();
        (cat, vec![r, s])
    }

    fn built_space(cat: &Catalog, atoms: &[RelId], max_atoms: usize) -> CandidateSpace {
        let mut space = CandidateSpace::new(atoms);
        space
            .probe(
                cat,
                max_atoms,
                None,
                &SearchLimits::default(),
                &mut |_, _| ControlFlow::Continue(()),
            )
            .unwrap();
        space
    }

    fn roots_of(cat: &Catalog, space: &mut CandidateSpace, max_atoms: usize) -> Vec<String> {
        let mut out = Vec::new();
        space
            .probe(
                cat,
                max_atoms,
                None,
                &SearchLimits::default(),
                &mut |e, _| {
                    out.push(format!("{e:?}"));
                    ControlFlow::Continue(())
                },
            )
            .unwrap();
        out
    }

    #[test]
    fn snapshot_round_trips_exactly() {
        let (cat, atoms) = setup();
        let mut original = built_space(&cat, &atoms, 3);
        let bytes = save_space(&original, &cat);
        let mut loaded = load_space(&bytes, &cat, &atoms).unwrap();
        assert_eq!(loaded.built_levels(), original.built_levels());
        assert_eq!(loaded.stats(), original.stats());
        assert_eq!(
            roots_of(&cat, &mut loaded, 3),
            roots_of(&cat, &mut original, 3)
        );
        // Saving the loaded space is byte-identical: the round trip is a
        // fixed point.
        assert_eq!(save_space(&loaded, &cat), bytes);
    }

    #[test]
    fn loaded_space_extends_identically_to_fresh() {
        let (cat, atoms) = setup();
        let shallow = built_space(&cat, &atoms, 2);
        let bytes = save_space(&shallow, &cat);
        let mut loaded = load_space(&bytes, &cat, &atoms).unwrap();
        // Extending the loaded space one more level matches a fresh bound-3
        // enumeration exactly.
        let mut fresh = built_space(&cat, &atoms, 3);
        assert_eq!(
            roots_of(&cat, &mut loaded, 3),
            roots_of(&cat, &mut fresh, 3)
        );
        assert_eq!(loaded.stats(), fresh.stats());
    }

    #[test]
    fn digest_ignores_declaration_order_but_not_content() {
        let (cat1, atoms1) = setup();
        // Same relations, permuted declarations.
        let mut cat2 = Catalog::new();
        let s = cat2.relation("S", &["C", "B"]).unwrap();
        let r = cat2.relation("R", &["B", "A"]).unwrap();
        let atoms2 = vec![r, s];
        assert_eq!(space_digest(&cat1, &atoms1), space_digest(&cat2, &atoms2));
        // Different atom order → different digest.
        let swapped = vec![s, r];
        assert_ne!(space_digest(&cat2, &atoms2), space_digest(&cat2, &swapped));
    }

    #[test]
    fn snapshots_port_across_permuted_catalogs() {
        let (cat1, atoms1) = setup();
        let mut s1 = built_space(&cat1, &atoms1, 3);
        let bytes = save_space(&s1, &cat1);

        let mut cat2 = Catalog::new();
        let s = cat2.relation("S", &["C", "B"]).unwrap();
        let r = cat2.relation("R", &["B", "A"]).unwrap();
        let atoms2 = vec![r, s];
        let mut loaded = load_space(&bytes, &cat2, &atoms2).unwrap();
        let mut fresh2 = built_space(&cat2, &atoms2, 3);
        // The ported space is exactly what cat2 would have built cold —
        // same witnesses rendered against cat2's names.
        let rendered = |space: &mut CandidateSpace, cat: &Catalog| {
            let mut out = Vec::new();
            space
                .probe(cat, 3, None, &SearchLimits::default(), &mut |e, _| {
                    out.push(viewcap_expr::display::display_expr(e, cat));
                    ControlFlow::Continue(())
                })
                .unwrap();
            out
        };
        assert_eq!(rendered(&mut loaded, &cat2), rendered(&mut fresh2, &cat2));
        assert_eq!(rendered(&mut loaded, &cat2), rendered(&mut s1, &cat1));
        assert_eq!(loaded.stats(), fresh2.stats());
    }

    #[test]
    fn mismatched_spaces_are_rejected() {
        let (cat, atoms) = setup();
        let space = built_space(&cat, &atoms, 2);
        let bytes = save_space(&space, &cat);
        // Wrong options byte, in an otherwise valid frame.
        let mut r = codec::open(&bytes, &SPACE_FORMAT).unwrap();
        r.table().unwrap();
        let mut payload = bytes[20..].to_vec(); // past magic, version, checksum
        let at = payload.len() - r.remaining();
        assert_eq!(payload[at], OPTIONS_BYTE);
        payload[at] = 0b01;
        assert!(matches!(
            load_space(&codec::seal(&SPACE_FORMAT, &payload), &cat, &atoms),
            Err(CodecError::Mismatch(_))
        ));
        // Wrong atom count.
        assert!(matches!(
            load_space(&bytes, &cat, &atoms[..1]),
            Err(CodecError::Mismatch(_))
        ));
        // Swapped atoms → schemes disagree positionally.
        let swapped = vec![atoms[1], atoms[0]];
        assert!(matches!(
            load_space(&bytes, &cat, &swapped),
            Err(CodecError::Mismatch(_))
        ));
    }

    #[test]
    fn corruption_is_rejected_cleanly() {
        let (cat, atoms) = setup();
        let space = built_space(&cat, &atoms, 2);
        let bytes = save_space(&space, &cat);
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            load_space(&bad, &cat, &atoms),
            Err(CodecError::BadMagic { .. })
        ));
        // Bad version.
        let mut bad = bytes.clone();
        bad[8] = 0xFF;
        assert!(matches!(
            load_space(&bad, &cat, &atoms),
            Err(CodecError::VersionMismatch { .. })
        ));
        // Flipped payload byte → checksum catches it.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        assert!(matches!(
            load_space(&bad, &cat, &atoms),
            Err(CodecError::ChecksumMismatch { .. })
        ));
        // Truncations never panic.
        for len in 0..bytes.len() {
            assert!(load_space(&bytes[..len], &cat, &atoms).is_err());
        }
    }
}
