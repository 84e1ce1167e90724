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
//! content hash of the search options plus, per atom in order, the sorted
//! attribute *names* of its scheme. Deliberately independent of relation
//! names (scratch λ names embed mint counters), of query bodies, and of
//! search limits (level content is limit-independent) — any two view
//! contexts whose λ-atoms have the same TRS sequence share one snapshot.
//!
//! **Format.** Same discipline as the engine's verdict-cache persist
//! format: magic + version + FNV-1a checksum over the payload; an
//! attribute *name* table so symbols are portable across catalogs;
//! relations referenced *positionally* (index into the atom sequence).
//! Per level the snapshot stores exactly what [`CandidateSpace`] cannot
//! rederive cheaply — the deduplicated parts and joins, each an
//! `(expression, reduced template)` pair in enumeration order, plus the
//! cumulative visit count. Everything else (dedup buckets, root lists,
//! per-level TRS tries, stats) is rebuilt by *replaying* the commit path
//! on load, so a loaded space is indistinguishable from a freshly built
//! one — and the replay doubles as semantic validation: a tampered
//! snapshot whose templates stop being pairwise-inequivalent is rejected.
//!
//! Loads are strict: short buffers, bad magic/version/checksum, malformed
//! structures, absurd counts, and snapshots whose atom signature or
//! options disagree with the loading space all fail cleanly with a
//! [`SnapshotError`] — never a panic, never a silently wrong space.

use crate::index::{scheme_key, ByteTrie};
use crate::search::{CandidateSpace, Level, Part, SearchOptions, SearchStats};
use crate::template::{TaggedTuple, Template};
use std::fmt;
use viewcap_base::{fnv1a64, AttrId, Catalog, ContentHasher, RelId, Scheme, Symbol};
use viewcap_expr::Expr;

/// File magic for a single space snapshot.
pub const SPACE_MAGIC: &[u8; 8] = b"VCAPSPCE";
/// Snapshot format version.
pub const SPACE_FORMAT_VERSION: u32 = 1;

/// Maximum expression nesting depth accepted on load.
const MAX_EXPR_DEPTH: usize = 64;

/// Why a snapshot failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer ended before the structure it promised.
    Truncated(&'static str),
    /// The magic bytes are not a space snapshot's.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// The payload checksum does not match.
    BadChecksum,
    /// Structurally invalid content (bad counts, invalid templates,
    /// replay contradictions).
    Malformed(&'static str),
    /// A valid snapshot that does not describe *this* space (atom
    /// signature or options disagree).
    Mismatch(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated(what) => write!(f, "space snapshot truncated: {what}"),
            SnapshotError::BadMagic => write!(f, "not a space snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => write!(
                f,
                "unsupported space snapshot version {v} (expected {SPACE_FORMAT_VERSION})"
            ),
            SnapshotError::BadChecksum => write!(f, "space snapshot checksum mismatch"),
            SnapshotError::Malformed(what) => write!(f, "malformed space snapshot: {what}"),
            SnapshotError::Mismatch(what) => {
                write!(f, "space snapshot does not match this space: {what}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Content digest addressing a space: options + the ordered sequence of
/// atom target relation schemes, by attribute *name*.
///
/// Independent of attribute/relation interning order, of the atoms'
/// (scratch) names, and of later catalog growth — two catalogs declaring
/// the same relations in any order agree on every view's space digest.
pub fn space_digest(catalog: &Catalog, atoms: &[RelId], options: SearchOptions) -> u128 {
    let mut h = ContentHasher::new();
    h.word(0x5350_4143_4553_4E41); // domain tag: space snapshot
    h.word(options.semantic_dedup as u64 | ((options.reduce_intermediates as u64) << 1));
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

// ------------------------------------------------------------- serializing

/// First-encounter-order attribute-name interner for one snapshot.
struct AttrTable<'a> {
    catalog: &'a Catalog,
    names: Vec<&'a str>,
    refs: std::collections::HashMap<AttrId, u32>,
}

impl<'a> AttrTable<'a> {
    fn new(catalog: &'a Catalog) -> Self {
        AttrTable {
            catalog,
            names: Vec::new(),
            refs: std::collections::HashMap::new(),
        }
    }

    fn attr_ref(&mut self, a: AttrId) -> u32 {
        if let Some(&r) = self.refs.get(&a) {
            return r;
        }
        let r = self.names.len() as u32;
        self.names.push(self.catalog.attr_name(a));
        self.refs.insert(a, r);
        r
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_scheme(out: &mut Vec<u8>, s: &Scheme, attrs: &mut AttrTable<'_>) {
    // Name order, not AttrId order: canonical bytes whatever the catalog's
    // interning order was.
    let cat = attrs.catalog;
    let mut refs: Vec<(&str, AttrId)> = s.iter().map(|a| (cat.attr_name(a), a)).collect();
    refs.sort_unstable_by_key(|&(name, _)| name);
    put_u32(out, refs.len() as u32);
    for (_, a) in refs {
        put_u32(out, attrs.attr_ref(a));
    }
}

fn put_expr(
    out: &mut Vec<u8>,
    e: &Expr,
    atom_pos: &std::collections::HashMap<RelId, u32>,
    attrs: &mut AttrTable<'_>,
) {
    match e {
        Expr::Rel(r) => {
            out.push(0);
            put_u32(out, atom_pos[r]);
        }
        Expr::Project(child, x) => {
            out.push(1);
            put_scheme(out, x, attrs);
            put_expr(out, child, atom_pos, attrs);
        }
        Expr::Join(es) => {
            out.push(2);
            put_u32(out, es.len() as u32);
            for child in es {
                put_expr(out, child, atom_pos, attrs);
            }
        }
    }
}

fn put_template(
    out: &mut Vec<u8>,
    t: &Template,
    atom_pos: &std::collections::HashMap<RelId, u32>,
    attrs: &mut AttrTable<'_>,
) {
    put_u32(out, t.tuples().len() as u32);
    for tt in t.tuples() {
        put_u32(out, atom_pos[&tt.rel()]);
        put_u32(out, tt.row().len() as u32);
        for sym in tt.row() {
            put_u32(out, attrs.attr_ref(sym.attr()));
            put_u32(out, sym.ord());
        }
    }
}

/// Serialize a space's committed levels into one self-contained snapshot.
///
/// `catalog` must be the catalog the space's atoms live in (the same one
/// every probe passes). The result round-trips through [`load_space`].
pub fn save_space(space: &CandidateSpace, catalog: &Catalog) -> Vec<u8> {
    let mut attrs = AttrTable::new(catalog);
    let atom_pos: std::collections::HashMap<RelId, u32> = space
        .atoms
        .iter()
        .enumerate()
        .map(|(i, &r)| (r, i as u32))
        .collect();

    // Body first (interning attribute refs as it goes), table after.
    let mut body = Vec::new();
    body.push(
        space.options.semantic_dedup as u8 | ((space.options.reduce_intermediates as u8) << 1),
    );
    put_u32(&mut body, space.atoms.len() as u32);
    for &r in &space.atoms {
        put_scheme(&mut body, catalog.scheme_of(r), &mut attrs);
    }
    put_u64(&mut body, space.stats.dedup_hits);
    put_u32(&mut body, space.levels.len() as u32);
    for (k, level) in space.levels.iter().enumerate() {
        put_u64(&mut body, level.visits_after);
        let parts = &space.parts[k + 1];
        put_u32(&mut body, parts.len() as u32);
        for p in parts {
            put_expr(&mut body, &p.expr, &atom_pos, &mut attrs);
            put_template(&mut body, &p.tpl, &atom_pos, &mut attrs);
        }
        put_u32(&mut body, level.joins.len() as u32);
        for j in &level.joins {
            put_expr(&mut body, &j.expr, &atom_pos, &mut attrs);
            put_template(&mut body, &j.tpl, &atom_pos, &mut attrs);
        }
    }

    let mut payload = Vec::with_capacity(body.len() + 64);
    put_u32(&mut payload, attrs.names.len() as u32);
    for name in &attrs.names {
        put_u32(&mut payload, name.len() as u32);
        payload.extend_from_slice(name.as_bytes());
    }
    payload.extend_from_slice(&body);

    let mut out = Vec::with_capacity(payload.len() + 20);
    out.extend_from_slice(SPACE_MAGIC);
    put_u32(&mut out, SPACE_FORMAT_VERSION);
    put_u64(&mut out, fnv1a64(&payload));
    out.extend_from_slice(&payload);
    out
}

// ------------------------------------------------------------ deserializing

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SnapshotError> {
        if self.bytes.len() - self.pos < n {
            return Err(SnapshotError::Truncated(what));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, SnapshotError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// A count whose elements occupy at least `min_bytes` each — rejects
    /// counts the remaining buffer cannot possibly hold, so corrupt counts
    /// fail fast instead of attempting absurd allocations.
    fn count(&mut self, min_bytes: usize, what: &'static str) -> Result<usize, SnapshotError> {
        let n = self.u32(what)? as usize;
        if n.saturating_mul(min_bytes.max(1)) > self.bytes.len() - self.pos {
            return Err(SnapshotError::Truncated(what));
        }
        Ok(n)
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

struct LoadTables {
    /// Snapshot attr ref → live AttrId.
    attrs: Vec<AttrId>,
    /// Snapshot atom position → live RelId.
    atoms: Vec<RelId>,
}

fn read_scheme(r: &mut Reader<'_>, tables: &LoadTables) -> Result<Scheme, SnapshotError> {
    let n = r.count(4, "scheme attrs")?;
    let mut attrs = Vec::with_capacity(n);
    for _ in 0..n {
        let aref = r.u32("scheme attr ref")? as usize;
        attrs.push(
            *tables
                .attrs
                .get(aref)
                .ok_or(SnapshotError::Malformed("attr ref out of range"))?,
        );
    }
    Scheme::new(attrs).map_err(|_| SnapshotError::Malformed("empty or invalid scheme"))
}

fn read_expr(
    r: &mut Reader<'_>,
    tables: &LoadTables,
    catalog: &Catalog,
    depth: usize,
) -> Result<Expr, SnapshotError> {
    if depth > MAX_EXPR_DEPTH {
        return Err(SnapshotError::Malformed("expression nested too deep"));
    }
    match r.u8("expr tag")? {
        0 => {
            let pos = r.u32("atom ref")? as usize;
            let rel = *tables
                .atoms
                .get(pos)
                .ok_or(SnapshotError::Malformed("atom ref out of range"))?;
            Ok(Expr::rel(rel))
        }
        1 => {
            let x = read_scheme(r, tables)?;
            let child = read_expr(r, tables, catalog, depth + 1)?;
            Expr::project(child, x, catalog)
                .map_err(|_| SnapshotError::Malformed("projection outside child TRS"))
        }
        2 => {
            let n = r.count(2, "join children")?;
            if n < 2 {
                return Err(SnapshotError::Malformed("join with fewer than 2 children"));
            }
            let mut children = Vec::with_capacity(n);
            for _ in 0..n {
                children.push(read_expr(r, tables, catalog, depth + 1)?);
            }
            Expr::join(children).map_err(|_| SnapshotError::Malformed("invalid join"))
        }
        _ => Err(SnapshotError::Malformed("unknown expression tag")),
    }
}

fn read_template(
    r: &mut Reader<'_>,
    tables: &LoadTables,
    catalog: &Catalog,
) -> Result<Template, SnapshotError> {
    let n = r.count(8, "template tuples")?;
    let mut tuples = Vec::with_capacity(n);
    for _ in 0..n {
        let pos = r.u32("tuple atom ref")? as usize;
        let rel = *tables
            .atoms
            .get(pos)
            .ok_or(SnapshotError::Malformed("tuple atom ref out of range"))?;
        let arity = r.count(8, "tuple row")?;
        let mut row = Vec::with_capacity(arity);
        for _ in 0..arity {
            let aref = r.u32("symbol attr ref")? as usize;
            let attr = *tables
                .attrs
                .get(aref)
                .ok_or(SnapshotError::Malformed("symbol attr ref out of range"))?;
            let ord = r.u32("symbol ord")?;
            row.push(Symbol::new(attr, ord));
        }
        // Rows are positional against the relation's scheme, which sorts by
        // the *loading* catalog's AttrIds — a different order than the
        // snapshotting catalog's. Symbols carry their attribute, so re-sort.
        row.sort_unstable_by_key(|sym: &Symbol| sym.attr());
        tuples.push(
            TaggedTuple::new(rel, row, catalog)
                .map_err(|_| SnapshotError::Malformed("invalid tagged tuple"))?,
        );
    }
    Template::new(tuples).map_err(|_| SnapshotError::Malformed("invalid template"))
}

/// Load a snapshot into a fresh [`CandidateSpace`] over `atoms` in
/// `catalog`.
///
/// The snapshot must describe a space with the same atom signature (the
/// ordered sequence of TRS attribute-name sets) and the same options;
/// anything else is a [`SnapshotError::Mismatch`]. Dedup state, root
/// lists, per-level TRS indexes, and stats are rebuilt by replaying the
/// commit path over the stored parts and joins, so every probe of the
/// returned space behaves exactly as it would on a freshly enumerated
/// one.
pub fn load_space(
    bytes: &[u8],
    catalog: &Catalog,
    atoms: &[RelId],
    options: SearchOptions,
) -> Result<CandidateSpace, SnapshotError> {
    if bytes.len() < 20 {
        return Err(SnapshotError::Truncated("header"));
    }
    if &bytes[..8] != SPACE_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != SPACE_FORMAT_VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let checksum = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    let payload = &bytes[20..];
    if fnv1a64(payload) != checksum {
        return Err(SnapshotError::BadChecksum);
    }

    let mut r = Reader {
        bytes: payload,
        pos: 0,
    };

    // Attribute name table, resolved against the live catalog.
    let n_attrs = r.count(4, "attr table")?;
    let mut attr_ids = Vec::with_capacity(n_attrs);
    for _ in 0..n_attrs {
        let len = r.count(1, "attr name length")?;
        let name = std::str::from_utf8(r.take(len, "attr name")?)
            .map_err(|_| SnapshotError::Malformed("attr name not UTF-8"))?;
        attr_ids.push(
            catalog
                .lookup_attr(name)
                .map_err(|_| SnapshotError::Mismatch("attribute not in this catalog"))?,
        );
    }
    let tables = LoadTables {
        attrs: attr_ids,
        atoms: atoms.to_vec(),
    };

    // Options + atom signature must agree with the loading space.
    let flags = r.u8("options")?;
    if flags & !0b11 != 0 {
        return Err(SnapshotError::Malformed("unknown option bits"));
    }
    let snap_options = SearchOptions {
        semantic_dedup: flags & 1 != 0,
        reduce_intermediates: flags & 2 != 0,
    };
    if snap_options.semantic_dedup != options.semantic_dedup
        || snap_options.reduce_intermediates != options.reduce_intermediates
    {
        return Err(SnapshotError::Mismatch("search options differ"));
    }
    let n_atoms = r.count(4, "atom signatures")?;
    if n_atoms != atoms.len() {
        return Err(SnapshotError::Mismatch("atom count differs"));
    }
    for &rel in atoms {
        let scheme = read_scheme(&mut r, &tables)?;
        if &scheme != catalog.scheme_of(rel) {
            return Err(SnapshotError::Mismatch("atom scheme differs"));
        }
    }
    let dedup_hits = r.u64("dedup hits")?;

    // Replay the levels through the same dedup + commit path the builder
    // uses; any replay contradiction (a stored candidate that dedups away)
    // means the snapshot does not describe a canonical enumeration.
    let mut space = CandidateSpace::new(atoms, options);
    let mut scratch = SearchStats::default();
    let n_levels = r.count(12, "levels")?;
    for _ in 0..n_levels {
        let visits_after = r.u64("level visits")?;
        if let Some(last) = space.levels.last() {
            if visits_after < last.visits_after {
                return Err(SnapshotError::Malformed("level visit counts decreasing"));
            }
        }
        let n_parts = r.count(9, "level parts")?;
        let mut parts = Vec::with_capacity(n_parts);
        for _ in 0..n_parts {
            let expr = read_expr(&mut r, &tables, catalog, 0)?;
            let tpl = read_template(&mut r, &tables, catalog)?;
            if space.part_dedup.seen(&tpl, &mut scratch) {
                return Err(SnapshotError::Malformed("duplicate part in snapshot"));
            }
            parts.push(Part { expr, tpl });
        }
        let n_joins = r.count(9, "level joins")?;
        let mut joins = Vec::with_capacity(n_joins);
        for _ in 0..n_joins {
            let expr = read_expr(&mut r, &tables, catalog, 0)?;
            let tpl = read_template(&mut r, &tables, catalog)?;
            if space.join_dedup.seen(&tpl, &mut scratch) {
                return Err(SnapshotError::Malformed("duplicate join in snapshot"));
            }
            joins.push(Part { expr, tpl });
        }
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
    if r.remaining() != 0 {
        return Err(SnapshotError::Malformed("trailing bytes after last level"));
    }
    space.part_dedup.commit();
    space.join_dedup.commit();
    space.root_dedup.commit();
    // The builder's hit count spans part, join, *and* root dedup; the
    // replay only re-observes the root hits, so restore the recorded
    // total outright.
    space.stats.dedup_hits = dedup_hits;
    let _ = scratch;
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
        let mut space = CandidateSpace::new(atoms, SearchOptions::default());
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
        let mut loaded = load_space(&bytes, &cat, &atoms, SearchOptions::default()).unwrap();
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
        let mut loaded = load_space(&bytes, &cat, &atoms, SearchOptions::default()).unwrap();
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
        let opts = SearchOptions::default();
        assert_eq!(
            space_digest(&cat1, &atoms1, opts),
            space_digest(&cat2, &atoms2, opts)
        );
        // Different atom order → different digest.
        let swapped = vec![s, r];
        assert_ne!(
            space_digest(&cat2, &atoms2, opts),
            space_digest(&cat2, &swapped, opts)
        );
        // Different options → different digest.
        assert_ne!(
            space_digest(&cat1, &atoms1, opts),
            space_digest(
                &cat1,
                &atoms1,
                SearchOptions {
                    semantic_dedup: false,
                    reduce_intermediates: true
                }
            )
        );
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
        let mut loaded = load_space(&bytes, &cat2, &atoms2, SearchOptions::default()).unwrap();
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
        // Wrong options.
        assert!(matches!(
            load_space(
                &bytes,
                &cat,
                &atoms,
                SearchOptions {
                    semantic_dedup: false,
                    reduce_intermediates: true
                }
            ),
            Err(SnapshotError::Mismatch(_))
        ));
        // Wrong atom count.
        assert!(matches!(
            load_space(&bytes, &cat, &atoms[..1], SearchOptions::default()),
            Err(SnapshotError::Mismatch(_))
        ));
        // Swapped atoms → schemes disagree positionally.
        let swapped = vec![atoms[1], atoms[0]];
        assert!(matches!(
            load_space(&bytes, &cat, &swapped, SearchOptions::default()),
            Err(SnapshotError::Mismatch(_))
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
            load_space(&bad, &cat, &atoms, SearchOptions::default()),
            Err(SnapshotError::BadMagic)
        ));
        // Bad version.
        let mut bad = bytes.clone();
        bad[8] = 0xFF;
        assert!(matches!(
            load_space(&bad, &cat, &atoms, SearchOptions::default()),
            Err(SnapshotError::BadVersion(_))
        ));
        // Flipped payload byte → checksum catches it.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        assert!(matches!(
            load_space(&bad, &cat, &atoms, SearchOptions::default()),
            Err(SnapshotError::BadChecksum)
        ));
        // Truncations never panic.
        for len in 0..bytes.len() {
            assert!(load_space(&bytes[..len], &cat, &atoms, SearchOptions::default()).is_err());
        }
    }
}
