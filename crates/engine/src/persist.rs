//! Verdict-cache persistence: a versioned, checksummed, *name-addressed*
//! on-disk format, plus fleet operations (merge, compact) over cache
//! files.
//!
//! The cache is content-addressed — keys are canonical fingerprints
//! computed over relation content digests, and a fingerprint never changes
//! meaning — so a saved cache can warm any later process whose catalog
//! declares the same relations, in *any* declaration order. To make the
//! memoized witnesses equally portable, the file never stores raw catalog
//! ids: every attribute and relation reference is an index into per-file
//! *name tables*, and scratch `λᵢ` names are stored positionally. Loading
//! keeps witnesses in that file-local id space: each loaded entry is
//! `foreign`, holding the name tables of the file it came from, so entries
//! of files with different tables share one cache. The engine translates
//! an entry into the live catalog on first hit via `translate_entry`.
//!
//! ## Payload (version 2, inside the [`codec`] frame, magic `VCAPCACH`)
//!
//! ```text
//! attr_table, rel_table   codec name tables
//! entry_count             u64
//! entries, sorted by (kind, left, right):
//!   key      kind u8 (3 simplify, 4 nonredundant), left u128, right u128
//!   fps      u32 count, one u128 each (left_query_fps)
//!   verdict  tag u8, then the witness of a YES; tag 6 a scheme list (the
//!            simplified TRSs), tag 7 a u32 list (kept pair indices)
//! proof      u32 λ count, one u32 query index per λ; expr; two templates
//! expr       tag u8: 0 rel ref | 1 child, scheme | 2 u32 n, n children
//! scheme     u32 count, attr refs;  template: codec tagged-tuple rows
//! ```
//!
//! A relation reference is a rel-table index, or — for a scratch `λᵢ` —
//! its position in the proof's λ list with [`LAMBDA_BIT`] set, so λ
//! references validate against a known count. Loading returns a
//! [`CodecError`], never a panic; [`Template::new`] re-validates template
//! invariants on the way in.
//!
//! ## Fleet operations
//!
//! Every reader parses each file, folds it into a last-writer-wins
//! `Union` keyed by fingerprint, and takes the union's tail (its last
//! `max` entries in key order): [`load_cache`] and
//! [`crate::PileRecords::load`] insert the tail into a cache;
//! [`merge_cache_bytes`], [`compact_cache_bytes`] and `pile compact`
//! encode it with re-interned name tables. No output byte is produced
//! before every input parses, so a corrupt input never poisons an output.

use crate::cache::{CacheKey, Entry, VerdictCache};
use crate::fingerprint::Fingerprint;
use crate::verdict::{CheckKind, Verdict};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;
use viewcap_base::{AttrId, Catalog, RelId, Scheme, Symbol};
use viewcap_core::capacity::ClosureProof;
use viewcap_core::equivalence::{DominanceWitness, EquivalenceWitness};
use viewcap_expr::Expr;
use viewcap_obs as obs;
use viewcap_template::codec::{
    self, put_template, put_u128, put_u32, put_u64, CodecError, Format, Interner, Reader,
    MAX_EXPR_DEPTH,
};
use viewcap_template::{TaggedTuple, Template};

/// Bytes serialized out of / parsed by the cache format (telemetry; live
/// only while enabled). Spans cover the (de)serialization work.
static PERSIST_OUT: obs::Counter = obs::Counter::new("engine.cache.persist_bytes_out");
static PERSIST_IN: obs::Counter = obs::Counter::new("engine.cache.persist_bytes_in");
static SAVE_SPAN: obs::SpanDef =
    obs::SpanDef::new("engine.cache.save", "cache", "span.engine.cache.save");
static LOAD_SPAN: obs::SpanDef =
    obs::SpanDef::new("engine.cache.load", "cache", "span.engine.cache.load");

/// The cache format's frame.
pub const CACHE_FORMAT: Format = Format {
    magic: b"VCAPCACH",
    version: 2,
    label: "cache file",
};
/// High bit marking a relation reference as a scratch `λ` position. The
/// same bit marks the synthetic in-memory `RelId`s of loaded witnesses:
/// they exist in no catalog, are only ever compared against each other
/// (via the proof's λ list), and survive translation unchanged.
pub const LAMBDA_BIT: u32 = 0x8000_0000;

/// The producer's name tables of a loaded cache file: `attrs[i]` is the
/// name behind file-local `AttrId(i)`, `rels[i]` behind file-local
/// `RelId(i)`, shared by every entry loaded from the file. Used to
/// translate `foreign` entries into a live catalog (`translate_entry`)
/// and to re-intern names when they are saved or merged.
#[derive(Debug)]
pub struct ImportTables {
    /// File-local attribute names.
    pub attrs: Vec<String>,
    /// File-local relation names.
    pub rels: Vec<String>,
}

// ---------------------------------------------------------------- writing

/// Where an entry's ids resolve to names: a live catalog (native entries)
/// or the tables of the file the entry was loaded from (`foreign`
/// entries, saved or merged without ever touching a catalog).
#[derive(Clone, Copy)]
enum NameSource<'a> {
    Catalog(&'a Catalog),
    Tables(&'a ImportTables),
}

impl<'a> NameSource<'a> {
    fn attr_name(self, a: AttrId) -> Option<&'a str> {
        match self {
            NameSource::Catalog(cat) => (a.index() < cat.attr_count()).then(|| cat.attr_name(a)),
            NameSource::Tables(t) => t.attrs.get(a.index()).map(String::as_str),
        }
    }

    fn rel_name(self, r: RelId) -> Option<&'a str> {
        match self {
            NameSource::Catalog(cat) => (r.index() < cat.rel_count()).then(|| cat.rel_name(r)),
            NameSource::Tables(t) => t.rels.get(r.index()).map(String::as_str),
        }
    }
}

/// Encoder for one entry: resolves ids to names via `names`, interning
/// them into the shared output tables. Any unresolvable id aborts the
/// entry (`None`).
struct EntryWriter<'w, 'a> {
    out: &'w mut Vec<u8>,
    attrs: &'w mut Interner<'a>,
    rels: &'w mut Interner<'a>,
    names: NameSource<'a>,
    /// λ → position for the proof currently being encoded.
    lambda: HashMap<RelId, u32>,
}

/// A relation reference: the λ position with [`LAMBDA_BIT`] set, or the
/// interned rel-table index.
fn rel_ref<'a>(
    lambda: &HashMap<RelId, u32>,
    names: NameSource<'a>,
    rels: &mut Interner<'a>,
    r: RelId,
) -> Option<u32> {
    if let Some(&pos) = lambda.get(&r) {
        return Some(LAMBDA_BIT | pos);
    }
    let i = rels.intern(names.rel_name(r)?);
    (i & LAMBDA_BIT == 0).then_some(i) // 2^31 relation names: not a real catalog
}

impl EntryWriter<'_, '_> {
    fn expr(&mut self, e: &Expr) -> Option<()> {
        match e {
            Expr::Rel(r) => {
                self.out.push(0);
                let i = rel_ref(&self.lambda, self.names, self.rels, *r)?;
                put_u32(self.out, i);
            }
            Expr::Project(child, scheme) => {
                self.out.push(1);
                self.expr(child)?;
                self.scheme(scheme)?;
            }
            Expr::Join(children) => {
                self.out.push(2);
                put_u32(self.out, children.len() as u32);
                for c in children {
                    self.expr(c)?;
                }
            }
        }
        Some(())
    }

    fn scheme(&mut self, s: &Scheme) -> Option<()> {
        put_u32(self.out, s.len() as u32);
        for a in s.iter() {
            put_u32(self.out, self.attrs.intern(self.names.attr_name(a)?));
        }
        Some(())
    }

    fn template(&mut self, t: &Template) -> Option<()> {
        let (lambda, names, rels, attrs) =
            (&self.lambda, self.names, &mut *self.rels, &mut *self.attrs);
        put_template(
            self.out,
            t,
            |r| rel_ref(lambda, names, rels, r),
            |a| Some(attrs.intern(names.attr_name(a)?)),
        )
    }

    fn proof(&mut self, p: &ClosureProof) -> Option<()> {
        // λ list first, so references below validate against its length.
        self.lambda = (0..)
            .zip(&p.lambda_queries)
            .map(|(pos, &(lam, _))| (lam, pos))
            .collect();
        put_u32(self.out, p.lambda_queries.len() as u32);
        for &(_, idx) in &p.lambda_queries {
            put_u32(self.out, idx as u32);
        }
        self.expr(&p.skeleton)?;
        self.template(&p.skeleton_template)?;
        self.template(&p.substituted)?;
        self.lambda.clear();
        Some(())
    }

    fn dominance(&mut self, w: &DominanceWitness) -> Option<()> {
        put_u32(self.out, w.proofs.len() as u32);
        for p in &w.proofs {
            self.proof(p)?;
        }
        Some(())
    }

    fn verdict(&mut self, v: &Verdict) -> Option<()> {
        match v {
            Verdict::Member(None) => self.out.push(0),
            Verdict::Member(Some(p)) => {
                self.out.push(1);
                self.proof(p)?;
            }
            Verdict::Dominates(None) => self.out.push(2),
            Verdict::Dominates(Some(w)) => {
                self.out.push(3);
                self.dominance(w)?;
            }
            Verdict::Equivalent(None) => self.out.push(4),
            Verdict::Equivalent(Some(w)) => {
                self.out.push(5);
                self.dominance(&w.v_dominates_w)?;
                self.dominance(&w.w_dominates_v)?;
            }
            Verdict::Simplified(schemes) => {
                self.out.push(6);
                put_u32(self.out, schemes.len() as u32);
                for s in schemes {
                    self.scheme(s)?;
                }
            }
            Verdict::Nonredundant(kept) => {
                self.out.push(7);
                put_u32(self.out, kept.len() as u32);
                for &i in kept {
                    put_u32(self.out, i);
                }
            }
        }
        Some(())
    }

    fn entry(&mut self, key: &CacheKey, entry: &Entry) -> Option<()> {
        self.out.push(key.kind.byte());
        put_u128(self.out, key.left.as_u128());
        put_u128(self.out, key.right.as_u128());
        put_u32(self.out, entry.left_query_fps.len() as u32);
        for fp in entry.left_query_fps.iter() {
            put_u128(self.out, fp.as_u128());
        }
        self.verdict(&entry.verdict)
    }
}

/// Encode `entries`, in order, as one cache file, returning it with the
/// number of entries written. A `foreign` entry's ids resolve through its
/// own tables, a native one's through `catalog`; an entry whose ids resolve
/// nowhere is dropped (names it interned before failing stay).
fn encode<'a>(
    entries: impl Iterator<Item = (&'a CacheKey, &'a Entry)>,
    catalog: &'a Catalog,
) -> (Vec<u8>, usize) {
    let (mut attrs, mut rels) = (Interner::default(), Interner::default());
    let mut body = Vec::new();
    let mut count = 0;
    for (key, entry) in entries {
        let mark = body.len();
        let mut w = EntryWriter {
            out: &mut body,
            attrs: &mut attrs,
            rels: &mut rels,
            names: match &entry.foreign {
                Some(tables) => NameSource::Tables(tables),
                None => NameSource::Catalog(catalog),
            },
            lambda: HashMap::new(),
        };
        match w.entry(key, entry) {
            Some(()) => count += 1,
            None => body.truncate(mark),
        }
    }
    let mut payload = Vec::with_capacity(body.len() + 256);
    attrs.put_table(&mut payload);
    rels.put_table(&mut payload);
    put_u64(&mut payload, count as u64);
    payload.extend_from_slice(&body);
    (codec::seal(&CACHE_FORMAT, &payload), count)
}

/// Serialize a cache to bytes (deterministic: entries sorted by key, table
/// names interned in first-encounter order over that sorted stream).
///
/// `catalog` resolves the ids of natively computed entries; entries still
/// `foreign` (loaded from disk and never hit) resolve through the tables
/// of the file each came from, so merged-in verdicts about relations this
/// catalog never declared survive a save/load cycle losslessly. An entry
/// whose ids resolve nowhere (possible only through API misuse — a witness
/// computed against some *other* catalog) is skipped rather than
/// corrupting the file.
pub fn save_cache(cache: &VerdictCache, catalog: &Catalog) -> Vec<u8> {
    let mut span = SAVE_SPAN.start();
    let snapshot = cache.snapshot();
    let (bytes, count) = encode(snapshot.iter().map(|(key, entry)| (key, entry)), catalog);
    span.arg("bytes", bytes.len() as u64);
    span.arg("entries", count as u64);
    PERSIST_OUT.add(bytes.len() as u64);
    bytes
}

// ---------------------------------------------------------------- reading

/// Reference bounds: one file's table sizes, and the λ count of the proof
/// being read.
#[derive(Clone, Copy)]
struct Bounds {
    attrs: usize,
    rels: usize,
    lambdas: usize,
}

impl Bounds {
    /// An attr-table index, surfaced as a file-local [`AttrId`].
    fn attr(self, i: u32) -> Option<AttrId> {
        ((i as usize) < self.attrs).then_some(AttrId(i))
    }

    /// A rel-table index (file-local [`RelId`]) or a λ position (high bit
    /// kept).
    fn rel(self, i: u32) -> Option<RelId> {
        let ok = match i & LAMBDA_BIT {
            0 => (i as usize) < self.rels,
            _ => ((i & !LAMBDA_BIT) as usize) < self.lambdas,
        };
        ok.then_some(RelId(i))
    }
}

struct EntryReader<'a> {
    r: Reader<'a>,
    b: Bounds,
    tables: Arc<ImportTables>,
}

impl EntryReader<'_> {
    fn expr(&mut self, depth: usize) -> Result<Expr, CodecError> {
        if depth > MAX_EXPR_DEPTH {
            return Err(self.r.corrupt("expression nesting too deep"));
        }
        let b = self.b;
        match self.r.u8()? {
            0 => Ok(Expr::Rel(self.r.lookup(|i| b.rel(i))?)),
            1 => {
                let child = self.expr(depth + 1)?;
                let scheme = self.scheme()?;
                if scheme.is_empty() {
                    return Err(self.r.corrupt("empty projection scheme"));
                }
                // Direct construction: the validating `Expr::project` needs
                // a catalog that knows the scratch λ names, which no loader
                // has. `Template::new` below still checks witness shape.
                Ok(Expr::Project(Box::new(child), scheme))
            }
            2 => {
                let n = self.r.count(2)?;
                if n < 2 {
                    return Err(self.r.corrupt("join with fewer than two operands"));
                }
                let children = (0..n)
                    .map(|_| self.expr(depth + 1))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Expr::Join(children))
            }
            _ => Err(self.r.corrupt("unknown expression tag")),
        }
    }

    fn scheme(&mut self) -> Result<Scheme, CodecError> {
        let (n, b) = (self.r.count(4)?, self.b);
        let ids = (0..n)
            .map(|_| self.r.lookup(|i| b.attr(i)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Scheme::collect(ids))
    }

    fn template(&mut self) -> Result<Template, CodecError> {
        let b = self.b;
        self.r.template(
            |i| b.rel(i),
            |i| b.attr(i),
            |rel, row| Some(TaggedTuple::from_raw_parts(rel, row)),
        )
    }

    fn proof(&mut self) -> Result<ClosureProof, CodecError> {
        let n = self.r.count(4)?;
        let lambda_queries = (0..n)
            .map(|pos| Ok((RelId(LAMBDA_BIT | pos as u32), self.r.u32()? as usize)))
            .collect::<Result<Vec<_>, CodecError>>()?;
        self.b.lambdas = n;
        Ok(ClosureProof {
            skeleton: self.expr(0)?,
            lambda_queries,
            skeleton_template: self.template()?,
            substituted: self.template()?,
        })
    }

    fn dominance(&mut self) -> Result<DominanceWitness, CodecError> {
        let n = self.r.count(1)?;
        let proofs = (0..n)
            .map(|_| self.proof())
            .collect::<Result<Vec<_>, _>>()?;
        Ok(DominanceWitness { proofs })
    }

    fn verdict(&mut self) -> Result<Verdict, CodecError> {
        Ok(match self.r.u8()? {
            0 => Verdict::Member(None),
            1 => Verdict::Member(Some(self.proof()?)),
            2 => Verdict::Dominates(None),
            3 => Verdict::Dominates(Some(self.dominance()?)),
            4 => Verdict::Equivalent(None),
            5 => Verdict::Equivalent(Some(EquivalenceWitness {
                v_dominates_w: self.dominance()?,
                w_dominates_v: self.dominance()?,
            })),
            6 => {
                let n = self.r.count(4)?;
                let schemes = (0..n)
                    .map(|_| match self.scheme()? {
                        s if s.is_empty() => Err(self.r.corrupt("empty simplified scheme")),
                        s => Ok(s),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Verdict::Simplified(schemes)
            }
            7 => {
                let n = self.r.count(4)?;
                let kept = (0..n)
                    .map(|_| self.r.u32())
                    .collect::<Result<Vec<_>, _>>()?;
                Verdict::Nonredundant(kept)
            }
            _ => return Err(self.r.corrupt("unknown verdict tag")),
        })
    }

    fn entry(&mut self) -> Result<(CacheKey, Entry), CodecError> {
        let kind = self.r.u8()?;
        let kind =
            CheckKind::from_byte(kind).ok_or_else(|| self.r.corrupt("unknown check kind"))?;
        let key = CacheKey {
            kind,
            left: Fingerprint::from_raw(self.r.u128()?),
            right: Fingerprint::from_raw(self.r.u128()?),
        };
        let n = self.r.count(16)?;
        let fps = (0..n)
            .map(|_| self.r.u128().map(Fingerprint::from_raw))
            .collect::<Result<Vec<_>, _>>()?;
        let verdict = self.verdict()?;
        if verdict.kind() != kind {
            return Err(self.r.corrupt("verdict kind disagrees with its key"));
        }
        let entry = Entry {
            verdict: Arc::new(verdict),
            left_query_fps: Arc::from(fps.as_slice()),
            foreign: Some(Arc::clone(&self.tables)),
        };
        Ok((key, entry))
    }
}

/// A fully parsed, integrity-checked cache file: its entries, still in
/// file-local id space, each holding the file's name tables.
fn parse_cache(bytes: &[u8]) -> Result<Vec<(CacheKey, Entry)>, CodecError> {
    let mut r = codec::open(bytes, &CACHE_FORMAT)?;
    let (attrs, rels) = (r.table()?, r.table()?);
    let count = r.u64()?;
    // Every entry is at least 38 bytes (key + fp-table length + tag).
    if count.saturating_mul(38) > r.remaining() as u64 {
        return Err(r.corrupt("entry count exceeds payload"));
    }
    let b = Bounds {
        attrs: attrs.len(),
        rels: rels.len(),
        lambdas: 0,
    };
    let tables = Arc::new(ImportTables { attrs, rels });
    let mut d = EntryReader { r, b, tables };
    let mut entries = Vec::with_capacity(count as usize);
    for _ in 0..count {
        entries.push(d.entry()?);
    }
    d.r.finish()?;
    Ok(entries)
}

/// The last-writer-wins union of parsed cache files, in key order. Each
/// entry keeps the name tables of the file it came from.
pub(crate) struct Union {
    entries: BTreeMap<CacheKey, Entry>,
    report: MergeReport,
}

impl Union {
    /// Parse `files` in order, folding each into the union as soon as it
    /// is parsed, so superseded entries are dropped early. A corrupt or
    /// version-skewed file yields `Err` and no union.
    pub(crate) fn of<B: AsRef<[u8]>>(files: &[B]) -> Result<Union, CodecError> {
        let mut span = LOAD_SPAN.start();
        let bytes_in = files.iter().map(|f| f.as_ref().len() as u64).sum();
        span.arg("bytes", bytes_in);
        PERSIST_IN.add(bytes_in);
        let (mut entries, mut report) = (BTreeMap::new(), MergeReport::default());
        for file in files {
            for (key, entry) in parse_cache(file.as_ref())? {
                report.entries_in += 1;
                report.replaced += usize::from(entries.insert(key, entry).is_some());
            }
        }
        (report.inputs, report.entries_out) = (files.len(), entries.len());
        Ok(Union { entries, report })
    }

    /// Where the tail (the last `max_entries`, at least one) starts. Recency
    /// does not persist, so dropping the front is as good as any policy.
    fn tail_start(&self, max_entries: Option<usize>) -> usize {
        max_entries.map_or(0, |m| self.entries.len().saturating_sub(m.max(1)))
    }

    /// The tail as a cache bounded by `max_entries`. Entries before the
    /// tail are never inserted, so loading counts no evictions.
    pub(crate) fn into_cache(self, max_entries: Option<usize>) -> VerdictCache {
        let cache = VerdictCache::bounded(max_entries);
        let start = self.tail_start(max_entries);
        for (key, entry) in self.entries.into_iter().skip(start) {
            cache.insert(key, entry);
        }
        cache
    }

    /// The tail as one canonical cache file (entries are all foreign, so no
    /// catalog is consulted), reported against the whole union's file.
    pub(crate) fn compact(&self, max_entries: Option<usize>) -> (Vec<u8>, CompactReport) {
        let start = self.tail_start(max_entries);
        let (out, entries_out) = encode(self.entries.iter().skip(start), &Catalog::new());
        let bytes_in = match start {
            0 => out.len(),
            _ => encode(self.entries.iter(), &Catalog::new()).0.len(),
        };
        let report = CompactReport {
            entries_in: self.entries.len(),
            entries_out,
            bytes_in,
            bytes_out: out.len(),
        };
        (out, report)
    }
}

/// Deserialize a cache from bytes into a cache bounded by `max_entries`
/// (`None` = unbounded), keeping the final `max_entries` entries; the
/// whole payload is still integrity-checked. Loaded entries are `foreign`
/// and translate on first hit. Use against any catalog declaring the
/// relations the producing runs declared — fingerprints are
/// content-addressed, so declaration order is immaterial.
pub fn load_cache(bytes: &[u8], max_entries: Option<usize>) -> Result<VerdictCache, CodecError> {
    Ok(Union::of(&[bytes])?.into_cache(max_entries))
}

/// Fully parse and integrity-check `bytes` as a version-2 cache file
/// without building a cache; returns the entry count. The admission check
/// of [`crate::pilestore`]'s import bridge — a pile may only ever contain
/// records that parse, so corruption can always be localized to record
/// framing, never to record content.
pub fn validate_cache_bytes(bytes: &[u8]) -> Result<usize, CodecError> {
    parse_cache(bytes).map(|entries| entries.len())
}

// ----------------------------------------------------------- translation

/// Maps from file-local ids to a live catalog's ids, built once per
/// translated entry.
struct IdMaps {
    attrs: Vec<Option<AttrId>>,
    rels: Vec<Option<RelId>>,
}

impl IdMaps {
    fn new(tables: &ImportTables, catalog: &Catalog) -> IdMaps {
        IdMaps {
            attrs: tables
                .attrs
                .iter()
                .map(|n| catalog.lookup_attr(n).ok())
                .collect(),
            rels: tables
                .rels
                .iter()
                .map(|n| catalog.lookup_rel(n).ok())
                .collect(),
        }
    }

    fn attr(&self, a: AttrId) -> Option<AttrId> {
        self.attrs.get(a.index()).copied().flatten()
    }

    fn rel(&self, r: RelId) -> Option<RelId> {
        if r.0 & LAMBDA_BIT != 0 {
            return Some(r); // synthetic λ ids survive translation
        }
        self.rels.get(r.index()).copied().flatten()
    }

    fn expr(&self, e: &Expr) -> Option<Expr> {
        Some(match e {
            Expr::Rel(r) => Expr::Rel(self.rel(*r)?),
            Expr::Project(child, scheme) => Expr::Project(
                Box::new(self.expr(child)?),
                Scheme::collect(
                    scheme
                        .iter()
                        .map(|a| self.attr(a))
                        .collect::<Option<Vec<_>>>()?,
                ),
            ),
            Expr::Join(children) => Expr::Join(
                children
                    .iter()
                    .map(|c| self.expr(c))
                    .collect::<Option<Vec<_>>>()?,
            ),
        })
    }

    fn template(&self, t: &Template) -> Option<Template> {
        let tuples = t
            .tuples()
            .iter()
            .map(|tup| {
                let rel = self.rel(tup.rel())?;
                let row = tup
                    .row()
                    .iter()
                    .map(|s| Some(Symbol::new(self.attr(s.attr())?, s.ord())))
                    .collect::<Option<Vec<_>>>()?;
                Some(TaggedTuple::from_raw_parts(rel, row))
            })
            .collect::<Option<Vec<_>>>()?;
        Template::new(tuples).ok()
    }

    fn proof(&self, p: &ClosureProof) -> Option<ClosureProof> {
        Some(ClosureProof {
            skeleton: self.expr(&p.skeleton)?,
            lambda_queries: p.lambda_queries.clone(),
            skeleton_template: self.template(&p.skeleton_template)?,
            substituted: self.template(&p.substituted)?,
        })
    }

    fn dominance(&self, w: &DominanceWitness) -> Option<DominanceWitness> {
        Some(DominanceWitness {
            proofs: w
                .proofs
                .iter()
                .map(|p| self.proof(p))
                .collect::<Option<Vec<_>>>()?,
        })
    }

    fn verdict(&self, v: &Verdict) -> Option<Verdict> {
        Some(match v {
            Verdict::Member(None) => Verdict::Member(None),
            Verdict::Member(Some(p)) => Verdict::Member(Some(self.proof(p)?)),
            Verdict::Dominates(None) => Verdict::Dominates(None),
            Verdict::Dominates(Some(w)) => Verdict::Dominates(Some(self.dominance(w)?)),
            Verdict::Equivalent(None) => Verdict::Equivalent(None),
            Verdict::Equivalent(Some(w)) => Verdict::Equivalent(Some(EquivalenceWitness {
                v_dominates_w: self.dominance(&w.v_dominates_w)?,
                w_dominates_v: self.dominance(&w.w_dominates_v)?,
            })),
            Verdict::Simplified(schemes) => Verdict::Simplified(
                schemes
                    .iter()
                    .map(|s| {
                        Some(Scheme::collect(
                            s.iter().map(|a| self.attr(a)).collect::<Option<Vec<_>>>()?,
                        ))
                    })
                    .collect::<Option<Vec<_>>>()?,
            ),
            Verdict::Nonredundant(kept) => Verdict::Nonredundant(kept.clone()),
        })
    }
}

/// Translate a `foreign` entry's witnesses from the file-local id space of
/// `tables` into `catalog`'s ids (names are the bridge). Returns `None`
/// when some referenced name is not declared in `catalog` — the caller
/// should then treat the lookup as a miss and recompute. Scratch λ ids
/// (high bit set) pass through unchanged; they exist in no catalog and are
/// only ever matched structurally against the proof's own λ list.
pub(crate) fn translate_entry(
    entry: &Entry,
    tables: &ImportTables,
    catalog: &Catalog,
) -> Option<Entry> {
    let maps = IdMaps::new(tables, catalog);
    Some(Entry {
        verdict: Arc::new(maps.verdict(&entry.verdict)?),
        left_query_fps: Arc::clone(&entry.left_query_fps),
        foreign: None,
    })
}

// ------------------------------------------------------ merge & compact

/// Outcome of [`merge_cache_bytes`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeReport {
    /// Input files merged.
    pub inputs: usize,
    /// Entries across all inputs (before deduplication).
    pub entries_in: usize,
    /// Entries in the merged output.
    pub entries_out: usize,
    /// Entries where a later input overrode an earlier one's verdict for
    /// the same fingerprint key (the verdicts are semantically identical;
    /// last writer wins on the attached stats/witness bytes).
    pub replaced: usize,
}

/// Merge N cache files into one: the union of their verdict sets, keyed by
/// fingerprint. When two inputs hold the same key, the *last* input wins
/// (the verdicts are semantically identical — equal fingerprints mean the
/// same question — so this only picks whose witness bytes persist);
/// witnesses are deduplicated by fingerprint key as a consequence. Name
/// tables are re-interned, so the output references exactly the names its
/// surviving entries use.
///
/// Every input is fully parsed and integrity-checked before any output is
/// produced: a corrupt or version-skewed input yields `Err` and no bytes.
pub fn merge_cache_bytes(inputs: &[Vec<u8>]) -> Result<(Vec<u8>, MergeReport), CodecError> {
    let union = Union::of(inputs)?;
    Ok((union.compact(None).0, union.report))
}

/// Outcome of [`compact_cache_bytes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactReport {
    /// Entries in the input file.
    pub entries_in: usize,
    /// Entries kept.
    pub entries_out: usize,
    /// Input size in bytes.
    pub bytes_in: usize,
    /// Output size in bytes.
    pub bytes_out: usize,
}

impl fmt::Display for CompactReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {} entrie(s), {} -> {} byte(s)",
            self.entries_in, self.entries_out, self.bytes_in, self.bytes_out
        )
    }
}

/// Rewrite one cache file in canonical form: entries stay sorted,
/// optionally truncated to the *last* `max_entries` of the sorted stream
/// (mirroring [`load_cache`]'s bound semantics), and the name tables are
/// re-interned so names no surviving entry references are dropped —
/// the table garbage a long merge lineage accumulates.
pub fn compact_cache_bytes(
    bytes: &[u8],
    max_entries: Option<usize>,
) -> Result<(Vec<u8>, CompactReport), CodecError> {
    let (out, report) = Union::of(&[bytes])?.compact(max_entries);
    let bytes_in = bytes.len();
    Ok((out, CompactReport { bytes_in, ..report }))
}
