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
//! keeps witnesses in that file-local id space (entries are marked
//! `foreign`); the engine translates them into the live catalog on first
//! hit via [`translate_entry`].
//!
//! ## Format (version 2)
//!
//! ```text
//! magic      8  bytes  b"VCAPCACH"
//! version    u32 LE
//! checksum   u64 LE    FNV-1a over the payload bytes
//! payload:
//!   attr_table  u32 count, then per attribute: u32 len + UTF-8 bytes
//!   rel_table   u32 count, then per relation:  u32 len + UTF-8 bytes
//!   entry_count u64 LE
//!   entries, sorted by (kind, left, right):
//!     key        kind u8, left u128 LE, right u128 LE
//!     fps        u32 count, u128 LE each    (left_query_fps)
//!     verdict    tag u8, then the witness when the answer was YES
//! ```
//!
//! Normalization verdicts ride the same stream: kind bytes 3 (`simplify`)
//! and 4 (`nonredundant`), verdict tags 6 (a scheme list — the simplified
//! equivalent's TRSs) and 7 (a `u32` list — kept pair indices).
//!
//! Witness encoding: attribute references are attr-table indexes; relation
//! references are rel-table indexes, except scratch `λᵢ` references, which
//! set the high bit ([`LAMBDA_BIT`]) and carry the λ's position in its
//! proof's λ list. Each proof stores its λ list first (one query index per
//! λ), so λ references validate against a known count. Everything is
//! integers and length-prefixed strings; loading is strictly
//! bounds-checked and returns [`PersistError`] — never panics — on
//! truncation, corruption (checksum), version skew, or structurally
//! invalid witnesses ([`Template::new`] re-validates template invariants
//! on the way in).
//!
//! ## Fleet operations
//!
//! [`merge_cache_bytes`] folds N encoded caches into one (union of
//! verdict sets, last input wins on shared fingerprints, name tables
//! re-interned) — it is how a pile's cache records load; and
//! [`compact_cache_bytes`] rewrites one in canonical form,
//! garbage-collecting unreferenced table names and optionally truncating
//! to the newest `max` entries — the cache half of `pile compact`. Both
//! parse every input fully before producing a single output byte, so a
//! corrupt input can never poison an output.

use crate::cache::{CacheKey, Entry, VerdictCache};
use crate::fingerprint::Fingerprint;
use crate::verdict::{CheckKind, Verdict};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use viewcap_base::{fnv1a64, AttrId, Catalog, RelId, Scheme, Symbol};
use viewcap_core::capacity::ClosureProof;
use viewcap_core::equivalence::{DominanceWitness, EquivalenceWitness};
use viewcap_obs as obs;

/// Bytes serialized out of / parsed into the verdict cache (telemetry;
/// live only while enabled). Spans cover the (de)serialization work.
static PERSIST_OUT: obs::Counter = obs::Counter::new("engine.cache.persist_bytes_out");
static PERSIST_IN: obs::Counter = obs::Counter::new("engine.cache.persist_bytes_in");
static SAVE_SPAN: obs::SpanDef =
    obs::SpanDef::new("engine.cache.save", "cache", "span.engine.cache.save");
static LOAD_SPAN: obs::SpanDef =
    obs::SpanDef::new("engine.cache.load", "cache", "span.engine.cache.load");
use viewcap_expr::Expr;
use viewcap_template::{TaggedTuple, Template};

/// Leading magic of every cache file.
pub const MAGIC: &[u8; 8] = b"VCAPCACH";
/// Current format version.
pub const FORMAT_VERSION: u32 = 2;
/// High bit marking a relation reference as a scratch `λ` position. The
/// same bit marks the synthetic in-memory `RelId`s of loaded witnesses:
/// they exist in no catalog, are only ever compared against each other
/// (via the proof's λ list), and survive translation unchanged.
pub const LAMBDA_BIT: u32 = 0x8000_0000;

/// The producer's name tables of a loaded cache file: `attrs[i]` is the
/// name behind file-local `AttrId(i)`, `rels[i]` behind file-local
/// `RelId(i)`. Used to translate `foreign` entries into a live catalog
/// ([`translate_entry`]) and to re-intern names when a loaded cache is
/// saved or merged without ever constructing that catalog.
#[derive(Debug)]
pub struct ImportTables {
    /// File-local attribute names.
    pub attrs: Vec<String>,
    /// File-local relation names.
    pub rels: Vec<String>,
}

/// Why a cache file was rejected.
#[derive(Debug)]
pub enum PersistError {
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's version is not [`FORMAT_VERSION`].
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// The payload checksum does not match.
    ChecksumMismatch,
    /// Structurally invalid data (truncation, bad tags, bad invariants).
    Corrupt(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::BadMagic => write!(f, "not a viewcap cache file (bad magic)"),
            PersistError::VersionMismatch { found, expected } => {
                write!(
                    f,
                    "cache file version {found} is not the supported version {expected}"
                )?;
                if *found < *expected {
                    write!(
                        f,
                        " (caches up to version 1 were keyed by catalog declaration \
                         order and cannot be migrated in place: delete the file and \
                         re-run to regenerate it as a content-addressed version-\
                         {expected} cache)"
                    )?;
                }
                Ok(())
            }
            PersistError::ChecksumMismatch => {
                write!(f, "cache file checksum mismatch (corrupted file)")
            }
            PersistError::Corrupt(what) => write!(f, "corrupt cache file: {what}"),
        }
    }
}

impl std::error::Error for PersistError {}

// ---------------------------------------------------------------- writing

/// Where an entry's ids resolve to names: a live catalog (native entries)
/// or the tables of the file the entry was loaded from (`foreign`
/// entries, saved or merged without ever touching a catalog).
#[derive(Clone, Copy)]
enum NameSource<'a> {
    Catalog(&'a Catalog),
    Tables(&'a ImportTables),
}

impl NameSource<'_> {
    fn attr_name(&self, a: AttrId) -> Option<&str> {
        match self {
            NameSource::Catalog(cat) => (a.index() < cat.attr_count()).then(|| cat.attr_name(a)),
            NameSource::Tables(t) => t.attrs.get(a.index()).map(String::as_str),
        }
    }

    fn rel_name(&self, r: RelId) -> Option<&str> {
        match self {
            NameSource::Catalog(cat) => (r.index() < cat.rel_count()).then(|| cat.rel_name(r)),
            NameSource::Tables(t) => t.rels.get(r.index()).map(String::as_str),
        }
    }
}

/// Interner assigning file-local indexes to names, first encounter first.
#[derive(Default)]
struct TableBuilder {
    names: Vec<String>,
    index: HashMap<String, u32>,
}

impl TableBuilder {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        let i = self.names.len() as u32;
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), i);
        i
    }
}

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}
fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u128(buf: &mut Vec<u8>, v: u128) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Encoder for one entry: resolves ids to names via `names`, interning
/// them into the shared output tables. Any unresolvable id aborts the
/// entry (`None`), leaving the output buffer for this entry unused.
struct EntryWriter<'a> {
    buf: Vec<u8>,
    attrs: &'a mut TableBuilder,
    rels: &'a mut TableBuilder,
    names: NameSource<'a>,
    /// λ → position for the proof currently being encoded.
    lambda: HashMap<RelId, u32>,
}

impl EntryWriter<'_> {
    fn attr_ref(&mut self, a: AttrId) -> Option<()> {
        let name = self.names.attr_name(a)?;
        let i = self.attrs.intern(name);
        put_u32(&mut self.buf, i);
        Some(())
    }

    fn rel_ref(&mut self, r: RelId) -> Option<()> {
        if let Some(&pos) = self.lambda.get(&r) {
            put_u32(&mut self.buf, LAMBDA_BIT | pos);
            return Some(());
        }
        let name = self.names.rel_name(r)?;
        let i = self.rels.intern(name);
        if i & LAMBDA_BIT != 0 {
            return None; // 2^31 relation names: not a real catalog
        }
        put_u32(&mut self.buf, i);
        Some(())
    }

    fn expr(&mut self, e: &Expr) -> Option<()> {
        match e {
            Expr::Rel(r) => {
                put_u8(&mut self.buf, 0);
                self.rel_ref(*r)?;
            }
            Expr::Project(child, scheme) => {
                put_u8(&mut self.buf, 1);
                self.expr(child)?;
                self.scheme(scheme)?;
            }
            Expr::Join(children) => {
                put_u8(&mut self.buf, 2);
                put_u32(&mut self.buf, children.len() as u32);
                for c in children {
                    self.expr(c)?;
                }
            }
        }
        Some(())
    }

    fn scheme(&mut self, s: &Scheme) -> Option<()> {
        put_u32(&mut self.buf, s.len() as u32);
        for a in s.iter() {
            self.attr_ref(a)?;
        }
        Some(())
    }

    fn template(&mut self, t: &Template) -> Option<()> {
        put_u32(&mut self.buf, t.len() as u32);
        for tuple in t.tuples() {
            self.rel_ref(tuple.rel())?;
            put_u32(&mut self.buf, tuple.row().len() as u32);
            for sym in tuple.row() {
                self.attr_ref(sym.attr())?;
                put_u32(&mut self.buf, sym.ord());
            }
        }
        Some(())
    }

    fn proof(&mut self, p: &ClosureProof) -> Option<()> {
        // λ list first, so references below validate against its length.
        self.lambda = p
            .lambda_queries
            .iter()
            .enumerate()
            .map(|(pos, &(lam, _))| (lam, pos as u32))
            .collect();
        put_u32(&mut self.buf, p.lambda_queries.len() as u32);
        for &(_, idx) in &p.lambda_queries {
            put_u32(&mut self.buf, idx as u32);
        }
        self.expr(&p.skeleton)?;
        self.template(&p.skeleton_template)?;
        self.template(&p.substituted)?;
        self.lambda.clear();
        Some(())
    }

    fn dominance(&mut self, w: &DominanceWitness) -> Option<()> {
        put_u32(&mut self.buf, w.proofs.len() as u32);
        for p in &w.proofs {
            self.proof(p)?;
        }
        Some(())
    }

    fn verdict(&mut self, v: &Verdict) -> Option<()> {
        match v {
            Verdict::Member(None) => put_u8(&mut self.buf, 0),
            Verdict::Member(Some(p)) => {
                put_u8(&mut self.buf, 1);
                self.proof(p)?;
            }
            Verdict::Dominates(None) => put_u8(&mut self.buf, 2),
            Verdict::Dominates(Some(w)) => {
                put_u8(&mut self.buf, 3);
                self.dominance(w)?;
            }
            Verdict::Equivalent(None) => put_u8(&mut self.buf, 4),
            Verdict::Equivalent(Some(w)) => {
                put_u8(&mut self.buf, 5);
                self.dominance(&w.v_dominates_w)?;
                self.dominance(&w.w_dominates_v)?;
            }
            Verdict::Simplified(schemes) => {
                put_u8(&mut self.buf, 6);
                put_u32(&mut self.buf, schemes.len() as u32);
                for s in schemes {
                    self.scheme(s)?;
                }
            }
            Verdict::Nonredundant(kept) => {
                put_u8(&mut self.buf, 7);
                put_u32(&mut self.buf, kept.len() as u32);
                for &i in kept {
                    put_u32(&mut self.buf, i);
                }
            }
        }
        Some(())
    }

    fn entry(&mut self, key: &CacheKey, entry: &Entry) -> Option<()> {
        put_u8(
            &mut self.buf,
            match key.kind {
                CheckKind::Member => 0,
                CheckKind::Dominates => 1,
                CheckKind::Equivalent => 2,
                CheckKind::Simplify => 3,
                CheckKind::Nonredundant => 4,
            },
        );
        put_u128(&mut self.buf, key.left.as_u128());
        put_u128(&mut self.buf, key.right.as_u128());
        put_u32(&mut self.buf, entry.left_query_fps.len() as u32);
        for fp in entry.left_query_fps.iter() {
            put_u128(&mut self.buf, fp.as_u128());
        }
        self.verdict(&entry.verdict)
    }
}

/// Assemble a finished file from the tables and the encoded entry stream.
fn assemble(attrs: &TableBuilder, rels: &TableBuilder, count: u64, entries: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(entries.len() + 256);
    for table in [attrs, rels] {
        put_u32(&mut payload, table.names.len() as u32);
        for name in &table.names {
            put_u32(&mut payload, name.len() as u32);
            payload.extend_from_slice(name.as_bytes());
        }
    }
    put_u64(&mut payload, count);
    payload.extend_from_slice(entries);

    let mut out = Vec::with_capacity(payload.len() + 20);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Serialize a cache to bytes (deterministic: entries sorted by key, table
/// names interned in first-encounter order over that sorted stream).
///
/// `catalog` resolves the ids of natively computed entries; entries still
/// `foreign` (loaded from disk and never hit) resolve through the cache's
/// own import tables, so merged-in verdicts about relations this catalog
/// never declared survive a save/load cycle losslessly. An entry whose ids
/// resolve nowhere (possible only through API misuse — a witness computed
/// against some *other* catalog) is skipped rather than corrupting the
/// file.
pub fn save_cache(cache: &VerdictCache, catalog: &Catalog) -> Vec<u8> {
    let mut span = SAVE_SPAN.start();
    let snapshot = cache.snapshot();
    let mut attrs = TableBuilder::default();
    let mut rels = TableBuilder::default();
    let mut entries = Vec::new();
    let mut count = 0u64;
    for (key, entry) in &snapshot {
        let names = if entry.foreign {
            match cache.import_tables() {
                Some(tables) => NameSource::Tables(tables),
                None => continue, // foreign entries always come with tables
            }
        } else {
            NameSource::Catalog(catalog)
        };
        let mut w = EntryWriter {
            buf: Vec::new(),
            attrs: &mut attrs,
            rels: &mut rels,
            names,
            lambda: HashMap::new(),
        };
        if w.entry(key, entry).is_some() {
            entries.extend_from_slice(&w.buf);
            count += 1;
        }
    }
    let bytes = assemble(&attrs, &rels, count, &entries);
    span.arg("bytes", bytes.len() as u64);
    span.arg("entries", count);
    PERSIST_OUT.add(bytes.len() as u64);
    bytes
}

// ---------------------------------------------------------------- reading

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn corrupt<T>(what: &str) -> Result<T, PersistError> {
        Err(PersistError::Corrupt(what.to_owned()))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.bytes.len() - self.pos < n {
            return Reader::corrupt("unexpected end of payload");
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn u128(&mut self) -> Result<u128, PersistError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// A count that must be realizable within the remaining payload
    /// (`min_bytes` per element) — rejects absurd lengths before allocating.
    fn count(&mut self, min_bytes: usize) -> Result<usize, PersistError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_bytes) > self.bytes.len() - self.pos {
            return Reader::corrupt("length prefix exceeds payload");
        }
        Ok(n)
    }

    fn string(&mut self) -> Result<String, PersistError> {
        let len = self.count(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| PersistError::Corrupt("table name is not UTF-8".to_owned()))
    }

    fn table(&mut self) -> Result<Vec<String>, PersistError> {
        let n = self.count(4)?;
        (0..n).map(|_| self.string()).collect()
    }

    /// An attribute reference: a validated attr-table index, surfaced as a
    /// file-local [`AttrId`].
    fn attr_ref(&mut self, attrs: usize) -> Result<AttrId, PersistError> {
        let i = self.u32()?;
        if (i as usize) < attrs {
            Ok(AttrId(i))
        } else {
            Reader::corrupt("attribute reference beyond table")
        }
    }

    /// A relation reference: a validated rel-table index (file-local
    /// [`RelId`]) or a λ position (high bit kept).
    fn rel_ref(&mut self, rels: usize, lambdas: usize) -> Result<RelId, PersistError> {
        let i = self.u32()?;
        if i & LAMBDA_BIT != 0 {
            if ((i & !LAMBDA_BIT) as usize) < lambdas {
                Ok(RelId(i))
            } else {
                Reader::corrupt("lambda reference beyond the proof's lambda list")
            }
        } else if (i as usize) < rels {
            Ok(RelId(i))
        } else {
            Reader::corrupt("relation reference beyond table")
        }
    }

    fn expr(
        &mut self,
        depth: usize,
        attrs: usize,
        rels: usize,
        lambdas: usize,
    ) -> Result<Expr, PersistError> {
        if depth > 64 {
            return Reader::corrupt("expression nesting too deep");
        }
        match self.u8()? {
            0 => Ok(Expr::Rel(self.rel_ref(rels, lambdas)?)),
            1 => {
                let child = self.expr(depth + 1, attrs, rels, lambdas)?;
                let scheme = self.scheme(attrs)?;
                if scheme.is_empty() {
                    return Reader::corrupt("empty projection scheme");
                }
                // Direct construction: the validating `Expr::project` needs
                // a catalog that knows the scratch λ names, which no loader
                // has. `Template::new` below still checks witness shape.
                Ok(Expr::Project(Box::new(child), scheme))
            }
            2 => {
                let n = self.count(2)?;
                if n < 2 {
                    return Reader::corrupt("join with fewer than two operands");
                }
                let children = (0..n)
                    .map(|_| self.expr(depth + 1, attrs, rels, lambdas))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Expr::Join(children))
            }
            _ => Reader::corrupt("unknown expression tag"),
        }
    }

    fn scheme(&mut self, attrs: usize) -> Result<Scheme, PersistError> {
        let n = self.count(4)?;
        let ids = (0..n)
            .map(|_| self.attr_ref(attrs))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Scheme::collect(ids))
    }

    fn template(
        &mut self,
        attrs: usize,
        rels: usize,
        lambdas: usize,
    ) -> Result<Template, PersistError> {
        let n = self.count(8)?;
        let mut tuples = Vec::with_capacity(n);
        for _ in 0..n {
            let rel = self.rel_ref(rels, lambdas)?;
            let width = self.count(8)?;
            let row = (0..width)
                .map(|_| {
                    let attr = self.attr_ref(attrs)?;
                    let ord = self.u32()?;
                    Ok(Symbol::new(attr, ord))
                })
                .collect::<Result<Vec<_>, PersistError>>()?;
            tuples.push(TaggedTuple::from_raw_parts(rel, row));
        }
        Template::new(tuples).map_err(|e| PersistError::Corrupt(format!("invalid template: {e}")))
    }

    fn proof(&mut self, attrs: usize, rels: usize) -> Result<ClosureProof, PersistError> {
        let n = self.count(4)?;
        let lambda_queries = (0..n)
            .enumerate()
            .map(|(pos, _)| Ok((RelId(LAMBDA_BIT | pos as u32), self.u32()? as usize)))
            .collect::<Result<Vec<_>, PersistError>>()?;
        let skeleton = self.expr(0, attrs, rels, n)?;
        let skeleton_template = self.template(attrs, rels, n)?;
        let substituted = self.template(attrs, rels, n)?;
        Ok(ClosureProof {
            skeleton,
            lambda_queries,
            skeleton_template,
            substituted,
        })
    }

    fn dominance(&mut self, attrs: usize, rels: usize) -> Result<DominanceWitness, PersistError> {
        let n = self.count(1)?;
        let proofs = (0..n)
            .map(|_| self.proof(attrs, rels))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(DominanceWitness { proofs })
    }

    fn verdict(&mut self, attrs: usize, rels: usize) -> Result<Verdict, PersistError> {
        Ok(match self.u8()? {
            0 => Verdict::Member(None),
            1 => Verdict::Member(Some(self.proof(attrs, rels)?)),
            2 => Verdict::Dominates(None),
            3 => Verdict::Dominates(Some(self.dominance(attrs, rels)?)),
            4 => Verdict::Equivalent(None),
            5 => Verdict::Equivalent(Some(EquivalenceWitness {
                v_dominates_w: self.dominance(attrs, rels)?,
                w_dominates_v: self.dominance(attrs, rels)?,
            })),
            6 => {
                let n = self.count(4)?;
                let schemes = (0..n)
                    .map(|_| {
                        let s = self.scheme(attrs)?;
                        if s.is_empty() {
                            return Reader::corrupt("empty simplified scheme");
                        }
                        Ok(s)
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Verdict::Simplified(schemes)
            }
            7 => {
                let n = self.count(4)?;
                let kept = (0..n).map(|_| self.u32()).collect::<Result<Vec<_>, _>>()?;
                Verdict::Nonredundant(kept)
            }
            _ => return Reader::corrupt("unknown verdict tag"),
        })
    }
}

/// A fully parsed, integrity-checked cache file, entries still in
/// file-local id space.
struct ParsedCache {
    tables: ImportTables,
    entries: Vec<(CacheKey, Entry)>,
}

fn parse_cache(bytes: &[u8]) -> Result<ParsedCache, PersistError> {
    if bytes.len() < 20 || &bytes[..8] != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(PersistError::VersionMismatch {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let checksum = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    let payload = &bytes[20..];
    if fnv1a64(payload) != checksum {
        return Err(PersistError::ChecksumMismatch);
    }

    let mut r = Reader {
        bytes: payload,
        pos: 0,
    };
    let attrs = r.table()?;
    let rels = r.table()?;
    let count = r.u64()?;
    // Every entry is at least 38 bytes (key + fp-table length + tag).
    if count.saturating_mul(38) > (payload.len() - r.pos) as u64 {
        return Reader::corrupt("entry count exceeds payload");
    }
    let mut entries = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let kind = match r.u8()? {
            0 => CheckKind::Member,
            1 => CheckKind::Dominates,
            2 => CheckKind::Equivalent,
            3 => CheckKind::Simplify,
            4 => CheckKind::Nonredundant,
            _ => return Reader::corrupt("unknown check kind"),
        };
        let key = CacheKey {
            kind,
            left: Fingerprint::from_raw(r.u128()?),
            right: Fingerprint::from_raw(r.u128()?),
        };
        let n = r.count(16)?;
        let fps = (0..n)
            .map(|_| r.u128().map(Fingerprint::from_raw))
            .collect::<Result<Vec<_>, _>>()?;
        let verdict = r.verdict(attrs.len(), rels.len())?;
        if verdict.kind() != kind {
            return Reader::corrupt("verdict kind disagrees with its key");
        }
        entries.push((
            key,
            Entry {
                verdict: Arc::new(verdict),
                left_query_fps: Arc::from(fps.as_slice()),
                foreign: true,
            },
        ));
    }
    if r.pos != payload.len() {
        return Reader::corrupt("trailing bytes after final entry");
    }
    Ok(ParsedCache {
        tables: ImportTables { attrs, rels },
        entries,
    })
}

/// Deserialize a cache from bytes into a cache bounded by `max_entries`
/// (`None` = unbounded). If the saved cache is larger than the bound, only
/// the final `max_entries` entries are kept: the excess is decoded (the
/// whole payload is still integrity-checked) but never inserted, so
/// loading counts no evictions. Recency does not persist, so no entry is
/// more deserving than another; skipping the front of the sorted stream is
/// as good as any policy.
///
/// Loaded entries are `foreign` (witnesses in file-local id space); the
/// engine translates them on first hit. Use against any catalog declaring
/// the relations the producing runs declared — fingerprints are
/// content-addressed, so declaration order is immaterial.
pub fn load_cache(bytes: &[u8], max_entries: Option<usize>) -> Result<VerdictCache, PersistError> {
    let mut span = LOAD_SPAN.start();
    span.arg("bytes", bytes.len() as u64);
    PERSIST_IN.add(bytes.len() as u64);
    let parsed = parse_cache(bytes)?;
    let cache = VerdictCache::bounded(max_entries);
    cache.set_import_tables(Arc::new(parsed.tables));
    let keep_from = match max_entries {
        Some(m) => parsed.entries.len().saturating_sub(m.max(1)),
        None => 0,
    };
    for (key, entry) in parsed.entries.into_iter().skip(keep_from) {
        cache.insert(key, entry);
    }
    Ok(cache)
}

/// Fully parse and integrity-check `bytes` as a version-2 cache file
/// without building a cache; returns the entry count. The admission check
/// of [`crate::pilestore`]'s import bridge — a pile may only ever contain
/// records that parse, so corruption can always be localized to record
/// framing, never to record content.
pub fn validate_cache_bytes(bytes: &[u8]) -> Result<usize, PersistError> {
    parse_cache(bytes).map(|parsed| parsed.entries.len())
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
        foreign: false,
    })
}

// ------------------------------------------------------ merge & compact

/// Outcome of [`merge_cache_bytes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

impl fmt::Display for MergeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} file(s), {} entrie(s) in, {} out, {} replaced",
            self.inputs, self.entries_in, self.entries_out, self.replaced
        )
    }
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
pub fn merge_cache_bytes(inputs: &[Vec<u8>]) -> Result<(Vec<u8>, MergeReport), PersistError> {
    let parsed = inputs
        .iter()
        .map(|bytes| parse_cache(bytes))
        .collect::<Result<Vec<_>, _>>()?;

    // Last-writer-wins union, iterated in input order.
    let mut union: std::collections::BTreeMap<(u8, u128, u128), (usize, &Entry)> =
        std::collections::BTreeMap::new();
    let mut entries_in = 0usize;
    let mut replaced = 0usize;
    for (file_idx, file) in parsed.iter().enumerate() {
        for (key, entry) in &file.entries {
            entries_in += 1;
            if union.insert(key.sort_key(), (file_idx, entry)).is_some() {
                replaced += 1;
            }
        }
    }

    let mut attrs = TableBuilder::default();
    let mut rels = TableBuilder::default();
    let mut encoded = Vec::new();
    let mut count = 0u64;
    for ((kind, left, right), (file_idx, entry)) in &union {
        let key = CacheKey {
            kind: match kind {
                0 => CheckKind::Member,
                1 => CheckKind::Dominates,
                2 => CheckKind::Equivalent,
                3 => CheckKind::Simplify,
                _ => CheckKind::Nonredundant,
            },
            left: Fingerprint::from_raw(*left),
            right: Fingerprint::from_raw(*right),
        };
        let mut w = EntryWriter {
            buf: Vec::new(),
            attrs: &mut attrs,
            rels: &mut rels,
            names: NameSource::Tables(&parsed[*file_idx].tables),
            lambda: HashMap::new(),
        };
        if w.entry(&key, entry).is_some() {
            encoded.extend_from_slice(&w.buf);
            count += 1;
        }
    }
    let out = assemble(&attrs, &rels, count, &encoded);
    let report = MergeReport {
        inputs: inputs.len(),
        entries_in,
        entries_out: count as usize,
        replaced,
    };
    Ok((out, report))
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
) -> Result<(Vec<u8>, CompactReport), PersistError> {
    let parsed = parse_cache(bytes)?;
    let entries_in = parsed.entries.len();
    let keep_from = match max_entries {
        Some(m) => entries_in.saturating_sub(m.max(1)),
        None => 0,
    };
    let mut attrs = TableBuilder::default();
    let mut rels = TableBuilder::default();
    let mut encoded = Vec::new();
    let mut count = 0u64;
    for (key, entry) in &parsed.entries[keep_from..] {
        let mut w = EntryWriter {
            buf: Vec::new(),
            attrs: &mut attrs,
            rels: &mut rels,
            names: NameSource::Tables(&parsed.tables),
            lambda: HashMap::new(),
        };
        if w.entry(key, entry).is_some() {
            encoded.extend_from_slice(&w.buf);
            count += 1;
        }
    }
    let out = assemble(&attrs, &rels, count, &encoded);
    let report = CompactReport {
        entries_in,
        entries_out: count as usize,
        bytes_in: bytes.len(),
        bytes_out: out.len(),
    };
    Ok((out, report))
}
