//! The pile: viewcap's one durable store. A crash-safe, shared,
//! append-only [`Pile`] any number of workers — CLI runs with `--pile`
//! ([`crate::Session`]) and `viewcap serve` alike — write concurrently.
//!
//! Two record kinds ride it, each payload a complete file in its own
//! format, so the pile adds framing and nothing else:
//!
//! * [`CACHE_RECORD_KIND`] — a version-2 verdict cache ([`crate::persist`]).
//!   Loading ([`PileRecords::load`]) inserts the union [`merge_cache_bytes`]
//!   encodes — last writer wins, in append order — with each entry keeping
//!   its record's name tables. So "merge" stops being an operation: point
//!   two engines at the same pile and the union is just what it contains.
//! * [`SPACE_RECORD_KIND`] — a [`SpaceLibrary`] of candidate-space
//!   snapshots ([`PileStore::load_spaces`]: per space key, the snapshot
//!   with the most levels wins).
//!
//! [`PileStore::records`] is the one reader: one read splits the payloads
//! by kind, so cache and spaces come from one snapshot of the pile.
//! [`PileStore::append_run`] is the one writer both the CLI and the daemon
//! call after a run. The import bridge ([`PileStore::append_cache_bytes`],
//! [`PileStore::append_space_bytes`]) folds legacy `VCAPCACH` / `VCAPSLIB`
//! files in without re-encoding, validating each before it is appended;
//! [`PileStore::compact_to`] writes a pile's merged state to a new
//! two-record pile.
//!
//! Concurrency: appends go through the pile's single-write `O_APPEND`
//! discipline, so processes and threads interleave whole records, never
//! bytes, and a reader polling mid-append can never observe a torn
//! record. A crash mid-append damages only the suffix;
//! [`PileStore::recover`] truncates it back to the last valid prefix and
//! reports what was dropped.

use crate::cache::VerdictCache;
use crate::engine::Engine;
use crate::persist::{
    merge_cache_bytes, save_cache, validate_cache_bytes, CompactReport, MergeReport, Union,
};
use crate::spacestore::SpaceLibrary;
use std::fmt;
use std::fs::OpenOptions;
use std::path::Path;
use viewcap_base::Catalog;
use viewcap_pile::{Pile, PileError, RecoveryReport};
use viewcap_template::CodecError;

/// Record kind of a cache snapshot (a whole version-2 cache file).
pub const CACHE_RECORD_KIND: u8 = 1;

/// Record kind of a candidate-space snapshot (a whole
/// [`SpaceLibrary`] file). Rides the same pile as verdict records —
/// readers of either kind skip the other — so one append-only file
/// carries a catalog's full warm-start state.
pub const SPACE_RECORD_KIND: u8 = 2;

/// Why a pile-store operation failed.
#[derive(Debug)]
pub enum PileStoreError {
    /// The underlying pile rejected the operation (I/O or framing).
    Pile(PileError),
    /// A record's cache or space-library payload failed to parse, or an
    /// import candidate was rejected before being appended.
    Codec(CodecError),
}

impl fmt::Display for PileStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PileStoreError::Pile(e) => write!(f, "{e}"),
            PileStoreError::Codec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PileStoreError {}

impl From<PileError> for PileStoreError {
    fn from(e: PileError) -> Self {
        PileStoreError::Pile(e)
    }
}

impl From<CodecError> for PileStoreError {
    fn from(e: CodecError) -> Self {
        PileStoreError::Codec(e)
    }
}

/// A verdict store over an append-only [`Pile`].
pub struct PileStore {
    pile: Pile,
}

impl PileStore {
    /// Open (creating if absent) a pile store. Rejects a structurally
    /// damaged pile; use [`PileStore::recover`] to truncate damage away.
    pub fn open(path: impl AsRef<Path>) -> Result<PileStore, PileStoreError> {
        Ok(PileStore {
            pile: Pile::open(path)?,
        })
    }

    /// Open a pile store, truncating any damaged suffix (a crash
    /// mid-append) back to the last valid prefix. The report says whether
    /// anything was dropped — a daemon prints it on startup.
    pub fn recover(path: impl AsRef<Path>) -> Result<(PileStore, RecoveryReport), PileStoreError> {
        let (pile, report) = Pile::recover(path)?;
        Ok((PileStore { pile }, report))
    }

    /// The pile's path.
    pub fn path(&self) -> &Path {
        self.pile.path()
    }

    /// Append `cache`'s current snapshot as one record (a complete v2
    /// cache file, `catalog` resolving native entries' names). An empty
    /// snapshot appends nothing. Returns the appended record's size in
    /// bytes (0 when nothing was appended).
    pub fn append_cache(
        &mut self,
        cache: &VerdictCache,
        catalog: &Catalog,
    ) -> Result<usize, PileStoreError> {
        if cache.stats().entries == 0 {
            return Ok(0);
        }
        let bytes = save_cache(cache, catalog);
        Ok(self.pile.append(CACHE_RECORD_KIND, &bytes)?)
    }

    /// Append what one run leaves behind: `engine`'s cache snapshot, then —
    /// when `spaces_grew` — its whole space library. The one writer behind
    /// [`crate::Session::persist`] and `viewcap serve`. Returns the bytes
    /// appended.
    pub fn append_run(
        &mut self,
        engine: &Engine,
        catalog: &Catalog,
        spaces_grew: bool,
    ) -> Result<usize, PileStoreError> {
        let mut bytes = self.append_cache(engine.cache(), catalog)?;
        if let Some(spaces) = engine.shared_spaces().filter(|_| spaces_grew) {
            bytes += self.append_spaces(&spaces.lock().expect("space library lock"))?;
        }
        Ok(bytes)
    }

    /// Import bridge: append an existing cache file's bytes as one record,
    /// after fully validating them — a corrupt or version-skewed file is
    /// rejected and the pile is untouched. Returns the file's entry count.
    pub fn append_cache_bytes(&mut self, bytes: &[u8]) -> Result<usize, PileStoreError> {
        let entries = validate_cache_bytes(bytes)?;
        self.pile.append(CACHE_RECORD_KIND, bytes)?;
        Ok(entries)
    }

    /// Read the pile once: the payloads split by kind, in append order.
    /// Other kinds are skipped (future formats may ride the same pile).
    pub fn records(&mut self) -> Result<PileRecords, PileStoreError> {
        let mut out = PileRecords::default();
        for record in self.pile.records()? {
            match record.kind {
                CACHE_RECORD_KIND => out.cache.push(record.payload),
                SPACE_RECORD_KIND => out.spaces.push(record.payload),
                _ => {}
            }
        }
        Ok(out)
    }

    /// [`merge_cache_bytes`] over the cache records in append order; an
    /// empty pile merges to an empty cache file.
    pub fn merged_bytes(&mut self) -> Result<(Vec<u8>, MergeReport), PileStoreError> {
        Ok(merge_cache_bytes(&self.records()?.cache)?)
    }

    /// [`PileRecords::load`] over a fresh read of the pile.
    pub fn load(&mut self, max_entries: Option<usize>) -> Result<VerdictCache, PileStoreError> {
        self.records()?.load(max_entries)
    }

    /// Number of cache records currently in the pile.
    pub fn record_count(&mut self) -> Result<usize, PileStoreError> {
        Ok(self.records()?.cache.len())
    }

    /// Append a candidate-space library as one record (a complete
    /// [`SpaceLibrary`] file). An empty library appends nothing. Returns
    /// the appended record's size in bytes (0 when nothing was appended).
    pub fn append_spaces(&mut self, spaces: &SpaceLibrary) -> Result<usize, PileStoreError> {
        if spaces.is_empty() {
            return Ok(0);
        }
        Ok(self.pile.append(SPACE_RECORD_KIND, &spaces.to_bytes())?)
    }

    /// Import bridge: append an existing space-library file's bytes as one
    /// record, after fully validating them. Returns the library's entry
    /// count.
    pub fn append_space_bytes(&mut self, bytes: &[u8]) -> Result<usize, PileStoreError> {
        let entries = SpaceLibrary::from_bytes(bytes)?.len();
        self.pile.append(SPACE_RECORD_KIND, bytes)?;
        Ok(entries)
    }

    /// [`PileRecords::load_spaces`] over a fresh read of the pile.
    pub fn load_spaces(&mut self) -> Result<SpaceLibrary, PileStoreError> {
        self.records()?.load_spaces()
    }

    /// Write this pile's merged state to a new pile at `out`: one cache
    /// record (the merged cache, compacted to its newest `max_entries`)
    /// and one space record (the merged library); an empty half appends
    /// nothing. This pile is only read, so appenders lose nothing, and an
    /// existing `out` is refused. Returns the cache's compaction report
    /// and the library's space count.
    pub fn compact_to(
        &mut self,
        out: &Path,
        max_entries: Option<usize>,
    ) -> Result<(CompactReport, usize), PileStoreError> {
        let records = self.records()?;
        let (cache, report) = Union::of(&records.cache)?.compact(max_entries);
        let spaces = records.load_spaces()?;
        OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(out)
            .map_err(PileError::Io)?;
        let mut target = PileStore::open(out)?;
        if report.entries_out > 0 {
            target.pile.append(CACHE_RECORD_KIND, &cache)?;
        }
        target.append_spaces(&spaces)?;
        Ok((report, spaces.len()))
    }
}

/// A pile's payloads by record kind, from one read ([`PileStore::records`]).
/// Each kind decodes on its own, so a caller may tolerate bad space records.
#[derive(Debug, Default)]
pub struct PileRecords {
    /// Cache-record payloads (whole cache files), in append order.
    pub cache: Vec<Vec<u8>>,
    /// Space-record payloads (whole space libraries), in append order.
    pub spaces: Vec<Vec<u8>>,
}

impl PileRecords {
    /// The cache records' union verdict set as a cache bounded by
    /// `max_entries` (`None` = unbounded; the last entries in key order are
    /// kept), ready for [`crate::EngineConfig::shared_cache`]. Entries load
    /// `foreign` and translate into the live catalog on first hit.
    pub fn load(&self, max_entries: Option<usize>) -> Result<VerdictCache, PileStoreError> {
        Ok(Union::of(&self.cache)?.into_cache(max_entries))
    }

    /// The union of every space record, merged in append order (per space
    /// key, the snapshot with the most levels wins).
    pub fn load_spaces(&self) -> Result<SpaceLibrary, PileStoreError> {
        let mut out = SpaceLibrary::new();
        for payload in &self.spaces {
            out.merge(SpaceLibrary::from_bytes(payload)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::workload::Check;
    use std::sync::Arc;
    use viewcap_core::{Query, View};
    use viewcap_expr::parse_expr;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("viewcap-pilestore-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}.vcappile"));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn setup() -> (Catalog, View) {
        let mut cat = Catalog::new();
        cat.relation("R", &["A", "B", "C"]).unwrap();
        let ab = cat.scheme(&["A", "B"]).unwrap();
        let bc = cat.scheme(&["B", "C"]).unwrap();
        let v1 = cat.fresh_relation("v1", ab);
        let v2 = cat.fresh_relation("v2", bc);
        let view = View::from_exprs(
            vec![
                (parse_expr("pi{A,B}(R)", &cat).unwrap(), v1),
                (parse_expr("pi{B,C}(R)", &cat).unwrap(), v2),
            ],
            &cat,
        )
        .unwrap();
        (cat, view)
    }

    fn decide(engine: &Engine, cat: &Catalog, view: &View, goal: &str) {
        let goal = Query::from_expr(parse_expr(goal, cat).unwrap(), cat);
        engine
            .decide(
                &Check::Member {
                    view: view.clone(),
                    goal,
                },
                cat,
            )
            .unwrap();
    }

    #[test]
    fn two_engines_one_pile_union_their_verdicts() {
        let (cat, view) = setup();
        let path = tmp("two-engines");

        // Worker 1 decides two goals, appends its snapshot.
        let e1 = Engine::new();
        decide(&e1, &cat, &view, "pi{A}(R)");
        decide(&e1, &cat, &view, "pi{B}(R)");
        let mut store = PileStore::open(&path).unwrap();
        assert!(store.append_cache(e1.cache(), &cat).unwrap() > 0);

        // Worker 2, separate handle, disjoint goals.
        let e2 = Engine::new();
        decide(&e2, &cat, &view, "pi{C}(R)");
        let mut store2 = PileStore::open(&path).unwrap();
        store2.append_cache(e2.cache(), &cat).unwrap();

        // "Merge" is just loading the shared pile.
        let mut reader = PileStore::open(&path).unwrap();
        assert_eq!(reader.record_count().unwrap(), 2);
        let warmed = reader.load(None).unwrap();
        assert_eq!(warmed.stats().entries, 3);

        // And a third engine over the loaded cache answers all three goals
        // from it.
        let e3 =
            Engine::from_config(crate::EngineConfig::new().shared_cache(Arc::new(warmed))).unwrap();
        for goal in ["pi{A}(R)", "pi{B}(R)", "pi{C}(R)"] {
            decide(&e3, &cat, &view, goal);
        }
        let stats = e3.cache_stats();
        assert_eq!(stats.hits, 3, "{stats}");
    }

    #[test]
    fn pile_reload_is_byte_identical_to_cli_merge_of_the_same_snapshots() {
        let (cat, view) = setup();
        let path = tmp("merge-identity");

        let mut snapshots = Vec::new();
        let mut store = PileStore::open(&path).unwrap();
        for goal in ["pi{A}(R)", "pi{B}(R)", "pi{A,B}(R)"] {
            let engine = Engine::new();
            decide(&engine, &cat, &view, goal);
            snapshots.push(save_cache(engine.cache(), &cat));
            store.append_cache(engine.cache(), &cat).unwrap();
        }
        let (from_pile, pile_report) = store.merged_bytes().unwrap();
        let (from_merge, merge_report) = merge_cache_bytes(&snapshots).unwrap();
        assert_eq!(from_pile, from_merge, "pile reload must equal a merge");
        assert_eq!(pile_report, merge_report);
    }

    #[test]
    fn import_bridge_validates_before_appending() {
        let (cat, view) = setup();
        let path = tmp("import");
        let engine = Engine::new();
        decide(&engine, &cat, &view, "R");
        let file = save_cache(engine.cache(), &cat);

        let mut store = PileStore::open(&path).unwrap();
        assert_eq!(store.append_cache_bytes(&file).unwrap(), 1);

        // Corrupt file bytes: rejected, pile unchanged.
        let mut bad = file.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        assert!(matches!(
            store.append_cache_bytes(&bad),
            Err(PileStoreError::Codec(_))
        ));
        assert_eq!(store.record_count().unwrap(), 1);

        // Round trip: the pile merges to the single imported file's merge.
        let (exported, _) = store.merged_bytes().unwrap();
        let (expected, _) = merge_cache_bytes(std::slice::from_ref(&file)).unwrap();
        assert_eq!(exported, expected);
    }

    #[test]
    fn space_records_ride_alongside_cache_records() {
        let (cat, view) = setup();
        let path = tmp("spaces");

        // A verdict record and a space record, interleaved.
        let engine = Engine::new();
        decide(&engine, &cat, &view, "pi{A}(R)");
        let mut store = PileStore::open(&path).unwrap();
        store.append_cache(engine.cache(), &cat).unwrap();

        let mut lib = SpaceLibrary::new();
        lib.insert(99, vec![1, 2, 3]);
        assert!(store.append_spaces(&lib).unwrap() > 0);
        assert!(store.append_spaces(&SpaceLibrary::new()).unwrap() == 0);

        let mut lib2 = SpaceLibrary::new();
        lib2.insert(99, vec![1, 2, 3, 4]); // more levels for the same key
        lib2.insert(7, vec![9]);
        store.append_spaces(&lib2).unwrap();

        // Cache loads skip space records; space loads skip cache records.
        let mut reader = PileStore::open(&path).unwrap();
        assert_eq!(reader.record_count().unwrap(), 1);
        assert_eq!(reader.records().unwrap().spaces.len(), 2);
        assert_eq!(reader.load(None).unwrap().stats().entries, 1);
        let merged = reader.load_spaces().unwrap();
        assert_eq!(merged.len(), 2);
        assert_eq!(merged.get(99), Some(&[1, 2, 3, 4][..]), "most levels win");

        // The import bridge validates before appending.
        assert_eq!(store.append_space_bytes(&lib.to_bytes()).unwrap(), 1);
        assert!(matches!(
            store.append_space_bytes(b"garbage"),
            Err(PileStoreError::Codec(_))
        ));
    }

    #[test]
    fn empty_pile_loads_an_empty_cache() {
        let path = tmp("empty");
        let mut store = PileStore::open(&path).unwrap();
        let cache = store.load(Some(10)).unwrap();
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.capacity(), Some(10));
        let (bytes, report) = store.merged_bytes().unwrap();
        assert_eq!(report.entries_out, 0);
        assert!(
            validate_cache_bytes(&bytes).is_ok(),
            "empty merge is a valid file"
        );
    }
}
