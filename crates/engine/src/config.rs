//! One front door for building engines: [`EngineConfig`] + [`Session`].
//!
//! Five PRs of growth left engine construction scattered across an ad-hoc
//! constructor zoo (`with_budget`, `with_cache`, `with_shared_cache`, a
//! `with_space_library` builder tail) plus per-caller file plumbing: the
//! CLI loaded `--cache-file`/`--pile`/`--space-file` by hand, `serve`
//! assembled warm shared caches its own way, and every test picked a
//! different spelling. A stream driver cannot be written cleanly against
//! that surface, so it is gone.
//!
//! [`EngineConfig`] is the single description of an engine: search budget,
//! cache source (bound, file, pile, or a shared handle), and candidate-space
//! library (file or shared handle). Two ways to consume it:
//!
//! * [`Engine::from_config`] — build the engine and discard the
//!   provenance. File- and pile-backed sources load eagerly (a corrupt
//!   file is an error, never a silent cold start); the handles are
//!   dropped, so this is the read-only spelling.
//! * [`Session::open`] — build the engine *and keep the persistence
//!   handles*: [`Session::persist`] saves the cache file back, appends
//!   the run's verdicts to the pile, and harvests grown candidate spaces
//!   into the space file, exactly as the CLI always did by hand.
//!
//! ```
//! use viewcap_engine::{Engine, EngineConfig};
//! # use viewcap_core::SearchBudget;
//! let engine = Engine::from_config(EngineConfig::new().cache_max(Some(1000))).unwrap();
//! assert_eq!(engine.cache_stats().entries, 0);
//! ```

use crate::cache::VerdictCache;
use crate::engine::Engine;
use crate::persist::{load_cache_from_path, save_cache_to_path, PersistError};
use crate::pilestore::{PileStore, PileStoreError};
use crate::spacestore::{SpaceLibrary, SpaceStoreError};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use viewcap_base::Catalog;
use viewcap_core::SearchBudget;

/// Everything an [`Engine`] can be built from, in one builder.
///
/// At most one *cache source* may be set: [`EngineConfig::shared_cache`]
/// (a pre-built cache, possibly shared with other engines),
/// [`EngineConfig::cache_file`] (load from /
/// save to a `.vcapcache` file), or [`EngineConfig::pile`] (load from /
/// append to a crash-safe pile). [`EngineConfig::cache_max`] composes
/// with the file/pile sources and with no source at all (a fresh bounded
/// cache); it conflicts with pre-built caches, whose bound is fixed at
/// construction.
#[derive(Default)]
pub struct EngineConfig {
    budget: SearchBudget,
    cache_max: Option<usize>,
    cache_file: Option<PathBuf>,
    pile: Option<PathBuf>,
    space_file: Option<PathBuf>,
    shared_cache: Option<Arc<VerdictCache>>,
    shared_spaces: Option<Arc<Mutex<SpaceLibrary>>>,
}

impl EngineConfig {
    /// An empty configuration: default budget, fresh unbounded cache, no
    /// persistence.
    pub fn new() -> EngineConfig {
        EngineConfig::default()
    }

    /// The search budget every check runs under.
    pub fn budget(mut self, budget: SearchBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Bound the verdict cache to `max` entries with LRU-ish eviction
    /// (`None` = unbounded). Applies to fresh, file-loaded, and
    /// pile-loaded caches.
    pub fn cache_max(mut self, max: Option<usize>) -> Self {
        self.cache_max = max;
        self
    }

    /// Load the verdict cache from `path` (when it exists; a missing file
    /// starts cold) and, under [`Session::persist`], save it back.
    pub fn cache_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.cache_file = Some(path.into());
        self
    }

    /// Load the verdict cache from a pile's merged verdict set and, under
    /// [`Session::persist`], append the run's verdicts as one record.
    pub fn pile(mut self, path: impl Into<PathBuf>) -> Self {
        self.pile = Some(path.into());
        self
    }

    /// Load the candidate-space library from `path` (a missing file
    /// starts empty) and, under [`Session::persist`], harvest grown
    /// spaces and save it back.
    pub fn space_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.space_file = Some(path.into());
        self
    }

    /// Use a pre-built verdict cache — one warmed by
    /// [`crate::persist::load_cache`] or bounded by
    /// [`VerdictCache::bounded`] — possibly shared with other engines (or
    /// other holders — a resident daemon keeping one warm cache per
    /// catalog). All sharing engines see each other's verdicts
    /// immediately.
    pub fn shared_cache(mut self, cache: Arc<VerdictCache>) -> Self {
        self.shared_cache = Some(cache);
        self
    }

    /// Share a candidate-space library: contexts stage matching snapshots
    /// from it (hydrated lazily on first probe) and grown spaces are
    /// harvested back by [`Engine::harvest_spaces`] / context retirement.
    pub fn shared_spaces(mut self, spaces: Arc<Mutex<SpaceLibrary>>) -> Self {
        self.shared_spaces = Some(spaces);
        self
    }

    fn conflict(&self) -> Option<&'static str> {
        let sources = [
            self.shared_cache.is_some(),
            self.cache_file.is_some(),
            self.pile.is_some(),
        ];
        if sources.iter().filter(|&&s| s).count() > 1 {
            return Some("at most one cache source (shared_cache / cache_file / pile)");
        }
        if self.cache_max.is_some() && self.shared_cache.is_some() {
            return Some("cache_max conflicts with a pre-built cache (bound it at construction)");
        }
        None
    }
}

impl fmt::Debug for EngineConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineConfig")
            .field("cache_max", &self.cache_max)
            .field("cache_file", &self.cache_file)
            .field("pile", &self.pile)
            .field("space_file", &self.space_file)
            .field("shared_cache", &self.shared_cache.is_some())
            .field("shared_spaces", &self.shared_spaces.is_some())
            .finish_non_exhaustive()
    }
}

/// Why a configuration could not be opened or persisted.
#[derive(Debug)]
pub enum ConfigError {
    /// Mutually exclusive options were combined.
    Conflict(&'static str),
    /// A configured file could not be read or written.
    Io(PathBuf, std::io::Error),
    /// A configured cache or space file failed to parse or save.
    Format(PathBuf, String),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Conflict(msg) => write!(f, "conflicting engine config: {msg}"),
            ConfigError::Io(path, e) => write!(f, "{}: {e}", path.display()),
            ConfigError::Format(path, msg) => write!(f, "{}: {msg}", path.display()),
        }
    }
}

impl std::error::Error for ConfigError {}

fn persist_err(path: &Path, e: PersistError) -> ConfigError {
    ConfigError::Format(path.to_owned(), e.to_string())
}

fn pile_err(path: &Path, e: PileStoreError) -> ConfigError {
    ConfigError::Format(path.to_owned(), e.to_string())
}

fn space_err(path: &Path, e: SpaceStoreError) -> ConfigError {
    ConfigError::Format(path.to_owned(), e.to_string())
}

/// What one [`Session::persist`] call wrote back.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PersistSummary {
    /// Bytes appended to the pile (0 without a pile, or when the cache
    /// snapshot was empty).
    pub pile_bytes: usize,
    /// Candidate-space snapshots harvested into the library.
    pub spaces_harvested: usize,
    /// Whether the cache file was rewritten.
    pub cache_saved: bool,
    /// Whether the space file was rewritten.
    pub spaces_saved: bool,
}

/// An [`Engine`] together with the persistence handles its configuration
/// named — the pile store, the cache file path, the space file path — so
/// one [`Session::persist`] call writes everything back the way the
/// configuration promised.
pub struct Session {
    engine: Engine,
    cache_file: Option<PathBuf>,
    space_file: Option<PathBuf>,
    pile: Option<PileStore>,
}

impl Session {
    /// Build the configured engine, loading every configured file
    /// eagerly: a corrupt or version-skewed cache, pile, or space file is
    /// an error here, never a silent cold start.
    pub fn open(config: EngineConfig) -> Result<Session, ConfigError> {
        if let Some(msg) = config.conflict() {
            return Err(ConfigError::Conflict(msg));
        }
        let EngineConfig {
            budget,
            cache_max,
            cache_file,
            pile,
            space_file,
            shared_cache,
            shared_spaces,
        } = config;
        let mut pile_store = match &pile {
            Some(path) => Some(PileStore::open(path).map_err(|e| pile_err(path, e))?),
            None => None,
        };
        let cache: Arc<VerdictCache> = if let Some(shared) = shared_cache {
            shared
        } else if let Some(path) = &cache_file {
            if path.exists() {
                Arc::new(load_cache_from_path(path, cache_max).map_err(|e| persist_err(path, e))?)
            } else {
                Arc::new(VerdictCache::bounded(cache_max))
            }
        } else if let Some(store) = &mut pile_store {
            let path = pile.as_deref().expect("pile store implies a pile path");
            Arc::new(store.load(cache_max).map_err(|e| pile_err(path, e))?)
        } else {
            Arc::new(VerdictCache::bounded(cache_max))
        };
        let spaces = if let Some(shared) = shared_spaces {
            Some(shared)
        } else if let Some(path) = &space_file {
            let library = SpaceLibrary::load(path).map_err(|e| space_err(path, e))?;
            Some(Arc::new(Mutex::new(library)))
        } else {
            None
        };
        Ok(Session {
            engine: Engine::assemble(budget, cache, spaces),
            cache_file,
            space_file,
            pile: pile_store,
        })
    }

    /// The configured engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Drop the persistence handles and keep the engine.
    pub fn into_engine(self) -> Engine {
        self.engine
    }

    /// Write everything the configuration promised back out: save the
    /// cache file, append the run's verdicts to the pile, and harvest
    /// grown candidate spaces into the space file (rewritten only when
    /// something grew or the file does not exist yet; all file writes are
    /// atomic). `catalog` resolves natively computed witnesses to names —
    /// pass the catalog the run finished with. A configuration that named
    /// no files is a no-op.
    pub fn persist(&mut self, catalog: &Catalog) -> Result<PersistSummary, ConfigError> {
        let mut summary = PersistSummary::default();
        if let Some(path) = &self.cache_file {
            save_cache_to_path(self.engine.cache(), catalog, path)
                .map_err(|e| persist_err(path, e))?;
            summary.cache_saved = true;
        }
        if let Some(store) = &mut self.pile {
            let path = store.path().to_owned();
            summary.pile_bytes = store
                .append_cache(self.engine.cache(), catalog)
                .map_err(|e| pile_err(&path, e))?;
        }
        if let Some(path) = &self.space_file {
            summary.spaces_harvested = self.engine.harvest_spaces();
            if summary.spaces_harvested > 0 || !path.exists() {
                let spaces = self
                    .engine
                    .shared_spaces()
                    .expect("space_file config attaches a library");
                let library = spaces.lock().expect("space library lock");
                library.save(path).map_err(|e| space_err(path, e))?;
                summary.spaces_saved = true;
            }
        }
        Ok(summary)
    }
}

impl Engine {
    /// Build an engine from a configuration, discarding the persistence
    /// handles — the read-only spelling of [`Session::open`]. For a
    /// configuration with no file sources this cannot fail.
    pub fn from_config(config: EngineConfig) -> Result<Engine, ConfigError> {
        Ok(Session::open(config)?.into_engine())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Check;
    use viewcap_core::{Query, View};
    use viewcap_expr::parse_expr;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("viewcap-config-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn setup() -> (Catalog, View) {
        let mut cat = Catalog::new();
        cat.relation("R", &["A", "B", "C"]).unwrap();
        let ab = cat.scheme(&["A", "B"]).unwrap();
        let v1 = cat.fresh_relation("v1", ab);
        let view =
            View::from_exprs(vec![(parse_expr("pi{A,B}(R)", &cat).unwrap(), v1)], &cat).unwrap();
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
    fn conflicting_cache_sources_are_rejected() {
        let config = EngineConfig::new()
            .cache_file("/tmp/a.vcapcache")
            .pile("/tmp/a.vcappile");
        assert!(matches!(
            Engine::from_config(config),
            Err(ConfigError::Conflict(_))
        ));
        let config = EngineConfig::new()
            .shared_cache(Arc::new(VerdictCache::new()))
            .cache_max(Some(10));
        assert!(matches!(
            Engine::from_config(config),
            Err(ConfigError::Conflict(_))
        ));
    }

    #[test]
    fn cache_max_bounds_a_fresh_cache() {
        let engine = Engine::from_config(EngineConfig::new().cache_max(Some(7))).unwrap();
        assert_eq!(engine.cache().capacity(), Some(7));
    }

    #[test]
    fn session_round_trips_a_cache_file() {
        let (cat, view) = setup();
        let path = tmp("roundtrip.vcapcache");

        let mut session = Session::open(EngineConfig::new().cache_file(&path)).unwrap();
        decide(session.engine(), &cat, &view, "pi{A}(R)");
        let summary = session.persist(&cat).unwrap();
        assert!(summary.cache_saved);

        // A second session warms from the saved file.
        let warm = Session::open(EngineConfig::new().cache_file(&path)).unwrap();
        decide(warm.engine(), &cat, &view, "pi{A}(R)");
        assert_eq!(warm.engine().cache_stats().hits, 1);
    }

    #[test]
    fn session_round_trips_a_pile() {
        let (cat, view) = setup();
        let path = tmp("roundtrip.vcappile");

        let mut session = Session::open(EngineConfig::new().pile(&path)).unwrap();
        decide(session.engine(), &cat, &view, "pi{A}(R)");
        let summary = session.persist(&cat).unwrap();
        assert!(summary.pile_bytes > 0);

        let warm = Session::open(EngineConfig::new().pile(&path)).unwrap();
        decide(warm.engine(), &cat, &view, "pi{A}(R)");
        assert_eq!(warm.engine().cache_stats().hits, 1);
    }

    #[test]
    fn session_harvests_spaces_into_the_space_file() {
        let (cat, view) = setup();
        let path = tmp("harvest.vcapspaces");

        let mut session = Session::open(EngineConfig::new().space_file(&path)).unwrap();
        decide(session.engine(), &cat, &view, "pi{A}(R)");
        let summary = session.persist(&cat).unwrap();
        assert!(summary.spaces_saved);
        assert!(path.exists());

        // The warm session hydrates instead of rebuilding.
        let warm = Session::open(EngineConfig::new().space_file(&path)).unwrap();
        decide(warm.engine(), &cat, &view, "pi{A}(R)");
        assert_eq!(warm.engine().enum_stats().levels_rebuilt, 0);
    }

    #[test]
    fn corrupt_cache_files_error_instead_of_cold_starting() {
        let path = tmp("corrupt.vcapcache");
        std::fs::write(&path, b"not a cache file").unwrap();
        assert!(matches!(
            Session::open(EngineConfig::new().cache_file(&path)),
            Err(ConfigError::Format(..))
        ));
    }

    #[test]
    fn shared_cache_is_shared() {
        let (cat, view) = setup();
        let shared = Arc::new(VerdictCache::new());
        let a = Engine::from_config(EngineConfig::new().shared_cache(Arc::clone(&shared))).unwrap();
        decide(&a, &cat, &view, "pi{A}(R)");
        let b = Engine::from_config(EngineConfig::new().shared_cache(shared)).unwrap();
        decide(&b, &cat, &view, "pi{A}(R)");
        assert_eq!(b.cache_stats().hits, 1);
    }
}
