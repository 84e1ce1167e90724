//! One front door for building engines: [`EngineConfig`] + [`Session`].
//!
//! [`EngineConfig`] is the single description of an engine: its verdict
//! cache (a fresh bounded one, a pile, or a shared handle) and its
//! candidate-space library (the pile's, or a shared handle). Two ways to
//! consume it:
//!
//! * [`Engine::from_config`] — build the engine and discard the
//!   provenance. A pile loads eagerly (a damaged pile is an error, never a
//!   silent cold start); the handle is dropped, so this is the read-only
//!   spelling.
//! * [`Session::open`] — build the engine *and keep the pile handle*:
//!   [`Session::persist`] appends the run's verdicts and grown candidate
//!   spaces to the pile through [`PileStore::append_run`], the writer
//!   `viewcap serve` uses too.
//!
//! ```
//! use viewcap_engine::{Engine, EngineConfig};
//! let engine = Engine::from_config(EngineConfig::new().cache_max(Some(1000))).unwrap();
//! assert_eq!(engine.cache_stats().entries, 0);
//! ```

use crate::cache::VerdictCache;
use crate::engine::Engine;
use crate::pilestore::{PileStore, PileStoreError};
use crate::spacestore::SpaceLibrary;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use viewcap_base::Catalog;

/// Everything an [`Engine`] can be built from, in one builder.
///
/// [`EngineConfig::pile`] supplies both the verdict cache and the space
/// library, so it conflicts with [`EngineConfig::shared_cache`] and
/// [`EngineConfig::shared_spaces`]. [`EngineConfig::cache_max`] composes
/// with a pile and with no source at all (a fresh bounded cache); it
/// conflicts with a pre-built cache, whose bound is fixed at
/// construction.
#[derive(Default)]
pub struct EngineConfig {
    cache_max: Option<usize>,
    pile: Option<PathBuf>,
    shared_cache: Option<Arc<VerdictCache>>,
    shared_spaces: Option<Arc<Mutex<SpaceLibrary>>>,
}

impl EngineConfig {
    /// An empty configuration: fresh unbounded cache, no space library, no
    /// persistence.
    pub fn new() -> EngineConfig {
        EngineConfig::default()
    }

    /// Bound the verdict cache to `max` entries with exact LRU eviction
    /// (`None` = unbounded). Applies to fresh and pile-loaded caches.
    pub fn cache_max(mut self, max: Option<usize>) -> Self {
        self.cache_max = max;
        self
    }

    /// Load the verdict cache from a pile's merged verdict set and the
    /// space library from its space records; under [`Session::persist`],
    /// append the run's verdicts and grown spaces back.
    pub fn pile(mut self, path: impl Into<PathBuf>) -> Self {
        self.pile = Some(path.into());
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
        if self.pile.is_some() && self.shared_cache.is_some() {
            return Some("at most one cache source (shared_cache / pile)");
        }
        if self.pile.is_some() && self.shared_spaces.is_some() {
            return Some("at most one space library source (shared_spaces / pile)");
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
            .field("pile", &self.pile)
            .field("shared_cache", &self.shared_cache.is_some())
            .field("shared_spaces", &self.shared_spaces.is_some())
            .finish()
    }
}

/// Why a configuration could not be opened or persisted.
#[derive(Debug)]
pub enum ConfigError {
    /// Mutually exclusive options were combined.
    Conflict(&'static str),
    /// The configured pile could not be opened, read, or appended to.
    Pile(PathBuf, PileStoreError),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Conflict(msg) => write!(f, "conflicting engine config: {msg}"),
            ConfigError::Pile(path, e) => write!(f, "{}: {e}", path.display()),
        }
    }
}

impl std::error::Error for ConfigError {}

fn pile_err(path: &Path) -> impl FnOnce(PileStoreError) -> ConfigError + '_ {
    move |e| ConfigError::Pile(path.to_owned(), e)
}

/// An [`Engine`] together with the pile its configuration named, so one
/// [`Session::persist`] call writes the run back the way the
/// configuration promised.
pub struct Session {
    engine: Engine,
    pile: Option<PileStore>,
}

impl Session {
    /// Build the configured engine, loading a configured pile eagerly: a
    /// damaged pile or a record that fails to parse is an error here,
    /// never a silent cold start.
    pub fn open(config: EngineConfig) -> Result<Session, ConfigError> {
        if let Some(msg) = config.conflict() {
            return Err(ConfigError::Conflict(msg));
        }
        let EngineConfig {
            cache_max,
            pile,
            shared_cache,
            shared_spaces,
        } = config;
        let Some(path) = pile else {
            let cache = shared_cache.unwrap_or_else(|| Arc::new(VerdictCache::bounded(cache_max)));
            return Ok(Session {
                engine: Engine::assemble(cache, shared_spaces),
                pile: None,
            });
        };
        let mut store = PileStore::open(&path).map_err(pile_err(&path))?;
        let records = store.records().map_err(pile_err(&path))?;
        let cache = records.load(cache_max).map_err(pile_err(&path))?;
        let spaces = records.load_spaces().map_err(pile_err(&path))?;
        Ok(Session {
            engine: Engine::assemble(Arc::new(cache), Some(Arc::new(Mutex::new(spaces)))),
            pile: Some(store),
        })
    }

    /// The configured engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Drop the pile handle and keep the engine.
    pub fn into_engine(self) -> Engine {
        self.engine
    }

    /// Append the run to the configured pile: the verdict cache, then the
    /// space library when the run grew a candidate space. `catalog`
    /// resolves natively computed witnesses to names — pass the catalog
    /// the run finished with. Returns the bytes appended; a configuration
    /// without a pile appends nothing.
    pub fn persist(&mut self, catalog: &Catalog) -> Result<usize, ConfigError> {
        let Some(store) = &mut self.pile else {
            return Ok(0);
        };
        let spaces_grew = self.engine.harvest_spaces() > 0;
        let path = store.path().to_owned();
        store
            .append_run(&self.engine, catalog, spaces_grew)
            .map_err(pile_err(&path))
    }
}

impl Engine {
    /// Build an engine from a configuration, discarding the pile handle —
    /// the read-only spelling of [`Session::open`]. For a configuration
    /// without a pile this cannot fail.
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
            .shared_cache(Arc::new(VerdictCache::new()))
            .pile("/tmp/a.vcappile");
        assert!(matches!(
            Engine::from_config(config),
            Err(ConfigError::Conflict(_))
        ));
        let config = EngineConfig::new()
            .shared_spaces(Arc::new(Mutex::new(SpaceLibrary::new())))
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
        let engine = Engine::new();
        decide(&engine, &cat, &view, "pi{A}(R)");
        let file = crate::persist::save_cache(engine.cache(), &cat);

        // A legacy cache file imported into a pile warms a session.
        let path = tmp("imported.vcappile");
        PileStore::open(&path)
            .unwrap()
            .append_cache_bytes(&file)
            .unwrap();
        let warm = Session::open(EngineConfig::new().pile(&path)).unwrap();
        decide(warm.engine(), &cat, &view, "pi{A}(R)");
        assert_eq!(warm.engine().cache_stats().hits, 1);
    }

    #[test]
    fn session_round_trips_a_pile() {
        let (cat, view) = setup();
        let path = tmp("roundtrip.vcappile");

        let mut session = Session::open(EngineConfig::new().pile(&path)).unwrap();
        decide(session.engine(), &cat, &view, "pi{A}(R)");
        assert!(session.persist(&cat).unwrap() > 0);

        // A second session warms from the pile: the verdict hits.
        let warm = Session::open(EngineConfig::new().pile(&path)).unwrap();
        decide(warm.engine(), &cat, &view, "pi{A}(R)");
        assert_eq!(warm.engine().cache_stats().hits, 1);
        assert_eq!(warm.engine().enum_stats().levels_rebuilt, 0);
    }

    #[test]
    fn session_harvests_spaces_into_the_pile() {
        let (cat, view) = setup();
        let path = tmp("harvest.vcappile");

        let mut session = Session::open(EngineConfig::new().pile(&path)).unwrap();
        decide(session.engine(), &cat, &view, "pi{A}(R)");
        session.persist(&cat).unwrap();
        let mut store = PileStore::open(&path).unwrap();
        assert_eq!(store.record_count().unwrap(), 1);
        assert_eq!(store.records().unwrap().spaces.len(), 1);

        // A bounded cache drops the verdict, so the warm session misses
        // and must hydrate the persisted space instead of rebuilding it.
        let config = EngineConfig::new().pile(&path).cache_max(Some(1));
        let warm = Session::open(config).unwrap();
        decide(warm.engine(), &cat, &view, "pi{B}(R)");
        assert_eq!(warm.engine().cache_stats().misses, 1);
        let stats = warm.engine().enum_stats();
        assert!(stats.levels_hydrated > 0, "{stats:?}");
        assert_eq!(stats.levels_rebuilt, 0);
    }

    #[test]
    fn corrupt_cache_files_error_instead_of_cold_starting() {
        let (cat, view) = setup();
        // A pile whose framing is damaged.
        let path = tmp("damaged.vcappile");
        let mut session = Session::open(EngineConfig::new().pile(&path)).unwrap();
        decide(session.engine(), &cat, &view, "pi{A}(R)");
        session.persist(&cat).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Session::open(EngineConfig::new().pile(&path)),
            Err(ConfigError::Pile(..))
        ));

        // A well-framed pile whose cache record is not a cache file.
        let path = tmp("corrupt-record.vcappile");
        viewcap_pile::Pile::open(&path)
            .unwrap()
            .append(crate::CACHE_RECORD_KIND, b"not a cache file")
            .unwrap();
        assert!(matches!(
            Session::open(EngineConfig::new().pile(&path)),
            Err(ConfigError::Pile(..))
        ));

        // A valid cache record beside a well-framed space record that is
        // not a space library.
        let path = tmp("corrupt-space-record.vcappile");
        let mut session = Session::open(EngineConfig::new().pile(&path)).unwrap();
        decide(session.engine(), &cat, &view, "pi{A}(R)");
        session.persist(&cat).unwrap();
        viewcap_pile::Pile::open(&path)
            .unwrap()
            .append(crate::SPACE_RECORD_KIND, b"not a space library")
            .unwrap();
        assert!(matches!(
            Session::open(EngineConfig::new().pile(&path)),
            Err(ConfigError::Pile(..))
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
