//! The batch decision engine.
//!
//! [`Engine::run_batch`] takes a [`Workload`], deduplicates requests by
//! canonical fingerprint, resolves what it can from the verdict cache, runs
//! the remaining distinct checks across `std::thread::scope` workers, and
//! reassembles per-request results in submission order.
//!
//! **Determinism.** Parallel execution returns results identical to
//! sequential execution: the fingerprint pass, deduplication, and shared
//! [`ClosureContext`] creation are sequential, exactly one
//! (order-determined) representative per fingerprint class computes, every
//! decision procedure is itself deterministic (context probes included —
//! the candidate space is a deterministic function of the query set,
//! whichever probe builds it), and reassembly is positional. Thread
//! scheduling can only change *when* a verdict is computed, never *which*
//! verdict a request receives.

use crate::cache::{CacheKey, CacheStats, Entry, VerdictCache};
use crate::fingerprint::{
    ordered_view_fingerprint, query_fingerprint, view_fingerprint, view_query_fingerprints,
    Fingerprint,
};
use crate::lru::Lru;
use crate::spacestore::SpaceLibrary;
use crate::verdict::{CheckKind, Verdict};
use crate::workload::{Check, Workload};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use viewcap_base::{Catalog, RelId};
use viewcap_core::equivalence::{dominates_via, EquivalenceWitness};
use viewcap_core::{ClosureContext, ClosureMember, NormContext, SearchBudget, View};
use viewcap_obs as obs;
use viewcap_template::SearchOverflow;

/// Telemetry handles (all no-ops until `viewcap_obs::set_enabled(true)`).
/// Span/counter values are work counts, deterministic for a workload
/// whatever `--jobs` is — the executor's dedup, prewarm, and
/// representative election are sequential. Only the `*_ns` histograms
/// carry timing.
static CHECK_SPAN: obs::SpanDef = obs::SpanDef::new("engine.check", "engine", "span.engine.check");
static BATCH_SPAN: obs::SpanDef = obs::SpanDef::new("engine.batch", "engine", "span.engine.batch");
static NORMALIZE_SPAN: obs::SpanDef =
    obs::SpanDef::new("engine.normalize", "norm", "span.engine.normalize");
static CHECK_NS: obs::Hist = obs::Hist::new("engine.check_ns");
static NORMALIZE_NS: obs::Hist = obs::Hist::new("engine.normalize_ns");
static CTX_BUILD: obs::Counter = obs::Counter::new("engine.ctx.build");
static CTX_REUSE: obs::Counter = obs::Counter::new("engine.ctx.reuse");
static CTX_RETIRE: obs::Counter = obs::Counter::new("engine.ctx.retire");
static CTX_STAGE: obs::Counter = obs::Counter::new("engine.ctx.stage");
static NORM_CTX_BUILD: obs::Counter = obs::Counter::new("engine.norm_ctx.build");
static NORM_CTX_REUSE: obs::Counter = obs::Counter::new("engine.norm_ctx.reuse");
static NORM_CTX_RETIRE: obs::Counter = obs::Counter::new("engine.norm_ctx.retire");
static CACHE_RESOLVE_SPAN: obs::SpanDef =
    obs::SpanDef::new("engine.cache.resolve", "cache", "span.engine.cache.resolve");

/// The outcome of deciding one request.
#[derive(Clone, Debug)]
pub struct Decision {
    /// The (possibly shared) verdict.
    pub verdict: Arc<Verdict>,
    /// Whether this verdict was served from the cache (or from another
    /// request of the same batch via deduplication).
    pub from_cache: bool,
    /// Ordered per-query fingerprints of the view that computed the
    /// verdict's witness (its "left" view; for equivalence, the
    /// canonical-orientation left — see [`Decision::flipped`]).
    pub left_query_fps: Arc<[Fingerprint]>,
    /// For [`CheckKind::Equivalent`] only: equivalence verdicts are stored
    /// in *canonical* orientation (the smaller-fingerprint view as "v"),
    /// so one cache entry serves both orientations. `flipped` is `true`
    /// when this request's `left`/`right` are the reverse of the stored
    /// witness — its `v_dominates_w` then proves `right` dominates `left`.
    /// Always `false` for membership and dominance checks.
    pub flipped: bool,
}

impl Decision {
    /// The decision `entry` gives one request.
    fn of(entry: &Entry, from_cache: bool, flipped: bool) -> Decision {
        Decision {
            verdict: Arc::clone(&entry.verdict),
            from_cache,
            left_query_fps: Arc::clone(&entry.left_query_fps),
            flipped,
        }
    }

    /// View-schema names aligned with the witness's query indices.
    ///
    /// A cached membership proof indexes the *producer's* defining-query
    /// positions. When the requesting `view` lists equivalent queries in a
    /// different order, this remaps so `names[i]` is the requester's name
    /// for the producer's `i`-th query. Returns `None` if the views'
    /// query multisets don't line up (they always do on a genuine cache
    /// hit, barring a fingerprint collision).
    pub fn member_witness_names(&self, view: &View, catalog: &Catalog) -> Option<Vec<RelId>> {
        let theirs = view_query_fingerprints(view, catalog);
        let schema = view.schema();
        if theirs.len() != self.left_query_fps.len() {
            return None;
        }
        let mut used = vec![false; theirs.len()];
        let mut names = Vec::with_capacity(theirs.len());
        for fp in self.left_query_fps.iter() {
            let j = theirs
                .iter()
                .enumerate()
                .position(|(j, t)| !used[j] && t == fp)?;
            used[j] = true;
            names.push(schema[j]);
        }
        Some(names)
    }
}

/// Summary of one [`Engine::run_batch`] call.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-request outcomes, positionally aligned with the workload.
    /// `Err` means the bounded search overflowed — unknown, not "no".
    pub results: Vec<Result<Decision, SearchOverflow>>,
    /// Requests submitted.
    pub total: usize,
    /// Distinct fingerprint classes after deduplication.
    pub distinct: usize,
    /// Distinct classes answered from the pre-batch cache.
    pub cache_hits: usize,
    /// Distinct classes actually computed by this batch.
    pub executed: usize,
}

/// Cumulative candidate-space reuse counters, summed over every context
/// an engine has pooled: closure contexts ([`ClosureContext`]) and
/// normalization contexts ([`NormContext`]), live or retired (see
/// [`Engine::enum_stats`]).
///
/// `probes - contexts` is roughly how many questions were answered
/// without re-deriving the bounded enumeration; `combos` is the total
/// enumeration work actually paid. A batch of N checks against one view
/// shows `contexts == 1, probes >= N` where the uncached engine paid the
/// enumeration N times over. Every enumerating command reports here:
/// checks, `frontier`/`diff` sweeps ([`Engine::members`], one probe
/// each), and normalization runs (`simplify`, `nonredundant`), so a
/// scenario that only normalizes or only diffs still reports its work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EnumStats {
    /// Contexts built (closure contexts: one per distinct ordered
    /// defining-query fingerprint table; normalization contexts: one per
    /// distinct defining-query multiset).
    pub contexts: u64,
    /// Goal probes served across all contexts.
    pub probes: u64,
    /// Join combinations examined across all shared candidate spaces.
    pub combos: u64,
    /// Candidate roots kept across all shared candidate spaces.
    pub roots: u64,
    /// Enumeration levels supplied by hydrated snapshots (the persisted
    /// cold-start path) across all closure contexts.
    pub levels_hydrated: u64,
    /// Enumeration levels built by in-process enumeration — 0 on a fully
    /// snapshot-served run, which is what the CI cold-start job asserts.
    pub levels_rebuilt: u64,
}

impl EnumStats {
    /// Fieldwise sum — folds per-context counters into pool totals and
    /// the two pools into one. Saturating, so a long-lived engine pins
    /// at `u64::MAX` rather than wrapping.
    fn plus(self, other: EnumStats) -> EnumStats {
        EnumStats {
            contexts: self.contexts.saturating_add(other.contexts),
            probes: self.probes.saturating_add(other.probes),
            combos: self.combos.saturating_add(other.combos),
            roots: self.roots.saturating_add(other.roots),
            levels_hydrated: self.levels_hydrated.saturating_add(other.levels_hydrated),
            levels_rebuilt: self.levels_rebuilt.saturating_add(other.levels_rebuilt),
        }
    }
}

impl fmt::Display for EnumStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} context(s), {} probe(s), {} combination(s) examined, {} root(s) kept, \
             {} level(s) hydrated, {} level(s) rebuilt",
            self.contexts,
            self.probes,
            self.combos,
            self.roots,
            self.levels_hydrated,
            self.levels_rebuilt
        )
    }
}

/// Most contexts each pool retains. Contexts are pure caches (dropping one
/// only costs re-enumeration), so a bound keeps long-lived engines — e.g.
/// a [`crate::DeltaWorkload`] cycling through many view versions — from
/// accumulating one fully built candidate space per version forever.
const MAX_CONTEXTS: usize = 64;

/// A context a [`Pool`] can hold: what it contributes to [`EnumStats`].
trait PooledContext {
    fn enum_stats(&self) -> EnumStats;
}

impl PooledContext for ClosureContext {
    fn enum_stats(&self) -> EnumStats {
        let s = self.search_stats();
        EnumStats {
            contexts: 1,
            probes: self.probes(),
            combos: s.combos,
            roots: s.roots_visited,
            levels_hydrated: self.hydrated_levels() as u64,
            levels_rebuilt: self.rebuilt_levels() as u64,
        }
    }
}

impl PooledContext for NormContext {
    fn enum_stats(&self) -> EnumStats {
        let s = self.search_stats();
        EnumStats {
            contexts: 1,
            probes: self.probes(),
            combos: s.combos,
            roots: s.roots_visited,
            ..EnumStats::default()
        }
    }
}

/// The telemetry one pool emits: its lifecycle counters, whose names its
/// build/retire trace instants reuse, under `category`.
struct PoolObs {
    build: &'static obs::Counter,
    reuse: &'static obs::Counter,
    retire: &'static obs::Counter,
    category: &'static str,
}

struct PoolInner<C> {
    /// Live contexts; past [`MAX_CONTEXTS`] the least recently used go.
    live: Lru<Vec<Fingerprint>, Arc<Mutex<C>>>,
    /// Counters harvested from retired contexts, so [`EnumStats`] stays
    /// cumulative across evictions.
    retired: EnumStats,
}

/// A bounded LRU pool of shared contexts keyed by a defining-query
/// fingerprint table. The engine keeps two: closure contexts keyed by the
/// *ordered* table, normalization contexts by the *sorted* one (see
/// [`Engine`]).
struct Pool<C> {
    inner: Mutex<PoolInner<C>>,
    obs: PoolObs,
}

impl<C: PooledContext> Pool<C> {
    fn new(obs: PoolObs) -> Self {
        Pool {
            inner: Mutex::new(PoolInner {
                live: Lru::default(),
                retired: EnumStats::default(),
            }),
            obs,
        }
    }

    /// The context under `key`, built by `build` on first use. Past
    /// [`MAX_CONTEXTS`] the least-recently-used other context is retired:
    /// its counters fold into the pool's totals and `retire` sees it on
    /// the way out. Safe to lock it there: callers never hold a context
    /// lock while touching the pool.
    fn get(
        &self,
        key: Vec<Fingerprint>,
        build: impl FnOnce() -> C,
        mut retire: impl FnMut(&C),
    ) -> Arc<Mutex<C>> {
        let mut inner = self.inner.lock().expect("context pool lock");
        if let Some(context) = inner.live.get(&key) {
            self.obs.reuse.add(1);
            return Arc::clone(context);
        }
        self.obs.build.add(1);
        obs::instant(
            self.obs.build.name(),
            self.obs.category,
            &[("queries", key.len() as u64)],
        );
        let context = Arc::new(Mutex::new(build()));
        inner.live.insert(key, Arc::clone(&context));
        while inner.live.len() > MAX_CONTEXTS {
            let Some((_, retiree)) = inner.live.pop_lru() else {
                break;
            };
            let retiree = retiree.lock().expect("context lock");
            let stats = retiree.enum_stats();
            self.obs.retire.add(1);
            obs::instant(
                self.obs.retire.name(),
                self.obs.category,
                &[("probes", stats.probes)],
            );
            inner.retired = inner.retired.plus(stats);
            retire(&retiree);
        }
        context
    }

    /// Visit every live context (retired ones already left through
    /// `retire`).
    fn for_each_live(&self, mut f: impl FnMut(&C)) {
        let inner = self.inner.lock().expect("context pool lock");
        for (_, context) in inner.live.iter() {
            f(&context.lock().expect("context lock"));
        }
    }

    fn stats(&self) -> EnumStats {
        let inner = self.inner.lock().expect("context pool lock");
        inner.live.iter().fold(inner.retired, |acc, (_, context)| {
            acc.plus(context.lock().expect("context lock").enum_stats())
        })
    }
}

/// The concurrent batch decision engine.
///
/// Holds the verdict cache, the search budget, and two context pools: one
/// [`ClosureContext`] per *ordered* defining-query fingerprint table and
/// one [`NormContext`] per *sorted* one. A batch of N checks against one
/// view — every delta re-check touching it, and every `frontier`/`diff`
/// sweep of it ([`Engine::members`]) — pays the bounded enumeration once.
///
/// Keying closure contexts by the ordered table (not the order-free view
/// fingerprint) keeps witness λ indices positional: two views listing
/// equivalent queries in different orders get separate contexts.
/// Fingerprint-equal views with *isomorphic but non-identical* defining
/// templates share a context, so their witnesses carry the creator's λ
/// templates — the same representative-per-class semantics the verdict
/// cache already applies on hits; rendered output
/// ([`crate::Decision::member_witness_names`]) is unaffected.
/// [`Engine::run_batch`] pre-creates the contexts a batch needs
/// sequentially, so which view defines a shared context never depends on
/// worker scheduling. Normalization verdicts are class-based (a
/// `NormContext`'s universe is the *set* of originals and their proper
/// projections — Theorem 4.2.1), so that pool's key ignores pair order:
/// reordered views, and `simplify` plus `nonredundant` of one view, share
/// one class space.
///
/// The verdict cache is
/// catalog-content-addressed (fingerprints hash relation *content*, never
/// raw ids), so a cache persisted by one process warms any catalog
/// declaring the same relations, whatever the declaration order; the
/// *context pool*, by contrast, holds live `Catalog`-bound state, so keep
/// one engine per running catalog.
pub struct Engine {
    /// Shared so many engines — e.g. a `viewcap serve` daemon's
    /// per-request engines over one warm per-catalog cache — can decide
    /// through one verdict store. The cache is the only cross-catalog-safe
    /// state an engine holds (content-addressed keys); the context pools
    /// stay per-engine because they hold catalog-bound ids.
    cache: Arc<VerdictCache>,
    budget: SearchBudget,
    contexts: Pool<ClosureContext>,
    norms: Pool<NormContext>,
    /// Optional persisted-snapshot library: new contexts stage a matching
    /// snapshot from it (hydrated lazily on first probe), and grown spaces
    /// are harvested back into it. Shareable across engines the same way
    /// the verdict cache is — snapshots are content-addressed and validated
    /// against the loading catalog at hydration time.
    spaces: Option<Arc<Mutex<SpaceLibrary>>>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// Engine with the default search budget and a fresh unbounded cache —
    /// shorthand for [`crate::EngineConfig::default`]. Every other shape
    /// (bounded / shared caches, space libraries, piles) goes through
    /// [`Engine::from_config`] or [`crate::Session::open`].
    pub fn new() -> Self {
        Engine::assemble(Arc::new(VerdictCache::new()), None)
    }

    /// Assemble an engine from resolved parts, under the default search
    /// budget. The only constructor; callers outside the crate go through
    /// [`crate::EngineConfig`].
    pub(crate) fn assemble(
        cache: Arc<VerdictCache>,
        spaces: Option<Arc<Mutex<SpaceLibrary>>>,
    ) -> Self {
        Engine {
            cache,
            budget: SearchBudget::default(),
            contexts: Pool::new(PoolObs {
                build: &CTX_BUILD,
                reuse: &CTX_REUSE,
                retire: &CTX_RETIRE,
                category: "engine",
            }),
            norms: Pool::new(PoolObs {
                build: &NORM_CTX_BUILD,
                reuse: &NORM_CTX_REUSE,
                retire: &NORM_CTX_RETIRE,
                category: "norm",
            }),
            spaces,
        }
    }

    /// A shared handle on the engine's space library, if one is attached.
    pub fn shared_spaces(&self) -> Option<Arc<Mutex<SpaceLibrary>>> {
        self.spaces.clone()
    }

    /// Export every live context's space grown past its hydrated bound
    /// into the attached library. Returns how many snapshots changed the
    /// library (0 when no library is attached or nothing grew).
    pub fn harvest_spaces(&self) -> usize {
        let Some(spaces) = &self.spaces else {
            return 0;
        };
        let mut harvested = 0;
        self.contexts.for_each_live(|context| {
            if let Some((key, bytes)) = context.export_space() {
                if spaces
                    .lock()
                    .expect("space library lock")
                    .insert(key, bytes)
                {
                    harvested += 1;
                }
            }
        });
        harvested
    }

    /// The pooled closure context for `view`'s ordered defining-query
    /// set, created on first use. Creation is cheap (no enumeration runs
    /// until the first probe): when the space library holds a snapshot
    /// for the new context's space key, the *bytes* are staged now but
    /// parsed only on the first probe. A context retired from the pool
    /// harvests any levels it grew back into the library, so retirement
    /// never loses persisted-space progress.
    fn closure_context(&self, view: &View, catalog: &Catalog) -> Arc<Mutex<ClosureContext>> {
        let spaces = self.spaces.as_deref();
        self.contexts.get(
            view_query_fingerprints(view, catalog),
            || {
                let mut fresh =
                    ClosureContext::new(view.query_set().queries(), catalog, &self.budget);
                if let Some(spaces) = spaces {
                    let library = spaces.lock().expect("space library lock");
                    if let Some(bytes) = library.get(fresh.space_key()) {
                        fresh.stage_snapshot(bytes.to_vec());
                        CTX_STAGE.add(1);
                    }
                }
                fresh
            },
            |retiree| {
                if let (Some(spaces), Some((key, bytes))) = (spaces, retiree.export_space()) {
                    spaces
                        .lock()
                        .expect("space library lock")
                        .insert(key, bytes);
                }
            },
        )
    }

    /// The pooled normalization context for `view`'s defining-query
    /// multiset, created on first use.
    fn norm_context(&self, view: &View, catalog: &Catalog) -> Arc<Mutex<NormContext>> {
        let mut key = view_query_fingerprints(view, catalog);
        key.sort_unstable();
        self.norms.get(
            key,
            || NormContext::new(view.query_set().queries(), catalog, &self.budget),
            |_| {},
        )
    }

    /// Create (or touch) the contexts `check` will probe. Called
    /// sequentially for a batch's cache misses before workers start, so
    /// context creation order — and therefore which fingerprint-equal view
    /// defines a shared context — is submission-order-deterministic.
    fn prewarm(&self, check: &Check, flipped: bool, catalog: &Catalog) {
        match check {
            Check::Member { view, .. } => {
                self.closure_context(view, catalog);
            }
            Check::Dominates { dominator, .. } => {
                self.closure_context(dominator, catalog);
            }
            Check::Equivalent { left, right } => {
                let (v, w) = if flipped {
                    (right, left)
                } else {
                    (left, right)
                };
                self.closure_context(v, catalog);
                self.closure_context(w, catalog);
            }
        }
    }

    /// The bounded `Cap(view)` frontier: the pairwise-inequivalent
    /// members constructible with at most `max_atoms` atoms, enumerated
    /// through the view's pooled [`ClosureContext`] — the candidate space
    /// that `member`/`dominates`/`equivalent` checks of the same view
    /// extend, and that the space library hydrates and harvests. Member
    /// for member identical to a one-shot
    /// [`viewcap_core::closure_members`] sweep over the view's queries.
    pub fn members(
        &self,
        view: &View,
        max_atoms: usize,
        catalog: &Catalog,
    ) -> Result<Vec<ClosureMember>, SearchOverflow> {
        let context = self.closure_context(view, catalog);
        let members = context.lock().expect("context lock").members(max_atoms);
        members
    }

    /// Snapshot the candidate-space reuse counters across the engine's
    /// two pools: the closure contexts and the normalization contexts.
    pub fn enum_stats(&self) -> EnumStats {
        self.contexts.stats().plus(self.norms.stats())
    }

    /// Contexts currently retained (test hook for the pool bound).
    #[cfg(test)]
    fn live_contexts(&self) -> usize {
        self.contexts
            .inner
            .lock()
            .expect("context pool lock")
            .live
            .len()
    }

    /// The engine's verdict cache (e.g. for persistence via
    /// [`crate::persist::save_cache`]).
    pub fn cache(&self) -> &VerdictCache {
        &self.cache
    }

    /// A shared handle on the engine's verdict cache, for building further
    /// engines over the same store ([`crate::EngineConfig::shared_cache`]).
    pub fn shared_cache(&self) -> Arc<VerdictCache> {
        Arc::clone(&self.cache)
    }

    /// The engine's search budget, so callers driving non-engine
    /// procedures alongside the engine can stay budget-consistent.
    pub fn budget(&self) -> &SearchBudget {
        &self.budget
    }

    /// Snapshot the cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Cache lookup that resolves `foreign` entries (loaded from disk with
    /// witnesses in file-local id space) into `catalog`'s ids through the
    /// entry's own name tables on first hit, replacing the stored entry so
    /// translation is paid once. A foreign entry whose names are not (yet)
    /// declared in `catalog` counts as a miss: the check recomputes and the
    /// fresh native entry shadows it (publication goes through
    /// [`VerdictCache::replace`]). The preceding `get` already counted a
    /// hit in that pathological case, so [`CacheStats`] may over-report
    /// hits by the handful of untranslatable lookups — never verdicts.
    fn cached(&self, key: &CacheKey, catalog: &Catalog) -> Option<Entry> {
        let entry = self.cache.get(key)?;
        let Some(tables) = &entry.foreign else {
            return Some(entry);
        };
        let native = crate::persist::translate_entry(&entry, tables, catalog)?;
        self.cache.replace(*key, native.clone());
        Some(native)
    }

    /// The cache key of a check (equivalence keys are orientation-free).
    pub fn cache_key(check: &Check, catalog: &Catalog) -> CacheKey {
        Engine::key_and_orientation(check, catalog).0
    }

    /// Cache key plus whether the request's orientation is flipped
    /// relative to the canonical (stored) orientation.
    fn key_and_orientation(check: &Check, catalog: &Catalog) -> (CacheKey, bool) {
        match check {
            Check::Member { view, goal } => (
                CacheKey {
                    kind: CheckKind::Member,
                    left: view_fingerprint(view, catalog),
                    right: query_fingerprint(goal, catalog),
                },
                false,
            ),
            Check::Dominates {
                dominator,
                dominated,
            } => (
                CacheKey {
                    kind: CheckKind::Dominates,
                    left: view_fingerprint(dominator, catalog),
                    right: view_fingerprint(dominated, catalog),
                },
                false,
            ),
            Check::Equivalent { left, right } => {
                let (a, b) = (
                    view_fingerprint(left, catalog),
                    view_fingerprint(right, catalog),
                );
                (
                    CacheKey {
                        kind: CheckKind::Equivalent,
                        left: a.min(b),
                        right: a.max(b),
                    },
                    a > b,
                )
            }
        }
    }

    /// Run the underlying decision procedure (no cache involvement),
    /// probing the shared per-view [`ClosureContext`]s so repeated checks
    /// against one view amortize the bounded enumeration. `flipped` is the
    /// check's orientation as computed by [`Engine::key_and_orientation`],
    /// threaded through so equivalence checks need not re-derive it from
    /// the fingerprints.
    ///
    /// At most one context lock is held at a time (equivalence probes its
    /// two sides sequentially), so concurrent workers cannot deadlock.
    fn compute(
        &self,
        check: &Check,
        flipped: bool,
        catalog: &Catalog,
    ) -> Result<Entry, SearchOverflow> {
        let t0 = obs::enabled().then(obs::now_ns);
        let _span = CHECK_SPAN.start();
        let (verdict, left_view) = match check {
            Check::Member { view, goal } => {
                let context = self.closure_context(view, catalog);
                let proof = context.lock().expect("context lock").contains(goal)?;
                (Verdict::Member(proof), view)
            }
            Check::Dominates {
                dominator,
                dominated,
            } => {
                let context = self.closure_context(dominator, catalog);
                let witness = dominates_via(&mut context.lock().expect("context lock"), dominated)?;
                (Verdict::Dominates(witness), dominator)
            }
            Check::Equivalent { left, right } => {
                // Compute in canonical (fingerprint-ordered) orientation so
                // the stored witness means the same thing for every request
                // that maps to this key, whichever way it was posed.
                let (v, w) = if flipped {
                    (right, left)
                } else {
                    (left, right)
                };
                let context = self.closure_context(v, catalog);
                let v_dominates_w = dominates_via(&mut context.lock().expect("context lock"), w)?;
                let witness = match v_dominates_w {
                    None => None,
                    Some(v_dominates_w) => {
                        let context = self.closure_context(w, catalog);
                        let w_dominates_v =
                            dominates_via(&mut context.lock().expect("context lock"), v)?;
                        w_dominates_v.map(|w_dominates_v| EquivalenceWitness {
                            v_dominates_w,
                            w_dominates_v,
                        })
                    }
                };
                (Verdict::Equivalent(witness), v)
            }
        };
        if let Some(t0) = t0 {
            CHECK_NS.record(obs::now_ns().saturating_sub(t0));
        }
        Ok(Entry {
            verdict: Arc::new(verdict),
            foreign: None,
            left_query_fps: Arc::from(view_query_fingerprints(left_view, catalog).as_slice()),
        })
    }

    /// Decide one check through the cache: a one-check batch.
    pub fn decide(&self, check: &Check, catalog: &Catalog) -> Result<Decision, SearchOverflow> {
        let mut outcome = self.run_checks(&[check], catalog, 1);
        outcome.results.pop().expect("one check, one result")
    }

    /// Simplify `view`'s defining query set (Section 4 normal form)
    /// through the verdict cache: the result is a
    /// [`Verdict::Simplified`] listing the simplified equivalent's TRSs
    /// in result order.
    pub fn simplify(&self, view: &View, catalog: &Catalog) -> Result<Decision, SearchOverflow> {
        self.normalize(CheckKind::Simplify, view, catalog)
    }

    /// Greedy nonredundant subset of `view`'s defining pairs through the
    /// verdict cache: the result is a [`Verdict::Nonredundant`] listing
    /// the kept pair indices in the view's order.
    pub fn nonredundant(&self, view: &View, catalog: &Catalog) -> Result<Decision, SearchOverflow> {
        self.normalize(CheckKind::Nonredundant, view, catalog)
    }

    /// Shared normalization path: a cache probe keyed by the view's
    /// *ordered* query-fingerprint table (both verdicts carry positional
    /// payloads, so reordered but fingerprint-equal views must not share
    /// an entry), then on a miss the pooled [`NormContext`] for the
    /// view's query set — shared across `simplify`, `nonredundant`, and
    /// any reordering of the same set.
    fn normalize(
        &self,
        kind: CheckKind,
        view: &View,
        catalog: &Catalog,
    ) -> Result<Decision, SearchOverflow> {
        let key = CacheKey {
            kind,
            left: view_fingerprint(view, catalog),
            right: ordered_view_fingerprint(view, catalog),
        };
        let cached = {
            let mut span = CACHE_RESOLVE_SPAN.start();
            let cached = self.cached(&key, catalog);
            span.arg("hits", cached.is_some() as u64);
            cached
        };
        if let Some(entry) = cached {
            return Ok(Decision::of(&entry, true, false));
        }
        let t0 = obs::enabled().then(obs::now_ns);
        let _span = NORMALIZE_SPAN.start();
        let context = self.norm_context(view, catalog);
        let queries = view.query_set();
        let verdict = {
            let mut ctx = context.lock().expect("norm context lock");
            match kind {
                CheckKind::Simplify => Verdict::Simplified(
                    ctx.simplify_queries(queries.queries())?
                        .iter()
                        .map(|q| q.trs())
                        .collect(),
                ),
                CheckKind::Nonredundant => Verdict::Nonredundant(
                    ctx.nonredundant_indices(queries.queries())?
                        .into_iter()
                        .map(|i| i as u32)
                        .collect(),
                ),
                _ => unreachable!("normalize only serves Simplify/Nonredundant"),
            }
        };
        if let Some(t0) = t0 {
            NORMALIZE_NS.record(obs::now_ns().saturating_sub(t0));
        }
        let entry = Entry {
            verdict: Arc::new(verdict),
            foreign: None,
            left_query_fps: Arc::from(view_query_fingerprints(view, catalog).as_slice()),
        };
        let decision = Decision::of(&entry, false, false);
        self.cache.replace(key, entry);
        Ok(decision)
    }

    /// Decide a whole workload: dedup → cache → parallel compute →
    /// positional reassembly. `jobs == 0` means "use available
    /// parallelism"; results are identical for every `jobs` value.
    pub fn run_batch(&self, workload: &Workload, catalog: &Catalog, jobs: usize) -> BatchOutcome {
        let checks: Vec<&Check> = workload.requests.iter().map(|r| &r.check).collect();
        self.run_checks(&checks, catalog, jobs)
    }

    /// [`Engine::run_batch`] over borrowed checks, so [`Engine::decide`]
    /// and [`crate::DeltaWorkload::run`] pose checks without cloning them.
    pub(crate) fn run_checks(
        &self,
        checks: &[&Check],
        catalog: &Catalog,
        jobs: usize,
    ) -> BatchOutcome {
        let total = checks.len();
        let mut batch_span = BATCH_SPAN.start();
        batch_span.arg("checks", total as u64);

        // 1. Fingerprint every request and elect one representative per
        //    class — sequential, so the election is order-deterministic.
        let mut slot_of_key: HashMap<CacheKey, usize> = HashMap::new();
        let mut requests: Vec<(usize, bool)> = Vec::with_capacity(total);
        let mut representatives: Vec<(CacheKey, &Check, bool)> = Vec::new();
        for &check in checks {
            let (key, flipped) = Engine::key_and_orientation(check, catalog);
            let slot = *slot_of_key.entry(key).or_insert_with(|| {
                representatives.push((key, check, flipped));
                representatives.len() - 1
            });
            requests.push((slot, flipped));
        }
        let distinct = representatives.len();
        batch_span.arg("distinct", distinct as u64);

        // 2. Resolve representatives from the cache.
        let mut resolve_span = CACHE_RESOLVE_SPAN.start();
        let mut slot_results: Vec<Option<Result<Entry, SearchOverflow>>> = representatives
            .iter()
            .map(|(key, _, _)| self.cached(key, catalog).map(Ok))
            .collect();
        let todo: Vec<usize> = (0..distinct)
            .filter(|&s| slot_results[s].is_none())
            .collect();
        let cache_hits = distinct - todo.len();
        resolve_span.arg("hits", cache_hits as u64);
        drop(resolve_span);

        // 3. Compute the misses, on this thread or across scoped workers
        //    sharing one queue of slots. Contexts are pre-created
        //    sequentially first, so shared-context creation order never
        //    depends on worker scheduling. A lone miss always runs on this
        //    thread, so it creates contexts as it probes.
        if todo.len() > 1 {
            for &slot in &todo {
                let (_, check, flipped) = representatives[slot];
                self.prewarm(check, flipped, catalog);
            }
        }
        let next = AtomicUsize::new(0);
        let work = || {
            let mut done = Vec::new();
            while let Some(&slot) = todo.get(next.fetch_add(1, Ordering::Relaxed)) {
                let (_, check, flipped) = representatives[slot];
                done.push((slot, self.compute(check, flipped, catalog)));
            }
            done
        };
        let workers = effective_jobs(jobs).min(todo.len());
        let outcomes = if workers <= 1 {
            work()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                    .collect()
            })
        };
        for (slot, outcome) in outcomes {
            slot_results[slot] = Some(outcome);
        }

        // 4. Publish freshly computed verdicts.
        for &slot in &todo {
            if let Some(Ok(entry)) = &slot_results[slot] {
                // `replace` so a fresh native entry shadows any
                // untranslatable foreign entry occupying the key.
                self.cache.replace(representatives[slot].0, entry.clone());
            }
        }

        // 5. Reassemble in submission order. "From cache" is from the
        //    caller's perspective: every request of a slot except the
        //    first request of a slot this batch computed.
        let mut fresh = vec![false; distinct];
        for &slot in &todo {
            fresh[slot] = true;
        }
        let results = requests
            .iter()
            .map(|&(slot, flipped)| {
                let from_cache = !std::mem::replace(&mut fresh[slot], false);
                match slot_results[slot].as_ref().expect("every slot resolved") {
                    Ok(entry) => Ok(Decision::of(entry, from_cache, flipped)),
                    Err(overflow) => Err(overflow.clone()),
                }
            })
            .collect();

        BatchOutcome {
            results,
            total,
            distinct,
            cache_hits,
            executed: todo.len(),
        }
    }
}

/// Resolve a `--jobs` setting: `0` means available parallelism.
pub fn effective_jobs(jobs: usize) -> usize {
    if jobs > 0 {
        jobs
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viewcap_core::Query;
    use viewcap_expr::parse_expr;

    /// One view, many goals: `(catalog, view, goals)` for the shared-space
    /// amortization tests.
    fn shared_goal_setup() -> (Catalog, View, Vec<Query>) {
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
        let goals = [
            "pi{A,B}(R)",
            "pi{B,C}(R)",
            "pi{A}(R)",
            "pi{B}(R)",
            "pi{C}(R)",
            "pi{A,B}(R) * pi{B,C}(R)",
            "pi{A,C}(pi{A,B}(R) * pi{B,C}(R))",
            "R",
        ]
        .iter()
        .map(|src| Query::from_expr(parse_expr(src, &cat).unwrap(), &cat))
        .collect();
        (cat, view, goals)
    }

    #[test]
    fn one_view_batches_share_a_single_context() {
        let (cat, view, goals) = shared_goal_setup();
        let mut workload = Workload::new();
        for (i, goal) in goals.iter().enumerate() {
            workload.push(
                format!("goal {i}"),
                Check::Member {
                    view: view.clone(),
                    goal: goal.clone(),
                },
            );
        }
        let engine = Engine::new();
        let outcome = engine.run_batch(&workload, &cat, 4);
        assert_eq!(outcome.total, goals.len());
        let stats = engine.enum_stats();
        assert_eq!(stats.contexts, 1, "one view, one context");
        assert_eq!(stats.probes, goals.len() as u64);
        assert!(stats.combos > 0);

        // The amortization is real: per-goal engines (fresh context each)
        // pay strictly more total enumeration work.
        let mut per_goal_combos = 0;
        for goal in &goals {
            let fresh = Engine::new();
            fresh
                .decide(
                    &Check::Member {
                        view: view.clone(),
                        goal: goal.clone(),
                    },
                    &cat,
                )
                .unwrap();
            per_goal_combos += fresh.enum_stats().combos;
        }
        assert!(
            stats.combos < per_goal_combos,
            "shared {} vs per-goal {}",
            stats.combos,
            per_goal_combos
        );
    }

    #[test]
    fn frontier_sweeps_reuse_the_checks_pooled_context() {
        let (cat, view, goals) = shared_goal_setup();
        let engine = Engine::new();
        for goal in &goals {
            let check = Check::Member {
                view: view.clone(),
                goal: goal.clone(),
            };
            engine.decide(&check, &cat).unwrap();
        }
        let checked = engine.enum_stats();
        let pooled = engine.members(&view, 2, &cat).unwrap();
        let swept = engine.enum_stats();
        // One context, one more probe, and no new enumeration: the goals
        // already built the space to the sweep's bound.
        assert_eq!(swept.contexts, 1);
        assert_eq!(swept.probes, checked.probes + 1);
        assert_eq!(swept.combos, checked.combos);

        let fresh = viewcap_core::capacity_members(&view, 2, &cat, engine.budget()).unwrap();
        assert_eq!(pooled.len(), fresh.len());
        for (p, f) in pooled.iter().zip(&fresh) {
            assert!(p.query.equiv(&f.query));
            assert_eq!(format!("{:?}", p.skeleton), format!("{:?}", f.skeleton));
            assert_eq!(p.construction_size, f.construction_size);
        }
    }

    #[test]
    fn fingerprint_equal_views_share_a_context_deterministically() {
        // V1 and V2 define the same queries in join-commuted forms: equal
        // ordered fingerprint tables, so they share one pooled context.
        // Which view defines it must be submission-order-determined (the
        // prewarm pass), so every jobs value returns identical results.
        let mut cat = Catalog::new();
        cat.relation("R", &["A", "B", "C"]).unwrap();
        let ab = cat.scheme(&["A", "B"]).unwrap();
        let (n1, n2) = (
            cat.fresh_relation("x", ab.clone()),
            cat.fresh_relation("y", ab),
        );
        let v1 = View::from_exprs(
            vec![(
                viewcap_expr::parse_expr("pi{A,B}(pi{A,B}(R) * pi{B,C}(R))", &cat).unwrap(),
                n1,
            )],
            &cat,
        )
        .unwrap();
        let v2 = View::from_exprs(
            vec![(
                viewcap_expr::parse_expr("pi{A,B}(pi{B,C}(R) * pi{A,B}(R))", &cat).unwrap(),
                n2,
            )],
            &cat,
        )
        .unwrap();
        assert_eq!(
            view_query_fingerprints(&v1, &cat),
            view_query_fingerprints(&v2, &cat),
            "test premise: the views must be fingerprint-equal"
        );
        let goals = ["pi{A}(R)", "pi{B}(R)", "pi{A,B}(R)", "R"];
        let mut workload = Workload::new();
        for (i, src) in goals.iter().enumerate() {
            let goal = Query::from_expr(parse_expr(src, &cat).unwrap(), &cat);
            let view = if i % 2 == 0 { &v1 } else { &v2 };
            workload.push(
                format!("goal {i}"),
                Check::Member {
                    view: view.clone(),
                    goal,
                },
            );
        }
        let render = |jobs: usize| {
            let engine = Engine::new();
            let outcome = engine.run_batch(&workload, &cat, jobs);
            let stats = engine.enum_stats();
            assert_eq!(stats.contexts, 1, "fingerprint-equal views share");
            outcome
                .results
                .iter()
                .map(|r| {
                    let d = r.as_ref().unwrap();
                    format!("{} {:?}", d.verdict.is_yes(), d.verdict)
                })
                .collect::<Vec<_>>()
        };
        let sequential = render(1);
        for _ in 0..5 {
            assert_eq!(render(4), sequential, "jobs=4 diverged from jobs=1");
        }
    }

    #[test]
    fn context_pool_is_bounded_and_keeps_cumulative_stats() {
        // Fingerprint-equal views reuse one context: four distinct goals
        // against two fp-equal views = four computed verdicts (the rest are
        // verdict-cache hits), all probing a single pooled context.
        let mut cat = Catalog::new();
        cat.relation("R", &["A", "B"]).unwrap();
        let engine = Engine::new();
        let ab = cat.scheme(&["A", "B"]).unwrap();
        let x = cat.fresh_relation("x", ab.clone());
        let y = cat.fresh_relation("y", ab);
        let views = [
            View::from_exprs(vec![(parse_expr("R", &cat).unwrap(), x)], &cat).unwrap(),
            View::from_exprs(vec![(parse_expr("R", &cat).unwrap(), y)], &cat).unwrap(),
        ];
        let goal_srcs = ["pi{A}(R)", "pi{B}(R)", "R", "pi{A}(R) * pi{B}(R)"];
        for view in &views {
            for src in goal_srcs {
                let goal = Query::from_expr(parse_expr(src, &cat).unwrap(), &cat);
                let _ = engine
                    .decide(
                        &Check::Member {
                            view: view.clone(),
                            goal,
                        },
                        &cat,
                    )
                    .unwrap();
            }
        }
        let stats = engine.enum_stats();
        assert_eq!((stats.contexts, stats.probes), (1, goal_srcs.len() as u64));
        assert_eq!(engine.live_contexts(), 1);
        let total = super::MAX_CONTEXTS + 10;

        // …while more distinct query sets than MAX_CONTEXTS stay bounded,
        // with the counters cumulative across retirements.
        let engine = Engine::new();
        for i in 0..total {
            let rel = cat.relation(&format!("S{i}"), &["A", "B"]).unwrap();
            let ab = cat.scheme(&["A", "B"]).unwrap();
            let name = cat.fresh_relation(&format!("w{i}"), ab);
            let view = View::from_exprs(vec![(viewcap_expr::Expr::rel(rel), name)], &cat).unwrap();
            let g = Query::from_expr(parse_expr(&format!("pi{{A}}(S{i})"), &cat).unwrap(), &cat);
            let _ = engine
                .decide(&Check::Member { view, goal: g }, &cat)
                .unwrap();
        }
        let stats = engine.enum_stats();
        assert_eq!(
            stats.contexts, total as u64,
            "retired contexts still counted"
        );
        assert_eq!(stats.probes, total as u64);
        assert_eq!(engine.live_contexts(), super::MAX_CONTEXTS);
    }

    #[test]
    fn context_pool_retires_the_least_recently_probed_view() {
        // Views 0..=MAX_CONTEXTS over distinct relations, each its own
        // context; `probe(i, goal)` decides a fresh goal against view i.
        let mut cat = Catalog::new();
        let mut views = Vec::new();
        for i in 0..=super::MAX_CONTEXTS {
            let rel = cat.relation(&format!("S{i}"), &["A", "B"]).unwrap();
            let ab = cat.scheme(&["A", "B"]).unwrap();
            let name = cat.fresh_relation(&format!("w{i}"), ab);
            views.push(View::from_exprs(vec![(viewcap_expr::Expr::rel(rel), name)], &cat).unwrap());
        }
        let engine = Engine::new();
        let probe = |i: usize, goal: &str| {
            let goal = goal.replace('S', &format!("S{i}"));
            let goal = Query::from_expr(parse_expr(&goal, &cat).unwrap(), &cat);
            let check = Check::Member {
                view: views[i].clone(),
                goal,
            };
            engine.decide(&check, &cat).unwrap();
            engine.enum_stats().contexts
        };
        for i in 0..super::MAX_CONTEXTS {
            probe(i, "pi{A}(S)");
        }
        // Re-probing view 0 makes view 1 the least recently used, so the
        // next new view retires view 1 and view 0 stays live.
        let full = super::MAX_CONTEXTS as u64;
        assert_eq!(probe(0, "pi{B}(S)"), full, "view 0 reuses its context");
        assert_eq!(probe(super::MAX_CONTEXTS, "pi{A}(S)"), full + 1);
        assert_eq!(probe(0, "S"), full + 1, "view 0 was not retired");
        assert_eq!(probe(1, "pi{B}(S)"), full + 2, "view 1 was retired");
    }

    #[test]
    fn space_library_eliminates_cold_start_rebuilds() {
        let (cat, view, goals) = shared_goal_setup();
        let mut workload = Workload::new();
        for (i, goal) in goals.iter().enumerate() {
            workload.push(
                format!("goal {i}"),
                Check::Member {
                    view: view.clone(),
                    goal: goal.clone(),
                },
            );
        }
        let lib = Arc::new(Mutex::new(SpaceLibrary::new()));

        // Cold process: builds every level, harvests the grown space.
        let cold = Engine::from_config(crate::EngineConfig::new().shared_spaces(Arc::clone(&lib)))
            .unwrap();
        let first = cold.run_batch(&workload, &cat, 2);
        assert_eq!(cold.harvest_spaces(), 1, "one context, one snapshot");
        let cold_stats = cold.enum_stats();
        assert!(cold_stats.levels_rebuilt > 0);
        assert_eq!(cold_stats.levels_hydrated, 0);

        // Fresh process (fresh verdict cache, so everything recomputes)
        // warm-started from the library: zero rebuilt levels, zero fresh
        // enumeration work, identical witnesses.
        let warm = Engine::from_config(crate::EngineConfig::new().shared_spaces(Arc::clone(&lib)))
            .unwrap();
        let second = warm.run_batch(&workload, &cat, 2);
        let warm_stats = warm.enum_stats();
        assert_eq!(warm_stats.levels_rebuilt, 0, "stats: {warm_stats}");
        assert_eq!(warm_stats.levels_hydrated, cold_stats.levels_rebuilt);
        // Counters travel with the snapshot (extension must keep numbering
        // identically), so the warm run reports the same combos without
        // having re-examined any.
        assert_eq!(warm_stats.combos, cold_stats.combos);
        for (a, b) in first.results.iter().zip(&second.results) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(format!("{:?}", a.verdict), format!("{:?}", b.verdict));
        }
        // Nothing grew past the snapshot, so there is nothing to re-persist.
        assert_eq!(warm.harvest_spaces(), 0);
    }

    #[test]
    fn shared_contexts_keep_parallel_batches_deterministic() {
        let (cat, view, goals) = shared_goal_setup();
        let mut workload = Workload::new();
        for (i, goal) in goals.iter().enumerate() {
            workload.push(
                format!("goal {i}"),
                Check::Member {
                    view: view.clone(),
                    goal: goal.clone(),
                },
            );
        }
        let render = |jobs: usize| {
            let engine = Engine::new();
            let outcome = engine.run_batch(&workload, &cat, jobs);
            outcome
                .results
                .iter()
                .map(|r| match r {
                    Ok(d) => format!("{} {:?}", d.verdict.is_yes(), d.verdict.witness_atoms()),
                    Err(e) => format!("overflow {e}"),
                })
                .collect::<Vec<_>>()
        };
        let sequential = render(1);
        for jobs in [2, 4, 8] {
            assert_eq!(render(jobs), sequential, "jobs={jobs}");
        }
    }

    /// `(catalog, view)` with a redundant defining pair, for the
    /// normalization-path tests.
    fn norm_setup() -> (Catalog, View) {
        let mut cat = Catalog::new();
        cat.relation("R", &["A", "B", "C"]).unwrap();
        let ab = cat.scheme(&["A", "B"]).unwrap();
        let abc = cat.scheme(&["A", "B", "C"]).unwrap();
        let n1 = cat.fresh_relation("v1", abc);
        let n2 = cat.fresh_relation("v2", ab);
        let view = View::from_exprs(
            vec![
                (parse_expr("R", &cat).unwrap(), n1),
                (parse_expr("pi{A,B}(R)", &cat).unwrap(), n2),
            ],
            &cat,
        )
        .unwrap();
        (cat, view)
    }

    #[test]
    fn normalization_verdicts_cache_and_share_one_context() {
        let (cat, view) = norm_setup();
        let engine = Engine::new();

        let first = engine.simplify(&view, &cat).unwrap();
        assert!(!first.from_cache);
        let Verdict::Simplified(schemes) = &*first.verdict else {
            panic!("expected Simplified, got {:?}", first.verdict);
        };
        assert!(!schemes.is_empty());

        let again = engine.simplify(&view, &cat).unwrap();
        assert!(again.from_cache, "second simplify must be a cache hit");
        let Verdict::Simplified(cached) = &*again.verdict else {
            panic!("expected Simplified, got {:?}", again.verdict);
        };
        assert_eq!(cached, schemes);

        // `nonredundant` against the same view shares the pooled context
        // (it is a new cache key, though): pi{A,B}(R) is subsumed by R.
        let kept = engine.nonredundant(&view, &cat).unwrap();
        assert!(!kept.from_cache);
        let Verdict::Nonredundant(indices) = &*kept.verdict else {
            panic!("expected Nonredundant, got {:?}", kept.verdict);
        };
        assert_eq!(indices, &[0]);
        assert!(engine.nonredundant(&view, &cat).unwrap().from_cache);

        // Satellite 1: normalization enumeration shows up in the engine's
        // stats (no member/dominates checks ran, so it is all the
        // normalization pool).
        let stats = engine.enum_stats();
        assert_eq!(stats.contexts, 1, "simplify + nonredundant share");
        assert!(stats.probes > 0, "normalization probes counted");
        assert!(
            engine.cache_stats().to_string().starts_with("2 hit(s)"),
            "one hit per repeated call: {}",
            engine.cache_stats()
        );
    }

    #[test]
    fn reordered_views_share_the_context_but_not_the_entry() {
        // Nonredundant/Simplified payloads are positional, so a reordered
        // but fingerprint-equal view must recompute — through the shared
        // pooled context — and land on its own cache entry.
        let (cat, view) = norm_setup();
        let mut pairs = view.pairs().to_vec();
        pairs.swap(0, 1);
        let swapped = View::new(pairs, &cat).unwrap();
        assert_eq!(
            view_fingerprint(&view, &cat),
            view_fingerprint(&swapped, &cat),
            "test premise: order-free fingerprints agree"
        );
        assert_ne!(
            ordered_view_fingerprint(&view, &cat),
            ordered_view_fingerprint(&swapped, &cat),
            "test premise: ordered fingerprints differ"
        );

        let engine = Engine::new();
        let a = engine.nonredundant(&view, &cat).unwrap();
        let b = engine.nonredundant(&swapped, &cat).unwrap();
        assert!(!a.from_cache);
        assert!(!b.from_cache, "reordered view must not hit the entry");
        let (Verdict::Nonredundant(ka), Verdict::Nonredundant(kb)) = (&*a.verdict, &*b.verdict)
        else {
            panic!("expected Nonredundant verdicts");
        };
        // R subsumes pi{A,B}(R) in either order; greedy keeps R's slot.
        assert_eq!(ka, &[0]);
        assert_eq!(kb, &[1]);
        // One pooled context serves both orders (sorted-fps pool key).
        assert_eq!(engine.enum_stats().contexts, 1);
    }
}
