//! The verdict cache, optionally bounded.
//!
//! One [`Lru`] keyed by `(kind, fingerprint, fingerprint)` behind one lock,
//! with its [`CacheStats`] under the same lock. Nothing contends for it:
//! [`crate::Engine::run_batch`] resolves and publishes on the calling
//! thread, and its workers only compute.
//!
//! **Boundedness.** A cache built with [`VerdictCache::bounded`] holds at
//! most that many entries. Every hit and every store marks its entry most
//! recently used; when an insert pushes the count past capacity, the exact
//! least-recently-used entry is evicted. All counters are exact: hits and
//! misses are counted at lookup, evictions at removal, whatever the
//! capacity.
//!
//! Soundness: equal fingerprints imply isomorphic reduced templates *of
//! equal relation content* (see [`crate::fingerprint`]), and every
//! memoized procedure is invariant under template isomorphism, so a cached
//! verdict is *the* verdict for every request that maps to the same key.
//! Eviction therefore never changes answers — only how often they must be
//! recomputed. Fingerprints are catalog-content-addressed, so one cache
//! serves every catalog declaring the same relations, whatever their
//! declaration order; an entry loaded from disk carries its file's name
//! tables ([`crate::persist::ImportTables`]) and is translated into the
//! consumer's catalog on first hit (see `foreign` on [`Entry`]).

use crate::fingerprint::Fingerprint;
use crate::lru::Lru;
use crate::persist::ImportTables;
use crate::verdict::{CheckKind, Verdict};
use std::fmt;
use std::sync::{Arc, Mutex};
use viewcap_obs as obs;

/// Telemetry mirrors of the [`CacheStats`] counters (live only while
/// `viewcap_obs::set_enabled(true)`), plus an instant trace event per
/// eviction so cache pressure is visible on the timeline.
static CACHE_HIT: obs::Counter = obs::Counter::new("engine.cache.hit");
static CACHE_MISS: obs::Counter = obs::Counter::new("engine.cache.miss");
static CACHE_EVICT: obs::Counter = obs::Counter::new("engine.cache.eviction");

/// Cache key: procedure plus the canonical fingerprints of its operands.
/// Ordered by `(kind, left, right)`, the order cache files list entries in.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CacheKey {
    /// Which procedure.
    pub kind: CheckKind,
    /// Left operand (the view; the dominator; the smaller-fingerprint side
    /// for the symmetric equivalence check).
    pub left: Fingerprint,
    /// Right operand (the goal query; the dominated view; the larger side).
    pub right: Fingerprint,
}

/// A cached verdict plus the positional fingerprint table of the view that
/// produced it (for witness-label remapping under query reordering).
#[derive(Clone, Debug)]
pub struct Entry {
    /// The memoized verdict.
    pub verdict: Arc<Verdict>,
    /// Ordered per-query fingerprints of the producing request's left view.
    pub left_query_fps: Arc<[Fingerprint]>,
    /// The name tables of the file this entry was loaded from, while its
    /// witness ids still index them rather than a live catalog (`None`: a
    /// native entry). The engine translates a foreign entry on first hit
    /// and replaces it; a foreign witness must never be rendered as-is.
    pub foreign: Option<Arc<ImportTables>>,
}

/// Counters for one cache (monotonic; snapshot via [`VerdictCache::stats`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries removed to respect the capacity bound.
    pub evictions: u64,
    /// Verdicts currently stored.
    pub entries: usize,
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hit(s), {} miss(es), {} cached verdict(s), {} eviction(s)",
            self.hits, self.misses, self.entries, self.evictions
        )
    }
}

/// The entries and their counters, under the cache's one lock.
#[derive(Default)]
struct Inner {
    entries: Lru<CacheKey, Entry>,
    /// Hits, misses and evictions; `entries` is filled in by
    /// [`VerdictCache::stats`].
    stats: CacheStats,
}

/// Fingerprint-keyed verdict store with optional capacity bound.
#[derive(Default)]
pub struct VerdictCache {
    inner: Mutex<Inner>,
    /// `None` = unbounded.
    max_entries: Option<usize>,
}

impl VerdictCache {
    /// Empty, unbounded cache.
    pub fn new() -> Self {
        VerdictCache::default()
    }

    /// Empty cache holding at most `max_entries` verdicts (`None` =
    /// unbounded). A bound of `Some(0)` is treated as `Some(1)`: the cache
    /// type has no "disabled" mode, and a single slot keeps the engine's
    /// bookkeeping uniform.
    pub fn bounded(max_entries: Option<usize>) -> Self {
        VerdictCache {
            max_entries: max_entries.map(|m| m.max(1)),
            ..VerdictCache::default()
        }
    }

    /// The configured capacity (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.max_entries
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("cache lock")
    }

    /// Look up a verdict, counting the hit or miss and marking the entry
    /// most recently used.
    pub fn get(&self, key: &CacheKey) -> Option<Entry> {
        let mut inner = self.lock();
        let found = inner.entries.get(key).cloned();
        if found.is_some() {
            CACHE_HIT.add(1);
            inner.stats.hits += 1;
        } else {
            CACHE_MISS.add(1);
            inner.stats.misses += 1;
        }
        found
    }

    /// Store a verdict (first writer wins; verdicts for a key are all
    /// semantically identical, so which one lands is immaterial). If the
    /// cache is bounded and now over capacity, the least-recently-used
    /// entries are evicted until the bound holds again.
    pub fn insert(&self, key: CacheKey, entry: Entry) {
        self.store(key, entry, false);
    }

    /// Store a verdict, overwriting any existing entry for the key. Used
    /// when a `foreign` entry has been translated into the live catalog:
    /// the translated entry must shadow the untranslated one.
    pub(crate) fn replace(&self, key: CacheKey, entry: Entry) {
        self.store(key, entry, true);
    }

    fn store(&self, key: CacheKey, entry: Entry, overwrite: bool) {
        let mut inner = self.lock();
        // Without `overwrite`, an existing entry only becomes most recent.
        if overwrite || inner.entries.get(&key).is_none() {
            inner.entries.insert(key, entry);
        }
        let max = self.max_entries.unwrap_or(usize::MAX);
        while inner.entries.len() > max {
            inner.entries.pop_lru();
            inner.stats.evictions += 1;
            CACHE_EVICT.add(1);
            let entries = inner.entries.len() as u64;
            obs::instant("engine.cache.evict", "cache", &[("entries", entries)]);
        }
    }

    /// Snapshot every entry, sorted by key — the deterministic iteration
    /// order used by cache persistence ([`crate::persist`]).
    pub fn snapshot(&self) -> Vec<(CacheKey, Entry)> {
        let mut out: Vec<(CacheKey, Entry)> = self
            .lock()
            .entries
            .iter()
            .map(|(key, entry)| (*key, entry.clone()))
            .collect();
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            entries: inner.entries.len(),
            ..inner.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u128) -> Fingerprint {
        crate::fingerprint::test_fingerprint(n)
    }

    fn key(kind: CheckKind, l: u128, r: u128) -> CacheKey {
        CacheKey {
            kind,
            left: fp(l),
            right: fp(r),
        }
    }

    fn entry() -> Entry {
        Entry {
            verdict: Arc::new(Verdict::Member(None)),
            left_query_fps: Arc::from([] as [Fingerprint; 0]),
            foreign: None,
        }
    }

    #[test]
    fn hit_miss_and_entry_counting() {
        let cache = VerdictCache::new();
        let key = key(CheckKind::Member, 1, 2);
        assert!(cache.get(&key).is_none());
        cache.insert(key, entry());
        assert!(cache.get(&key).is_some());
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.entries, stats.evictions),
            (1, 1, 1, 0)
        );
    }

    #[test]
    fn distinct_kinds_do_not_collide() {
        let cache = VerdictCache::new();
        let member = key(CheckKind::Member, 7, 9);
        let dominates = CacheKey {
            kind: CheckKind::Dominates,
            ..member
        };
        cache.insert(member, entry());
        assert!(cache.get(&dominates).is_none());
        assert!(cache.get(&member).is_some());
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        let cache = VerdictCache::bounded(Some(2));
        let (k1, k2, k3) = (
            key(CheckKind::Member, 1, 10),
            key(CheckKind::Member, 2, 20),
            key(CheckKind::Member, 3, 30),
        );
        cache.insert(k1, entry());
        cache.insert(k2, entry());
        // Touch k1 so k2 becomes the LRU victim.
        assert!(cache.get(&k1).is_some());
        cache.insert(k3, entry());
        assert!(cache.get(&k1).is_some(), "recently used survives");
        assert!(cache.get(&k2).is_none(), "LRU entry was evicted");
        assert!(cache.get(&k3).is_some());
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (2, 1));
    }

    #[test]
    fn capacity_one_holds_exactly_one_entry() {
        let cache = VerdictCache::bounded(Some(1));
        for n in 0..5u128 {
            cache.insert(key(CheckKind::Dominates, n, n), entry());
            assert_eq!(cache.stats().entries, 1);
        }
        assert_eq!(cache.stats().evictions, 4);
        // Only the last key survives.
        assert!(cache.get(&key(CheckKind::Dominates, 4, 4)).is_some());
    }

    #[test]
    fn reinserting_an_existing_key_does_not_grow_or_evict() {
        let cache = VerdictCache::bounded(Some(1));
        let k = key(CheckKind::Equivalent, 5, 6);
        cache.insert(k, entry());
        cache.insert(k, entry());
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (1, 0));
    }

    #[test]
    fn bounded_cache_evicts_like_a_reference_lru_list() {
        // The cache must agree with a literal LRU list at every step.
        let cap = 8usize;
        let cache = VerdictCache::bounded(Some(cap));
        let mut state: u64 = 0x2545_F491_4F6C_DD1D;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // The high bits: an LCG's low bits cycle with short periods.
            state >> 33
        };
        // `model` keeps keys in recency order, most recent last.
        let mut model: Vec<u128> = Vec::new();
        for _ in 0..2000 {
            let n = (next() % 32) as u128;
            let k = key(CheckKind::Member, n, n);
            if next() % 2 == 0 {
                let hit = cache.get(&k).is_some();
                assert_eq!(hit, model.contains(&n), "presence diverged on {n}");
                if hit {
                    model.retain(|&x| x != n);
                    model.push(n);
                }
            } else {
                cache.insert(k, entry());
                model.retain(|&x| x != n);
                model.push(n);
                if model.len() > cap {
                    model.remove(0);
                }
            }
            assert!(cache.stats().entries <= cap);
        }
        let present: std::collections::BTreeSet<u128> = cache
            .snapshot()
            .iter()
            .map(|(k, _)| k.left.as_u128())
            .collect();
        let expected: std::collections::BTreeSet<u128> = model.iter().copied().collect();
        assert_eq!(present, expected, "cache contents diverged from LRU model");
    }

    #[test]
    fn concurrent_lookups_keep_exact_counters_and_the_bound() {
        let cache = VerdictCache::bounded(Some(8));
        let (threads, rounds) = (4u128, 500u128);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let cache = &cache;
                scope.spawn(move || {
                    for n in 0..rounds {
                        let k = key(CheckKind::Member, (n * 7 + t) % 24, 0);
                        if cache.get(&k).is_none() {
                            cache.insert(k, entry());
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(u128::from(stats.hits + stats.misses), threads * rounds);
        assert!(stats.entries <= 8, "{stats}");
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let cache = VerdictCache::new();
        for n in [9u128, 3, 7, 1] {
            cache.insert(key(CheckKind::Member, n, n), entry());
        }
        let snap = cache.snapshot();
        assert_eq!(snap.len(), 4);
        let lefts: Vec<u128> = snap.iter().map(|(k, _)| k.left.as_u128()).collect();
        assert_eq!(lefts, vec![1, 3, 7, 9]);
    }
}
