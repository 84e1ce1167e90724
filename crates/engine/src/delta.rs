//! Incremental re-checking: delta workloads over an evolving catalog.
//!
//! The decision procedures are one-shot, but real catalogs evolve: one
//! view's defining query is edited and everything else stands. A
//! [`DeltaWorkload`] keeps a *standing* workload of checks together with
//! their last decisions and, per request, the canonical fingerprints of the
//! views it touches. When a view is edited
//! ([`DeltaWorkload::replace_views`]), only the requests whose dependency
//! set contains the edited view are invalidated; [`DeltaWorkload::run`]
//! re-poses exactly those to the engine (where the content-addressed
//! verdict cache may *still* answer some of them — e.g. an edit that was
//! reverted) and reuses every retained decision verbatim.
//!
//! **Correctness.** Fingerprints are content hashes, so a retained decision
//! can only be wrong if an unedited request's answer changed — impossible,
//! since its operand views (and hence the capacity questions they pose) are
//! untouched. Two distinct views may share a fingerprint (equivalent
//! defining-query multisets); replacement therefore matches operands by
//! fingerprint *and* view schema, so editing one of two equivalent views
//! never rewrites checks against the other. The differential conformance
//! suite (`tests/delta_conformance.rs`) asserts byte-identical agreement
//! with cold full re-runs across randomized edit sequences.

use crate::cache::CacheKey;
use crate::engine::{Decision, Engine};
use crate::fingerprint::{view_fingerprint, Fingerprint};
use crate::verdict::CheckKind;
use crate::workload::{Check, Request, Workload};
use std::collections::HashMap;
use viewcap_base::Catalog;
use viewcap_core::View;
use viewcap_obs as obs;
use viewcap_template::SearchOverflow;

/// Standing checks invalidated by view edits (telemetry; live only
/// while enabled).
static DELTA_INVALIDATED: obs::Counter = obs::Counter::new("engine.delta.invalidated");

/// One standing request: the labeled check, its cache key, the fingerprints
/// of the views it touches, and its retained decision (`None` = dirty).
struct Standing {
    request: Request,
    key: CacheKey,
    view_deps: Vec<Fingerprint>,
    decision: Option<Result<Decision, SearchOverflow>>,
}

/// Summary of one [`DeltaWorkload::run`].
#[derive(Debug)]
pub struct DeltaOutcome {
    /// Per-request outcomes, positionally aligned with the standing
    /// workload. `Err` means the bounded search overflowed.
    pub results: Vec<Result<Decision, SearchOverflow>>,
    /// Standing requests.
    pub total: usize,
    /// Requests whose retained decision was reused without re-posing.
    pub reused: usize,
    /// Requests re-posed to the engine (dirty or never decided).
    pub recomputed: usize,
    /// Standing positions of the re-posed requests, ascending. Every other
    /// entry of `results` is the retained decision that position held
    /// before the run, unchanged — so a caller that kept a rendering per
    /// position (the scenario runner's stored report lines) only has to
    /// refresh these.
    pub recomputed_at: Vec<usize>,
    /// Of the re-posed distinct classes, how many the verdict cache still
    /// answered (e.g. a reverted edit, or cross-view sharing).
    pub cache_hits: usize,
    /// Distinct classes the engine actually computed.
    pub executed: usize,
}

/// A standing workload with fingerprint-tracked dependencies and retained
/// decisions, supporting catalog edits at the view level.
#[derive(Default)]
pub struct DeltaWorkload {
    standing: Vec<Standing>,
    /// `(cache key, label)` → standing indices, so `push_decided` upserts
    /// in O(1) instead of scanning the workload (which would make feeding
    /// an n-check batch O(n²)). Multiple indices under one key only when
    /// fingerprint-equal but distinct views share a label — disambiguated
    /// by operand schemas at lookup.
    index: HashMap<(CacheKey, String), Vec<usize>>,
}

/// The fingerprints of every view a check touches (its dependency set).
fn view_deps(check: &Check, catalog: &Catalog) -> Vec<Fingerprint> {
    check
        .views()
        .map(|view| view_fingerprint(view, catalog))
        .collect()
}

/// Does `operand` denote exactly the view `target`? Fingerprint equality
/// pins the defining-query multiset; schema equality pins *which* view.
fn same_view(operand: &View, target_fp: Fingerprint, target: &View, catalog: &Catalog) -> bool {
    view_fingerprint(operand, catalog) == target_fp && operand.schema() == target.schema()
}

/// Same-kind checks over the same concrete views (by schema; the shared
/// cache key already pins the semantic content). Equivalence is matched in
/// either orientation, mirroring its orientation-free key.
fn same_operands(a: &Check, b: &Check) -> bool {
    let schemas = |c| Check::views(c).map(View::schema);
    a.kind() == b.kind()
        && (schemas(a).eq(schemas(b))
            || (a.kind() == CheckKind::Equivalent && schemas(a).eq(schemas(b).rev())))
}

impl DeltaWorkload {
    /// Empty standing workload.
    pub fn new() -> Self {
        DeltaWorkload::default()
    }

    /// Number of standing requests.
    pub fn len(&self) -> usize {
        self.standing.len()
    }

    /// Is the standing workload empty?
    pub fn is_empty(&self) -> bool {
        self.standing.is_empty()
    }

    /// The standing requests, in submission order.
    pub fn requests(&self) -> impl ExactSizeIterator<Item = &Request> + '_ {
        self.standing.iter().map(|s| &s.request)
    }

    /// Clone the standing requests into a plain [`Workload`] — what a cold
    /// engine would be asked; the conformance baseline.
    pub fn to_workload(&self) -> Workload {
        Workload {
            requests: self.requests().cloned().collect(),
        }
    }

    /// Index of the standing request that poses *the same question the
    /// same way*: equal cache key, equal operand views (by schema — a
    /// fingerprint-equal but distinct view is a different question for
    /// editing purposes), and equal label. Anything looser would silently
    /// drop user-posed checks from the standing workload.
    fn position_of(&self, key: &CacheKey, check: &Check, label: &str) -> Option<usize> {
        self.index
            .get(&(*key, label.to_owned()))?
            .iter()
            .copied()
            .find(|&i| same_operands(&self.standing[i].request.check, check))
    }

    fn index_insert(&mut self, key: CacheKey, label: &str, i: usize) {
        self.index
            .entry((key, label.to_owned()))
            .or_default()
            .push(i);
    }

    fn index_remove(&mut self, key: CacheKey, label: &str, i: usize) {
        if let Some(slots) = self.index.get_mut(&(key, label.to_owned())) {
            slots.retain(|&j| j != i);
        }
    }

    /// Append an undecided check; it will compute on the next
    /// [`DeltaWorkload::run`]. Returns its index.
    pub fn push(&mut self, label: impl Into<String>, check: Check, catalog: &Catalog) -> usize {
        self.push_inner(label.into(), check, None, catalog)
    }

    /// Append a check that was already decided (e.g. by
    /// [`Engine::decide`]), seeding its retained decision so `run` will not
    /// re-pose it. If an *identical* standing request exists (same key,
    /// same operand views, same label), its decision is refreshed in place
    /// instead. Returns the index.
    pub fn push_decided(
        &mut self,
        label: impl Into<String>,
        check: Check,
        decision: Decision,
        catalog: &Catalog,
    ) -> usize {
        let label = label.into();
        let key = Engine::cache_key(&check, catalog);
        if let Some(i) = self.position_of(&key, &check, &label) {
            self.standing[i].decision = Some(Ok(decision));
            return i;
        }
        self.push_inner(label, check, Some(Ok(decision)), catalog)
    }

    fn push_inner(
        &mut self,
        label: String,
        check: Check,
        decision: Option<Result<Decision, SearchOverflow>>,
        catalog: &Catalog,
    ) -> usize {
        let key = Engine::cache_key(&check, catalog);
        let deps = view_deps(&check, catalog);
        let i = self.standing.len();
        self.index_insert(key, &label, i);
        self.standing.push(Standing {
            request: Request { label, check },
            key,
            view_deps: deps,
            decision,
        });
        i
    }

    /// Apply catalog edits: each `(old, new)` pair in `edits` says the view
    /// `old` (typically with one defining query added, removed, or
    /// replaced) becomes `new`. Every standing request that touches an
    /// `old` — found by fingerprint dependency tracking, confirmed by
    /// schema — has that operand swapped for `new` and its retained
    /// decision invalidated. A single `edit` is a one-pair call; a `txn`
    /// passes all its pairs, so the whole transaction is one sweep that
    /// invalidates each touched request once even when several edits hit
    /// it. Per request the pairs apply *in order* — an edit whose `old` is
    /// a previous edit's `new` composes exactly as sequential one-pair
    /// calls would — so verdicts and witnesses after the next run are
    /// byte-identical to the sequential path (the txn differential suite
    /// pins this); only the invalidation accounting is batched. Returns how
    /// many requests were invalidated.
    pub fn replace_views(&mut self, edits: &[(View, View)], catalog: &Catalog) -> usize {
        if edits.is_empty() {
            return 0;
        }
        let fps: Vec<Fingerprint> = edits
            .iter()
            .map(|(old, _)| view_fingerprint(old, catalog))
            .collect();
        let mut invalidated = 0;
        for i in 0..self.standing.len() {
            let s = &mut self.standing[i];
            let mut touched = false;
            for ((old, new), &old_fp) in edits.iter().zip(&fps) {
                // Fast path: fingerprint dependency tracking (recomputed
                // after a hit, since an earlier pair may have swapped an
                // operand this pair's `old` now matches).
                if !s.view_deps.contains(&old_fp) {
                    continue;
                }
                let mut hit = false;
                for view in s.request.check.views_mut() {
                    if same_view(view, old_fp, old, catalog) {
                        *view = new.clone();
                        hit = true;
                    }
                }
                if hit {
                    s.view_deps = view_deps(&s.request.check, catalog);
                    touched = true;
                }
            }
            if touched {
                let old_key = s.key;
                let new_key = Engine::cache_key(&s.request.check, catalog);
                let label = s.request.label.clone();
                s.key = new_key;
                s.decision = None;
                invalidated += 1;
                if new_key != old_key {
                    self.index_remove(old_key, &label, i);
                    self.index_insert(new_key, &label, i);
                }
            }
        }
        DELTA_INVALIDATED.add(invalidated as u64);
        obs::instant(
            "engine.delta.replace_views",
            "engine",
            &[
                ("edits", edits.len() as u64),
                ("invalidated", invalidated as u64),
            ],
        );
        invalidated
    }

    /// Decide the standing workload: re-pose only the dirty requests as one
    /// batch (deduplicated, cache-resolved, parallel across `jobs`
    /// workers), reuse every retained decision, and return the full
    /// positionally-aligned picture.
    pub fn run(&mut self, engine: &Engine, catalog: &Catalog, jobs: usize) -> DeltaOutcome {
        let dirty: Vec<usize> = (0..self.standing.len())
            .filter(|&i| self.standing[i].decision.is_none())
            .collect();

        let checks: Vec<&Check> = dirty
            .iter()
            .map(|&i| &self.standing[i].request.check)
            .collect();
        let batch = engine.run_checks(&checks, catalog, jobs);
        for (&i, result) in dirty.iter().zip(batch.results) {
            self.standing[i].decision = Some(result);
        }

        let results = self
            .standing
            .iter()
            .map(|s| s.decision.clone().expect("every request decided by run"))
            .collect();
        DeltaOutcome {
            results,
            total: self.standing.len(),
            reused: self.standing.len() - dirty.len(),
            recomputed: dirty.len(),
            recomputed_at: dirty,
            cache_hits: batch.cache_hits,
            executed: batch.executed,
        }
    }
}
