//! # viewcap-engine
//!
//! A concurrent batch decision engine over the Connors decision procedures
//! (capacity membership, view dominance, view equivalence).
//!
//! The paper's procedures are one-shot: every call re-derives template
//! homomorphisms from scratch. Real workloads ask many related questions —
//! audits sweep one view against many goals, equivalence maintenance
//! rechecks the same pairs — so this crate adds the memoization layer that
//! symbolic equivalence checkers (e.g. EQUITAS) use to scale: normalize to
//! a canonical form *first*, then decide per canonical class.
//!
//! * [`fingerprint`] — stable 128-bit keys from reduced canonical
//!   templates, catalog-content-addressed: invariant under catalog
//!   declaration order and defining-query reordering, keyed by relation
//!   content (name + scheme);
//! * [`cache`] — the verdict cache memoizing outcomes *with their
//!   constructive witnesses*: one lock, optionally bounded with exact LRU
//!   eviction;
//! * [`lru`] — the exact least-recently-used map behind the verdict
//!   cache, the engine's context pools and `viewcap serve`'s warm
//!   catalogs;
//! * [`workload`] / [`engine`] — batches of labeled checks, deduplicated
//!   by fingerprint and executed across `std::thread::scope` workers with
//!   deterministic, submission-ordered reassembly;
//! * [`delta`] — incremental re-checking: a standing workload that, after
//!   a catalog edit (one view's defining query added / removed /
//!   replaced), invalidates exactly the affected decisions via fingerprint
//!   dependency tracking and re-poses only those;
//! * [`persist`] — a versioned, checksummed, name-addressed encoding of
//!   the verdict cache, witnesses included, so warm caches survive across
//!   batches, processes, and catalog declaration orders — plus merging
//!   and compacting encoded caches;
//! * [`pilestore`] — the one durable store: a crash-safe, append-only pile
//!   carrying encoded caches and candidate-space libraries as records.
//!
//! ```
//! use viewcap_base::Catalog;
//! use viewcap_core::{Query, View};
//! use viewcap_engine::{Check, Engine, Workload};
//! use viewcap_expr::parse_expr;
//!
//! let mut cat = Catalog::new();
//! cat.relation("R", &["A", "B", "C"]).unwrap();
//! let ab = cat.scheme(&["A", "B"]).unwrap();
//! let bc = cat.scheme(&["B", "C"]).unwrap();
//! let (l1, l2) = (cat.fresh_relation("l1", ab), cat.fresh_relation("l2", bc));
//! let view = View::from_exprs(
//!     vec![
//!         (parse_expr("pi{A,B}(R)", &cat).unwrap(), l1),
//!         (parse_expr("pi{B,C}(R)", &cat).unwrap(), l2),
//!     ],
//!     &cat,
//! )
//! .unwrap();
//!
//! let mut workload = Workload::new();
//! for goal in ["pi{A}(R)", "pi{A,B}(R) * pi{B,C}(R)", "R", "pi{A}(R)"] {
//!     workload.push(
//!         goal,
//!         Check::Member {
//!             view: view.clone(),
//!             goal: Query::from_expr(parse_expr(goal, &cat).unwrap(), &cat),
//!         },
//!     );
//! }
//!
//! let engine = Engine::new();
//! let outcome = engine.run_batch(&workload, &cat, 4);
//! let yes: Vec<bool> = outcome
//!     .results
//!     .iter()
//!     .map(|r| r.as_ref().unwrap().verdict.is_yes())
//!     .collect();
//! assert_eq!(yes, [true, true, false, true]);
//! assert_eq!(outcome.distinct, 3); // the repeated goal deduplicated
//! assert!(engine.run_batch(&workload, &cat, 4).executed == 0); // warm
//! ```

pub mod cache;
pub mod config;
pub mod delta;
pub mod engine;
pub mod fingerprint;
pub mod lru;
pub mod persist;
pub mod pilestore;
pub mod spacestore;
pub mod verdict;
pub mod workload;

pub use cache::{CacheKey, CacheStats, VerdictCache};
pub use config::{ConfigError, EngineConfig, Session};
pub use delta::{DeltaOutcome, DeltaWorkload};
pub use engine::{effective_jobs, BatchOutcome, Decision, Engine, EnumStats};
pub use fingerprint::{
    ordered_view_fingerprint, query_fingerprint, view_fingerprint, view_query_fingerprints,
    Fingerprint,
};
pub use lru::Lru;
pub use persist::{
    compact_cache_bytes, load_cache, merge_cache_bytes, save_cache, validate_cache_bytes,
    CompactReport, ImportTables, MergeReport, CACHE_FORMAT,
};
pub use pilestore::{PileRecords, PileStore, PileStoreError, CACHE_RECORD_KIND, SPACE_RECORD_KIND};
pub use spacestore::{SpaceLibrary, SPACE_LIB_FORMAT};
pub use verdict::{CheckKind, Verdict};
pub use viewcap_template::CodecError;
pub use workload::{Check, Request, Workload};
