//! Concurrent-append stress test for the pile-backed verdict store.
//!
//! N worker threads — each its own [`Engine`] and its own [`PileStore`]
//! handle on one shared pile — decide *disjoint* verdict sets and append
//! their snapshots, several records per worker, while a [`PileReader`] in
//! the main thread polls the live file throughout. The claims under test:
//!
//! * a polling reader never observes a torn or partially hashed record —
//!   every surfaced payload is a complete, fully valid v2 cache file;
//! * no append is lost or interleaved: the final pile holds exactly the
//!   records the workers wrote;
//! * the final reload is **byte-identical** to [`merge_cache_bytes`] over
//!   the same snapshots — the pile is just a crash-safe spelling of
//!   merging the workers' caches.
//!
//! (The two-process variant of this test drives the real CLI binary; it
//! lives in the workspace root's `tests/pile_cli.rs`, next to the binary.)

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use viewcap_base::Catalog;
use viewcap_core::{Query, View};
use viewcap_engine::{
    merge_cache_bytes, save_cache, validate_cache_bytes, Check, Engine, EngineConfig, PileStore,
};
use viewcap_expr::parse_expr;
use viewcap_pile::PileReader;

const WORKERS: usize = 8;
const RECORDS_PER_WORKER: usize = 3;

/// A catalog declaring one relation per worker, so workers' fingerprints
/// are pairwise disjoint by construction.
fn fleet_catalog() -> Catalog {
    let mut cat = Catalog::new();
    for w in 0..WORKERS {
        cat.relation(&format!("S{w}"), &["A", "B", "C"]).unwrap();
    }
    cat
}

fn worker_view(cat: &mut Catalog, w: usize) -> View {
    let ab = cat.scheme(&["A", "B"]).unwrap();
    let name = cat.fresh_relation(&format!("view{w}"), ab);
    View::from_exprs(
        vec![(parse_expr(&format!("pi{{A,B}}(S{w})"), cat).unwrap(), name)],
        cat,
    )
    .unwrap()
}

/// The goal sources worker `w` decides in its `chunk`-th record.
fn goals(w: usize, chunk: usize) -> Vec<String> {
    match chunk {
        0 => vec![format!("pi{{A}}(S{w})"), format!("pi{{B}}(S{w})")],
        1 => vec![format!("pi{{A,B}}(S{w})"), format!("S{w}")],
        _ => vec![format!("pi{{A}}(S{w}) * pi{{B}}(S{w})")],
    }
}

#[test]
fn concurrent_appends_never_tear_and_reload_equals_merge() {
    let dir = std::env::temp_dir().join(format!("viewcap-pile-stress-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fleet.vcappile");
    let _ = std::fs::remove_file(&path);
    PileStore::open(&path).unwrap(); // create the file so the reader can open it

    let done = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<(usize, usize, Vec<u8>)>();

    let polled = std::thread::scope(|scope| {
        for w in 0..WORKERS {
            let tx = tx.clone();
            let path = &path;
            scope.spawn(move || {
                let mut cat = fleet_catalog();
                let view = worker_view(&mut cat, w);
                let mut store = PileStore::open(path).unwrap();
                for chunk in 0..RECORDS_PER_WORKER {
                    // A fresh engine per chunk, so each appended snapshot
                    // holds exactly this chunk's (disjoint) verdicts.
                    let engine = Engine::new();
                    for src in goals(w, chunk) {
                        let goal = Query::from_expr(parse_expr(&src, &cat).unwrap(), &cat);
                        engine
                            .decide(
                                &Check::Member {
                                    view: view.clone(),
                                    goal,
                                },
                                &cat,
                            )
                            .unwrap();
                    }
                    let bytes = save_cache(engine.cache(), &cat);
                    store.append_cache(engine.cache(), &cat).unwrap();
                    tx.send((w, chunk, bytes)).unwrap();
                }
            });
        }
        drop(tx);

        // The reader thread polls the live pile for the whole run. Every
        // record it surfaces must be complete and parse as a valid cache
        // file — a torn append must never be visible.
        let reader = scope.spawn(|| {
            let mut reader = PileReader::open(&path).unwrap();
            let mut seen = Vec::new();
            let mut last_end = 0u64;
            loop {
                let finished = done.load(Ordering::Acquire);
                for record in reader.poll().unwrap() {
                    assert!(
                        record.offset >= last_end,
                        "records must surface in file order"
                    );
                    last_end = record.offset;
                    validate_cache_bytes(&record.payload).unwrap_or_else(|e| {
                        panic!(
                            "reader observed an invalid record at {}: {e}",
                            record.offset
                        )
                    });
                    seen.push(record);
                }
                if finished {
                    return seen;
                }
                std::thread::yield_now();
            }
        });

        // Collect every worker's snapshot; the channel closing means all
        // workers finished their appends.
        let mut snapshots: Vec<(usize, usize, Vec<u8>)> = rx.iter().collect();
        done.store(true, Ordering::Release);
        let polled = reader.join().unwrap();
        snapshots.sort_by_key(|&(w, chunk, _)| (w, chunk));
        (snapshots, polled)
    });
    let (snapshots, polled) = polled;

    assert_eq!(snapshots.len(), WORKERS * RECORDS_PER_WORKER);
    assert_eq!(
        polled.len(),
        WORKERS * RECORDS_PER_WORKER,
        "every append must surface exactly once"
    );

    // Every polled payload is one of the appended snapshots, byte-for-byte
    // (no interleaving of two workers' bytes).
    for record in &polled {
        assert!(
            snapshots.iter().any(|(_, _, s)| s == &record.payload),
            "polled record at {} matches no appended snapshot",
            record.offset
        );
    }

    // Final reload = CLI merge of the same inputs, byte-identical. The
    // workers' verdict sets are disjoint and merge output is sorted by
    // key (names re-interned over the sorted stream), so append order —
    // which the scheduler controls — cannot change the merged bytes.
    let mut store = PileStore::open(&path).unwrap();
    let (from_pile, report) = store.merged_bytes().unwrap();
    let inputs: Vec<Vec<u8>> = snapshots.into_iter().map(|(_, _, s)| s).collect();
    let (from_merge, _) = merge_cache_bytes(&inputs).unwrap();
    assert_eq!(
        from_pile, from_merge,
        "pile reload must be byte-identical to merging the same snapshots"
    );
    assert_eq!(report.inputs, WORKERS * RECORDS_PER_WORKER);
    assert_eq!(report.replaced, 0, "disjoint sets never collide");

    // And the loaded cache actually answers: hits for every worker's goals.
    let warmed = store.load(None).unwrap();
    let cache_entries = warmed.stats().entries;
    let engine = Engine::from_config(EngineConfig::new().shared_cache(Arc::new(warmed))).unwrap();
    let mut cat = fleet_catalog();
    for w in 0..WORKERS {
        let view = worker_view(&mut cat, w);
        for chunk in 0..RECORDS_PER_WORKER {
            for src in goals(w, chunk) {
                let goal = Query::from_expr(parse_expr(&src, &cat).unwrap(), &cat);
                let d = engine
                    .decide(
                        &Check::Member {
                            view: view.clone(),
                            goal,
                        },
                        &cat,
                    )
                    .unwrap();
                assert!(d.from_cache, "warmed pile must answer {src} from cache");
            }
        }
    }
    assert_eq!(
        cache_entries,
        engine.cache_stats().entries,
        "pure hits: nothing recomputed, nothing inserted"
    );
}
