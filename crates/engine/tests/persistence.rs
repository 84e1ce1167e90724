//! Verdict-cache persistence and eviction:
//!
//! * save → load round trips warm-hit every fingerprint, witnesses intact;
//! * corrupted / truncated / version-mismatched files are rejected with an
//!   error, never a panic;
//! * bounded caches stay correct (only slower), with exact hit/miss/
//!   eviction counters.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use viewcap_base::Catalog;
use viewcap_core::{Query, View};
use viewcap_engine::{
    compact_cache_bytes, load_cache, merge_cache_bytes, save_cache, BatchOutcome, Check,
    CodecError, Engine, EngineConfig, PileStore, VerdictCache, Workload,
};
use viewcap_gen::{random_query, random_view, random_world, WorldSpec};

/// A seeded mixed workload (as in the determinism suite, but smaller).
fn random_workload(seed: u64) -> (Catalog, Workload) {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = WorldSpec {
        attrs: 4,
        relations: 2,
        min_arity: 1,
        max_arity: 2,
    };
    let (mut cat, rels) = random_world(&mut rng, &spec);
    let views: Vec<View> = (0..2)
        .map(|_| random_view(&mut rng, &mut cat, &rels, 2, 2))
        .collect();
    let mut load = Workload::new();
    load.push(
        "equivalent",
        Check::Equivalent {
            left: views[0].clone(),
            right: views[1].clone(),
        },
    );
    load.push(
        "dominates",
        Check::Dominates {
            dominator: views[0].clone(),
            dominated: views[1].clone(),
        },
    );
    for (i, v) in views.iter().enumerate() {
        load.push(
            format!("member {i}"),
            Check::Member {
                view: v.clone(),
                goal: random_query(&mut rng, &cat, &rels, 2),
            },
        );
    }
    (cat, load)
}

fn signature(outcome: &BatchOutcome) -> Vec<Result<(bool, Option<usize>), String>> {
    outcome
        .results
        .iter()
        .map(|r| {
            r.as_ref()
                .map(|d| (d.verdict.is_yes(), d.verdict.witness_atoms()))
                .map_err(|e| e.to_string())
        })
        .collect()
}

#[test]
fn round_trip_warm_hits_every_fingerprint() {
    for seed in 0..6u64 {
        let (cat, load) = random_workload(seed);
        let engine = Engine::new();
        let cold = engine.run_batch(&load, &cat, 2);
        if cold.results.iter().any(|r| r.is_err()) {
            continue; // overflows are not cached; nothing to round-trip
        }

        let bytes = save_cache(engine.cache(), &cat);
        let loaded = load_cache(&bytes, None).expect("round trip");

        // Every saved fingerprint is present after the reload...
        for (key, entry) in engine.cache().snapshot() {
            let got = loaded.get(&key).expect("fingerprint survives the trip");
            assert_eq!(got.verdict.is_yes(), entry.verdict.is_yes());
            assert_eq!(got.verdict.witness_atoms(), entry.verdict.witness_atoms());
            assert_eq!(got.left_query_fps, entry.left_query_fps);
        }

        // ...and a fresh engine over the loaded cache computes nothing.
        let warm_engine =
            Engine::from_config(EngineConfig::new().shared_cache(Arc::new(loaded))).unwrap();
        let warm = warm_engine.run_batch(&load, &cat, 2);
        assert_eq!(warm.executed, 0, "seed {seed}: warm run recomputed");
        assert_eq!(warm.cache_hits, warm.distinct);
        assert_eq!(signature(&cold), signature(&warm));
        for d in warm.results.iter().flatten() {
            assert!(d.from_cache);
        }
    }
}

#[test]
fn saved_files_are_deterministic() {
    let (cat, load) = random_workload(3);
    let engine = Engine::new();
    engine.run_batch(&load, &cat, 1);
    let a = save_cache(engine.cache(), &cat);
    // Re-running the same (now warm) workload must not change the bytes.
    engine.run_batch(&load, &cat, 4);
    let b = save_cache(engine.cache(), &cat);
    assert_eq!(a, b);
}

#[test]
fn every_truncation_is_rejected_cleanly() {
    let (cat, load) = random_workload(2);
    let engine = Engine::new();
    engine.run_batch(&load, &cat, 1);
    let bytes = save_cache(engine.cache(), &cat);
    assert!(engine.cache().stats().entries > 0);

    for len in 0..bytes.len() {
        assert!(
            load_cache(&bytes[..len], None).is_err(),
            "truncation to {len} bytes was accepted"
        );
    }
    // The untruncated file still loads.
    assert!(load_cache(&bytes, None).is_ok());
}

#[test]
fn corrupted_payload_bytes_are_rejected_cleanly() {
    let (cat, load) = random_workload(4);
    let engine = Engine::new();
    engine.run_batch(&load, &cat, 1);
    let bytes = save_cache(engine.cache(), &cat);

    // Flip every byte with each of three masks: the checksum must catch
    // every payload flip, and a header flip must be rejected too.
    for pos in 0..bytes.len() {
        for flip in [0x01u8, 0x80, 0xFF] {
            let mut bad = bytes.clone();
            bad[pos] ^= flip;
            let result = load_cache(&bad, None);
            if pos >= 20 {
                assert!(
                    matches!(result, Err(CodecError::ChecksumMismatch { .. })),
                    "payload flip {flip:#x} at {pos} was not caught"
                );
            } else {
                assert!(
                    result.is_err(),
                    "header flip {flip:#x} at {pos} was accepted"
                );
            }
        }
    }
}

#[test]
fn bad_magic_and_version_are_rejected() {
    let cat = Catalog::new();
    let engine = Engine::new();
    let bytes = save_cache(engine.cache(), &cat);

    let mut wrong_magic = bytes.clone();
    wrong_magic[0] ^= 1;
    assert!(matches!(
        load_cache(&wrong_magic, None),
        Err(CodecError::BadMagic { .. })
    ));

    let mut future_version = bytes.clone();
    future_version[8] = 0xFF;
    assert!(matches!(
        load_cache(&future_version, None),
        Err(CodecError::VersionMismatch { .. })
    ));

    assert!(matches!(
        load_cache(&[], None),
        Err(CodecError::BadMagic { .. })
    ));
}

#[test]
fn loading_into_a_bounded_cache_respects_the_bound() {
    let (cat, load) = random_workload(5);
    let engine = Engine::new();
    engine.run_batch(&load, &cat, 1);
    let saved_entries = engine.cache().stats().entries;
    assert!(saved_entries >= 2);

    let bytes = save_cache(engine.cache(), &cat);
    let bounded = load_cache(&bytes, Some(1)).expect("load");
    let stats = bounded.stats();
    assert_eq!(stats.entries, 1);
    // Surplus entries are skipped during the load, not insert-then-evicted.
    assert_eq!(stats.evictions, 0);
    // The kept entry is the last of the sorted stream.
    let last_key = engine.cache().snapshot().last().unwrap().0;
    assert!(bounded.get(&last_key).is_some());
}

/// A file with an *older* version is rejected with an error that names
/// both versions and points at regeneration — persisted version-1 caches
/// were keyed by catalog declaration order and must not load silently.
#[test]
fn old_version_files_are_rejected_with_a_migration_hint() {
    // A plausible version-1 header: magic, version 1, bogus checksum.
    let mut v1 = Vec::new();
    v1.extend_from_slice(b"VCAPCACH");
    v1.extend_from_slice(&1u32.to_le_bytes());
    v1.extend_from_slice(&0u64.to_le_bytes());
    v1.extend_from_slice(&0u64.to_le_bytes()); // empty v1 payload
    let err = match load_cache(&v1, None) {
        Ok(_) => panic!("version 1 must not load"),
        Err(e) => e,
    };
    match &err {
        CodecError::VersionMismatch {
            found, expected, ..
        } => {
            assert_eq!((*found, *expected), (1, 2));
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
    let msg = err.to_string();
    assert!(msg.contains("version 1"), "{msg}");
    assert!(msg.contains("version 2"), "{msg}");
    assert!(
        msg.contains("delete the file"),
        "no migration hint in: {msg}"
    );

    // Merging rejects version skew the same way, producing no output.
    let cat = Catalog::new();
    let good = save_cache(Engine::new().cache(), &cat);
    assert!(matches!(
        merge_cache_bytes(&[good, v1]),
        Err(CodecError::VersionMismatch { found: 1, .. })
    ));
}

/// Merging two workers' caches yields one file that warm-starts both
/// workloads; merging a file with itself replaces rather than duplicates.
#[test]
fn merged_caches_warm_start_both_workloads() {
    let (cat, load_a) = random_workload(0);
    // Same catalog content (same seed ⇒ same declarations), different
    // checks: reuse the generator with a different slice of the workload.
    let (_, load_b) = random_workload(0);
    let load_b = Workload {
        requests: load_b.requests.into_iter().take(2).collect(),
    };

    let worker_a = Engine::new();
    let a = worker_a.run_batch(&load_a, &cat, 1);
    let worker_b = Engine::new();
    let b = worker_b.run_batch(&load_b, &cat, 1);
    if a.results.iter().any(|r| r.is_err()) || b.results.iter().any(|r| r.is_err()) {
        return; // overflows are not cached; nothing to merge
    }

    let bytes_a = save_cache(worker_a.cache(), &cat);
    let bytes_b = save_cache(worker_b.cache(), &cat);
    let (merged, report) = merge_cache_bytes(&[bytes_a.clone(), bytes_b]).expect("merge");
    assert_eq!(report.inputs, 2);
    assert_eq!(report.entries_out, report.entries_in - report.replaced);

    let third = Engine::from_config(EngineConfig::new().shared_cache(Arc::new(
        load_cache(&merged, None).expect("merged cache loads"),
    )))
    .unwrap();
    let warm_a = third.run_batch(&load_a, &cat, 1);
    let warm_b = third.run_batch(&load_b, &cat, 1);
    assert_eq!(warm_a.executed + warm_b.executed, 0, "merged cache is warm");
    assert_eq!(signature(&warm_a), signature(&a));
    assert_eq!(signature(&warm_b), signature(&b));

    // Self-merge: every colliding key replaces, nothing duplicates.
    let (self_merged, report) =
        merge_cache_bytes(&[bytes_a.clone(), bytes_a.clone()]).expect("self merge");
    assert_eq!(report.entries_out * 2, report.entries_in);
    assert_eq!(report.replaced, report.entries_out);
    // And the self-merge is byte-identical to a compaction of the single
    // file (same entries, same canonical layout).
    let (compacted, _) = compact_cache_bytes(&bytes_a, None).expect("compact");
    assert_eq!(self_merged, compacted);
}

/// Corrupt or truncated merge inputs are rejected before any output
/// exists, and a pile import of one leaves the pile byte-identical.
#[test]
fn corrupt_merge_inputs_cannot_poison_an_output_file() {
    let (cat, load) = random_workload(6);
    let engine = Engine::new();
    engine.run_batch(&load, &cat, 1);
    let good = save_cache(engine.cache(), &cat);

    let mut corrupt = good.clone();
    let flip = corrupt.len() - 9;
    corrupt[flip] ^= 0x10;
    assert!(matches!(
        merge_cache_bytes(&[good.clone(), corrupt]),
        Err(CodecError::ChecksumMismatch { .. })
    ));
    let truncated = good[..good.len() - 3].to_vec();
    assert!(merge_cache_bytes(&[truncated]).is_err());

    // The CLI-level contract: a pile holding a good record survives a
    // failed import byte-for-byte, because nothing is appended unless the
    // input parsed.
    let path = std::env::temp_dir().join(format!("viewcap-merge-{}.vcappile", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut store = PileStore::open(&path).expect("open pile");
    store.append_cache_bytes(&good).expect("first import");
    let before = std::fs::read(&path).expect("pile readable");
    assert!(store.append_cache_bytes(&good[..good.len() - 3]).is_err());
    assert_eq!(std::fs::read(&path).expect("pile intact"), before);
    let _ = std::fs::remove_file(&path);
}

/// Compaction preserves content, is idempotent, and applies the same
/// keep-the-tail bound as a bounded load.
#[test]
fn compaction_preserves_content_and_bounds() {
    let (cat, load) = random_workload(3);
    let engine = Engine::new();
    engine.run_batch(&load, &cat, 1);
    let bytes = save_cache(engine.cache(), &cat);
    let entries = engine.cache().stats().entries;
    assert!(entries >= 2);

    let (compacted, report) = compact_cache_bytes(&bytes, None).expect("compact");
    assert_eq!((report.entries_in, report.entries_out), (entries, entries));
    let (twice, _) = compact_cache_bytes(&compacted, None).expect("recompact");
    assert_eq!(compacted, twice, "compaction is idempotent");

    // Content round-trips: the compacted file warm-starts the workload.
    let warm = Engine::from_config(
        EngineConfig::new().shared_cache(Arc::new(load_cache(&compacted, None).expect("load"))),
    )
    .unwrap();
    assert_eq!(warm.run_batch(&load, &cat, 1).executed, 0);

    // Bounded: keep only the last entry of the sorted stream.
    let (bounded, report) = compact_cache_bytes(&bytes, Some(1)).expect("bounded compact");
    assert_eq!(report.entries_out, 1);
    let loaded = load_cache(&bounded, None).expect("load bounded");
    assert_eq!(loaded.stats().entries, 1);
    let last_key = engine.cache().snapshot().last().unwrap().0;
    assert!(loaded.get(&last_key).is_some());
}

/// Normalization verdicts (`Simplified` schemes, `Nonredundant` indices)
/// survive the save → load round trip, including translation of scheme
/// attribute ids into a catalog declaring the same relations in a
/// different order.
#[test]
fn normalization_verdicts_round_trip_across_declaration_orders() {
    let build = |flip: bool| {
        let mut cat = Catalog::new();
        if flip {
            cat.relation("S", &["C", "D"]).unwrap();
            cat.relation("R", &["C", "B", "A"]).unwrap();
        } else {
            cat.relation("R", &["A", "B", "C"]).unwrap();
            cat.relation("S", &["C", "D"]).unwrap();
        }
        let abcd = cat.scheme(&["A", "B", "C", "D"]).unwrap();
        let ab = cat.scheme(&["A", "B"]).unwrap();
        let n1 = cat.fresh_relation("v1", abcd);
        let n2 = cat.fresh_relation("v2", ab);
        let q = |src: &str| Query::from_expr(viewcap_expr::parse_expr(src, &cat).unwrap(), &cat);
        let view = View::new(vec![(q("R * pi{C,D}(S)"), n1), (q("pi{A,B}(R)"), n2)], &cat).unwrap();
        (cat, view)
    };

    let (cat, view) = build(false);
    let engine = Engine::new();
    let simplified = engine.simplify(&view, &cat).unwrap();
    let kept = engine.nonredundant(&view, &cat).unwrap();
    assert!(!simplified.from_cache && !kept.from_cache);
    let bytes = save_cache(engine.cache(), &cat);

    // Same catalog: both verdicts are warm hits with identical payloads.
    let warm = Engine::from_config(
        EngineConfig::new().shared_cache(Arc::new(load_cache(&bytes, None).expect("load"))),
    )
    .unwrap();
    let s = warm.simplify(&view, &cat).unwrap();
    let k = warm.nonredundant(&view, &cat).unwrap();
    assert!(s.from_cache, "simplify must warm-hit");
    assert!(k.from_cache, "nonredundant must warm-hit");
    assert_eq!(
        format!("{:?}", s.verdict),
        format!("{:?}", simplified.verdict)
    );
    assert_eq!(format!("{:?}", k.verdict), format!("{:?}", kept.verdict));

    // Reordered declarations: fingerprints agree, and the foreign entry's
    // schemes translate into the flipped catalog's attribute ids — the
    // rendered TRSs must match the cold run's.
    let (flipped_cat, flipped_view) = build(true);
    let foreign = Engine::from_config(
        EngineConfig::new().shared_cache(Arc::new(load_cache(&bytes, None).expect("load"))),
    )
    .unwrap();
    let s2 = foreign.simplify(&flipped_view, &flipped_cat).unwrap();
    assert!(s2.from_cache, "flipped catalog must still warm-hit");
    let render = |d: &viewcap_engine::Decision, cat: &Catalog| match &*d.verdict {
        viewcap_engine::Verdict::Simplified(schemes) => schemes
            .iter()
            .map(|s| {
                let mut names: Vec<&str> = s.iter().map(|a| cat.attr_name(a)).collect();
                names.sort_unstable();
                names.join(",")
            })
            .collect::<Vec<_>>(),
        other => panic!("expected Simplified, got {other:?}"),
    };
    assert_eq!(render(&s2, &flipped_cat), render(&simplified, &cat));
    let k2 = foreign.nonredundant(&flipped_view, &flipped_cat).unwrap();
    assert!(k2.from_cache);
    assert_eq!(format!("{:?}", k2.verdict), format!("{:?}", kept.verdict));
}

/// Capacity-1 caches still answer every check correctly — only slower —
/// and the hit/miss/eviction counters stay exact under eviction.
#[test]
fn capacity_one_engine_is_correct_and_exactly_counted() {
    let mut cat = Catalog::new();
    cat.relation("R", &["A", "B", "C"]).unwrap();
    let ab = cat.scheme(&["A", "B"]).unwrap();
    let name = cat.fresh_relation("V", ab);
    let q = |src: &str| Query::from_expr(viewcap_expr::parse_expr(src, &cat).unwrap(), &cat);
    let view = View::new(vec![(q("pi{A,B}(R)"), name)], &cat).unwrap();
    let check = |src: &str| Check::Member {
        view: view.clone(),
        goal: q(src),
    };
    let (c1, c2) = (check("pi{A}(R)"), check("pi{B}(R)"));

    let unbounded = Engine::new();
    let tiny = Engine::from_config(
        EngineConfig::new().shared_cache(Arc::new(VerdictCache::bounded(Some(1)))),
    )
    .unwrap();

    // c1 (miss) — c2 (miss, evicts c1) — c1 (miss again!) — c1 (hit).
    for (i, c) in [&c1, &c2, &c1, &c1].into_iter().enumerate() {
        let a = tiny.decide(c, &cat).unwrap();
        let b = unbounded.decide(c, &cat).unwrap();
        assert_eq!(
            a.verdict.is_yes(),
            b.verdict.is_yes(),
            "step {i}: bounded cache changed an answer"
        );
    }
    let stats = tiny.cache_stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.evictions, stats.entries),
        (1, 3, 2, 1),
        "exact counters under eviction"
    );

    // The unbounded engine saw the same questions with no evictions.
    let free = unbounded.cache_stats();
    assert_eq!((free.hits, free.misses, free.evictions), (2, 2, 0));
}

/// A batch workload through a capacity-1 engine matches the unbounded
/// engine's verdicts, and the stats identity `hits + misses = lookups`
/// holds exactly.
#[test]
fn capacity_one_batches_match_unbounded_batches() {
    for seed in 0..4u64 {
        let (cat, load) = random_workload(seed);
        let tiny = Engine::from_config(
            EngineConfig::new().shared_cache(Arc::new(VerdictCache::bounded(Some(1)))),
        )
        .unwrap();
        let free = Engine::new();
        let a = tiny.run_batch(&load, &cat, 2);
        let b = free.run_batch(&load, &cat, 2);
        assert_eq!(signature(&a), signature(&b), "seed {seed}");

        let stats = tiny.cache_stats();
        // One lookup per distinct class per batch.
        assert_eq!(stats.hits + stats.misses, a.distinct as u64);
        assert!(stats.entries <= 1);
    }
}
