//! Cross-catalog cache conformance: a verdict cache persisted under one
//! catalog declaration order must warm a run whose catalog declares the
//! same relations in a *permuted* order — nonzero hits, zero misses, and
//! byte-identical verdict lines (witness rendering included, which
//! exercises the foreign-witness translation path of
//! `viewcap_engine::persist`).
//!
//! Jobs under test default to {1, 4}; override with
//! `VIEWCAP_CONFORMANCE_JOBS` (CI runs both in separate steps).

use std::sync::Arc;
use viewcap::scenario::{run_scenario_with_engine, ScenarioOptions};
use viewcap_engine::{load_cache, merge_cache_bytes, save_cache, Engine, EngineConfig, PileStore};

/// The shared declarations + workload, minus any permutation directive.
const BODY: &str = r#"
rel R(A, B, C)
rel S(C, D)
rel T(D, E)

view V {
  Joined = pi{A,B}(R) * pi{B,C}(R)
}
view W {
  Left  = pi{A,B}(R)
  Right = pi{B,C}(R)
}

check equivalent V W
check dominates V W
check member V pi{A}(R)
check member W pi{A,C}(pi{A,B}(R) * pi{B,C}(R))
check member V R
batch {
  check member V pi{A,B}(R)
  check member W pi{B}(R)
  check equivalent W V
}
"#;

fn jobs_under_test() -> Vec<usize> {
    match std::env::var("VIEWCAP_CONFORMANCE_JOBS") {
        Ok(v) => vec![v.parse().expect("VIEWCAP_CONFORMANCE_JOBS is a number")],
        Err(_) => vec![1, 4],
    }
}

/// The verdict lines of a report — what must be byte-identical across
/// catalog declaration orders. Declaration/permutation bookkeeping lines
/// legitimately differ; batch/recheck provenance counters may differ
/// between cold and warm runs.
fn verdict_lines(report: &str) -> Vec<&str> {
    report.lines().filter(|l| l.starts_with("check ")).collect()
}

fn permuted(seed: u64) -> String {
    format!("catalog permute {seed}\n{BODY}")
}

#[test]
fn permuted_catalog_hits_the_persisted_cache_with_identical_verdicts() {
    for jobs in jobs_under_test() {
        let options = ScenarioOptions { jobs };

        // Step 1: cold run under the natural order; persist the cache.
        let cold_engine = Engine::new();
        let cold = run_scenario_with_engine(BODY, &options, &cold_engine).unwrap();
        let bytes = save_cache(cold_engine.cache(), &cold.catalog);
        assert!(cold_engine.cache_stats().entries > 0);

        // Step 2: reload under permuted declaration orders. Every check
        // must be answered by the cache (zero misses), and the rendered
        // verdicts — witnesses included — must match byte for byte.
        for seed in [1u64, 7, 23] {
            let warm_engine = Engine::from_config(EngineConfig::new().shared_cache(Arc::new(
                load_cache(&bytes, None).expect("persisted cache reloads"),
            )))
            .unwrap();
            let warm = run_scenario_with_engine(&permuted(seed), &options, &warm_engine).unwrap();
            let stats = warm.stats;
            assert_eq!(
                stats.misses, 0,
                "jobs {jobs} seed {seed}: permuted run missed the cache\n{}",
                warm.report
            );
            assert!(stats.hits > 0, "jobs {jobs} seed {seed}: no hits recorded");
            assert_eq!(
                verdict_lines(&cold.report),
                verdict_lines(&warm.report),
                "jobs {jobs} seed {seed}: verdicts diverged across catalog orders"
            );
            assert_eq!((cold.yes, cold.no), (warm.yes, warm.no));
        }
    }
}

#[test]
fn permuted_catalog_saves_a_cache_the_original_order_hits() {
    // The symmetric direction: persist under a *permuted* declaration and
    // warm the natural order with it.
    let options = ScenarioOptions { jobs: 1 };
    let perm_engine = Engine::new();
    let perm = run_scenario_with_engine(&permuted(5), &options, &perm_engine).unwrap();
    let bytes = save_cache(perm_engine.cache(), &perm.catalog);

    let warm_engine = Engine::from_config(
        EngineConfig::new().shared_cache(Arc::new(load_cache(&bytes, None).expect("reload"))),
    )
    .unwrap();
    let warm = run_scenario_with_engine(BODY, &options, &warm_engine).unwrap();
    assert_eq!(warm.stats.misses, 0, "report:\n{}", warm.report);
    assert_eq!(verdict_lines(&perm.report), verdict_lines(&warm.report));
}

#[test]
fn merged_worker_caches_warm_start_a_third_run() {
    // Fleet flow: worker 1 and worker 2 each decide half the workload
    // (under *different* declaration orders), their caches merge into one
    // warm-start file or pile, and a third run over the full workload —
    // under yet another order — computes nothing from either.
    let split_at = BODY.find("batch {").expect("batch block present");
    let first_half = &BODY[..split_at];
    let second_half = format!(
        "catalog permute 11\n{}{}",
        &BODY[..BODY.find("check equivalent").expect("checks present")],
        &BODY[split_at..]
    );
    let options = ScenarioOptions { jobs: 1 };

    let w1 = Engine::new();
    let out1 = run_scenario_with_engine(first_half, &options, &w1).unwrap();
    let w2 = Engine::new();
    let out2 = run_scenario_with_engine(&second_half, &options, &w2).unwrap();

    let bytes1 = save_cache(w1.cache(), &out1.catalog);
    let bytes2 = save_cache(w2.cache(), &out2.catalog);
    let (merged, report) = merge_cache_bytes(&[bytes1, bytes2]).expect("merge");
    assert_eq!(report.inputs, 2);
    assert!(report.entries_out > 0);

    // The same union through a pile: both workers append to one pile, so
    // it holds records under two different name tables.
    let dir = std::env::temp_dir().join(format!("viewcap-cross-catalog-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("workers.vcappile");
    let _ = std::fs::remove_file(&path);
    let mut pile = PileStore::open(&path).expect("open pile");
    pile.append_cache(w1.cache(), &out1.catalog)
        .expect("append");
    pile.append_cache(w2.cache(), &out2.catalog)
        .expect("append");

    let warm_starts = [
        (
            "merged file",
            load_cache(&merged, None).expect("merged cache loads"),
        ),
        ("pile", pile.load(None).expect("pile loads")),
    ];
    for (source, cache) in warm_starts {
        let third = Engine::from_config(EngineConfig::new().shared_cache(Arc::new(cache))).unwrap();
        let out3 = run_scenario_with_engine(&permuted(3), &options, &third).unwrap();
        assert_eq!(
            out3.stats.misses, 0,
            "{source}: third run recomputed despite the warm start\n{}",
            out3.report
        );
        assert!(out3.stats.hits > 0, "{source}: no hits recorded");
        // Verdict lines agree with the workers' runs on the overlap.
        let all: Vec<&str> = verdict_lines(&out3.report);
        for line in verdict_lines(&out1.report) {
            assert!(
                all.contains(&line),
                "{source}: missing worker-1 verdict: {line}"
            );
        }
        for line in verdict_lines(&out2.report) {
            assert!(
                all.contains(&line),
                "{source}: missing worker-2 verdict: {line}"
            );
        }
    }
}
