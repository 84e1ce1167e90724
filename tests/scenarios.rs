//! The shipped scenario files must keep running (and answering correctly).

use viewcap::scenario::{
    run_scenario, run_scenario_with, run_scenario_with_engine, ScenarioOptions,
};

#[test]
fn example_3_1_5_scenario() {
    let src = include_str!("../scenarios/example_3_1_5.vcap");
    let out = run_scenario(src).unwrap();
    assert_eq!(out.yes, 4, "report:\n{}", out.report);
    assert_eq!(out.no, 1);
    assert!(out.report.contains("frontier W 2: 12 distinct member(s)"));
}

#[test]
fn security_audit_scenario() {
    let src = include_str!("../scenarios/security_audit.vcap");
    let out = run_scenario(src).unwrap();
    assert_eq!(out.yes, 2, "report:\n{}", out.report);
    assert_eq!(out.no, 3);
    assert!(out.report.contains("pi{Name,Salary}(Staff): NO"));
    assert!(out.report.contains("pi{Name}(Staff): YES"));
}

#[test]
fn batch_workload_scenario() {
    let src = include_str!("../scenarios/batch_workload.vcap");
    let out = run_scenario(src).unwrap();
    assert_eq!(out.yes, 12, "report:\n{}", out.report);
    assert_eq!(out.no, 1);
    // First batch: orientation-free equivalence keys, canonical-template
    // dedup, and a literal repeat collapse 10 checks to 7.
    assert!(
        out.report
            .contains("batch: 10 check(s), 7 distinct, 0 answered from cache, 7 executed"),
        "report:\n{}",
        out.report
    );
    // Second batch: two of three answered from the warm cache.
    assert!(
        out.report
            .contains("batch: 3 check(s), 3 distinct, 2 answered from cache, 1 executed"),
        "report:\n{}",
        out.report
    );
    assert_eq!(out.stats.hits, 2);

    // The report must be byte-identical under parallel execution.
    let par = run_scenario_with(src, &ScenarioOptions { jobs: 8 }).unwrap();
    assert_eq!(par.report, out.report);
    assert_eq!((par.yes, par.no), (out.yes, out.no));
}

#[test]
fn incremental_edit_scenario() {
    let src = include_str!("../scenarios/incremental_edit.vcap");
    let out = run_scenario(src).unwrap();
    assert_eq!((out.yes, out.no), (12, 3), "report:\n{}", out.report);

    // Edit 1 replaces V's defining query: the three V-touching standing
    // checks are invalidated, the two W/Probe-only checks are reused.
    assert!(
        out.report
            .contains("edit V: 1 defining relation(s), 3 standing check(s) invalidated"),
        "report:\n{}",
        out.report
    );
    assert!(out.report.contains(
        "recheck: 5 check(s), 2 reused, 3 recomputed (0 from verdict cache, 3 executed)"
    ));

    // The verdict flips with the edit: V = {R} strictly dominates W.
    assert!(out.report.contains("check equivalent V W: NO"));

    // Edit 2 rebuilds W (drop + add): four checks invalidated, and the
    // added pair's witness renders under its new name.
    assert!(out
        .report
        .contains("edit W: 2 defining relation(s), 4 standing check(s) invalidated"));
    assert!(out.report.contains(
        "recheck: 5 check(s), 1 reused, 4 recomputed (0 from verdict cache, 4 executed)"
    ));
    assert!(out.report.contains("check member W R: YES via Full"));

    // Incremental re-checking must be deterministic under parallelism.
    let par = run_scenario_with(src, &ScenarioOptions { jobs: 4 }).unwrap();
    assert_eq!(par.report, out.report);
}

#[test]
fn persisted_cache_warms_a_rerun_without_changing_verdicts() {
    use std::sync::Arc;
    use viewcap_engine::{load_cache, save_cache, Engine, EngineConfig};

    let src = include_str!("../scenarios/incremental_edit.vcap");
    let options = ScenarioOptions::default();

    // Cold run, then persist the engine's verdict cache.
    let cold_engine = Engine::new();
    let cold = run_scenario_with_engine(src, &options, &cold_engine).unwrap();
    let bytes = save_cache(cold_engine.cache(), &cold.catalog);

    // Warm run over the reloaded cache: nothing recomputes...
    let warm_engine = Engine::from_config(
        EngineConfig::new().shared_cache(Arc::new(load_cache(&bytes, None).expect("round trip"))),
    )
    .unwrap();
    let warm = run_scenario_with_engine(src, &options, &warm_engine).unwrap();
    assert_eq!(warm.stats.misses, 0, "report:\n{}", warm.report);
    assert!(warm.report.contains(
        "recheck: 5 check(s), 1 reused, 4 recomputed (4 from verdict cache, 0 executed)"
    ));

    // ...and every verdict and rendered witness is byte-identical (only
    // the cache-provenance counters may differ between cold and warm).
    let verdicts = |report: &str| -> Vec<String> {
        report
            .lines()
            .filter(|l| !l.starts_with("batch:") && !l.starts_with("recheck:"))
            .map(str::to_owned)
            .collect()
    };
    assert_eq!(verdicts(&cold.report), verdicts(&warm.report));
    assert_eq!((cold.yes, cold.no), (warm.yes, warm.no));
}

#[test]
fn cross_catalog_scenarios_share_one_cache() {
    // The shipped two-step fleet demo: the base file's persisted cache
    // fully answers the permuted file, check lines byte-identical.
    use std::sync::Arc;
    use viewcap_engine::{load_cache, save_cache, Engine, EngineConfig};

    let base = include_str!("../scenarios/cross_catalog_base.vcap");
    let permuted = include_str!("../scenarios/cross_catalog_permuted.vcap");
    let options = ScenarioOptions::default();

    let engine = Engine::new();
    let cold = run_scenario_with_engine(base, &options, &engine).unwrap();
    assert_eq!((cold.yes, cold.no), (7, 1), "report:\n{}", cold.report);
    let bytes = save_cache(engine.cache(), &cold.catalog);

    let warm_engine = Engine::from_config(
        EngineConfig::new().shared_cache(Arc::new(load_cache(&bytes, None).expect("round trip"))),
    )
    .unwrap();
    let warm = run_scenario_with_engine(permuted, &options, &warm_engine).unwrap();
    assert_eq!(warm.stats.misses, 0, "report:\n{}", warm.report);
    assert!(warm.stats.hits > 0);
    assert!(warm
        .report
        .contains("catalog: declaration order permuted over 3 relation(s) (seed 7)"));
    let checks = |r: &str| {
        r.lines()
            .filter(|l| l.starts_with("check "))
            .map(str::to_owned)
            .collect::<Vec<_>>()
    };
    assert_eq!(checks(&cold.report), checks(&warm.report));
}

#[test]
fn normal_form_scenario() {
    let src = include_str!("../scenarios/normal_form.vcap");
    let out = run_scenario(src).unwrap();
    assert!(
        out.report.contains("simplify Original: 2 -> 5 relation(s)"),
        "report:\n{}",
        out.report
    );
    assert!(
        out.report
            .contains("nonredundant Original: 2 -> 2 relation(s)"),
        "report:\n{}",
        out.report
    );
    // Normalization must not count as yes/no checks (constructions, not
    // predicates)…
    assert_eq!((out.yes, out.no), (0, 0));
    // …but its class-space enumeration must show up in the stats (the
    // scenario runs nothing else, so zero here means unreported work).
    assert!(out.enum_stats.contexts > 0, "stats: {}", out.enum_stats);
    assert!(out.enum_stats.probes > 0, "stats: {}", out.enum_stats);
    assert!(out.enum_stats.combos > 0, "stats: {}", out.enum_stats);
}

#[test]
fn capacity_diff_scenario() {
    let src = include_str!("../scenarios/capacity_diff.vcap");
    let out = run_scenario(src).unwrap();
    assert!(
        out.report
            .contains("frontier Before 2: 12 distinct member(s)"),
        "report:\n{}",
        out.report
    );
    assert!(
        out.report
            .contains("diff Before After 2: 4 member(s) only in Before, 4 only in After, 8 shared"),
        "report:\n{}",
        out.report
    );
    assert!(out
        .report
        .contains("diff After After 2: 0 member(s) only in After, 0 only in After, 12 shared"));
    assert_eq!((out.yes, out.no), (0, 0));
    // Frontier and diff sweeps enumerate through the engine's context
    // pool, so a scenario of nothing else still reports its work: one
    // context per view, one probe per sweep.
    assert!(out.enum_stats.contexts > 0, "stats: {}", out.enum_stats);
    assert!(out.enum_stats.combos > 0, "stats: {}", out.enum_stats);
    assert_eq!(
        (out.enum_stats.contexts, out.enum_stats.probes),
        (2, 5),
        "stats: {}",
        out.enum_stats
    );
}

/// Warm normal_form re-runs are verdict-cache hits — across a persisted
/// save → load cycle — with a byte-identical report: the cached
/// `Simplified` schemes and `Nonredundant` indices must reproduce the
/// cold run's relation minting and report lines exactly.
#[test]
fn normal_form_warm_rerun_is_cached_and_byte_identical() {
    use std::sync::Arc;
    use viewcap_engine::{load_cache, save_cache, Engine, EngineConfig};

    let src = include_str!("../scenarios/normal_form.vcap");
    let options = ScenarioOptions::default();

    let cold_engine = Engine::new();
    let cold = run_scenario_with_engine(src, &options, &cold_engine).unwrap();
    assert_eq!(cold.stats.misses, 2, "one miss per normalization command");
    let bytes = save_cache(cold_engine.cache(), &cold.catalog);

    let warm_engine = Engine::from_config(
        EngineConfig::new().shared_cache(Arc::new(load_cache(&bytes, None).expect("round trip"))),
    )
    .unwrap();
    let warm = run_scenario_with_engine(src, &options, &warm_engine).unwrap();
    assert_eq!(
        warm.report, cold.report,
        "warm report must be byte-identical"
    );
    assert_eq!(warm.stats.misses, 0, "report:\n{}", warm.report);
    assert!(
        warm.stats.hits >= 2,
        "simplify + nonredundant must warm-hit"
    );
    // The warm run enumerates nothing: no normalization context is built.
    assert_eq!(warm.enum_stats.contexts, 0, "stats: {}", warm.enum_stats);
    assert_eq!(warm.enum_stats.combos, 0, "stats: {}", warm.enum_stats);
}
