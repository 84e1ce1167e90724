//! Counter-valued telemetry must be byte-identical across `--jobs`
//! settings: the engine's batch executor dedups, prewarms contexts, and
//! elects representatives sequentially, so the *work* a scenario does —
//! cache hits/misses, enumeration combos, spans per check — cannot
//! depend on worker scheduling. Timing lives in histograms, which the
//! counter projection excludes by construction.
//!
//! The telemetry registry is process-global, so this suite keeps all
//! runs inside one `#[test]` (its own binary; nothing else in the
//! process flips the enabled flag).

use viewcap::scenario::{run_scenario_with, ScenarioOptions};
use viewcap_obs::MetricsSnapshot;

/// Serializes the tests in this binary on the process-global registry.
static REGISTRY_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn metrics_for(src: &str, jobs: usize) -> MetricsSnapshot {
    viewcap_obs::reset();
    let outcome = run_scenario_with(src, &ScenarioOptions { jobs }).expect("scenario runs");
    outcome.metrics
}

#[test]
fn counters_identical_across_jobs() {
    let scenarios = [
        "example_3_1_5",
        "batch_workload",
        "incremental_edit",
        "security_audit",
        "normal_form",
        "cross_catalog_base",
    ];
    let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    viewcap_obs::set_enabled(true);
    for name in scenarios {
        let src = std::fs::read_to_string(format!("scenarios/{name}.vcap"))
            .unwrap_or_else(|e| panic!("read scenarios/{name}.vcap: {e}"));
        let sequential = metrics_for(&src, 1);
        let parallel = metrics_for(&src, 4);
        let counters = sequential.counters_text();
        assert_eq!(
            counters,
            parallel.counters_text(),
            "{name}: counter metrics must not depend on --jobs"
        );
        // Non-vacuity: the runs actually produced telemetry.
        assert!(
            counters.contains("engine.cache.miss"),
            "{name}: expected cache counters, got:\n{counters}"
        );
        // Every check and normalization span left exactly one latency
        // sample, and the quantiles read back from the samples are ordered.
        for (jobs, metrics) in [(1, &sequential), (4, &parallel)] {
            let mut samples = 0;
            for (span, hist) in [
                ("span.engine.check", "engine.check_ns"),
                ("span.engine.normalize", "engine.normalize_ns"),
            ] {
                let spans = metrics.counters.get(span).copied().unwrap_or(0);
                let h = metrics.histograms.get(hist).cloned().unwrap_or_default();
                assert_eq!(h.count, spans, "{name} jobs {jobs}: {hist} vs {span}");
                assert!(
                    h.p50() <= h.p90() && h.p90() <= h.p99(),
                    "{name} jobs {jobs}: {hist} quantiles out of order"
                );
                samples += h.count;
            }
            assert!(samples > 0, "{name} jobs {jobs}: no latency recorded");
        }
    }
    viewcap_obs::set_enabled(false);
}

#[test]
fn snapshot_excludes_timing_from_counters() {
    // The counter projection must never leak a histogram (timing) value;
    // histogram names are suffixed `_ns` by convention and live only in
    // the `histograms` map.
    let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    viewcap_obs::set_enabled(true);
    viewcap_obs::reset();
    let src = std::fs::read_to_string("scenarios/example_3_1_5.vcap").expect("scenario");
    let outcome = run_scenario_with(&src, &ScenarioOptions { jobs: 2 }).expect("scenario runs");
    viewcap_obs::set_enabled(false);
    assert!(
        viewcap_obs::trace_json().contains("\"ph\""),
        "the run emitted no trace events"
    );
    assert!(
        outcome.metrics.counters.keys().all(|k| !k.ends_with("_ns")),
        "counters must not carry timing"
    );
    assert!(
        outcome.metrics.histograms.contains_key("engine.check_ns"),
        "per-check latency histogram missing"
    );
    // Spans-per-check: every computed check opened exactly one span.
    let spans = outcome.metrics.counters.get("span.engine.check").copied();
    let misses = outcome.metrics.counters.get("engine.cache.miss").copied();
    assert_eq!(spans, misses, "one engine.check span per computed check");
}
