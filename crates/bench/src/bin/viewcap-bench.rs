//! `viewcap-bench` — the repository's fixed benchmark suite.
//!
//! Runs three workloads and writes a machine-readable report
//! (`BENCH_PR4.json` by default):
//!
//! 1. **shared-goal batches** — a batch of membership checks against one
//!    view, decided twice: per-goal (a fresh `ClosureContext`, i.e. a fresh
//!    bounded enumeration, per goal — the pre-PR-4 behavior) and shared
//!    (one context probed per goal). Reports wall times, the summed
//!    `SearchStats::combos`, and the speedup.
//! 2. **engine batch** — the same checks through `Engine::run_batch`,
//!    reporting the context-pool reuse counters (`EnumStats`).
//! 3. **scenarios** — every `.vcap` file in `scenarios/`, timed end to end
//!    with cache and enumeration counters.
//!
//! A fourth suite, **cross-catalog warm start**, writes its own report
//! (`BENCH_PR5.json` by default, `--out-cross`): two workers' verdict
//! caches are merged and the merged file warm-starts the full workload
//! against a catalog declared in a *permuted* order — measuring the
//! fleet-style cold-vs-warm gap that content-addressed fingerprints make
//! possible.
//!
//! A fifth suite, **normalization** (`BENCH_PR6.json` by default,
//! `--out-norm`), measures the Section 4 pipeline: the `normal_form`
//! scenario cold (building the shared normalization context) versus warm
//! (both verdicts served from the engine's cache, byte-identical report),
//! plus a candidate-join microbench comparing the byte-trie tuple index
//! against a flat O(|src|·|dst|) scan.
//!
//! A sixth suite, **telemetry** (`BENCH_PR7.json` by default,
//! `--out-obs`), runs the batch workload plus the `normal_form` scenario
//! twice — telemetry disabled (the one-atomic-load fast path) and enabled
//! — reporting the wall-time overhead and the per-check / per-normalize
//! latency distribution (p50/p90/p99) read back from `viewcap-obs`'s
//! log-bucketed histograms.
//!
//! A seventh suite, **space persistence** (`BENCH_PR9.json` by default,
//! `--out-space`), prices the candidate-space snapshot layer: a
//! level-5-deep membership batch decided cold (fresh engine, fresh
//! cache, full bounded enumeration) versus cold-with-snapshot (fresh
//! engine and *fresh verdict cache*, but a persisted `SpaceLibrary`
//! hydrating every context — so the measured gap is purely
//! enumeration-rebuild vs snapshot-replay). The same library then
//! warm-starts the workload on a catalog declared in a permuted order,
//! asserting zero rebuilt levels and identical verdicts — the
//! content-addressed key plus declaration-order-canonical enumeration at
//! work. A thousand-relation candidate-join microbench (the `wide`
//! family) rides along, pitting the byte-trie tuple index's per-tag
//! buckets against a flat every-pair scan at fleet-catalog scale.
//!
//! An eighth suite, **throughput** (`BENCH_PR10.json` by default,
//! `--out-throughput`), replays the generated fleet streams — the mixed
//! zipf request stream, the capacity-frontier diffing workload, and the
//! multi-edit transaction workload — through a cold scenario engine at
//! `--jobs` 1/4/8, reporting sustained checks/sec plus the p50/p99
//! per-check latencies read back from the engine's `engine.check_ns`
//! histogram (no bench-side timing of individual checks).
//!
//! ```console
//! $ viewcap-bench               # full run: BENCH_PR4/PR5/PR6 .json
//! $ viewcap-bench --smoke       # 1 iteration + counter asserts
//! $ viewcap-bench --iters 5 --out /tmp/bench.json --out-cross /tmp/cross.json
//! ```
//!
//! `--smoke` is what CI runs: a single iteration whose reuse counters are
//! asserted to be live (nonzero, shared work strictly below per-goal
//! work, cross-catalog warm hits nonzero with zero recomputation, warm
//! normalization a pure cache hit, and the trie join examining strictly
//! fewer pairs than the flat scan); violations exit nonzero.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use viewcap::scenario::{run_scenario_with_engine, ScenarioOptions};
use viewcap_base::Catalog;
use viewcap_core::{ClosureContext, Query, SearchBudget, View};
use viewcap_engine::{Check, Engine, EngineConfig, Workload};
use viewcap_expr::parse_expr;

struct Config {
    iters: usize,
    smoke: bool,
    out: std::path::PathBuf,
    out_cross: std::path::PathBuf,
    out_norm: std::path::PathBuf,
    out_obs: std::path::PathBuf,
    out_space: std::path::PathBuf,
    out_throughput: std::path::PathBuf,
    scenarios_dir: std::path::PathBuf,
}

/// The fixed shared-goal workload: one view, many membership goals.
fn shared_goal_workload() -> (Catalog, View, Vec<(String, Query)>) {
    shared_goal_workload_ordered(false)
}

/// The same workload over a catalog declared in the natural or a permuted
/// order — identical *content* either way, so content-addressed
/// fingerprints (and persisted caches) must not see the difference.
fn shared_goal_workload_ordered(permuted: bool) -> (Catalog, View, Vec<(String, Query)>) {
    let mut cat = Catalog::new();
    if permuted {
        cat.relation("S", &["D", "C"]).unwrap();
        cat.relation("R", &["C", "B", "A"]).unwrap();
    } else {
        cat.relation("R", &["A", "B", "C"]).unwrap();
        cat.relation("S", &["C", "D"]).unwrap();
    }
    let ab = cat.scheme(&["A", "B"]).unwrap();
    let bc = cat.scheme(&["B", "C"]).unwrap();
    let cd = cat.scheme(&["C", "D"]).unwrap();
    let v1 = cat.fresh_relation("v1", ab);
    let v2 = cat.fresh_relation("v2", bc);
    let v3 = cat.fresh_relation("v3", cd);
    let view = View::from_exprs(
        vec![
            (parse_expr("pi{A,B}(R)", &cat).unwrap(), v1),
            (parse_expr("pi{B,C}(R)", &cat).unwrap(), v2),
            (parse_expr("pi{C,D}(S)", &cat).unwrap(), v3),
        ],
        &cat,
    )
    .unwrap();
    // Mostly goals whose reduced templates have 3–4 atoms: each forces the
    // bounded enumeration up to that level, which is exactly the work the
    // shared space pays once instead of per goal. A few small goals ride
    // along for coverage.
    let goals = [
        // Members, bound 3–4.
        "pi{A}(R) * pi{B}(R) * pi{C}(R)",
        "pi{A}(R) * pi{B}(R) * pi{D}(S)",
        "pi{A}(R) * pi{C}(R) * pi{D}(S)",
        "pi{B}(R) * pi{C}(R) * pi{D}(S)",
        "pi{A,B}(R) * pi{C}(R) * pi{D}(S)",
        "pi{A}(R) * pi{B,C}(R) * pi{D}(S)",
        "pi{A}(R) * pi{B}(R) * pi{C,D}(S)",
        "pi{A}(R) * pi{B}(R) * pi{C}(R) * pi{D}(S)",
        "pi{A}(R) * pi{B}(R) * pi{C}(R) * pi{C,D}(S)",
        // Non-members, bound 2–4 (full enumeration up to the bound).
        "pi{A,C}(R) * pi{B}(R) * pi{D}(S)",
        "pi{A,D}(R * S) * pi{B}(R)",
        "pi{A,D}(R * S) * pi{B}(R) * pi{C}(R)",
        "R * pi{D}(S)",
        // Small members for coverage.
        "pi{A,B}(R)",
        "pi{A,C}(pi{A,B}(R) * pi{B,C}(R))",
        "pi{B,D}(pi{B,C}(R) * pi{C,D}(S))",
    ]
    .iter()
    .map(|src| {
        (
            (*src).to_owned(),
            Query::from_expr(parse_expr(src, &cat).unwrap(), &cat),
        )
    })
    .collect();
    (cat, view, goals)
}

struct SharedGoalReport {
    goals: usize,
    iters: usize,
    baseline_ms: f64,
    shared_ms: f64,
    speedup: f64,
    baseline_combos: u64,
    shared_combos: u64,
    verdicts: Vec<bool>,
}

fn bench_shared_goals(config: &Config) -> SharedGoalReport {
    let (cat, view, goals) = shared_goal_workload();
    let budget = SearchBudget::default();
    let queries: Vec<Query> = view.query_set().queries().to_vec();

    // Per-goal baseline: a fresh context (fresh enumeration) per goal.
    let mut baseline_combos = 0u64;
    let mut baseline_verdicts = Vec::new();
    let start = Instant::now();
    for _ in 0..config.iters {
        baseline_combos = 0;
        baseline_verdicts.clear();
        for (_, goal) in &goals {
            let mut context = ClosureContext::new(&queries, &cat, &budget);
            let verdict = context.contains(goal).expect("default budget suffices");
            baseline_verdicts.push(verdict.is_some());
            baseline_combos += context.search_stats().combos;
        }
    }
    let baseline_ms = start.elapsed().as_secs_f64() * 1e3 / config.iters as f64;

    // Shared: one context, one enumeration, probed per goal.
    let mut shared_combos = 0u64;
    let mut shared_verdicts = Vec::new();
    let start = Instant::now();
    for _ in 0..config.iters {
        shared_verdicts.clear();
        let mut context = ClosureContext::new(&queries, &cat, &budget);
        for (_, goal) in &goals {
            let verdict = context.contains(goal).expect("default budget suffices");
            shared_verdicts.push(verdict.is_some());
        }
        shared_combos = context.search_stats().combos;
    }
    let shared_ms = start.elapsed().as_secs_f64() * 1e3 / config.iters as f64;

    assert_eq!(
        baseline_verdicts, shared_verdicts,
        "shared context changed a verdict"
    );
    SharedGoalReport {
        goals: goals.len(),
        iters: config.iters,
        baseline_ms,
        shared_ms,
        speedup: baseline_ms / shared_ms.max(1e-9),
        baseline_combos,
        shared_combos,
        verdicts: shared_verdicts,
    }
}

struct EngineBatchReport {
    checks: usize,
    wall_ms: f64,
    contexts: u64,
    probes: u64,
    combos: u64,
    executed: usize,
}

fn bench_engine_batch(config: &Config) -> EngineBatchReport {
    let (cat, view, goals) = shared_goal_workload();
    let mut workload = Workload::new();
    for (label, goal) in &goals {
        workload.push(
            label.clone(),
            Check::Member {
                view: view.clone(),
                goal: goal.clone(),
            },
        );
    }
    let mut report = None;
    let start = Instant::now();
    for _ in 0..config.iters {
        // Cold engine per iteration: the point is enumeration sharing
        // within one batch, not verdict-cache warmth across iterations.
        let engine = Engine::new();
        let outcome = engine.run_batch(&workload, &cat, 1);
        let stats = engine.enum_stats();
        report = Some(EngineBatchReport {
            checks: workload.len(),
            wall_ms: 0.0,
            contexts: stats.contexts,
            probes: stats.probes,
            combos: stats.combos,
            executed: outcome.executed,
        });
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3 / config.iters as f64;
    let mut report = report.expect("iters >= 1");
    report.wall_ms = wall_ms;
    report
}

struct CrossCatalogReport {
    checks: usize,
    cold_ms: f64,
    warm_ms: f64,
    speedup: f64,
    warm_hits: u64,
    warm_misses: u64,
    warm_executed: usize,
    merged_entries: usize,
    verdicts_equal: bool,
}

/// Cross-catalog warm start (the PR 5 suite): two workers decide halves
/// of the workload under the natural declaration order, their caches are
/// merged, and the merged file warm-starts the *full* workload under a
/// permuted catalog. Measures cold vs merged-warm wall time on the
/// permuted catalog and the warm run's hit counters.
fn bench_cross_catalog(config: &Config) -> CrossCatalogReport {
    let (cat, view, goals) = shared_goal_workload_ordered(false);
    let half = goals.len() / 2;
    let workload_of = |view: &View, goals: &[(String, Query)]| {
        let mut load = Workload::new();
        for (label, goal) in goals {
            load.push(
                label.clone(),
                Check::Member {
                    view: view.clone(),
                    goal: goal.clone(),
                },
            );
        }
        load
    };

    // Two workers, two caches.
    let worker1 = Engine::new();
    worker1.run_batch(&workload_of(&view, &goals[..half]), &cat, 1);
    let worker2 = Engine::new();
    worker2.run_batch(&workload_of(&view, &goals[half..]), &cat, 1);
    let (merged, merge_report) = viewcap_engine::merge_cache_bytes(&[
        viewcap_engine::save_cache(worker1.cache(), &cat),
        viewcap_engine::save_cache(worker2.cache(), &cat),
    ])
    .expect("worker caches merge");

    // The permuted catalog and its (identical-content) workload.
    let (pcat, pview, pgoals) = shared_goal_workload_ordered(true);
    let pworkload = workload_of(&pview, &pgoals);

    let mut cold_verdicts = Vec::new();
    let start = Instant::now();
    for _ in 0..config.iters {
        let engine = Engine::new();
        let outcome = engine.run_batch(&pworkload, &pcat, 1);
        cold_verdicts = outcome
            .results
            .iter()
            .map(|r| r.as_ref().unwrap().verdict.is_yes())
            .collect();
    }
    let cold_ms = start.elapsed().as_secs_f64() * 1e3 / config.iters as f64;

    let mut warm_verdicts = Vec::new();
    let mut warm_hits = 0;
    let mut warm_misses = 0;
    let mut warm_executed = 0;
    let start = Instant::now();
    for _ in 0..config.iters {
        let engine = Engine::from_config(EngineConfig::new().shared_cache(Arc::new(
            viewcap_engine::load_cache(&merged, None).expect("merged cache loads"),
        )))
        .unwrap();
        let outcome = engine.run_batch(&pworkload, &pcat, 1);
        warm_verdicts = outcome
            .results
            .iter()
            .map(|r| r.as_ref().unwrap().verdict.is_yes())
            .collect();
        let stats = engine.cache_stats();
        warm_hits = stats.hits;
        warm_misses = stats.misses;
        warm_executed = outcome.executed;
    }
    let warm_ms = start.elapsed().as_secs_f64() * 1e3 / config.iters as f64;

    CrossCatalogReport {
        checks: pworkload.len(),
        cold_ms,
        warm_ms,
        speedup: cold_ms / warm_ms.max(1e-9),
        warm_hits,
        warm_misses,
        warm_executed,
        merged_entries: merge_report.entries_out,
        verdicts_equal: cold_verdicts == warm_verdicts,
    }
}

struct ScenarioReport {
    name: String,
    wall_ms: f64,
    yes: usize,
    no: usize,
    cache_hits: u64,
    cache_misses: u64,
    contexts: u64,
    probes: u64,
    combos: u64,
}

fn bench_scenarios(config: &Config) -> Vec<ScenarioReport> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(&config.scenarios_dir) else {
        eprintln!(
            "viewcap-bench: no scenario directory at `{}`, skipping scenario suite",
            config.scenarios_dir.display()
        );
        return out;
    };
    let mut paths: Vec<std::path::PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "vcap"))
        .collect();
    paths.sort();
    for path in paths {
        let source = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("viewcap-bench: cannot read `{}`: {e}", path.display());
                continue;
            }
        };
        let name = path.file_stem().map_or_else(
            || path.display().to_string(),
            |s| s.to_string_lossy().into(),
        );
        let mut last = None;
        let start = Instant::now();
        for _ in 0..config.iters {
            let engine = Engine::new();
            let outcome = run_scenario_with_engine(&source, &ScenarioOptions { jobs: 1 }, &engine)
                .unwrap_or_else(|e| panic!("scenario `{name}` failed: {e}"));
            last = Some(outcome);
        }
        let wall_ms = start.elapsed().as_secs_f64() * 1e3 / config.iters as f64;
        let outcome = last.expect("iters >= 1");
        out.push(ScenarioReport {
            name,
            wall_ms,
            yes: outcome.yes,
            no: outcome.no,
            cache_hits: outcome.stats.hits,
            cache_misses: outcome.stats.misses,
            contexts: outcome.enum_stats.contexts,
            probes: outcome.enum_stats.probes,
            combos: outcome.enum_stats.combos,
        });
    }
    out
}

struct NormalizationReport {
    cold_ms: f64,
    warm_ms: f64,
    speedup: f64,
    warm_hits: u64,
    warm_misses: u64,
    cold_contexts: u64,
    cold_probes: u64,
    cold_combos: u64,
    warm_combos: u64,
    reports_identical: bool,
    join_flat_ms: f64,
    join_trie_ms: f64,
    join_flat_pairs: u64,
    join_trie_pairs: u64,
    join_lists_identical: bool,
}

/// The normalization suite (the PR 6 suite): the `normal_form` scenario
/// cold versus warm through one engine — the warm run must be a pure
/// verdict-cache hit with a byte-identical report — plus a candidate-join
/// microbench pitting the byte-trie tuple index against a flat scan.
fn bench_normalization(config: &Config) -> NormalizationReport {
    let path = config.scenarios_dir.join("normal_form.vcap");
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read `{}`: {e}", path.display()));
    let options = ScenarioOptions { jobs: 1 };

    // Cold: a fresh engine per iteration pays the Section 4 pipeline.
    let mut cold_report = String::new();
    let mut cold_stats = viewcap_engine::EnumStats::default();
    let start = Instant::now();
    for _ in 0..config.iters {
        let engine = Engine::new();
        let outcome = run_scenario_with_engine(&source, &options, &engine)
            .unwrap_or_else(|e| panic!("normal_form cold run failed: {e}"));
        cold_report = outcome.report;
        cold_stats = outcome.enum_stats;
    }
    let cold_ms = start.elapsed().as_secs_f64() * 1e3 / config.iters as f64;

    // Warm: one pre-warmed engine replays the scenario from its cache.
    let warm_engine = Engine::new();
    run_scenario_with_engine(&source, &options, &warm_engine)
        .unwrap_or_else(|e| panic!("normal_form warmup failed: {e}"));
    let hits_before = warm_engine.cache_stats().hits;
    let mut warm_report = String::new();
    let mut warm_stats = viewcap_engine::EnumStats::default();
    let start = Instant::now();
    for _ in 0..config.iters {
        let outcome = run_scenario_with_engine(&source, &options, &warm_engine)
            .unwrap_or_else(|e| panic!("normal_form warm run failed: {e}"));
        warm_report = outcome.report;
        warm_stats = outcome.enum_stats;
    }
    let warm_ms = start.elapsed().as_secs_f64() * 1e3 / config.iters as f64;
    let warm_cache = warm_engine.cache_stats();
    // The warmup probe built the context; warm iterations add no combos.
    let warm_combos = warm_stats.combos.saturating_sub(cold_stats.combos);

    let join = bench_candidate_join(config);

    NormalizationReport {
        cold_ms,
        warm_ms,
        speedup: cold_ms / warm_ms.max(1e-9),
        warm_hits: warm_cache.hits - hits_before,
        warm_misses: warm_cache.misses.saturating_sub(2),
        cold_contexts: cold_stats.contexts,
        cold_probes: cold_stats.probes,
        cold_combos: cold_stats.combos,
        warm_combos,
        reports_identical: cold_report == warm_report,
        join_flat_ms: join.0,
        join_trie_ms: join.1,
        join_flat_pairs: join.2,
        join_trie_pairs: join.3,
        join_lists_identical: join.4,
    }
}

/// Candidate-join microbench: `(flat_ms, trie_ms, flat_pairs, trie_pairs,
/// lists_identical)`. Both paths produce identical candidate lists; the
/// counters record how many (source tuple, target tuple) pairs each had to
/// examine to get there — the flat scan touches every pair, the trie only
/// its tag buckets.
fn bench_candidate_join(config: &Config) -> (f64, f64, u64, u64, bool) {
    use viewcap_template::{candidate_lists, reduce, template_of_expr, Template};

    let mut cat = Catalog::new();
    cat.relation("R", &["A", "B", "C"]).unwrap();
    cat.relation("S", &["C", "D"]).unwrap();
    // A wide join target (many tuples across both tags) and mid-size
    // sources — the shape normalization probes take through `reduce`.
    let dst: Template = template_of_expr(
        &parse_expr(
            "pi{A,B}(R) * pi{B,C}(R) * pi{A,C}(R) * pi{A}(R) * pi{B}(R) * \
             pi{C}(R) * pi{C,D}(S) * pi{C}(S) * pi{D}(S)",
            &cat,
        )
        .unwrap(),
        &cat,
    );
    let srcs: Vec<Template> = [
        "pi{A,B}(R) * pi{B,C}(R)",
        "pi{A}(R) * pi{C,D}(S)",
        "pi{A,C}(R * S) * pi{B}(R)",
        "pi{B,D}(pi{B,C}(R) * pi{C,D}(S))",
    ]
    .iter()
    .map(|src| reduce(&template_of_expr(&parse_expr(src, &cat).unwrap(), &cat)))
    .collect();

    // Flat reference scan: every same-tag pair, checked positionally.
    let flat_lists = |src: &Template, dst: &Template| -> Option<Vec<Vec<usize>>> {
        let mut out = Vec::with_capacity(src.len());
        for st in src.tuples() {
            let mut cands = Vec::new();
            'target: for (j, dt) in dst.tuples().iter().enumerate() {
                if dt.rel() != st.rel() {
                    continue;
                }
                for (a, b) in st.row().iter().zip(dt.row()) {
                    if a.is_distinguished() && a != b {
                        continue 'target;
                    }
                }
                cands.push(j);
            }
            if cands.is_empty() {
                return None;
            }
            out.push(cands);
        }
        Some(out)
    };

    let reps = if config.smoke { 50 } else { 2000 };
    let mut lists_identical = true;
    let mut flat_pairs = 0u64;
    let mut trie_pairs = 0u64;
    for src in &srcs {
        flat_pairs += (src.len() * dst.len()) as u64;
        let index = dst.tuple_index();
        for st in src.tuples() {
            trie_pairs += index.by_tag(st.rel()).len() as u64;
        }
        lists_identical &= candidate_lists(src, &dst) == flat_lists(src, &dst);
    }

    let start = Instant::now();
    for _ in 0..reps {
        for src in &srcs {
            std::hint::black_box(flat_lists(src, &dst));
        }
    }
    let flat_ms = start.elapsed().as_secs_f64() * 1e3 / reps as f64;
    let start = Instant::now();
    for _ in 0..reps {
        for src in &srcs {
            std::hint::black_box(candidate_lists(src, &dst));
        }
    }
    let trie_ms = start.elapsed().as_secs_f64() * 1e3 / reps as f64;

    (flat_ms, trie_ms, flat_pairs, trie_pairs, lists_identical)
}

struct TelemetryReport {
    disabled_ms: f64,
    enabled_ms: f64,
    overhead_pct: f64,
    executed: u64,
    check_spans: u64,
    check_hist: viewcap_obs::HistogramSnapshot,
    normalize_hist: viewcap_obs::HistogramSnapshot,
    trace_events: u64,
}

/// The telemetry suite (the PR 7 suite): the engine-batch workload plus
/// the `normal_form` scenario, each through a cold engine, run once with
/// telemetry disabled and once enabled. The disabled pass prices the
/// no-op fast path (one relaxed atomic load per site); the enabled pass
/// yields the per-check and per-normalize latency histograms whose
/// p50/p90/p99 the report carries.
fn bench_telemetry(config: &Config) -> TelemetryReport {
    let (cat, view, goals) = shared_goal_workload();
    let mut workload = Workload::new();
    for (label, goal) in &goals {
        workload.push(
            label.clone(),
            Check::Member {
                view: view.clone(),
                goal: goal.clone(),
            },
        );
    }
    let path = config.scenarios_dir.join("normal_form.vcap");
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read `{}`: {e}", path.display()));
    let options = ScenarioOptions { jobs: 1 };
    let run_once = || -> u64 {
        let engine = Engine::new();
        let outcome = engine.run_batch(&workload, &cat, 1);
        let executed = outcome.executed as u64;
        std::hint::black_box(outcome);
        let engine = Engine::new();
        let outcome = run_scenario_with_engine(&source, &options, &engine)
            .unwrap_or_else(|e| panic!("normal_form telemetry run failed: {e}"));
        std::hint::black_box(outcome);
        executed
    };

    // Disabled first: every instrumentation site degenerates to one
    // relaxed load, and nothing reaches the registry or the rings.
    viewcap_obs::set_enabled(false);
    let start = Instant::now();
    for _ in 0..config.iters {
        run_once();
    }
    let disabled_ms = start.elapsed().as_secs_f64() * 1e3 / config.iters as f64;

    viewcap_obs::reset();
    viewcap_obs::set_enabled(true);
    let mut executed = 0u64;
    let start = Instant::now();
    for _ in 0..config.iters {
        executed += run_once();
    }
    let enabled_ms = start.elapsed().as_secs_f64() * 1e3 / config.iters as f64;
    let snapshot = viewcap_obs::snapshot();
    let trace_events = viewcap_obs::trace_json().matches("\"ph\"").count() as u64;
    viewcap_obs::set_enabled(false);
    viewcap_obs::reset();

    let hist_of = |name: &str| snapshot.histograms.get(name).cloned().unwrap_or_default();
    TelemetryReport {
        disabled_ms,
        enabled_ms,
        overhead_pct: (enabled_ms - disabled_ms) / disabled_ms.max(1e-9) * 100.0,
        executed,
        check_spans: snapshot
            .counters
            .get("span.engine.check")
            .copied()
            .unwrap_or(0),
        check_hist: hist_of("engine.check_ns"),
        normalize_hist: hist_of("engine.normalize_ns"),
        trace_events,
    }
}

struct ThroughputJobRun {
    jobs: usize,
    wall_ms: f64,
    checks_per_sec: f64,
    yes: usize,
    no: usize,
    latency_samples: u64,
    p50_ns: u64,
    p99_ns: u64,
    cache_hits: u64,
    cache_misses: u64,
    hit_rate: f64,
}

struct ThroughputStreamReport {
    name: &'static str,
    views: usize,
    checks: usize,
    edits: usize,
    rechecks: usize,
    diffs: usize,
    txns: usize,
    runs: Vec<ThroughputJobRun>,
}

/// The throughput suite (the PR 10 suite, `BENCH_PR10.json` by default,
/// `--out-throughput`): the three generated fleet streams — the mixed
/// zipf request stream, the capacity-frontier diffing workload, and the
/// multi-edit transaction workload — each replayed end to end through a
/// cold scenario engine at `--jobs` 1/4/8. Sustained checks/sec comes
/// from the wall clock over the stream's decided verdicts; the p50/p99
/// latency columns are read back from the engine's existing
/// `engine.check_ns` histogram in `viewcap-obs` — the suite adds no
/// timing code of its own. Toggles the global telemetry flag, so it must
/// run with the telemetry suite, after every wall-time-sensitive suite.
fn bench_throughput(config: &Config) -> Vec<ThroughputStreamReport> {
    use viewcap_gen::{fleet_stream, frontier_diff_stream, txn_stream, FleetSpec};

    let spec = if config.smoke {
        FleetSpec {
            views: 48,
            events: 60,
            batch_size: 4,
            ..FleetSpec::default()
        }
    } else {
        FleetSpec::default()
    };
    let streams: Vec<(&'static str, viewcap_gen::FleetScenario)> = vec![
        ("fleet_zipf", fleet_stream(0xF1EE7, &spec)),
        ("frontier_diff", frontier_diff_stream(0xD1FF, &spec)),
        ("multi_edit_txn", txn_stream(0x7A9, &spec)),
    ];
    let mut out = Vec::new();
    for (name, stream) in streams {
        let mut runs = Vec::new();
        for jobs in [1usize, 4, 8] {
            viewcap_obs::reset();
            viewcap_obs::set_enabled(true);
            let engine = Engine::new();
            let start = Instant::now();
            let outcome =
                run_scenario_with_engine(&stream.source, &ScenarioOptions { jobs }, &engine)
                    .unwrap_or_else(|e| panic!("throughput stream `{name}` failed: {e}"));
            let wall = start.elapsed().as_secs_f64();
            viewcap_obs::set_enabled(false);
            let snapshot = viewcap_obs::snapshot();
            viewcap_obs::reset();
            let hist = snapshot
                .histograms
                .get("engine.check_ns")
                .cloned()
                .unwrap_or_default();
            let decided = outcome.yes + outcome.no;
            let (hits, misses) = (outcome.stats.hits, outcome.stats.misses);
            runs.push(ThroughputJobRun {
                jobs,
                wall_ms: wall * 1e3,
                checks_per_sec: decided as f64 / wall.max(1e-9),
                yes: outcome.yes,
                no: outcome.no,
                latency_samples: hist.count,
                p50_ns: hist.p50(),
                p99_ns: hist.p99(),
                cache_hits: hits,
                cache_misses: misses,
                hit_rate: hits as f64 / ((hits + misses) as f64).max(1.0),
            });
        }
        out.push(ThroughputStreamReport {
            name,
            views: stream.views,
            checks: stream.checks,
            edits: stream.edits,
            rechecks: stream.rechecks,
            diffs: stream.diffs,
            txns: stream.txns,
            runs,
        });
    }
    out
}

fn throughput_json_report(config: &Config, streams: &[ThroughputStreamReport]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"suite\": \"BENCH_PR10\",");
    let _ = writeln!(
        s,
        "  \"mode\": \"{}\",",
        if config.smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(s, "  \"streams\": [");
    for (i, st) in streams.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"name\": \"{}\",", st.name);
        let _ = writeln!(s, "      \"views\": {},", st.views);
        let _ = writeln!(s, "      \"checks\": {},", st.checks);
        let _ = writeln!(s, "      \"edits\": {},", st.edits);
        let _ = writeln!(s, "      \"rechecks\": {},", st.rechecks);
        let _ = writeln!(s, "      \"diffs\": {},", st.diffs);
        let _ = writeln!(s, "      \"txns\": {},", st.txns);
        let _ = writeln!(s, "      \"runs\": [");
        for (j, r) in st.runs.iter().enumerate() {
            let comma = if j + 1 == st.runs.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "        {{\"jobs\": {}, \"wall_ms\": {:.3}, \"checks_per_sec\": {:.1}, \
                 \"yes\": {}, \"no\": {}, \"latency_samples\": {}, \"p50_ns\": {}, \
                 \"p99_ns\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \
                 \"hit_rate\": {:.3}}}{comma}",
                r.jobs,
                r.wall_ms,
                r.checks_per_sec,
                r.yes,
                r.no,
                r.latency_samples,
                r.p50_ns,
                r.p99_ns,
                r.cache_hits,
                r.cache_misses,
                r.hit_rate
            );
        }
        let _ = writeln!(s, "      ]");
        let comma = if i + 1 == streams.len() { "" } else { "," };
        let _ = writeln!(s, "    }}{comma}");
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

/// The space-persistence workload: one view of four defining queries over
/// a three-relation chain schema, with membership goals whose reduced
/// templates reach five atoms — deep enough that building the candidate
/// space dominates a cold batch, which is exactly the cost a persisted
/// snapshot amortizes away.
fn space_workload_ordered(permuted: bool) -> (Catalog, View, Vec<(String, Query)>) {
    let mut cat = Catalog::new();
    if permuted {
        cat.relation("T", &["E", "D"]).unwrap();
        cat.relation("S", &["D", "C"]).unwrap();
        cat.relation("R", &["C", "B", "A"]).unwrap();
    } else {
        cat.relation("R", &["A", "B", "C"]).unwrap();
        cat.relation("S", &["C", "D"]).unwrap();
        cat.relation("T", &["D", "E"]).unwrap();
    }
    let ab = cat.scheme(&["A", "B"]).unwrap();
    let bc = cat.scheme(&["B", "C"]).unwrap();
    let cd = cat.scheme(&["C", "D"]).unwrap();
    let de = cat.scheme(&["D", "E"]).unwrap();
    let v1 = cat.fresh_relation("v1", ab);
    let v2 = cat.fresh_relation("v2", bc);
    let v3 = cat.fresh_relation("v3", cd);
    let v4 = cat.fresh_relation("v4", de);
    let view = View::from_exprs(
        vec![
            (parse_expr("pi{A,B}(R)", &cat).unwrap(), v1),
            (parse_expr("pi{B,C}(R)", &cat).unwrap(), v2),
            (parse_expr("pi{C,D}(S)", &cat).unwrap(), v3),
            (parse_expr("pi{D,E}(T)", &cat).unwrap(), v4),
        ],
        &cat,
    )
    .unwrap();
    // The two 5-atom goals pin the enumeration depth: the all-singleton
    // member and — the expensive one — a 5-atom NON-member, which forces
    // the exhaustive level-5 sweep every cold run repays.
    let goals = [
        // Members.
        "pi{A}(R) * pi{B}(R) * pi{C}(R) * pi{D}(S) * pi{E}(T)",
        "pi{A,B}(R) * pi{B,C}(R) * pi{C,D}(S) * pi{D,E}(T)",
        "pi{A,B}(R) * pi{C}(R) * pi{D}(S) * pi{E}(T)",
        "pi{A}(R) * pi{B,C}(R) * pi{C,D}(S) * pi{E}(T)",
        "pi{B,D}(pi{B,C}(R) * pi{C,D}(S)) * pi{A}(R) * pi{E}(T)",
        "pi{A,B}(R)",
        "pi{A,C}(pi{A,B}(R) * pi{B,C}(R)) * pi{D,E}(T)",
        // Non-members.
        "pi{A,B}(R) * pi{B,C}(R) * pi{A,C}(R) * pi{C,D}(S) * pi{D,E}(T)",
        "pi{A,C}(R) * pi{B}(R) * pi{C,D}(S) * pi{D,E}(T)",
        "R * pi{D}(S) * pi{E}(T)",
        "pi{A,D}(R * S) * pi{B}(R) * pi{E}(T)",
        "pi{A,E}(R * S * T)",
    ]
    .iter()
    .map(|src| {
        (
            (*src).to_owned(),
            Query::from_expr(parse_expr(src, &cat).unwrap(), &cat),
        )
    })
    .collect();
    (cat, view, goals)
}

struct SpacePersistenceReport {
    checks: usize,
    cold_ms: f64,
    warm_ms: f64,
    speedup: f64,
    cold_levels_rebuilt: u64,
    warm_levels_hydrated: u64,
    warm_levels_rebuilt: u64,
    library_spaces: usize,
    library_bytes: usize,
    verdicts_equal: bool,
    permuted_levels_hydrated: u64,
    permuted_levels_rebuilt: u64,
    permuted_verdicts_equal: bool,
}

/// The space-persistence suite (the PR 9 suite): the deep workload cold
/// versus cold-with-snapshot (the verdict cache is fresh both times, so
/// the gap is purely enumeration rebuild vs hydration), plus the same
/// snapshot driving the workload on a permuted catalog.
fn bench_space_persistence(config: &Config) -> SpacePersistenceReport {
    use std::sync::Mutex;
    use viewcap_engine::SpaceLibrary;

    let (cat, view, goals) = space_workload_ordered(false);
    let workload_of = |view: &View, goals: &[(String, Query)]| {
        let mut load = Workload::new();
        for (label, goal) in goals {
            load.push(
                label.clone(),
                Check::Member {
                    view: view.clone(),
                    goal: goal.clone(),
                },
            );
        }
        load
    };
    let verdicts_of = |outcome: &viewcap_engine::BatchOutcome| -> Vec<bool> {
        outcome
            .results
            .iter()
            .map(|r| r.as_ref().unwrap().verdict.is_yes())
            .collect()
    };
    let workload = workload_of(&view, &goals);

    // Cold: a fresh engine per iteration pays the full bounded
    // enumeration.
    let mut cold_verdicts = Vec::new();
    let mut cold_stats = viewcap_engine::EnumStats::default();
    let start = Instant::now();
    for _ in 0..config.iters {
        let engine = Engine::new();
        let outcome = engine.run_batch(&workload, &cat, 1);
        cold_verdicts = verdicts_of(&outcome);
        cold_stats = engine.enum_stats();
    }
    let cold_ms = start.elapsed().as_secs_f64() * 1e3 / config.iters as f64;

    // Seed the persisted library from one separate run.
    let library = Arc::new(Mutex::new(SpaceLibrary::new()));
    {
        let engine =
            Engine::from_config(EngineConfig::new().shared_spaces(Arc::clone(&library))).unwrap();
        engine.run_batch(&workload, &cat, 1);
        engine.harvest_spaces();
    }
    let (library_spaces, library_bytes) = {
        let lib = library.lock().expect("space library lock");
        (lib.len(), lib.to_bytes().len())
    };

    // Cold-with-snapshot: a fresh engine *and a fresh verdict cache* per
    // iteration — only the candidate spaces are warm.
    let mut warm_verdicts = Vec::new();
    let mut warm_stats = viewcap_engine::EnumStats::default();
    let start = Instant::now();
    for _ in 0..config.iters {
        let engine =
            Engine::from_config(EngineConfig::new().shared_spaces(Arc::clone(&library))).unwrap();
        let outcome = engine.run_batch(&workload, &cat, 1);
        warm_verdicts = verdicts_of(&outcome);
        warm_stats = engine.enum_stats();
    }
    let warm_ms = start.elapsed().as_secs_f64() * 1e3 / config.iters as f64;

    // The same library against the catalog declared in a permuted order:
    // content-addressed keys plus canonical enumeration make the snapshot
    // bytes valid verbatim.
    let (pcat, pview, pgoals) = space_workload_ordered(true);
    let pworkload = workload_of(&pview, &pgoals);
    let pengine =
        Engine::from_config(EngineConfig::new().shared_spaces(Arc::clone(&library))).unwrap();
    let poutcome = pengine.run_batch(&pworkload, &pcat, 1);
    let permuted_verdicts = verdicts_of(&poutcome);
    let pstats = pengine.enum_stats();

    SpacePersistenceReport {
        checks: workload.len(),
        cold_ms,
        warm_ms,
        speedup: cold_ms / warm_ms.max(1e-9),
        cold_levels_rebuilt: cold_stats.levels_rebuilt,
        warm_levels_hydrated: warm_stats.levels_hydrated,
        warm_levels_rebuilt: warm_stats.levels_rebuilt,
        library_spaces,
        library_bytes,
        verdicts_equal: cold_verdicts == warm_verdicts,
        permuted_levels_hydrated: pstats.levels_hydrated,
        permuted_levels_rebuilt: pstats.levels_rebuilt,
        permuted_verdicts_equal: cold_verdicts == permuted_verdicts,
    }
}

struct ThousandRelReport {
    relations: usize,
    dst_tuples: usize,
    flat_pairs: u64,
    trie_pairs: u64,
    flat_ms: f64,
    trie_ms: f64,
    lists_identical: bool,
}

/// Thousand-relation candidate-join microbench: the `wide` family's
/// 1000-tag destination template against sources of 1–8 tuples. The flat
/// scan examines every (source, target) pair; the byte-trie index only
/// its per-tag buckets — a `|catalog|`-factor gap at fleet scale.
fn bench_thousand_relations(config: &Config) -> ThousandRelReport {
    use viewcap_gen::{wide_join_expr, wide_world};
    use viewcap_template::{candidate_lists, template_of_expr, Template};

    let world = wide_world(1000);
    let cat = &world.catalog;
    let dst: Template = template_of_expr(&wide_join_expr(&world), cat);
    let srcs: Vec<Template> = [1usize, 2, 4, 8]
        .iter()
        .map(|&k| {
            let atoms: Vec<String> = (0..k)
                .map(|i| {
                    let j = i * (1000 / k.max(1));
                    format!("pi{{K,V{j}}}(T{j})")
                })
                .collect();
            template_of_expr(&parse_expr(&atoms.join(" * "), cat).unwrap(), cat)
        })
        .collect();

    let mut lists_identical = true;
    let mut flat_pairs = 0u64;
    let mut trie_pairs = 0u64;
    for src in &srcs {
        flat_pairs += (src.len() * dst.len()) as u64;
        let index = dst.tuple_index();
        for st in src.tuples() {
            trie_pairs += index.by_tag(st.rel()).len() as u64;
        }
        lists_identical &= candidate_lists(src, &dst) == flat_candidate_lists(src, &dst);
    }

    let reps = if config.smoke { 5 } else { 200 };
    let start = Instant::now();
    for _ in 0..reps {
        for src in &srcs {
            std::hint::black_box(flat_candidate_lists(src, &dst));
        }
    }
    let flat_ms = start.elapsed().as_secs_f64() * 1e3 / reps as f64;
    let start = Instant::now();
    for _ in 0..reps {
        for src in &srcs {
            std::hint::black_box(candidate_lists(src, &dst));
        }
    }
    let trie_ms = start.elapsed().as_secs_f64() * 1e3 / reps as f64;

    ThousandRelReport {
        relations: world.rels.len(),
        dst_tuples: dst.len(),
        flat_pairs,
        trie_pairs,
        flat_ms,
        trie_ms,
        lists_identical,
    }
}

/// Flat reference scan for the candidate-join benches: every same-tag
/// (source, target) pair, checked positionally.
fn flat_candidate_lists(
    src: &viewcap_template::Template,
    dst: &viewcap_template::Template,
) -> Option<Vec<Vec<usize>>> {
    let mut out = Vec::with_capacity(src.len());
    for st in src.tuples() {
        let mut cands = Vec::new();
        'target: for (j, dt) in dst.tuples().iter().enumerate() {
            if dt.rel() != st.rel() {
                continue;
            }
            for (a, b) in st.row().iter().zip(dt.row()) {
                if a.is_distinguished() && a != b {
                    continue 'target;
                }
            }
            cands.push(j);
        }
        if cands.is_empty() {
            return None;
        }
        out.push(cands);
    }
    Some(out)
}

fn space_json_report(
    config: &Config,
    space: &SpacePersistenceReport,
    wide: &ThousandRelReport,
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"suite\": \"BENCH_PR9\",");
    let _ = writeln!(
        s,
        "  \"mode\": \"{}\",",
        if config.smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(s, "  \"space_persistence\": {{");
    let _ = writeln!(s, "    \"checks\": {},", space.checks);
    let _ = writeln!(s, "    \"iters\": {},", config.iters);
    let _ = writeln!(s, "    \"cold_ms\": {:.3},", space.cold_ms);
    let _ = writeln!(s, "    \"cold_with_snapshot_ms\": {:.3},", space.warm_ms);
    let _ = writeln!(s, "    \"speedup\": {:.2},", space.speedup);
    let _ = writeln!(
        s,
        "    \"cold_levels_rebuilt\": {},",
        space.cold_levels_rebuilt
    );
    let _ = writeln!(
        s,
        "    \"warm_levels_hydrated\": {},",
        space.warm_levels_hydrated
    );
    let _ = writeln!(
        s,
        "    \"warm_levels_rebuilt\": {},",
        space.warm_levels_rebuilt
    );
    let _ = writeln!(s, "    \"library_spaces\": {},", space.library_spaces);
    let _ = writeln!(s, "    \"library_bytes\": {},", space.library_bytes);
    let _ = writeln!(s, "    \"verdicts_equal\": {},", space.verdicts_equal);
    let _ = writeln!(
        s,
        "    \"permuted_levels_hydrated\": {},",
        space.permuted_levels_hydrated
    );
    let _ = writeln!(
        s,
        "    \"permuted_levels_rebuilt\": {},",
        space.permuted_levels_rebuilt
    );
    let _ = writeln!(
        s,
        "    \"permuted_verdicts_equal\": {}",
        space.permuted_verdicts_equal
    );
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"thousand_relations\": {{");
    let _ = writeln!(s, "    \"relations\": {},", wide.relations);
    let _ = writeln!(s, "    \"dst_tuples\": {},", wide.dst_tuples);
    let _ = writeln!(s, "    \"flat_pairs\": {},", wide.flat_pairs);
    let _ = writeln!(s, "    \"trie_pairs\": {},", wide.trie_pairs);
    let _ = writeln!(s, "    \"flat_ms\": {:.4},", wide.flat_ms);
    let _ = writeln!(s, "    \"trie_ms\": {:.4},", wide.trie_ms);
    let _ = writeln!(s, "    \"lists_identical\": {}", wide.lists_identical);
    let _ = writeln!(s, "  }}");
    let _ = writeln!(s, "}}");
    s
}

fn norm_json_report(config: &Config, norm: &NormalizationReport) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"suite\": \"BENCH_PR6\",");
    let _ = writeln!(
        s,
        "  \"mode\": \"{}\",",
        if config.smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(s, "  \"normal_form\": {{");
    let _ = writeln!(s, "    \"iters\": {},", config.iters);
    let _ = writeln!(s, "    \"cold_ms\": {:.3},", norm.cold_ms);
    let _ = writeln!(s, "    \"warm_ms\": {:.3},", norm.warm_ms);
    let _ = writeln!(s, "    \"speedup\": {:.2},", norm.speedup);
    let _ = writeln!(s, "    \"warm_hits\": {},", norm.warm_hits);
    let _ = writeln!(s, "    \"warm_misses\": {},", norm.warm_misses);
    let _ = writeln!(s, "    \"cold_contexts\": {},", norm.cold_contexts);
    let _ = writeln!(s, "    \"cold_probes\": {},", norm.cold_probes);
    let _ = writeln!(s, "    \"cold_combos\": {},", norm.cold_combos);
    let _ = writeln!(s, "    \"warm_combos\": {},", norm.warm_combos);
    let _ = writeln!(s, "    \"reports_identical\": {}", norm.reports_identical);
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"candidate_join\": {{");
    let _ = writeln!(s, "    \"flat_ms\": {:.4},", norm.join_flat_ms);
    let _ = writeln!(s, "    \"trie_ms\": {:.4},", norm.join_trie_ms);
    let _ = writeln!(s, "    \"flat_pairs\": {},", norm.join_flat_pairs);
    let _ = writeln!(s, "    \"trie_pairs\": {},", norm.join_trie_pairs);
    let _ = writeln!(s, "    \"lists_identical\": {}", norm.join_lists_identical);
    let _ = writeln!(s, "  }}");
    let _ = writeln!(s, "}}");
    s
}

fn obs_json_report(config: &Config, obs: &TelemetryReport) -> String {
    let hist = |s: &mut String, key: &str, h: &viewcap_obs::HistogramSnapshot, comma: &str| {
        let _ = writeln!(
            s,
            "    \"{key}\": {{\"count\": {}, \"min_ns\": {}, \"max_ns\": {}, \
             \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}}}{comma}",
            h.count,
            if h.count == 0 { 0 } else { h.min },
            h.max,
            h.p50(),
            h.p90(),
            h.p99()
        );
    };
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"suite\": \"BENCH_PR7\",");
    let _ = writeln!(
        s,
        "  \"mode\": \"{}\",",
        if config.smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(s, "  \"telemetry\": {{");
    let _ = writeln!(s, "    \"iters\": {},", config.iters);
    let _ = writeln!(s, "    \"disabled_ms\": {:.3},", obs.disabled_ms);
    let _ = writeln!(s, "    \"enabled_ms\": {:.3},", obs.enabled_ms);
    let _ = writeln!(s, "    \"overhead_pct\": {:.2},", obs.overhead_pct);
    let _ = writeln!(s, "    \"checks_executed\": {},", obs.executed);
    let _ = writeln!(s, "    \"check_spans\": {},", obs.check_spans);
    let _ = writeln!(s, "    \"trace_events\": {},", obs.trace_events);
    hist(&mut s, "per_check", &obs.check_hist, ",");
    hist(&mut s, "per_normalize", &obs.normalize_hist, "");
    let _ = writeln!(s, "  }}");
    let _ = writeln!(s, "}}");
    s
}

fn cross_json_report(config: &Config, cross: &CrossCatalogReport) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"suite\": \"BENCH_PR5\",");
    let _ = writeln!(
        s,
        "  \"mode\": \"{}\",",
        if config.smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(s, "  \"cross_catalog_warm_start\": {{");
    let _ = writeln!(s, "    \"checks\": {},", cross.checks);
    let _ = writeln!(s, "    \"iters\": {},", config.iters);
    let _ = writeln!(s, "    \"cold_ms\": {:.3},", cross.cold_ms);
    let _ = writeln!(s, "    \"warm_ms\": {:.3},", cross.warm_ms);
    let _ = writeln!(s, "    \"speedup\": {:.2},", cross.speedup);
    let _ = writeln!(s, "    \"warm_hits\": {},", cross.warm_hits);
    let _ = writeln!(s, "    \"warm_misses\": {},", cross.warm_misses);
    let _ = writeln!(s, "    \"warm_executed\": {},", cross.warm_executed);
    let _ = writeln!(s, "    \"merged_entries\": {},", cross.merged_entries);
    let _ = writeln!(s, "    \"verdicts_equal\": {}", cross.verdicts_equal);
    let _ = writeln!(s, "  }}");
    let _ = writeln!(s, "}}");
    s
}

fn json_report(
    config: &Config,
    shared: &SharedGoalReport,
    batch: &EngineBatchReport,
    scenarios: &[ScenarioReport],
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"suite\": \"BENCH_PR4\",");
    let _ = writeln!(
        s,
        "  \"mode\": \"{}\",",
        if config.smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(s, "  \"shared_goal\": {{");
    let _ = writeln!(s, "    \"goals\": {},", shared.goals);
    let _ = writeln!(s, "    \"iters\": {},", shared.iters);
    let _ = writeln!(s, "    \"baseline_ms\": {:.3},", shared.baseline_ms);
    let _ = writeln!(s, "    \"shared_ms\": {:.3},", shared.shared_ms);
    let _ = writeln!(s, "    \"speedup\": {:.2},", shared.speedup);
    let _ = writeln!(s, "    \"baseline_combos\": {},", shared.baseline_combos);
    let _ = writeln!(s, "    \"shared_combos\": {},", shared.shared_combos);
    let verdicts: Vec<String> = shared.verdicts.iter().map(|v| v.to_string()).collect();
    let _ = writeln!(s, "    \"verdicts\": [{}]", verdicts.join(", "));
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"engine_batch\": {{");
    let _ = writeln!(s, "    \"checks\": {},", batch.checks);
    let _ = writeln!(s, "    \"wall_ms\": {:.3},", batch.wall_ms);
    let _ = writeln!(s, "    \"contexts\": {},", batch.contexts);
    let _ = writeln!(s, "    \"probes\": {},", batch.probes);
    let _ = writeln!(s, "    \"combos\": {},", batch.combos);
    let _ = writeln!(s, "    \"executed\": {}", batch.executed);
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"scenarios\": [");
    for (i, sc) in scenarios.iter().enumerate() {
        let comma = if i + 1 == scenarios.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"wall_ms\": {:.3}, \"yes\": {}, \"no\": {}, \
             \"cache_hits\": {}, \"cache_misses\": {}, \"contexts\": {}, \"probes\": {}, \
             \"combos\": {}}}{comma}",
            sc.name,
            sc.wall_ms,
            sc.yes,
            sc.no,
            sc.cache_hits,
            sc.cache_misses,
            sc.contexts,
            sc.probes,
            sc.combos
        );
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: viewcap-bench [--smoke] [--iters N] [--out PATH] [--out-cross PATH] \
         [--out-norm PATH] [--out-obs PATH] [--out-space PATH] [--out-throughput PATH] \
         [--scenarios DIR]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut config = Config {
        iters: 3,
        smoke: false,
        out: "BENCH_PR4.json".into(),
        out_cross: "BENCH_PR5.json".into(),
        out_norm: "BENCH_PR6.json".into(),
        out_obs: "BENCH_PR7.json".into(),
        out_space: "BENCH_PR9.json".into(),
        out_throughput: "BENCH_PR10.json".into(),
        scenarios_dir: "scenarios".into(),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => {
                config.smoke = true;
                config.iters = 1;
            }
            "--iters" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => config.iters = n,
                _ => return usage(),
            },
            "--out" => match it.next() {
                Some(p) => config.out = p.into(),
                None => return usage(),
            },
            "--out-cross" => match it.next() {
                Some(p) => config.out_cross = p.into(),
                None => return usage(),
            },
            "--out-norm" => match it.next() {
                Some(p) => config.out_norm = p.into(),
                None => return usage(),
            },
            "--out-obs" => match it.next() {
                Some(p) => config.out_obs = p.into(),
                None => return usage(),
            },
            "--out-space" => match it.next() {
                Some(p) => config.out_space = p.into(),
                None => return usage(),
            },
            "--out-throughput" => match it.next() {
                Some(p) => config.out_throughput = p.into(),
                None => return usage(),
            },
            "--scenarios" => match it.next() {
                Some(p) => config.scenarios_dir = p.into(),
                None => return usage(),
            },
            _ => return usage(),
        }
    }

    let shared = bench_shared_goals(&config);
    let batch = bench_engine_batch(&config);
    let scenarios = bench_scenarios(&config);
    let cross = bench_cross_catalog(&config);
    let norm = bench_normalization(&config);
    let space = bench_space_persistence(&config);
    let wide = bench_thousand_relations(&config);
    // Last, so flipping the global telemetry flag cannot touch the other
    // suites' measurements. The throughput suite also drives the flag
    // (its p50/p99 columns come from the `engine.check_ns` histogram),
    // so it rides in the same tail position.
    let obs = bench_telemetry(&config);
    let throughput = bench_throughput(&config);

    println!(
        "shared-goal: {} goals, baseline {:.2} ms / shared {:.2} ms ({:.2}x), \
         combos {} -> {}",
        shared.goals,
        shared.baseline_ms,
        shared.shared_ms,
        shared.speedup,
        shared.baseline_combos,
        shared.shared_combos
    );
    println!(
        "engine-batch: {} checks in {:.2} ms, {} context(s), {} probe(s), {} combos",
        batch.checks, batch.wall_ms, batch.contexts, batch.probes, batch.combos
    );
    for sc in &scenarios {
        println!(
            "scenario {}: {:.2} ms, {} yes / {} no, {} context(s), {} combos",
            sc.name, sc.wall_ms, sc.yes, sc.no, sc.contexts, sc.combos
        );
    }

    println!(
        "cross-catalog: {} checks, cold {:.2} ms / merged-warm {:.2} ms ({:.2}x), \
         {} merged entrie(s), {} warm hit(s), {} executed",
        cross.checks,
        cross.cold_ms,
        cross.warm_ms,
        cross.speedup,
        cross.merged_entries,
        cross.warm_hits,
        cross.warm_executed
    );

    let report = json_report(&config, &shared, &batch, &scenarios);
    if let Err(e) = std::fs::write(&config.out, &report) {
        eprintln!(
            "viewcap-bench: cannot write `{}`: {e}",
            config.out.display()
        );
        return ExitCode::FAILURE;
    }
    println!("wrote {}", config.out.display());

    let cross_report = cross_json_report(&config, &cross);
    if let Err(e) = std::fs::write(&config.out_cross, &cross_report) {
        eprintln!(
            "viewcap-bench: cannot write `{}`: {e}",
            config.out_cross.display()
        );
        return ExitCode::FAILURE;
    }
    println!("wrote {}", config.out_cross.display());

    println!(
        "normalization: cold {:.2} ms / warm {:.2} ms ({:.2}x), {} warm hit(s), \
         {} cold combos; join index {} -> {} pairs examined ({:.4} -> {:.4} ms)",
        norm.cold_ms,
        norm.warm_ms,
        norm.speedup,
        norm.warm_hits,
        norm.cold_combos,
        norm.join_flat_pairs,
        norm.join_trie_pairs,
        norm.join_flat_ms,
        norm.join_trie_ms
    );
    let norm_report = norm_json_report(&config, &norm);
    if let Err(e) = std::fs::write(&config.out_norm, &norm_report) {
        eprintln!(
            "viewcap-bench: cannot write `{}`: {e}",
            config.out_norm.display()
        );
        return ExitCode::FAILURE;
    }
    println!("wrote {}", config.out_norm.display());

    println!(
        "space-persistence: {} checks, cold {:.2} ms / with-snapshot {:.2} ms ({:.2}x), \
         {} level(s) rebuilt -> {} hydrated / {} rebuilt, permuted {} hydrated / {} rebuilt",
        space.checks,
        space.cold_ms,
        space.warm_ms,
        space.speedup,
        space.cold_levels_rebuilt,
        space.warm_levels_hydrated,
        space.warm_levels_rebuilt,
        space.permuted_levels_hydrated,
        space.permuted_levels_rebuilt
    );
    println!(
        "thousand-relations: {} tags, join index {} -> {} pairs examined \
         ({:.4} -> {:.4} ms)",
        wide.relations, wide.flat_pairs, wide.trie_pairs, wide.flat_ms, wide.trie_ms
    );
    let space_report = space_json_report(&config, &space, &wide);
    if let Err(e) = std::fs::write(&config.out_space, &space_report) {
        eprintln!(
            "viewcap-bench: cannot write `{}`: {e}",
            config.out_space.display()
        );
        return ExitCode::FAILURE;
    }
    println!("wrote {}", config.out_space.display());

    println!(
        "telemetry: disabled {:.2} ms / enabled {:.2} ms ({:+.1}%), {} check(s), \
         per-check p50 {} ns / p99 {} ns, {} trace event(s)",
        obs.disabled_ms,
        obs.enabled_ms,
        obs.overhead_pct,
        obs.check_hist.count,
        obs.check_hist.p50(),
        obs.check_hist.p99(),
        obs.trace_events
    );
    let obs_report = obs_json_report(&config, &obs);
    if let Err(e) = std::fs::write(&config.out_obs, &obs_report) {
        eprintln!(
            "viewcap-bench: cannot write `{}`: {e}",
            config.out_obs.display()
        );
        return ExitCode::FAILURE;
    }
    println!("wrote {}", config.out_obs.display());

    for st in &throughput {
        for r in &st.runs {
            println!(
                "throughput {} --jobs {}: {:.0} checks/sec over {:.2} ms, \
                 p50 {} ns / p99 {} ns ({} sample(s)), hit-rate {:.2}",
                st.name,
                r.jobs,
                r.checks_per_sec,
                r.wall_ms,
                r.p50_ns,
                r.p99_ns,
                r.latency_samples,
                r.hit_rate
            );
        }
    }
    let throughput_report = throughput_json_report(&config, &throughput);
    if let Err(e) = std::fs::write(&config.out_throughput, &throughput_report) {
        eprintln!(
            "viewcap-bench: cannot write `{}`: {e}",
            config.out_throughput.display()
        );
        return ExitCode::FAILURE;
    }
    println!("wrote {}", config.out_throughput.display());

    if config.smoke {
        // The counters must be live and the sharing real, or PR 4's whole
        // premise regressed.
        let mut failures = Vec::new();
        if shared.shared_combos == 0 {
            failures.push("shared_combos is 0".to_owned());
        }
        if shared.baseline_combos <= shared.shared_combos {
            failures.push(format!(
                "no combo amortization: baseline {} <= shared {}",
                shared.baseline_combos, shared.shared_combos
            ));
        }
        if batch.contexts != 1 {
            failures.push(format!("expected 1 engine context, got {}", batch.contexts));
        }
        if batch.probes < batch.checks as u64 {
            failures.push(format!(
                "engine probes {} below check count {}",
                batch.probes, batch.checks
            ));
        }
        if cross.warm_hits == 0 {
            failures.push("cross-catalog warm start recorded no cache hits".to_owned());
        }
        if cross.warm_executed != 0 {
            failures.push(format!(
                "cross-catalog warm start executed {} check(s)",
                cross.warm_executed
            ));
        }
        if !cross.verdicts_equal {
            failures.push("cross-catalog warm verdicts diverged from cold".to_owned());
        }
        if norm.warm_hits == 0 {
            failures.push("warm normalization recorded no cache hits".to_owned());
        }
        if norm.warm_misses != 0 {
            failures.push(format!(
                "warm normalization missed {} time(s)",
                norm.warm_misses
            ));
        }
        if norm.warm_combos != 0 {
            failures.push(format!(
                "warm normalization re-enumerated {} combo(s)",
                norm.warm_combos
            ));
        }
        if !norm.reports_identical {
            failures.push("warm normal_form report diverged from cold".to_owned());
        }
        if norm.cold_probes == 0 || norm.cold_combos == 0 {
            failures.push("cold normalization stats are dead (probes/combos 0)".to_owned());
        }
        if norm.join_trie_pairs >= norm.join_flat_pairs {
            failures.push(format!(
                "trie join examined {} pairs, not strictly below the flat scan's {}",
                norm.join_trie_pairs, norm.join_flat_pairs
            ));
        }
        if !norm.join_lists_identical {
            failures.push("trie candidate lists diverged from the flat scan".to_owned());
        }
        if space.cold_levels_rebuilt == 0 {
            failures.push("cold space runs rebuilt no levels (workload is dead)".to_owned());
        }
        if space.warm_levels_rebuilt != 0 {
            failures.push(format!(
                "snapshot-warmed run rebuilt {} level(s)",
                space.warm_levels_rebuilt
            ));
        }
        if space.warm_levels_hydrated == 0 {
            failures.push("snapshot-warmed run hydrated no levels".to_owned());
        }
        if space.permuted_levels_rebuilt != 0 {
            failures.push(format!(
                "permuted-catalog snapshot run rebuilt {} level(s)",
                space.permuted_levels_rebuilt
            ));
        }
        if !space.verdicts_equal {
            failures.push("snapshot-warmed verdicts diverged from cold".to_owned());
        }
        if !space.permuted_verdicts_equal {
            failures.push("permuted-catalog snapshot verdicts diverged from cold".to_owned());
        }
        if space.library_spaces == 0 {
            failures.push("harvest produced an empty space library".to_owned());
        }
        if wide.trie_pairs >= wide.flat_pairs {
            failures.push(format!(
                "thousand-relation trie examined {} pairs, not below the flat scan's {}",
                wide.trie_pairs, wide.flat_pairs
            ));
        }
        if !wide.lists_identical {
            failures.push("thousand-relation candidate lists diverged".to_owned());
        }
        if obs.check_hist.count == 0 {
            failures.push("telemetry recorded no per-check latencies".to_owned());
        }
        if obs.check_hist.count != obs.check_spans || obs.check_spans != obs.executed {
            failures.push(format!(
                "telemetry span accounting broken: {} latencies, {} spans, {} executed",
                obs.check_hist.count, obs.check_spans, obs.executed
            ));
        }
        let (p50, p90, p99) = (
            obs.check_hist.p50(),
            obs.check_hist.p90(),
            obs.check_hist.p99(),
        );
        if !(p50 <= p90 && p90 <= p99) {
            failures.push(format!(
                "per-check quantiles not monotone: p50 {p50} / p90 {p90} / p99 {p99}"
            ));
        }
        if obs.normalize_hist.count == 0 {
            failures.push("telemetry recorded no per-normalize latencies".to_owned());
        }
        if obs.trace_events == 0 {
            failures.push("enabled run emitted no trace events".to_owned());
        }
        for st in &throughput {
            let mut verdicts = None;
            for r in &st.runs {
                if r.checks_per_sec <= 0.0 {
                    failures.push(format!(
                        "throughput {} --jobs {}: checks/sec not positive",
                        st.name, r.jobs
                    ));
                }
                if r.latency_samples == 0 {
                    failures.push(format!(
                        "throughput {} --jobs {}: no engine.check_ns samples (p99 missing)",
                        st.name, r.jobs
                    ));
                }
                if r.p50_ns > r.p99_ns {
                    failures.push(format!(
                        "throughput {} --jobs {}: p50 {} above p99 {}",
                        st.name, r.jobs, r.p50_ns, r.p99_ns
                    ));
                }
                match verdicts {
                    None => verdicts = Some((r.yes, r.no)),
                    Some(v) => {
                        if v != (r.yes, r.no) {
                            failures.push(format!(
                                "throughput {}: verdict counts depend on --jobs",
                                st.name
                            ));
                        }
                    }
                }
            }
        }
        // The zipf head plus toggled-back edits must keep the verdict
        // cache warm: popular checks repeat, so the mixed stream's
        // hit-rate is a liveness signal for the whole premise.
        if let Some(fleet) = throughput.iter().find(|s| s.name == "fleet_zipf") {
            for r in &fleet.runs {
                if r.hit_rate < 0.25 {
                    failures.push(format!(
                        "fleet_zipf --jobs {}: warm hit-rate {:.3} below 0.25",
                        r.jobs, r.hit_rate
                    ));
                }
            }
        }
        if let Some(diffs) = throughput.iter().find(|s| s.name == "frontier_diff") {
            if diffs.diffs == 0 {
                failures.push("frontier_diff stream generated no diff commands".to_owned());
            }
        }
        if let Some(txns) = throughput.iter().find(|s| s.name == "multi_edit_txn") {
            if txns.txns == 0 {
                failures.push("multi_edit_txn stream generated no txn blocks".to_owned());
            }
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("viewcap-bench: smoke failure: {f}");
            }
            return ExitCode::FAILURE;
        }
        println!("smoke checks passed");
    }
    ExitCode::SUCCESS
}
