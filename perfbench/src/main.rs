//! The viewcap benchmark: three seeded workloads through the program's
//! public entry points, every end-to-end metric by name and unit, outputs
//! checked against cold reference runs, and a separate traced run that
//! attributes time to layers.
//!
//! ```text
//! viewcap-perfbench --workload <fleet_stream|cold_deep|daemon_warm>
//!                   --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it through `perfbench/run.py`, which builds it and adds the peak
//! resident memory. The last stdout line is the result object; the line
//! before it (`report {...}`) records the seed, input sizes and host.
//! See `perfbench/README.md` for the metrics and their units.

mod expected;
mod inputs;
mod layers;
mod run;
mod stats;

use std::collections::HashSet;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use inputs::{Sizes, Submission, Workload};
use layers::{CycleTrace, FinalState, Model, PER_LAYER};
use run::{Phase, Scratch, Tally};
use stats::{median, quantile};
use viewcap_base::Catalog;
use viewcap_engine::{Engine, PileStore, SpaceLibrary, VerdictCache};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok(),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload must be fleet_stream, cold_deep or daemon_warm")?,
        seed: seed.ok_or("--seed must be a whole number")?,
        seconds: seconds
            .filter(|s| *s > 0)
            .ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace must be 0 or 1")?,
    })
}

/// Everything one run prints.
struct Report {
    tally: Tally,
    /// `(name, value, unit)`.
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Liveness findings: a workload that stopped exercising its layer.
    dead: Vec<String>,
    /// Input sizes and settings for the `report` line.
    info: Vec<(&'static str, String)>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("viewcap-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match bench(&args, &Sizes::FULL) {
        Ok(report) => {
            print_report(&args, &report);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("viewcap-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn bench(args: &Args, sizes: &Sizes) -> Result<Report, String> {
    let budget = Duration::from_secs(args.seconds);
    let mut scratch = Scratch::new().map_err(|e| format!("scratch directory: {e}"))?;
    let mut report = match (args.workload, args.trace) {
        (Workload::DaemonWarm, false) => daemon_e2e(args.seed, budget, sizes, &mut scratch)?,
        (Workload::DaemonWarm, true) => daemon_traced(args.seed, budget, sizes, &mut scratch)?,
        (w, false) => in_process_e2e(w, args.seed, budget, sizes, &mut scratch)?,
        (w, true) => in_process_traced(w, args.seed, budget, sizes, &mut scratch)?,
    };
    if args.trace {
        report.dead.extend(liveness(args.workload, &report.metrics));
    }
    for note in report.tally.notes.iter().chain(&report.dead) {
        eprintln!("viewcap-perfbench: {note}");
    }
    Ok(report)
}

fn inputs_of(workload: Workload, seed: u64, sizes: &Sizes) -> Vec<Submission> {
    match workload {
        Workload::FleetStream => inputs::fleet_pool(seed, sizes),
        Workload::ColdDeep => vec![inputs::cold_deep(seed)],
        Workload::DaemonWarm => inputs::daemon_requests(seed, sizes),
    }
}

/// Inputs, the digests of their cold reference runs' verdicts, and what
/// the later passes need of the reference runs.
struct Prepared {
    subs: Vec<Submission>,
    /// Digest of each reference run's verdict lines.
    want: Vec<u64>,
    /// Distinct cache keys the reference runs decided.
    distinct: usize,
    /// The first reference run's verdicts and final catalog.
    first: (Arc<VerdictCache>, Catalog),
    /// Digest of the reference verdicts (see `expected`).
    digest: u64,
    /// Set when the reference verdicts differ from the recorded ones.
    wrong: Option<String>,
}

/// Set-up: generate the inputs and make the cold reference run of each,
/// which the timed phase's outputs are checked against. Each reference
/// engine is dropped as soon as it ran; with `pile`, its verdicts are
/// appended there first, as a batch-CLI run with `--pile` does.
fn set_up(
    workload: Workload,
    seed: u64,
    sizes: &Sizes,
    library: Option<&Arc<Mutex<SpaceLibrary>>>,
    mut pile: Option<&mut PileStore>,
) -> Result<Prepared, String> {
    let subs = inputs_of(workload, seed, sizes);
    let (mut want, mut keys, mut first) = (Vec::new(), HashSet::new(), None);
    let mut digest = expected::EMPTY;
    for sub in &subs {
        let (transcript, engine, catalog) = run::reference(sub, library)?;
        keys.extend(engine.cache().snapshot().into_iter().map(|(key, _)| key));
        if let Some(store) = pile.as_deref_mut() {
            store
                .append_cache(engine.cache(), &catalog)
                .map_err(|e| format!("pile append: {e}"))?;
        }
        want.push(expected::verdict_digest(
            expected::EMPTY,
            &transcript,
            false,
        ));
        digest = expected::fold(workload, digest, &transcript);
        first.get_or_insert((engine.shared_cache(), catalog));
    }
    Ok(Prepared {
        wrong: expected::check(workload, seed, sizes, digest),
        subs,
        want,
        distinct: keys.len(),
        first: first.ok_or("a workload without inputs")?,
        digest,
    })
}

/// Input sizes for the report line.
fn size_info(workload: Workload, p: &Prepared, sizes: &Sizes) -> Vec<(&'static str, String)> {
    let (views, events) = match workload {
        Workload::FleetStream => (inputs::FLEET_VIEWS, sizes.fleet_events * p.subs.len()),
        Workload::ColdDeep => (inputs::COLD_VIEWS, 0),
        Workload::DaemonWarm => (inputs::FLEET_VIEWS, sizes.daemon_events * p.subs.len()),
    };
    let checks: usize = p
        .subs
        .iter()
        .map(|s| {
            s.source
                .lines()
                .filter(|l| l.trim_start().starts_with("check "))
                .count()
        })
        .sum();
    vec![
        ("submissions", p.subs.len().to_string()),
        (
            "requests",
            p.subs.iter().map(|s| s.requests).sum::<usize>().to_string(),
        ),
        ("views", views.to_string()),
        ("events", events.to_string()),
        ("checks", checks.to_string()),
        ("distinct_checks", p.distinct.to_string()),
        ("verdict_digest", format!("{:016x}", p.digest)),
    ]
}

// ------------------------------------------------------------ in process

/// Set-ups per in-process run; their median is `setup_s`.
const SETUP_REPS: usize = 5;

fn in_process_e2e(
    workload: Workload,
    seed: u64,
    budget: Duration,
    sizes: &Sizes,
    scratch: &mut Scratch,
) -> Result<Report, String> {
    let (mut setups, mut pile_bytes) = (Vec::new(), 0);
    let mut prepared: Option<Prepared> = None;
    let mut tally = Tally::default();
    let mut phase = Phase::default();
    // Set-ups alternate with slices of the timed phase, so that their
    // timings sample the host over the whole run, as the cycles do.
    for _ in 0..SETUP_REPS {
        let path = scratch.path("pile");
        let t = Instant::now();
        let mut store = PileStore::open(&path).map_err(|e| format!("pile: {e}"))?;
        let p = set_up(workload, seed, sizes, None, Some(&mut store))?;
        drop(store);
        setups.push(t.elapsed().as_secs_f64());
        pile_bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        let _ = std::fs::remove_file(&path);
        match &prepared {
            Some(first) if first.digest != p.digest => {
                return Err("reference runs of the same input differ".to_owned())
            }
            Some(_) => drop(p),
            None => prepared = Some(p),
        }
        let p = prepared.as_ref().expect("the first set-up");
        phase.merge(run::in_process(
            &p.subs,
            &p.want,
            &Engine::new,
            budget / SETUP_REPS as u32,
            &mut tally,
            None,
        ));
    }
    let p = prepared.expect("at least one set-up");
    if let Some(note) = &p.wrong {
        tally.fail_all(note.clone());
    }
    let mut info = size_info(workload, &p, sizes);
    info.push(("cycles", phase.cycles.to_string()));
    info.push(("setups", setups.len().to_string()));
    Ok(Report {
        tally,
        // One settled cycle: each submission once, at its settled latency.
        metrics: e2e_metrics(
            &phase.settled_ms(),
            p.subs.iter().map(|s| s.requests).sum(),
            &setups,
            pile_bytes,
        ),
        dead: Vec::new(),
        info,
    })
}

/// The end-to-end metrics from request latencies that took `requests`
/// requests in all, set-up times and the pile size.
fn e2e_metrics(
    latencies_ms: &[f64],
    requests: usize,
    setups_s: &[f64],
    pile_bytes: u64,
) -> Vec<(&'static str, f64, &'static str)> {
    vec![
        (
            "requests_per_s",
            requests as f64 * 1e3 / latencies_ms.iter().sum::<f64>(),
            "req/s",
        ),
        ("request_p50_ms", quantile(latencies_ms, 0.5), "ms"),
        ("request_p90_ms", quantile(latencies_ms, 0.9), "ms"),
        ("setup_s", median(setups_s), "s"),
        ("pile_bytes", pile_bytes as f64, "bytes"),
    ]
}

fn in_process_traced(
    workload: Workload,
    seed: u64,
    budget: Duration,
    sizes: &Sizes,
    scratch: &mut Scratch,
) -> Result<Report, String> {
    let library = Arc::new(Mutex::new(SpaceLibrary::new()));
    let p = set_up(workload, seed, sizes, Some(&library), None)?;
    let (subs, want) = (&p.subs, &p.want);
    let mut tally = Tally::default();
    // Untraced and traced cycles alternate, so both see the same machine.
    let (mut untraced, mut traced, mut traces) = (Phase::default(), Phase::default(), Vec::new());
    let start = Instant::now();
    while traces.is_empty() || start.elapsed() < budget {
        untraced.merge(run::in_process(
            subs,
            want,
            &Engine::new,
            Duration::ZERO,
            &mut tally,
            None,
        ));
        traced.merge(run::in_process(
            subs,
            want,
            &Engine::new,
            Duration::ZERO,
            &mut tally,
            Some(&mut traces),
        ));
    }

    if let Some(note) = &p.wrong {
        tally.fail_all(note.clone());
    }
    // The first reference run's verdicts and the spaces all of them grew
    // stand for the state a run leaves behind.
    let (cache, catalog) = &p.first;
    let state = FinalState {
        cache: Arc::clone(cache),
        catalog: catalog.clone(),
        library,
    };
    let (pile, append_us, bytes_per_append) = layers::pile_appends(scratch, &state)?;
    let reload = layers::pile_reload(&pile)?;
    let serve_reps = if workload == Workload::ColdDeep { 5 } else { 2 };
    let serve = layers::serve_pass(scratch, &pile, catalog, subs, serve_reps)?;

    let mut info = size_info(workload, &p, sizes);
    info.push(("traced_cycles", traces.len().to_string()));
    let models = models_of(subs);
    Ok(Report {
        tally,
        metrics: per_layer_metrics(Layered {
            traces: &traces,
            untraced: &untraced,
            traced: &traced,
            models: &models,
            state: &state,
            append_us,
            bytes_per_append,
            reload,
            serve,
        })?,
        dead: Vec::new(),
        info,
    })
}

/// Models of at most the first eight sources: the layer passes' inputs.
fn models_of(subs: &[Submission]) -> Vec<Model> {
    subs.iter()
        .take(8)
        .filter_map(|s| Model::of(&s.source).ok())
        .collect()
}

// ------------------------------------------------------------ daemon

fn daemon_e2e(
    seed: u64,
    budget: Duration,
    sizes: &Sizes,
    scratch: &mut Scratch,
) -> Result<Report, String> {
    let p = set_up(Workload::DaemonWarm, seed, sizes, None, None)?;
    let mut info = size_info(Workload::DaemonWarm, &p, sizes);
    let Prepared {
        subs,
        want,
        wrong,
        first,
        ..
    } = p;
    drop(first);
    let mut tally = Tally::default();
    let mut phase = Phase::default();
    let (mut setups, mut pile_sizes) = (Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        let pile = run::daemon_round(scratch, &subs, &want, &mut phase, &mut tally)?;
        pile_sizes.push(std::fs::metadata(&pile).map_err(|e| e.to_string())?.len() as f64);
        for _ in 0..sizes.daemon_restarts {
            setups.push(run::restart_secs(
                scratch, &pile, &subs[0], want[0], &mut tally,
            )?);
        }
        let _ = std::fs::remove_file(&pile);
        if start.elapsed() >= budget {
            break;
        }
    }
    if let Some(note) = wrong {
        tally.fail_all(note);
    }
    info.push(("rounds", phase.cycles.to_string()));
    info.push(("restarts", setups.len().to_string()));
    Ok(Report {
        tally,
        // Every round trip as timed: a pile stall that hits some requests
        // is part of the tail a caller sees.
        metrics: e2e_metrics(
            &phase.all_ms(),
            phase.requests,
            &setups,
            median(&pile_sizes) as u64,
        ),
        dead: Vec::new(),
        info,
    })
}

fn daemon_traced(
    seed: u64,
    budget: Duration,
    sizes: &Sizes,
    scratch: &mut Scratch,
) -> Result<Report, String> {
    let p = set_up(Workload::DaemonWarm, seed, sizes, None, None)?;
    let (subs, want) = (&p.subs, &p.want);
    let catalog = p.first.1.clone();
    let mut tally = Tally::default();
    // Untraced and traced rounds alternate, so both see the same machine.
    let (mut untraced, mut traced) = (Phase::default(), Phase::default());
    let start = Instant::now();
    let pile = loop {
        let pile = run::daemon_round(scratch, subs, want, &mut untraced, &mut tally)?;
        let _ = std::fs::remove_file(&pile);
        viewcap_obs::set_enabled(true);
        let pile = run::daemon_round(scratch, subs, want, &mut traced, &mut tally);
        viewcap_obs::set_enabled(false);
        let pile = pile?;
        if start.elapsed() >= budget {
            break pile;
        }
        let _ = std::fs::remove_file(&pile);
    };

    // The round's requests replayed in process on engines sharing one
    // fresh cache and space library, as the daemon's warm key does: the
    // daemon's work without the socket and the pile.
    let state = FinalState {
        cache: Arc::new(VerdictCache::new()),
        catalog: catalog.clone(),
        library: Arc::new(Mutex::new(SpaceLibrary::new())),
    };
    let mut traces = Vec::new();
    run::in_process(
        subs,
        want,
        &|| state.engine(),
        Duration::ZERO,
        &mut tally,
        Some(&mut traces),
    );
    let pass = &subs[..sizes.daemon_pass_sources.min(subs.len())];
    let (_, append_us, bytes_per_append) = layers::pile_appends(scratch, &state)?;
    let reload = layers::pile_reload(&pile)?;
    let serve = layers::serve_pass(scratch, &pile, &catalog, pass, 1)?;

    if let Some(note) = &p.wrong {
        tally.fail_all(note.clone());
    }
    let mut info = size_info(Workload::DaemonWarm, &p, sizes);
    info.push(("answered", subs.len().to_string()));
    let models = models_of(pass);
    let metrics = per_layer_metrics(Layered {
        traces: &traces,
        untraced: &untraced,
        traced: &traced,
        models: &models,
        state: &state,
        append_us,
        bytes_per_append,
        reload,
        serve,
    })?;
    let mut dead = Vec::new();
    if reload.0 != subs.len() as u64 {
        dead.push(format!(
            "daemon_warm: the pile holds {} cache record(s) for {} answered request(s)",
            reload.0,
            subs.len()
        ));
    }
    Ok(Report {
        tally,
        metrics,
        dead,
        info,
    })
}

// ------------------------------------------------------------ per layer

/// Everything the per-layer metrics are computed from.
struct Layered<'a> {
    traces: &'a [CycleTrace],
    untraced: &'a Phase,
    traced: &'a Phase,
    models: &'a [Model],
    state: &'a FinalState,
    append_us: f64,
    bytes_per_append: f64,
    /// `(records, recover_ms, load_ms)`.
    reload: (u64, f64, f64),
    /// `(rtt_us_p50, overhead_us_p50)`.
    serve: (f64, f64),
}

fn per_layer_metrics(l: Layered<'_>) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let first = l.traces.first().ok_or("no traced cycle")?;
    if l.traces.iter().any(|t| t.dropped > 0) {
        return Err(
            "the program's trace buffers dropped events; span totals are incomplete".into(),
        );
    }
    // Timings: the median over traced cycles. Counts repeat every cycle.
    let timing = |f: fn(&CycleTrace) -> f64| median(&l.traces.iter().map(f).collect::<Vec<_>>());
    let passes = layers::model_passes(l.models);
    let (hit_p50, hit_p90) = layers::p50_p90(&passes.hit_us);
    let (miss_p50, miss_p90) = layers::p50_p90(&passes.miss_us);
    let (save_us, load_us, cache_bytes, library_bytes) = layers::persist_pass(l.state)?;
    let lookups = (first.hits + first.misses).max(1) as f64;
    let values: Vec<(&str, f64)> = vec![
        ("scenario.run_ms", timing(|t| t.run_ms)),
        ("scenario.unattributed_ms", timing(|t| t.unattributed_ms)),
        ("scenario.report_bytes", first.report_bytes as f64),
        ("scenario.source_bytes", first.source_bytes as f64),
        ("expr.parse_us", passes.parse_us),
        ("expr.exprs", passes.exprs as f64),
        ("fingerprint.key_us", passes.key_us),
        ("fingerprint.keys", passes.keys as f64),
        ("fingerprint.catalog_rels", passes.catalog_rels as f64),
        ("cache.hits", first.hits as f64),
        ("cache.misses", first.misses as f64),
        ("cache.hit_ratio", first.hits as f64 / lookups),
        ("cache.evictions", first.evictions as f64),
        ("cache.decide_hit_us_p50", hit_p50),
        ("cache.decide_hit_us_p90", hit_p90),
        ("batch.run_ms", timing(|t| t.batch_ms)),
        (
            "batch.distinct_ratio",
            first.batch_distinct as f64 / first.batch_checks.max(1) as f64,
        ),
        ("compute.executed", first.executed as f64),
        ("compute.check_ms", timing(|t| t.check_ms)),
        ("compute.decide_miss_us_p50", miss_p50),
        ("compute.decide_miss_us_p90", miss_p90),
        ("enum.contexts", first.contexts as f64),
        ("enum.probes", first.probes as f64),
        ("enum.combos", first.combos as f64),
        ("enum.levels_rebuilt", first.levels_rebuilt as f64),
        ("enum.levels_hydrated", first.levels_hydrated as f64),
        ("norm.normalize_ms", passes.normalize_ms),
        ("norm.class_new", first.class_new as f64),
        ("delta.invalidated", first.invalidated as f64),
        ("persist.save_us", save_us),
        ("persist.load_us", load_us),
        ("persist.cache_bytes", cache_bytes as f64),
        ("space.library_bytes", library_bytes as f64),
        ("pile.append_us", l.append_us),
        ("pile.bytes_per_append", l.bytes_per_append),
        ("pile.records", l.reload.0 as f64),
        ("pile.recover_ms", l.reload.1),
        ("pile.load_ms", l.reload.2),
        ("serve.rtt_us_p50", l.serve.0),
        ("serve.overhead_us_p50", l.serve.1),
        (
            "obs.overhead_pct",
            (l.untraced.rate() / l.traced.rate() - 1.0) * 100.0,
        ),
    ];
    Ok(PER_LAYER
        .iter()
        .filter_map(|&(name, unit)| {
            let value = values.iter().find(|(n, _)| *n == name)?.1;
            value.is_finite().then_some((name, value, unit))
        })
        .collect())
}

/// Liveness findings: a workload that no longer exercises the layer it
/// exists for must not pass silently.
fn liveness(workload: Workload, metrics: &[(&str, f64, &str)]) -> Vec<String> {
    let get = |name: &str| metrics.iter().find(|m| m.0 == name).map(|m| m.1);
    let mut dead: Vec<String> = PER_LAYER
        .iter()
        .filter(|(name, _)| get(name).is_none())
        .map(|(name, _)| format!("per-layer metric {name} is missing"))
        .collect();
    let value = |name: &str| get(name).unwrap_or(0.0);
    match workload {
        Workload::FleetStream => {
            if value("cache.hits") <= 0.0 {
                dead.push("fleet_stream: no verdict-cache hits".into());
            }
            let lookups = value("cache.hits") + value("cache.misses");
            if value("compute.executed") > 0.25 * lookups {
                dead.push("fleet_stream: computed checks exceed a quarter of lookups".into());
            }
        }
        Workload::ColdDeep => {
            if value("enum.levels_rebuilt") <= 0.0 {
                dead.push("cold_deep: no enumeration level was built".into());
            }
        }
        Workload::DaemonWarm => {}
    }
    dead
}

// ------------------------------------------------------------ output

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn print_report(args: &Args, report: &Report) {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut info = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"available_parallelism\": {parallelism}, \"jobs\": 1, \"clients\": 1, \
         \"loop\": \"closed\", \"pile_flush\": \"fdatasync per append\", \
         \"attempted\": {}, \"failed\": {}, \"failed_ratio\": {}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report.tally.attempted,
        report.tally.failed,
        report.tally.failed as f64 / report.tally.attempted.max(1) as f64,
    );
    for (key, value) in &report.info {
        let _ = write!(info, ", {}: {}", json_str(key), json_str(value));
    }
    info.push('}');
    println!("report {info}");

    let mut metrics = String::new();
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        );
    }
    let correct = report.tally.failed == 0 && report.dead.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.tally.attempted.max(1),
        report.tally.failed
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small inputs, so every workload runs in seconds.
    const SMALL: Sizes = Sizes {
        fleet_streams: 2,
        fleet_events: 200,
        daemon_requests: 24,
        daemon_events: 4,
        daemon_restarts: 2,
        daemon_pass_sources: 4,
    };

    fn args(workload: Workload, trace: bool) -> Args {
        Args {
            workload,
            seed: 7,
            seconds: 1,
            trace,
        }
    }

    const ALL: [Workload; 3] = [
        Workload::FleetStream,
        Workload::ColdDeep,
        Workload::DaemonWarm,
    ];

    /// One test runs every workload: telemetry, trace buffers and the
    /// scratch directory are process-wide.
    #[test]
    fn every_workload_is_correct_alive_and_complete() {
        for workload in ALL {
            let report = bench(&args(workload, false), &SMALL).expect("end-to-end run");
            assert_eq!(
                report.tally.failed, 0,
                "{workload:?}: {:?}",
                report.tally.notes
            );
            let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
            assert_eq!(
                names,
                [
                    "requests_per_s",
                    "request_p50_ms",
                    "request_p90_ms",
                    "setup_s",
                    "pile_bytes"
                ],
                "{workload:?}"
            );
            for (name, value, _) in &report.metrics {
                assert!(*value > 0.0, "{workload:?}: {name} = {value}");
            }

            // The traced run: `liveness` asserts that fleet_stream hits the
            // cache and computes a small share of its lookups, that
            // cold_deep builds enumeration levels, that the daemon's pile
            // holds one record per answered request, and that every
            // per-layer metric is present.
            let traced = bench(&args(workload, true), &SMALL).expect("traced run");
            assert_eq!(
                traced.tally.failed, 0,
                "{workload:?}: {:?}",
                traced.tally.notes
            );
            assert!(traced.dead.is_empty(), "{workload:?}: {:?}", traced.dead);
        }
    }

    #[test]
    fn liveness_flags_dead_workloads() {
        let mut metrics: Vec<(&str, f64, &str)> =
            PER_LAYER.iter().map(|&(n, u)| (n, 1.0, u)).collect();
        for (name, value, _) in &mut metrics {
            match *name {
                "cache.hits" | "enum.levels_rebuilt" => *value = 0.0,
                "compute.executed" => *value = 2.0,
                _ => {}
            }
        }
        assert_eq!(liveness(Workload::FleetStream, &metrics).len(), 2);
        assert_eq!(liveness(Workload::ColdDeep, &metrics).len(), 1);
        metrics.pop();
        assert_eq!(liveness(Workload::DaemonWarm, &metrics).len(), 1);
    }

    /// The benchmark definition lists exactly the metrics a run prints.
    #[test]
    fn benchmark_json_names_every_metric() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for (name, unit) in PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"better\": ").count();
        assert_eq!(
            listed,
            PER_LAYER.len() + 6,
            "six end-to-end metrics plus the per-layer ones"
        );
    }
}
