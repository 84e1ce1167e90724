//! Per-layer attribution for the traced run (`--trace 1`).
//!
//! Time is attributed from the benchmark's side only: each pass below
//! times calls into one layer's public functions, and the program's
//! existing `engine.*` spans and counters are read back from its telemetry
//! snapshot. Nothing inside the program is instrumented for the benchmark.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use viewcap::scenario::{run_scenario_with_engine, ScenarioOutcome};
use viewcap_base::Catalog;
use viewcap_core::{Query, View};
use viewcap_engine::{
    load_cache, save_cache, view_fingerprint, CacheStats, Check, Engine, EngineConfig, PileStore,
    SpaceLibrary, VerdictCache,
};
use viewcap_expr::parse_expr;

use crate::inputs::Submission;
use crate::run::{transcript, Daemon, Scratch, OPTIONS};
use crate::stats::{median, quantile};

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("scenario.run_ms", "ms"),
    ("scenario.unattributed_ms", "ms"),
    ("scenario.report_bytes", "bytes"),
    ("scenario.source_bytes", "bytes"),
    ("expr.parse_us", "us"),
    ("expr.exprs", "count"),
    ("fingerprint.key_us", "us"),
    ("fingerprint.keys", "count"),
    ("fingerprint.catalog_rels", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "share"),
    ("cache.evictions", "count"),
    ("cache.decide_hit_us_p50", "us"),
    ("cache.decide_hit_us_p90", "us"),
    ("batch.run_ms", "ms"),
    ("batch.distinct_ratio", "share"),
    ("compute.executed", "count"),
    ("compute.check_ms", "ms"),
    ("compute.decide_miss_us_p50", "us"),
    ("compute.decide_miss_us_p90", "us"),
    ("enum.contexts", "count"),
    ("enum.probes", "count"),
    ("enum.combos", "count"),
    ("enum.levels_rebuilt", "count"),
    ("enum.levels_hydrated", "count"),
    ("norm.normalize_ms", "ms"),
    ("norm.class_new", "count"),
    ("delta.invalidated", "count"),
    ("persist.save_us", "us"),
    ("persist.load_us", "us"),
    ("persist.cache_bytes", "bytes"),
    ("space.library_bytes", "bytes"),
    ("pile.append_us", "us"),
    ("pile.bytes_per_append", "bytes"),
    ("pile.records", "count"),
    ("pile.recover_ms", "ms"),
    ("pile.load_ms", "ms"),
    ("serve.rtt_us_p50", "us"),
    ("serve.overhead_us_p50", "us"),
    ("obs.overhead_pct", "%"),
];

/// Repetitions of each timed pass; its median is reported.
const PASS_REPS: usize = 5;

/// Cache appends the pile probe times.
const PILE_APPENDS: usize = 20;

// ------------------------------------------------------------ scenario spans

/// Layer attribution summed over one cycle of submissions.
#[derive(Clone, Debug, Default)]
pub struct CycleTrace {
    pub run_ms: f64,
    pub unattributed_ms: f64,
    pub batch_ms: f64,
    pub check_ms: f64,
    pub report_bytes: u64,
    pub source_bytes: u64,
    pub batch_checks: u64,
    pub batch_distinct: u64,
    pub executed: u64,
    pub invalidated: u64,
    pub class_new: u64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub contexts: u64,
    pub probes: u64,
    pub combos: u64,
    pub levels_rebuilt: u64,
    pub levels_hydrated: u64,
    /// Trace events the program's ring buffers dropped; nonzero means the
    /// span totals are incomplete.
    pub dropped: u64,
}

impl CycleTrace {
    pub fn add(&mut self, o: &CycleTrace) {
        self.run_ms += o.run_ms;
        self.unattributed_ms += o.unattributed_ms;
        self.batch_ms += o.batch_ms;
        self.check_ms += o.check_ms;
        self.report_bytes += o.report_bytes;
        self.source_bytes += o.source_bytes;
        self.batch_checks += o.batch_checks;
        self.batch_distinct += o.batch_distinct;
        self.executed += o.executed;
        self.invalidated += o.invalidated;
        self.class_new += o.class_new;
        self.hits += o.hits;
        self.misses += o.misses;
        self.evictions += o.evictions;
        self.contexts += o.contexts;
        self.probes += o.probes;
        self.combos += o.combos;
        self.levels_rebuilt += o.levels_rebuilt;
        self.levels_hydrated += o.levels_hydrated;
        self.dropped += o.dropped;
    }
}

/// One complete span from the program's Chrome trace export.
struct SpanEvent<'a> {
    name: &'a str,
    start_us: f64,
    dur_us: f64,
    args: Vec<(&'a str, u64)>,
}

/// The text after `key` in `line`, up to the next `,` or `}`.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(key)? + key.len()..];
    Some(&rest[..rest.find([',', '}']).unwrap_or(rest.len())])
}

/// Complete spans and the dropped-event count of a `trace_json` export,
/// which writes one event per line.
fn parse_trace(json: &str) -> (Vec<SpanEvent<'_>>, u64) {
    let mut spans = Vec::new();
    for line in json.lines() {
        let Some(rest) = line.strip_prefix("{\"name\":\"") else {
            continue;
        };
        let Some(name) = rest.split('"').next() else {
            continue;
        };
        if field(line, "\"ph\":") != Some("\"X\"") {
            continue;
        }
        let num = |key| field(line, key).and_then(|v| v.parse::<f64>().ok());
        let (Some(start_us), Some(dur_us)) = (num("\"ts\":"), num("\"dur\":")) else {
            continue;
        };
        let args = line
            .find("\"args\":{")
            .map(|at| {
                let body = &line[at + 8..];
                body[..body.find('}').unwrap_or(body.len())]
                    .split(',')
                    .filter_map(|kv| {
                        let (k, v) = kv.split_once(':')?;
                        Some((k.trim_matches('"'), v.parse().ok()?))
                    })
                    .collect()
            })
            .unwrap_or_default();
        spans.push(SpanEvent {
            name,
            start_us,
            dur_us,
            args,
        });
    }
    let dropped = field(json, "\"droppedEvents\":")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    (spans, dropped)
}

/// Microseconds covered by the union of `intervals`.
fn covered_us(mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut open: Option<(f64, f64)> = None;
    for (start, end) in intervals {
        open = match open {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    total + open.map_or(0.0, |(s, e)| e - s)
}

/// Attribute one traced scenario run (telemetry reset just before it).
/// `before` is the engine's cache counters before the run, since a shared
/// warm cache accumulates across runs.
pub fn analyze(
    sub: &Submission,
    outcome: &ScenarioOutcome,
    engine: &Engine,
    before: CacheStats,
    secs: f64,
) -> CycleTrace {
    let json = viewcap_obs::trace_json();
    let (spans, dropped) = parse_trace(&json);
    let engine_us = covered_us(
        spans
            .iter()
            .filter(|s| s.name.starts_with("engine."))
            .map(|s| (s.start_us, s.start_us + s.dur_us))
            .collect(),
    );
    let total_ms = |name: &str| {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us)
            .sum::<f64>()
            / 1e3
    };
    let batch_arg = |key: &str| -> u64 {
        spans
            .iter()
            .filter(|s| s.name == "engine.batch")
            .flat_map(|s| &s.args)
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| v)
            .sum()
    };
    let counter = |name: &str| outcome.metrics.counters.get(name).copied().unwrap_or(0);
    let cache = engine.cache_stats();
    let enumeration = engine.enum_stats();
    let run_ms = secs * 1e3;
    CycleTrace {
        run_ms,
        unattributed_ms: run_ms - engine_us / 1e3,
        batch_ms: total_ms("engine.batch"),
        check_ms: total_ms("engine.check"),
        report_bytes: transcript(outcome).len() as u64,
        source_bytes: sub.source.len() as u64,
        batch_checks: batch_arg("checks"),
        batch_distinct: batch_arg("distinct"),
        executed: counter("span.engine.check"),
        invalidated: counter("engine.delta.invalidated"),
        class_new: counter("core.norm.class.new"),
        hits: cache.hits - before.hits,
        misses: cache.misses - before.misses,
        evictions: cache.evictions - before.evictions,
        contexts: enumeration.contexts,
        probes: enumeration.probes,
        combos: enumeration.combos,
        levels_rebuilt: enumeration.levels_rebuilt,
        levels_hydrated: enumeration.levels_hydrated,
        dropped,
    }
}

// ------------------------------------------------------------ source model

/// A check as written in the source, resolved against the model's views.
enum CheckSrc {
    Member(String, String),
    Dominates(String, String),
    Equivalent(String, String),
}

/// What the layer passes need from a scenario source: its catalog and
/// views as first declared, every expression it writes, every check it
/// poses and the views it normalizes. Edits are not applied; the passes
/// pose every check against the views' declared versions.
pub struct Model {
    catalog: Catalog,
    views: HashMap<String, View>,
    exprs: Vec<String>,
    checks: Vec<CheckSrc>,
    normalized: Vec<String>,
}

impl Model {
    pub fn of(source: &str) -> Result<Model, String> {
        let mut model = Model {
            catalog: Catalog::new(),
            views: HashMap::new(),
            exprs: Vec::new(),
            checks: Vec::new(),
            normalized: Vec::new(),
        };
        // The view being declared, with its pairs so far; or an edit block.
        let mut open_view: Option<(String, Vec<(String, String)>)> = None;
        let mut in_edit = false;
        for raw in source.lines() {
            let line = raw.split('#').next().unwrap_or("").trim();
            let (head, rest) = line.split_once(' ').unwrap_or((line, ""));
            if line == "}" {
                if let Some((name, pairs)) = open_view.take() {
                    model.declare_view(&name, &pairs)?;
                }
                in_edit = false;
            } else if let Some((_, pairs)) = open_view.as_mut() {
                let (name, expr) = line.split_once('=').ok_or("bad view line")?;
                pairs.push((name.trim().to_owned(), expr.trim().to_owned()));
            } else if in_edit {
                if let Some((_, expr)) = line.split_once('=') {
                    model.exprs.push(expr.trim().to_owned());
                }
            } else {
                match head {
                    "rel" => {
                        let (name, attrs) = rest.split_once('(').ok_or("bad rel line")?;
                        let attrs: Vec<&str> = attrs
                            .trim_end_matches(')')
                            .split(',')
                            .map(str::trim)
                            .collect();
                        model
                            .catalog
                            .relation(name.trim(), &attrs)
                            .map_err(|e| e.to_string())?;
                    }
                    "view" => {
                        open_view = Some((rest.trim_end_matches('{').trim().to_owned(), vec![]))
                    }
                    "edit" => in_edit = true,
                    "check" => model.add_check(rest)?,
                    "simplify" | "nonredundant" => model.normalized.push(rest.to_owned()),
                    _ => {}
                }
            }
        }
        Ok(model)
    }

    fn declare_view(&mut self, name: &str, pairs: &[(String, String)]) -> Result<(), String> {
        let mut exprs = Vec::new();
        for (pair, src) in pairs {
            let expr = parse_expr(src, &self.catalog).map_err(|e| e.to_string())?;
            let trs = Query::from_expr(expr.clone(), &self.catalog).trs();
            let rel = self
                .catalog
                .add_relation(pair, trs)
                .map_err(|e| e.to_string())?;
            exprs.push((expr, rel));
            self.exprs.push(src.clone());
        }
        let view = View::from_exprs(exprs, &self.catalog).map_err(|e| e.to_string())?;
        // Warm the view's fingerprint memos, as the scenario runner does.
        let _ = view_fingerprint(&view, &self.catalog);
        self.views.insert(name.to_owned(), view);
        Ok(())
    }

    fn add_check(&mut self, rest: &str) -> Result<(), String> {
        let (kind, args) = rest.split_once(' ').ok_or("bad check line")?;
        let (a, b) = args.split_once(' ').ok_or("bad check line")?;
        let (a, b) = (a.to_owned(), b.trim().to_owned());
        self.checks.push(match kind {
            "member" => {
                self.exprs.push(b.clone());
                CheckSrc::Member(a, b)
            }
            "dominates" => CheckSrc::Dominates(a, b),
            "equivalent" => CheckSrc::Equivalent(a, b),
            other => return Err(format!("unknown check kind {other}")),
        });
        Ok(())
    }

    fn view(&self, name: &str) -> View {
        self.views[name].clone()
    }

    /// Every check posed, built afresh: a new goal `Query` each, as the
    /// scenario runner builds one per parsed check.
    fn fresh_checks(&self) -> Vec<Check> {
        self.checks
            .iter()
            .map(|c| match c {
                CheckSrc::Member(v, goal) => Check::Member {
                    view: self.view(v),
                    goal: Query::from_expr(
                        parse_expr(goal, &self.catalog).expect("parsed when modelled"),
                        &self.catalog,
                    ),
                },
                CheckSrc::Dominates(a, b) => Check::Dominates {
                    dominator: self.view(a),
                    dominated: self.view(b),
                },
                CheckSrc::Equivalent(a, b) => Check::Equivalent {
                    left: self.view(a),
                    right: self.view(b),
                },
            })
            .collect()
    }

    /// One representative per cache key, in workload order.
    fn distinct_checks(&self) -> Vec<Check> {
        let mut seen = std::collections::HashSet::new();
        self.fresh_checks()
            .into_iter()
            .filter(|c| seen.insert(Engine::cache_key(c, &self.catalog)))
            .collect()
    }
}

// ------------------------------------------------------------ layer passes

/// Results of the passes that time one layer's public functions.
pub struct Passes {
    pub parse_us: f64,
    pub exprs: u64,
    pub key_us: f64,
    pub keys: u64,
    pub catalog_rels: u64,
    pub hit_us: Vec<f64>,
    pub miss_us: Vec<f64>,
    pub normalize_ms: f64,
}

/// Median over `PASS_REPS` of a pass's total.
fn median_of(mut pass: impl FnMut() -> f64) -> f64 {
    median(&(0..PASS_REPS).map(|_| pass()).collect::<Vec<_>>())
}

fn micros(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Parse, fingerprint, decide (miss then hit) and normalize passes over
/// the models' sources.
pub fn model_passes(models: &[Model]) -> Passes {
    let parse_us = median_of(|| {
        let t = Instant::now();
        for m in models {
            for src in &m.exprs {
                std::hint::black_box(parse_expr(src, &m.catalog).ok());
            }
        }
        micros(t)
    });
    let key_us = median_of(|| {
        let checks: Vec<Vec<Check>> = models.iter().map(Model::fresh_checks).collect();
        let t = Instant::now();
        for (m, checks) in models.iter().zip(&checks) {
            for c in checks {
                std::hint::black_box(Engine::cache_key(c, &m.catalog));
            }
        }
        micros(t)
    });

    let (mut miss_us, mut hit_us) = (Vec::new(), Vec::new());
    for m in models {
        // A fresh engine decides each distinct check once (misses), then
        // the same checks again, built afresh (hits).
        let engine = Engine::new();
        for (samples, checks) in [
            (&mut miss_us, m.distinct_checks()),
            (&mut hit_us, m.distinct_checks()),
        ] {
            for c in checks {
                let t = Instant::now();
                let _ = std::hint::black_box(engine.decide(&c, &m.catalog));
                samples.push(micros(t));
            }
        }
    }

    let t = Instant::now();
    for m in models {
        // The views the workload normalizes; every declared view when it
        // normalizes none.
        let mut names: Vec<&String> = if m.normalized.is_empty() {
            m.views.keys().collect()
        } else {
            m.normalized.iter().collect()
        };
        names.sort();
        names.dedup();
        let engine = Engine::new();
        for name in names {
            let view = m.view(name);
            let _ = std::hint::black_box(engine.simplify(&view, &m.catalog));
            let _ = std::hint::black_box(engine.nonredundant(&view, &m.catalog));
        }
    }
    let normalize_ms = micros(t) / 1e3;

    Passes {
        parse_us,
        exprs: models.iter().map(|m| m.exprs.len() as u64).sum(),
        key_us,
        keys: models.iter().map(|m| m.checks.len() as u64).sum(),
        catalog_rels: models
            .iter()
            .map(|m| m.catalog.rel_count() as u64)
            .max()
            .unwrap_or(0),
        hit_us,
        miss_us,
        normalize_ms,
    }
}

/// The verdicts and candidate spaces a run leaves behind.
pub struct FinalState {
    pub cache: Arc<VerdictCache>,
    pub catalog: Catalog,
    pub library: Arc<Mutex<SpaceLibrary>>,
}

impl FinalState {
    /// A fresh engine over this state, as a warm daemon request gets.
    pub fn engine(&self) -> Engine {
        Engine::from_config(
            EngineConfig::new()
                .shared_cache(Arc::clone(&self.cache))
                .shared_spaces(Arc::clone(&self.library)),
        )
        .expect("an in-memory engine config opens")
    }

    /// The merged verdicts and spaces of `pile`, with `catalog` to resolve
    /// names.
    pub fn load(pile: &Path, catalog: Catalog) -> Result<FinalState, String> {
        let mut store = PileStore::open(pile).map_err(|e| e.to_string())?;
        let cache = store.load(None).map_err(|e| e.to_string())?;
        let library = store.load_spaces().map_err(|e| e.to_string())?;
        Ok(FinalState {
            cache: Arc::new(cache),
            catalog,
            library: Arc::new(Mutex::new(library)),
        })
    }
}

/// Persist pass: `(save_us, load_us, cache_bytes, library_bytes)`.
pub fn persist_pass(state: &FinalState) -> Result<(f64, f64, u64, u64), String> {
    let bytes = save_cache(&state.cache, &state.catalog);
    let save_us = median_of(|| {
        let t = Instant::now();
        std::hint::black_box(save_cache(&state.cache, &state.catalog));
        micros(t)
    });
    load_cache(&bytes, None).map_err(|e| e.to_string())?;
    let load_us = median_of(|| {
        let t = Instant::now();
        let _ = std::hint::black_box(load_cache(&bytes, None));
        micros(t)
    });
    let library_bytes = state
        .library
        .lock()
        .expect("space library lock")
        .to_bytes()
        .len();
    Ok((save_us, load_us, bytes.len() as u64, library_bytes as u64))
}

/// Pile append probe: append the state's cache `PILE_APPENDS` times, each
/// with its fdatasync, then its space library once. Returns the pile and
/// `(append_us p50, bytes per cache append)`.
pub fn pile_appends(
    scratch: &mut Scratch,
    state: &FinalState,
) -> Result<(PathBuf, f64, f64), String> {
    let path = scratch.path("pile");
    let mut store = PileStore::open(&path).map_err(|e| e.to_string())?;
    let mut times = Vec::new();
    let mut bytes = 0usize;
    for _ in 0..PILE_APPENDS {
        let t = Instant::now();
        bytes += store
            .append_cache(&state.cache, &state.catalog)
            .map_err(|e| e.to_string())?;
        times.push(micros(t));
    }
    store
        .append_spaces(&state.library.lock().expect("space library lock"))
        .map_err(|e| e.to_string())?;
    Ok((path, median(&times), bytes as f64 / PILE_APPENDS as f64))
}

/// Pile reload probe on `pile`: `(cache records, recover_ms, load_ms)`,
/// where load is the merged cache plus the space library.
pub fn pile_reload(pile: &Path) -> Result<(u64, f64, f64), String> {
    let (mut recover, mut load) = (Vec::new(), Vec::new());
    let mut records = 0;
    for _ in 0..PASS_REPS {
        let t = Instant::now();
        let (mut store, _) = PileStore::recover(pile).map_err(|e| e.to_string())?;
        recover.push(micros(t) / 1e3);
        let t = Instant::now();
        std::hint::black_box(store.load(None).map_err(|e| e.to_string())?);
        std::hint::black_box(store.load_spaces().map_err(|e| e.to_string())?);
        load.push(micros(t) / 1e3);
        records = store.record_count().map_err(|e| e.to_string())? as u64;
    }
    Ok((records, median(&recover), median(&load)))
}

/// Serve pass: a daemon on a copy of `pile` and an in-process engine over
/// the same pile's state answer the same sources in turn. Returns the
/// round trip's p50 and the p50 of round trip minus in-process run, both
/// in microseconds.
pub fn serve_pass(
    scratch: &mut Scratch,
    pile: &Path,
    catalog: &Catalog,
    subs: &[Submission],
    reps: usize,
) -> Result<(f64, f64), String> {
    let copy = scratch.path("pile");
    std::fs::copy(pile, &copy).map_err(|e| e.to_string())?;
    let state = FinalState::load(pile, catalog.clone())?;
    let daemon = Daemon::start(scratch.path("sock"), &copy);
    let in_process = |sub: &Submission| -> Result<f64, String> {
        let t = Instant::now();
        let engine = state.engine();
        run_scenario_with_engine(&sub.source, &OPTIONS, &engine).map_err(|e| e.to_string())?;
        Ok(micros(t))
    };
    let round_trip = |sub: &Submission| -> Result<f64, String> {
        let t = Instant::now();
        let response = daemon.run(&sub.source)?;
        let us = micros(t);
        if !response.ok {
            return Err(format!("ERR frame: {}", response.body.trim_end()));
        }
        Ok(us)
    };
    let measured = (|| {
        // The daemon loads the pile on its first request, and both sides
        // translate the loaded verdicts on first hit: set-up, not serving.
        round_trip(&subs[0])?;
        in_process(&subs[0])?;
        let (mut rtt, mut overhead) = (Vec::new(), Vec::new());
        for _ in 0..reps {
            for sub in subs {
                let r = round_trip(sub)?;
                overhead.push(r - in_process(sub)?);
                rtt.push(r);
            }
        }
        Ok((median(&rtt), median(&overhead)))
    })();
    daemon.stop()?;
    let _ = std::fs::remove_file(&copy);
    measured
}

/// p50 and p90 of a pass's per-call samples.
pub fn p50_p90(samples: &[f64]) -> (f64, f64) {
    (quantile(samples, 0.5), quantile(samples, 0.9))
}
