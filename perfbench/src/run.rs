//! The timed phases: in-process scenario replay and `serve` round trips,
//! each checked against a cold reference run of the same input.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use viewcap::scenario::{run_scenario_with_engine, ScenarioOptions, ScenarioOutcome};
use viewcap::serve::{
    client_request, serve, ClientRequest, ClientResponse, ServeConfig, ServeError,
};
use viewcap_base::Catalog;
use viewcap_engine::{Engine, EngineConfig, SpaceLibrary};

use crate::expected;
use crate::inputs::Submission;
use crate::layers::{self, CycleTrace};
use crate::stats::quantile;

/// Every run is sequential: one caller, `--jobs 1`.
pub const OPTIONS: ScenarioOptions = ScenarioOptions { jobs: 1 };

/// The warm-cache key every daemon request shares.
const WARM_KEY: &str = "fleet";

/// Requests attempted and failed, with a note per failure kind seen.
#[derive(Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    pub notes: Vec<String>,
}

impl Tally {
    fn record(&mut self, requests: usize, failure: Option<String>) {
        self.attempted += requests;
        if let Some(note) = failure {
            self.failed += requests;
            if self.notes.len() < 8 {
                self.notes.push(note);
            }
        }
    }

    /// Count every attempted request as failed, when the reference they
    /// were checked against is itself wrong.
    pub fn fail_all(&mut self, note: String) {
        self.failed = self.attempted;
        self.notes.push(note);
    }
}

/// The batch-CLI stdout for a finished scenario: the report plus the
/// verdict tally line, exactly what a `RUN` response body holds.
pub fn transcript(outcome: &ScenarioOutcome) -> String {
    format!(
        "{}-- {} check(s) answered YES, {} answered NO\n",
        outcome.report, outcome.yes, outcome.no
    )
}

/// Why `got` is not a correct answer to a request whose cold reference
/// verdicts hash to `want`, if it is not.
fn mismatch(got: &str, want: u64) -> Option<String> {
    (expected::verdict_digest(expected::EMPTY, got, false) != want)
        .then(|| "verdict mismatch against the cold reference".to_owned())
}

/// A cold reference run: a fresh engine, `--jobs 1`. Returns the
/// transcript, with the engine and final catalog that hold its verdicts.
/// With `library`, the engine also harvests its candidate spaces into it.
pub fn reference(
    sub: &Submission,
    library: Option<&Arc<Mutex<SpaceLibrary>>>,
) -> Result<(String, Engine, Catalog), String> {
    let engine = match library {
        Some(library) => {
            Engine::from_config(EngineConfig::new().shared_spaces(Arc::clone(library)))
                .map_err(|e| e.to_string())?
        }
        None => Engine::new(),
    };
    let outcome = run_scenario_with_engine(&sub.source, &OPTIONS, &engine)
        .map_err(|e| format!("reference run failed: {e}"))?;
    engine.harvest_spaces();
    Ok((transcript(&outcome), engine, outcome.catalog))
}

/// What one timed phase measured.
#[derive(Default)]
pub struct Phase {
    /// Every timing of submission `i`, one per cycle, in milliseconds.
    latencies_ms: Vec<Vec<f64>>,
    /// Complete cycles (passes over every submission, or daemon rounds).
    pub cycles: usize,
    /// Total requests and busy seconds, for the traced-overhead ratio.
    pub requests: usize,
    pub busy_s: f64,
}

impl Phase {
    fn record(&mut self, submission: usize, secs: f64) {
        if self.latencies_ms.len() <= submission {
            self.latencies_ms.resize_with(submission + 1, Vec::new);
        }
        self.latencies_ms[submission].push(secs * 1e3);
        self.busy_s += secs;
    }

    fn end_cycle(&mut self, requests: usize) {
        self.cycles += 1;
        self.requests += requests;
    }

    pub fn rate(&self) -> f64 {
        self.requests as f64 / self.busy_s
    }

    /// Each submission's latency on an undisturbed host: the lower quartile
    /// of its timings. For in-process work, which repeats the same
    /// computation every cycle, a slower program is slower in every cycle
    /// and moves this; the machine's neighbours, which slow the host for
    /// seconds at a time, disturb only some cycles and are filtered out.
    pub fn settled_ms(&self) -> Vec<f64> {
        self.latencies_ms
            .iter()
            .map(|timings| quantile(timings, 0.25))
            .collect()
    }

    /// Every timing of every submission.
    pub fn all_ms(&self) -> Vec<f64> {
        self.latencies_ms.concat()
    }

    pub fn merge(&mut self, other: Phase) {
        for (i, timings) in other.latencies_ms.into_iter().enumerate() {
            if self.latencies_ms.len() <= i {
                self.latencies_ms.push(Vec::new());
            }
            self.latencies_ms[i].extend(timings);
        }
        self.cycles += other.cycles;
        self.requests += other.requests;
        self.busy_s += other.busy_s;
    }
}

/// Replay every submission on an engine from `make_engine`, cycle after
/// cycle, until `budget` has passed (at least one whole cycle). With
/// `traces`, telemetry is on and every cycle's layer attribution is
/// appended to it.
pub fn in_process(
    subs: &[Submission],
    refs: &[u64],
    make_engine: &dyn Fn() -> Engine,
    budget: Duration,
    tally: &mut Tally,
    mut traces: Option<&mut Vec<CycleTrace>>,
) -> Phase {
    viewcap_obs::set_enabled(traces.is_some());
    let start = Instant::now();
    let mut phase = Phase::default();
    loop {
        let mut cycle = CycleTrace::default();
        for (i, (sub, want)) in subs.iter().zip(refs).enumerate() {
            if traces.is_some() {
                viewcap_obs::reset();
            }
            let t = Instant::now();
            let engine = make_engine();
            let before = engine.cache_stats();
            let result = run_scenario_with_engine(&sub.source, &OPTIONS, &engine);
            let dt = t.elapsed().as_secs_f64();
            phase.record(i, dt);
            match result {
                Ok(outcome) => {
                    tally.record(sub.requests, mismatch(&transcript(&outcome), *want));
                    if traces.is_some() {
                        cycle.add(&layers::analyze(sub, &outcome, &engine, before, dt));
                    }
                }
                Err(e) => tally.record(sub.requests, Some(format!("scenario error: {e}"))),
            }
        }
        phase.end_cycle(subs.iter().map(|s| s.requests).sum());
        if let Some(traces) = traces.as_deref_mut() {
            traces.push(cycle);
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    viewcap_obs::set_enabled(false);
    phase
}

/// A `serve` daemon running on its own thread.
pub struct Daemon {
    socket: PathBuf,
    handle: JoinHandle<Result<(), ServeError>>,
}

impl Daemon {
    pub fn start(socket: PathBuf, pile: &Path) -> Daemon {
        let config = ServeConfig {
            socket: socket.clone(),
            pile: Some(pile.to_path_buf()),
            cache_max: None,
        };
        let handle = std::thread::spawn(move || serve(&config));
        Daemon { socket, handle }
    }

    /// Pose a warm `RUN`, retrying while the daemon is not yet listening.
    pub fn run(&self, source: &str) -> Result<ClientResponse, String> {
        let request = ClientRequest::Run {
            source: source.to_owned(),
            jobs: 1,
            warm_key: Some(WARM_KEY.to_owned()),
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match client_request(&self.socket, &request) {
                Err(ServeError::Io(e))
                    if Instant::now() < deadline
                        && !self.handle.is_finished()
                        && matches!(
                            e.kind(),
                            std::io::ErrorKind::NotFound | std::io::ErrorKind::ConnectionRefused
                        ) =>
                {
                    std::thread::sleep(Duration::from_micros(100));
                }
                other => return other.map_err(|e| format!("client error: {e}")),
            }
        }
    }

    /// Ask the daemon to exit and wait until its thread has ended. If the
    /// request cannot be delivered the thread is left to end with the
    /// process, which then fails.
    pub fn stop(self) -> Result<(), String> {
        if !self.handle.is_finished() {
            client_request(&self.socket, &ClientRequest::Shutdown)
                .map_err(|e| format!("shutdown failed: {e}"))?;
        }
        match self.handle.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon failed: {e}")),
            Err(_) => Err("daemon thread panicked".to_owned()),
        }
    }
}

/// Check one daemon response against its reference transcript.
fn judge(response: Result<ClientResponse, String>, want: u64) -> Option<String> {
    match response {
        Ok(r) if r.ok => mismatch(&r.body, want),
        Ok(r) => Some(format!("ERR frame: {}", r.body.trim_end())),
        Err(e) => Some(e),
    }
}

/// Scratch files of one run, removed when it ends.
pub struct Scratch {
    pub dir: PathBuf,
    next: usize,
}

impl Scratch {
    /// A fresh directory under `.bench_scratch/` in the working directory
    /// (the checkout root). Paths stay relative and short, because a unix
    /// socket path must fit in 108 bytes.
    pub fn new() -> std::io::Result<Scratch> {
        let dir = PathBuf::from(".bench_scratch").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir, next: 0 })
    }

    /// A new, unused path in the scratch directory.
    pub fn path(&mut self, suffix: &str) -> PathBuf {
        self.next += 1;
        self.dir.join(format!("{}.{suffix}", self.next))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        let _ = std::fs::remove_dir(".bench_scratch");
    }
}

/// One `daemon_warm` round: a daemon on a fresh pile answers every request
/// once, then shuts down. Returns the pile it left behind.
pub fn daemon_round(
    scratch: &mut Scratch,
    subs: &[Submission],
    refs: &[u64],
    phase: &mut Phase,
    tally: &mut Tally,
) -> Result<PathBuf, String> {
    let pile = scratch.path("pile");
    let daemon = Daemon::start(scratch.path("sock"), &pile);
    for (i, (sub, want)) in subs.iter().zip(refs).enumerate() {
        let t = Instant::now();
        let response = daemon.run(&sub.source);
        phase.record(i, t.elapsed().as_secs_f64());
        tally.record(1, judge(response, *want));
    }
    phase.end_cycle(subs.len());
    daemon.stop()?;
    Ok(pile)
}

/// Restart a daemon on a copy of `pile` and time until its first warm
/// answer: pile recovery, the merged-cache load and the space library.
pub fn restart_secs(
    scratch: &mut Scratch,
    pile: &Path,
    probe: &Submission,
    want: u64,
    tally: &mut Tally,
) -> Result<f64, String> {
    let copy = scratch.path("pile");
    std::fs::copy(pile, &copy).map_err(|e| format!("copying the pile: {e}"))?;
    let t = Instant::now();
    let daemon = Daemon::start(scratch.path("sock"), &copy);
    let response = daemon.run(&probe.source);
    let secs = t.elapsed().as_secs_f64();
    tally.record(1, judge(response, want));
    daemon.stop()?;
    let _ = std::fs::remove_file(&copy);
    Ok(secs)
}
