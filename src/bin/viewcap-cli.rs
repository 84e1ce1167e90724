//! `viewcap-cli` — run scenario files against the decision procedures,
//! and manage the verdict pile a fleet of workers shares.
//!
//! ```console
//! $ viewcap-cli scenarios/example_3_1_5.vcap
//! $ viewcap-cli --demo                       # built-in demonstration
//! $ viewcap-cli --jobs 8 scenarios/batch_workload.vcap
//! $ viewcap-cli --stats scenarios/batch_workload.vcap
//! $ viewcap-cli --pile /tmp/fleet.vcappile --cache-max 10000 \
//!       scenarios/incremental_edit.vcap
//! $ viewcap-cli pile compact /tmp/fleet.vcappile --out /tmp/warm.vcappile --max 50000
//! ```
//!
//! Scenario syntax is documented in [`viewcap::scenario`]; `scenarios/` in
//! the repository holds ready-made files. `--jobs N` sets the worker-thread
//! count for `batch` blocks (`0` = all cores; the report is identical for
//! every setting), and `--stats` prints the verdict-cache counters plus
//! the candidate-space reuse counters of the engine's context pool to
//! *stderr* — stdout carries exactly the scenario report under every flag
//! combination.
//!
//! `--trace-out PATH` and `--metrics-out PATH` enable the telemetry layer
//! (`viewcap-obs`): the first writes a Chrome `trace_event` JSON file
//! (open it in Perfetto or `chrome://tracing`) with spans for checks,
//! enumeration levels, normalization, and cache activity; the second
//! writes a JSON metrics snapshot — counters plus p50/p90/p99 latency
//! histograms. Both write files only; stdout stays byte-identical.
//!
//! `--pile PATH` persists across runs through the crash-safe verdict pile:
//! the scenario's verdict cache loads from the pile's merged verdict set
//! and its candidate-space library from the pile's space records (a
//! damaged pile is rejected with an error, never silently discarded; a
//! corrupted snapshot inside a valid record is skipped and rebuilt).
//! Afterwards the run's verdicts, and its space library when a space grew,
//! append as atomic records — many processes can share one pile
//! concurrently with no merge step and no lost-update window. Fingerprints
//! and space keys are catalog-content-addressed: a pile serves every
//! scenario declaring the same relations (same names and schemes), in
//! *any* declaration order. `--cache-max N` bounds the verdict cache to
//! `N` verdicts with exact LRU eviction (`0` = unbounded).
//!
//! The `pile` subcommands maintain piles: `pile import <in...> --pile P`
//! folds legacy `.vcapcache` and `.vcapspaces` files in (told apart by
//! their magic bytes, each validated before it is appended), `pile compact
//! P --out Q [--max N]` writes P's merged cache (optionally truncated to
//! the newest `N` verdicts) and merged space library to a new two-record
//! pile Q, `pile recover` truncates a torn suffix back to the last valid
//! record, and `pile stats` describes a pile.
//!
//! `serve --socket PATH [--pile PATH]` starts a resident daemon (unix
//! socket, line-delimited protocol; see [`viewcap::serve`]) answering
//! scenario requests without per-run process start-up or cache reload;
//! `client --socket PATH <scenario>` drives a scenario through it and
//! prints a transcript byte-identical to running the scenario directly.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use viewcap::scenario::{run_scenario_with_engine, ScenarioOptions};
use viewcap_engine::{EngineConfig, PileStore, PileStoreError, Session, SPACE_LIB_FORMAT};

const DEMO: &str = r#"
# Built-in demo: Example 3.1.5 of Connors (JCSS 1986).
rel R(A, B, C)

view V {
  Joined = pi{A,B}(R) * pi{B,C}(R)
}
view W {
  Left  = pi{A,B}(R)
  Right = pi{B,C}(R)
}

check equivalent V W
check member V pi{A}(R)
check member V R
nonredundant V
frontier W 2

# The same questions again, plus dominance — all but one from the cache.
batch {
  check equivalent V W
  check equivalent W V
  check dominates V W
  check member V pi{A}(R)
  check member V R
}

# Replace V's defining query and re-decide the standing workload: only the
# checks touching V recompute.
edit V {
  Joined = R
}
recheck
"#;

fn usage() -> ExitCode {
    eprintln!(
        "usage: viewcap-cli [--jobs N] [--stats] [--pile PATH] [--cache-max N] \
         [--trace-out PATH] [--metrics-out PATH] <scenario-file> | --demo\n       \
         viewcap-cli pile import <in.vcapcache|in.vcapspaces...> --pile <file.vcappile>\n       \
         viewcap-cli pile compact <file.vcappile> --out <new.vcappile> [--max N]\n       \
         viewcap-cli pile recover <file.vcappile>\n       \
         viewcap-cli pile stats <file.vcappile>\n       \
         viewcap-cli serve --socket PATH [--pile PATH] [--cache-max N]\n       \
         viewcap-cli client --socket PATH [--jobs N] [--warm KEY] \
         (<scenario-file> | --demo | --ping | --stats | --shutdown)"
    );
    ExitCode::FAILURE
}

/// `viewcap-cli pile import|compact|recover|stats ...`.
fn pile_command(args: &[String]) -> ExitCode {
    let Some((sub, rest)) = args.split_first() else {
        return usage();
    };
    let mut inputs: Vec<PathBuf> = Vec::new();
    let mut out: Option<PathBuf> = None;
    let mut pile: Option<PathBuf> = None;
    let mut max: Option<usize> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(p) => out = Some(p.into()),
                None => return usage(),
            },
            "--pile" => match it.next() {
                Some(p) => pile = Some(p.into()),
                None => return usage(),
            },
            "--max" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => max = (n > 0).then_some(n),
                None => {
                    eprintln!("viewcap-cli: --max needs a number (0 = unbounded)");
                    return ExitCode::FAILURE;
                }
            },
            path if !path.starts_with('-') => inputs.push(path.into()),
            _ => return usage(),
        }
    }
    let result = match (sub.as_str(), inputs.as_slice(), pile, out) {
        ("import", [_, ..], Some(pile), None) => pile_import(&pile, &inputs),
        ("compact", [input], None, Some(out)) => open_pile(input).and_then(|mut store| {
            let (report, spaces) = store
                .compact_to(&out, max)
                .map_err(|e| format!("pile compact -> `{}`: {e}", out.display()))?;
            println!("compacted {report}, {spaces} space(s) -> {}", out.display());
            Ok(())
        }),
        ("recover", [input], None, None) => match PileStore::recover(input) {
            Ok((_, report)) => {
                println!("recovered {report}");
                Ok(())
            }
            Err(e) => Err(format!("pile recover `{}`: {e}", input.display())),
        },
        ("stats", [input], None, None) => open_pile(input).and_then(|mut store| {
            let line = pile_stats(&mut store).map_err(|e| format!("pile stats: {e}"))?;
            println!("{line}");
            Ok(())
        }),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("viewcap-cli: {e}");
            ExitCode::FAILURE
        }
    }
}

fn open_pile(path: &Path) -> Result<PileStore, String> {
    PileStore::open(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// One line describing a pile: its records by kind and what they merge to.
fn pile_stats(store: &mut PileStore) -> Result<String, PileStoreError> {
    let records = store.records()?;
    Ok(format!(
        "{} cache record(s), {} space record(s); merged: {} verdict(s), {} space(s)",
        records.cache.len(),
        records.spaces.len(),
        records.load(None)?.stats().entries,
        records.load_spaces()?.len()
    ))
}

/// Append each input — a cache file or a space library, told apart by its
/// magic bytes — to `pile` as one record, validating it first.
fn pile_import(pile: &Path, inputs: &[PathBuf]) -> Result<(), String> {
    let mut store = open_pile(pile)?;
    for path in inputs {
        let bytes =
            std::fs::read(path).map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
        let imported = if bytes.starts_with(SPACE_LIB_FORMAT.magic) {
            store
                .append_space_bytes(&bytes)
                .map(|n| format!("{n} space(s)"))
        } else {
            store
                .append_cache_bytes(&bytes)
                .map(|n| format!("{n} entries"))
        };
        let imported = imported.map_err(|e| format!("pile import `{}`: {e}", path.display()))?;
        println!(
            "imported {imported} from {} -> {}",
            path.display(),
            pile.display()
        );
    }
    Ok(())
}

/// `viewcap-cli serve --socket PATH [--pile PATH] [--cache-max N]`.
#[cfg(unix)]
fn serve_command(args: &[String]) -> ExitCode {
    let mut config = viewcap::serve::ServeConfig {
        socket: PathBuf::new(),
        pile: None,
        cache_max: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => match it.next() {
                Some(p) => config.socket = p.into(),
                None => return usage(),
            },
            "--pile" => match it.next() {
                Some(p) => config.pile = Some(p.into()),
                None => return usage(),
            },
            "--cache-max" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => config.cache_max = (n > 0).then_some(n),
                None => {
                    eprintln!("viewcap-cli: --cache-max needs a number (0 = unbounded)");
                    return ExitCode::FAILURE;
                }
            },
            _ => return usage(),
        }
    }
    if config.socket.as_os_str().is_empty() {
        eprintln!("viewcap-cli: serve needs --socket");
        return ExitCode::FAILURE;
    }
    match viewcap::serve::serve(&config) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("viewcap-cli: serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `viewcap-cli client --socket PATH ...`.
#[cfg(unix)]
fn client_command(args: &[String]) -> ExitCode {
    use viewcap::serve::{client_request, ClientRequest};
    let mut socket: Option<PathBuf> = None;
    let mut jobs = 1usize;
    let mut warm_key: Option<String> = None;
    let mut source: Option<String> = None;
    let mut op: Option<ClientRequest> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => match it.next() {
                Some(p) => socket = Some(p.into()),
                None => return usage(),
            },
            "--jobs" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => jobs = n,
                None => {
                    eprintln!("viewcap-cli: --jobs needs a number (0 = all cores)");
                    return ExitCode::FAILURE;
                }
            },
            "--warm" => match it.next() {
                Some(key) => warm_key = Some(key.clone()),
                None => return usage(),
            },
            "--demo" if source.is_none() => source = Some(DEMO.to_owned()),
            "--ping" => op = Some(ClientRequest::Ping),
            "--stats" => op = Some(ClientRequest::Stats),
            "--shutdown" => op = Some(ClientRequest::Shutdown),
            path if !path.starts_with('-') && source.is_none() => {
                match std::fs::read_to_string(path) {
                    Ok(s) => source = Some(s),
                    Err(e) => {
                        eprintln!("viewcap-cli: cannot read `{path}`: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            _ => return usage(),
        }
    }
    let Some(socket) = socket else {
        eprintln!("viewcap-cli: client needs --socket");
        return ExitCode::FAILURE;
    };
    let request = match (op, source) {
        (Some(op), None) => op,
        (None, Some(source)) => ClientRequest::Run {
            source,
            jobs,
            warm_key,
        },
        _ => return usage(),
    };
    match client_request(&socket, &request) {
        Ok(response) if response.ok => {
            print!("{}", response.body);
            ExitCode::SUCCESS
        }
        Ok(response) => {
            eprint!("viewcap-cli: daemon: {}", response.body);
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("viewcap-cli: client: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("pile") => return pile_command(&args[1..]),
        #[cfg(unix)]
        Some("serve") => return serve_command(&args[1..]),
        #[cfg(unix)]
        Some("client") => return client_command(&args[1..]),
        #[cfg(not(unix))]
        Some("serve") | Some("client") => {
            eprintln!("viewcap-cli: serve/client need unix sockets");
            return ExitCode::FAILURE;
        }
        _ => {}
    }
    let mut options = ScenarioOptions::default();
    let mut stats = false;
    let mut pile_file: Option<PathBuf> = None;
    let mut cache_max: Option<usize> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut source: Option<String> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--demo" if source.is_none() => source = Some(DEMO.to_owned()),
            "--stats" => stats = true,
            "--jobs" => {
                let Some(n) = it.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("viewcap-cli: --jobs needs a number (0 = all cores)");
                    return ExitCode::FAILURE;
                };
                options.jobs = n;
            }
            "--pile" => {
                let Some(path) = it.next() else {
                    eprintln!("viewcap-cli: --pile needs a path");
                    return ExitCode::FAILURE;
                };
                pile_file = Some(path.into());
            }
            "--cache-max" => {
                let Some(n) = it.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("viewcap-cli: --cache-max needs a number (0 = unbounded)");
                    return ExitCode::FAILURE;
                };
                cache_max = (n > 0).then_some(n);
            }
            "--trace-out" => {
                let Some(path) = it.next() else {
                    eprintln!("viewcap-cli: --trace-out needs a path");
                    return ExitCode::FAILURE;
                };
                trace_out = Some(path.into());
            }
            "--metrics-out" => {
                let Some(path) = it.next() else {
                    eprintln!("viewcap-cli: --metrics-out needs a path");
                    return ExitCode::FAILURE;
                };
                metrics_out = Some(path.into());
            }
            path if !path.starts_with('-') && source.is_none() => {
                match std::fs::read_to_string(path) {
                    Ok(s) => source = Some(s),
                    Err(e) => {
                        eprintln!("viewcap-cli: cannot read `{path}`: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            _ => return usage(),
        }
    }
    let Some(source) = source else {
        return usage();
    };
    if trace_out.is_some() || metrics_out.is_some() {
        viewcap_obs::set_enabled(true);
    }

    // One `EngineConfig` names everything the run needs — a fresh bounded
    // cache, or a pile's verdicts and space library — and `Session::open`
    // loads it eagerly: a damaged pile errors here, never a silent cold
    // start.
    let mut config = EngineConfig::new().cache_max(cache_max);
    if let Some(path) = &pile_file {
        config = config.pile(path);
    }
    let mut session = match Session::open(config) {
        Ok(session) => session,
        Err(e) if pile_file.is_some() => {
            eprintln!("viewcap-cli: {e} (try `viewcap-cli pile recover`)");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("viewcap-cli: {e}");
            return ExitCode::FAILURE;
        }
    };

    match run_scenario_with_engine(&source, &options, session.engine()) {
        Ok(outcome) => {
            print!("{}", outcome.report);
            println!(
                "-- {} check(s) answered YES, {} answered NO",
                outcome.yes, outcome.no
            );
            if stats {
                // Diagnostics go to stderr: stdout is the pinned scenario
                // transcript, byte-identical under every flag combination.
                eprint!("{}", outcome.run_stats());
            }
            // Append the run's verdicts and grown candidate spaces to the
            // pile, if one is configured.
            if let Err(e) = session.persist(&outcome.catalog) {
                eprintln!("viewcap-cli: cannot persist: {e}");
                return ExitCode::FAILURE;
            }
            // The pile append above belongs in the telemetry too, so the
            // snapshot and trace are written last.
            if let Some(path) = &metrics_out {
                let snapshot = viewcap_obs::snapshot();
                if let Err(e) = std::fs::write(path, snapshot.to_json()) {
                    eprintln!(
                        "viewcap-cli: cannot write metrics `{}`: {e}",
                        path.display()
                    );
                    return ExitCode::FAILURE;
                }
            }
            if let Some(path) = &trace_out {
                if let Err(e) = std::fs::write(path, viewcap_obs::trace_json()) {
                    eprintln!("viewcap-cli: cannot write trace `{}`: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("viewcap-cli: {e}");
            ExitCode::FAILURE
        }
    }
}
