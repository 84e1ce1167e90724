//! `viewcap-cli` — run scenario files against the decision procedures,
//! and manage verdict-cache files for fleets of workers.
//!
//! ```console
//! $ viewcap-cli scenarios/example_3_1_5.vcap
//! $ viewcap-cli --demo                       # built-in demonstration
//! $ viewcap-cli --jobs 8 scenarios/batch_workload.vcap
//! $ viewcap-cli --stats scenarios/batch_workload.vcap
//! $ viewcap-cli --cache-file /tmp/verdicts.vcapcache --cache-max 10000 \
//!       scenarios/incremental_edit.vcap
//! $ viewcap-cli cache merge w1.vcapcache w2.vcapcache --out warm.vcapcache
//! $ viewcap-cli cache compact warm.vcapcache --max 50000
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
//! `--cache-file PATH` persists the verdict cache across runs: an existing
//! file is loaded before the scenario (a corrupted or version-mismatched
//! file is rejected with an error, never silently discarded), and the
//! cache — witnesses included — is saved back on success. Fingerprints
//! are catalog-content-addressed: a cache file is valid for every scenario
//! declaring the same relations (same names and schemes), in *any*
//! declaration order. `--cache-max N` bounds the cache to `N` verdicts
//! with LRU-ish eviction (`0` = unbounded).
//!
//! The `cache` subcommands fold fleets of workers' caches together:
//! `cache merge <in...> --out FILE` unions N files (last input wins on a
//! shared fingerprint; the verdicts are semantically identical either
//! way), and `cache compact FILE [--out FILE] [--max N]` rewrites one
//! file in canonical form, garbage-collecting unreferenced name-table
//! entries and optionally truncating to the newest `N` entries. Both
//! validate every input fully before writing, and write atomically, so a
//! corrupt input can never poison the output file.
//!
//! `--pile PATH` replaces `--cache-file` with the crash-safe spelling: the
//! scenario's cache loads from the pile's merged verdict set, and the
//! run's verdicts append as one atomic record afterwards — many processes
//! can share one pile concurrently with no merge step and no lost-update
//! window. The `pile` subcommands bridge formats (`pile import` folds
//! `.vcapcache` files in, `pile export` merges a pile back out to one
//! canonical cache file, byte-identical to `cache merge` of the same
//! snapshots) and repair crash damage (`pile recover` truncates a torn
//! suffix back to the last valid record).
//!
//! `--space-file PATH` persists the engine's *candidate spaces* across
//! runs: the enumeration levels each context pool rebuilds from scratch on
//! a cold start. An existing space library hydrates every matching context
//! lazily on its first probe (a corrupted file is rejected with an error;
//! a corrupted entry inside a valid library is skipped and rebuilt), and
//! any levels the run grew beyond the snapshot are harvested and saved
//! back atomically. Keys are catalog-content-addressed like cache
//! fingerprints, so one space file serves every scenario declaring the
//! same relations in any declaration order. The `space` subcommands bridge
//! to piles: `space import` appends library files as space records,
//! `space export` merges a pile's space records back out to one library
//! file (per key, the snapshot with the most levels wins), and
//! `space stats` describes a library file.
//!
//! `serve --socket PATH [--pile PATH]` starts a resident daemon (unix
//! socket, line-delimited protocol; see [`viewcap::serve`]) answering
//! scenario requests without per-run process start-up or cache reload;
//! `client --socket PATH <scenario>` drives a scenario through it and
//! prints a transcript byte-identical to running the scenario directly.

use std::process::ExitCode;
use viewcap::scenario::{run_scenario_with_engine, ScenarioOptions};
use viewcap_engine::{
    compact_cache_bytes, merge_cache_bytes, write_bytes_atomic, EngineConfig, PileStore, Session,
    SpaceLibrary,
};

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
        "usage: viewcap-cli [--jobs N] [--stats] [--cache-file PATH | --pile PATH] \
         [--cache-max N] [--space-file PATH] [--trace-out PATH] [--metrics-out PATH] \
         <scenario-file> | --demo\n       \
         viewcap-cli cache merge <in.vcapcache...> --out <out.vcapcache>\n       \
         viewcap-cli cache compact <file.vcapcache> [--out <out.vcapcache>] [--max N]\n       \
         viewcap-cli pile import <in.vcapcache...> --pile <file.vcappile>\n       \
         viewcap-cli pile export <file.vcappile> --out <out.vcapcache>\n       \
         viewcap-cli pile recover <file.vcappile>\n       \
         viewcap-cli pile stats <file.vcappile>\n       \
         viewcap-cli space import <in.vcapspaces...> --pile <file.vcappile>\n       \
         viewcap-cli space export <file.vcappile> --out <out.vcapspaces>\n       \
         viewcap-cli space stats <file.vcapspaces>\n       \
         viewcap-cli serve --socket PATH [--pile PATH] [--cache-max N]\n       \
         viewcap-cli client --socket PATH [--jobs N] [--warm KEY] \
         (<scenario-file> | --demo | --ping | --stats | --shutdown)"
    );
    ExitCode::FAILURE
}

/// `viewcap-cli pile import|export|recover|stats ...`.
fn pile_command(args: &[String]) -> ExitCode {
    let Some((sub, rest)) = args.split_first() else {
        return usage();
    };
    let mut inputs: Vec<std::path::PathBuf> = Vec::new();
    let mut out: Option<std::path::PathBuf> = None;
    let mut pile: Option<std::path::PathBuf> = None;
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
            path if !path.starts_with('-') => inputs.push(path.into()),
            _ => return usage(),
        }
    }
    match sub.as_str() {
        "import" => {
            let Some(pile) = pile else {
                eprintln!("viewcap-cli: pile import needs --pile");
                return ExitCode::FAILURE;
            };
            if inputs.is_empty() {
                eprintln!("viewcap-cli: pile import needs at least one input file");
                return ExitCode::FAILURE;
            }
            let mut store = match PileStore::open(&pile) {
                Ok(store) => store,
                Err(e) => {
                    eprintln!("viewcap-cli: {}: {e}", pile.display());
                    return ExitCode::FAILURE;
                }
            };
            for path in &inputs {
                let bytes = match std::fs::read(path) {
                    Ok(bytes) => bytes,
                    Err(e) => {
                        eprintln!("viewcap-cli: cannot read `{}`: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                };
                match store.append_cache_bytes(&bytes) {
                    Ok(entries) => println!(
                        "imported {entries} entries from {} -> {}",
                        path.display(),
                        pile.display()
                    ),
                    Err(e) => {
                        eprintln!("viewcap-cli: pile import `{}`: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                }
            }
            ExitCode::SUCCESS
        }
        "export" => {
            let ([input], Some(out)) = (inputs.as_slice(), out) else {
                eprintln!("viewcap-cli: pile export takes one pile file and --out");
                return ExitCode::FAILURE;
            };
            let mut store = match PileStore::open(input) {
                Ok(store) => store,
                Err(e) => {
                    eprintln!("viewcap-cli: {}: {e}", input.display());
                    return ExitCode::FAILURE;
                }
            };
            match store.merged_bytes() {
                Ok((bytes, report)) => {
                    if let Err(e) = write_bytes_atomic(&out, &bytes) {
                        eprintln!("viewcap-cli: cannot write `{}`: {e}", out.display());
                        return ExitCode::FAILURE;
                    }
                    println!("exported {report} -> {}", out.display());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("viewcap-cli: pile export: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "recover" => {
            let [input] = inputs.as_slice() else {
                eprintln!("viewcap-cli: pile recover takes exactly one pile file");
                return ExitCode::FAILURE;
            };
            match PileStore::recover(input) {
                Ok((_, report)) => {
                    println!("recovered {report}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("viewcap-cli: pile recover `{}`: {e}", input.display());
                    ExitCode::FAILURE
                }
            }
        }
        "stats" => {
            let [input] = inputs.as_slice() else {
                eprintln!("viewcap-cli: pile stats takes exactly one pile file");
                return ExitCode::FAILURE;
            };
            let mut store = match PileStore::open(input) {
                Ok(store) => store,
                Err(e) => {
                    eprintln!("viewcap-cli: {}: {e}", input.display());
                    return ExitCode::FAILURE;
                }
            };
            match (store.record_count(), store.merged_bytes()) {
                (Ok(records), Ok((_, report))) => {
                    println!("{records} record(s), merged {report}");
                    ExitCode::SUCCESS
                }
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("viewcap-cli: pile stats: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}

/// `viewcap-cli space import|export|stats ...`.
fn space_command(args: &[String]) -> ExitCode {
    let Some((sub, rest)) = args.split_first() else {
        return usage();
    };
    let mut inputs: Vec<std::path::PathBuf> = Vec::new();
    let mut out: Option<std::path::PathBuf> = None;
    let mut pile: Option<std::path::PathBuf> = None;
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
            path if !path.starts_with('-') => inputs.push(path.into()),
            _ => return usage(),
        }
    }
    match sub.as_str() {
        "import" => {
            let Some(pile) = pile else {
                eprintln!("viewcap-cli: space import needs --pile");
                return ExitCode::FAILURE;
            };
            if inputs.is_empty() {
                eprintln!("viewcap-cli: space import needs at least one input file");
                return ExitCode::FAILURE;
            }
            let mut store = match PileStore::open(&pile) {
                Ok(store) => store,
                Err(e) => {
                    eprintln!("viewcap-cli: {}: {e}", pile.display());
                    return ExitCode::FAILURE;
                }
            };
            for path in &inputs {
                let bytes = match std::fs::read(path) {
                    Ok(bytes) => bytes,
                    Err(e) => {
                        eprintln!("viewcap-cli: cannot read `{}`: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                };
                match store.append_space_bytes(&bytes) {
                    Ok(entries) => println!(
                        "imported {entries} space(s) from {} -> {}",
                        path.display(),
                        pile.display()
                    ),
                    Err(e) => {
                        eprintln!("viewcap-cli: space import `{}`: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                }
            }
            ExitCode::SUCCESS
        }
        "export" => {
            let ([input], Some(out)) = (inputs.as_slice(), out) else {
                eprintln!("viewcap-cli: space export takes one pile file and --out");
                return ExitCode::FAILURE;
            };
            let mut store = match PileStore::open(input) {
                Ok(store) => store,
                Err(e) => {
                    eprintln!("viewcap-cli: {}: {e}", input.display());
                    return ExitCode::FAILURE;
                }
            };
            match store.load_spaces() {
                Ok(library) => {
                    if let Err(e) = library.save(&out) {
                        eprintln!("viewcap-cli: cannot write `{}`: {e}", out.display());
                        return ExitCode::FAILURE;
                    }
                    println!("exported {} space(s) -> {}", library.len(), out.display());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("viewcap-cli: space export: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "stats" => {
            let [input] = inputs.as_slice() else {
                eprintln!("viewcap-cli: space stats takes exactly one library file");
                return ExitCode::FAILURE;
            };
            let bytes = match std::fs::read(input) {
                Ok(bytes) => bytes,
                Err(e) => {
                    eprintln!("viewcap-cli: cannot read `{}`: {e}", input.display());
                    return ExitCode::FAILURE;
                }
            };
            match SpaceLibrary::from_bytes(&bytes) {
                Ok(library) => {
                    println!("{} space(s), {} byte(s)", library.len(), bytes.len());
                    for (digest, payload) in library.iter() {
                        println!("  {digest:032x}  {} byte(s)", payload.len());
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("viewcap-cli: space stats `{}`: {e}", input.display());
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}

/// `viewcap-cli serve --socket PATH [--pile PATH] [--cache-max N]`.
#[cfg(unix)]
fn serve_command(args: &[String]) -> ExitCode {
    let mut config = viewcap::serve::ServeConfig {
        socket: std::path::PathBuf::new(),
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
    let mut socket: Option<std::path::PathBuf> = None;
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

/// `viewcap-cli cache merge|compact ...`.
fn cache_command(args: &[String]) -> ExitCode {
    let Some((sub, rest)) = args.split_first() else {
        return usage();
    };
    let mut inputs: Vec<std::path::PathBuf> = Vec::new();
    let mut out: Option<std::path::PathBuf> = None;
    let mut max: Option<usize> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(p) => out = Some(p.into()),
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
    let read = |path: &std::path::Path| match std::fs::read(path) {
        Ok(bytes) => Some(bytes),
        Err(e) => {
            eprintln!("viewcap-cli: cannot read `{}`: {e}", path.display());
            None
        }
    };
    match sub.as_str() {
        "merge" => {
            let Some(out) = out else {
                eprintln!("viewcap-cli: cache merge needs --out");
                return ExitCode::FAILURE;
            };
            if inputs.is_empty() {
                eprintln!("viewcap-cli: cache merge needs at least one input file");
                return ExitCode::FAILURE;
            }
            let mut files = Vec::with_capacity(inputs.len());
            for path in &inputs {
                match read(path) {
                    Some(bytes) => files.push(bytes),
                    None => return ExitCode::FAILURE,
                }
            }
            match merge_cache_bytes(&files) {
                Ok((bytes, report)) => {
                    if let Err(e) = write_bytes_atomic(&out, &bytes) {
                        eprintln!("viewcap-cli: cannot write `{}`: {e}", out.display());
                        return ExitCode::FAILURE;
                    }
                    println!("merged {report} -> {}", out.display());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("viewcap-cli: cache merge: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "compact" => {
            let [input] = inputs.as_slice() else {
                eprintln!("viewcap-cli: cache compact takes exactly one input file");
                return ExitCode::FAILURE;
            };
            let Some(bytes) = read(input) else {
                return ExitCode::FAILURE;
            };
            let out = out.unwrap_or_else(|| input.clone());
            match compact_cache_bytes(&bytes, max) {
                Ok((bytes, report)) => {
                    if let Err(e) = write_bytes_atomic(&out, &bytes) {
                        eprintln!("viewcap-cli: cannot write `{}`: {e}", out.display());
                        return ExitCode::FAILURE;
                    }
                    println!("compacted {report} -> {}", out.display());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("viewcap-cli: cache compact: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("cache") => return cache_command(&args[1..]),
        Some("pile") => return pile_command(&args[1..]),
        Some("space") => return space_command(&args[1..]),
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
    let mut cache_file: Option<std::path::PathBuf> = None;
    let mut pile_file: Option<std::path::PathBuf> = None;
    let mut cache_max: Option<usize> = None;
    let mut space_file: Option<std::path::PathBuf> = None;
    let mut trace_out: Option<std::path::PathBuf> = None;
    let mut metrics_out: Option<std::path::PathBuf> = None;
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
            "--cache-file" => {
                let Some(path) = it.next() else {
                    eprintln!("viewcap-cli: --cache-file needs a path");
                    return ExitCode::FAILURE;
                };
                cache_file = Some(path.into());
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
            "--space-file" => {
                let Some(path) = it.next() else {
                    eprintln!("viewcap-cli: --space-file needs a path");
                    return ExitCode::FAILURE;
                };
                space_file = Some(path.into());
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

    // One `EngineConfig` names everything the run needs — cache source
    // (file, pile, or a fresh bounded cache) and space library — and
    // `Session::open` loads it all eagerly: a corrupt file errors here,
    // never a silent cold start.
    let mut config = EngineConfig::new().cache_max(cache_max);
    if let Some(path) = &cache_file {
        config = config.cache_file(path);
    }
    if let Some(path) = &pile_file {
        config = config.pile(path);
    }
    if let Some(path) = &space_file {
        config = config.space_file(path);
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
            // Write back everything the configuration promised: the cache
            // file, the pile append, the harvested candidate spaces.
            if let Err(e) = session.persist(&outcome.catalog) {
                eprintln!("viewcap-cli: cannot persist: {e}");
                return ExitCode::FAILURE;
            }
            // The cache save above belongs in the telemetry too, so the
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
