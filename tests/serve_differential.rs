//! Differential test: `viewcap serve` + `viewcap client` against the batch
//! CLI. Six pinned scenarios, at `--jobs 1` and `--jobs 4`, must produce
//! transcripts **byte-identical** to running the same scenario directly —
//! the daemon is a residency optimization, never a semantic fork.
//!
//! Also pinned here: warm mode preserves every verdict (only cache
//! provenance may differ), the daemon's stats count requests, and shutdown
//! is clean — a recovery pass over the daemon's pile drops zero bytes.
#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

const CLI: &str = env!("CARGO_BIN_EXE_viewcap-cli");

const SCENARIOS: [&str; 6] = [
    "example_3_1_5",
    "batch_workload",
    "incremental_edit",
    "security_audit",
    "normal_form",
    "cross_catalog_base",
];

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("viewcap-serve-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn scenario_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("scenarios/{name}.vcap"))
}

/// Kills the daemon if the test panics before the clean shutdown.
struct DaemonGuard(Child);

impl Drop for DaemonGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn start_daemon(socket: &Path, pile: &Path) -> DaemonGuard {
    let child = Command::new(CLI)
        .args(["serve", "--socket"])
        .arg(socket)
        .arg("--pile")
        .arg(pile)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daemon");
    let deadline = Instant::now() + Duration::from_secs(30);
    while !socket.exists() {
        assert!(Instant::now() < deadline, "daemon never bound its socket");
        std::thread::sleep(Duration::from_millis(20));
    }
    DaemonGuard(child)
}

fn run_cli(args: &[&str], extra: &[&Path]) -> Output {
    let mut cmd = Command::new(CLI);
    cmd.args(args);
    for path in extra {
        cmd.arg(path);
    }
    cmd.output().expect("run viewcap-cli")
}

fn assert_ok(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn client_transcripts_are_byte_identical_to_the_batch_cli() {
    let dir = scratch();
    let socket = dir.join("diff.sock");
    let pile = dir.join("diff.vcappile");
    let _ = std::fs::remove_file(&pile);
    let daemon = start_daemon(&socket, &pile);
    let sock = socket.to_str().unwrap();

    let mut served = 0u64;
    for jobs in ["1", "4"] {
        for name in SCENARIOS {
            let scenario = scenario_path(name);
            let direct = run_cli(&["--jobs", jobs], &[&scenario]);
            assert_ok(&direct, &format!("batch {name} --jobs {jobs}"));
            let via_daemon = run_cli(&["client", "--socket", sock, "--jobs", jobs], &[&scenario]);
            assert_ok(&via_daemon, &format!("client {name} --jobs {jobs}"));
            served += 1;
            assert_eq!(
                via_daemon.stdout,
                direct.stdout,
                "{name} --jobs {jobs}: daemon transcript diverged from the batch CLI:\n\
                 --- daemon ---\n{}\n--- direct ---\n{}",
                String::from_utf8_lossy(&via_daemon.stdout),
                String::from_utf8_lossy(&direct.stdout)
            );
        }
    }

    // Warm mode shares a cache across requests: the transcript's cache
    // provenance may change, the verdicts may not. Every `check` line and
    // the yes/no summary must survive warmth untouched.
    let scenario = scenario_path("example_3_1_5");
    let cold = run_cli(&["--jobs", "1"], &[&scenario]);
    for _ in 0..2 {
        let warm = run_cli(
            &["client", "--socket", sock, "--warm", "fleet"],
            &[&scenario],
        );
        assert_ok(&warm, "warm client run");
        served += 1;
        let lines = |out: &Output| -> Vec<String> {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .filter(|l| l.starts_with("check ") || l.starts_with("--"))
                .map(str::to_owned)
                .collect()
        };
        assert_eq!(lines(&warm), lines(&cold), "warm mode changed a verdict");
    }

    // The daemon's own accounting: a ping, then stats naming every request.
    let ping = run_cli(&["client", "--socket", sock, "--ping"], &[]);
    assert_ok(&ping, "ping");
    assert_eq!(ping.stdout, b"pong\n");
    let stats = run_cli(&["client", "--socket", sock, "--stats"], &[]);
    assert_ok(&stats, "stats");
    let stats_text = String::from_utf8_lossy(&stats.stdout).to_string();
    assert!(
        stats_text.contains(&format!("served: {served}")),
        "stats must count {served} runs:\n{stats_text}"
    );
    assert!(stats_text.contains("warm[fleet]:"), "stats:\n{stats_text}");
    assert!(stats_text.contains("pile records:"), "stats:\n{stats_text}");

    // Clean shutdown: daemon exits 0, removes its socket, and leaves a
    // pile a recovery pass finds fully intact.
    let bye = run_cli(&["client", "--socket", sock, "--shutdown"], &[]);
    assert_ok(&bye, "shutdown");
    let mut daemon = daemon;
    let status = daemon.0.wait().expect("daemon exit status");
    assert!(status.success(), "daemon exited {status}");
    assert!(!socket.exists(), "socket file must be removed on shutdown");

    let recover = run_cli(&["pile", "recover"], &[&pile]);
    assert_ok(&recover, "pile recover");
    let report = String::from_utf8_lossy(&recover.stdout).to_string();
    assert!(
        report.contains("0 byte(s) dropped"),
        "clean shutdown must leave an undamaged pile: {report}"
    );
}

#[test]
fn warm_daemon_skips_an_undecodable_space_record() {
    // A pile with a valid cache record and a well-framed space record
    // that is not a space library: `Session` refuses such a pile, but
    // the daemon seeds an empty space library and answers from the
    // cache, byte-identically to the batch CLI.
    let dir = scratch();
    let socket = dir.join("bad-space.sock");
    let pile = dir.join("bad-space.vcappile");
    let _ = std::fs::remove_file(&pile);
    let scenario = scenario_path("example_3_1_5");
    assert_ok(
        &run_cli(&["--pile", pile.to_str().unwrap()], &[&scenario]),
        "batch run appending to the pile",
    );
    viewcap_pile::Pile::open(&pile)
        .unwrap()
        .append(viewcap_engine::SPACE_RECORD_KIND, b"not a space library")
        .unwrap();
    let _daemon = start_daemon(&socket, &pile);
    let direct = run_cli(&["--jobs", "1"], &[&scenario]);
    assert_ok(&direct, "batch example_3_1_5");
    let warm = run_cli(
        &[
            "client",
            "--socket",
            socket.to_str().unwrap(),
            "--warm",
            "k",
        ],
        &[&scenario],
    );
    assert_ok(&warm, "warm client run");
    assert_eq!(
        warm.stdout,
        direct.stdout,
        "warm transcript diverged from the batch CLI:\n{}",
        String::from_utf8_lossy(&warm.stdout)
    );
}

#[test]
fn daemon_rejects_malformed_requests_without_dying() {
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;

    let dir = scratch();
    let socket = dir.join("robust.sock");
    let _daemon = start_daemon(&socket, &dir.join("robust.vcappile"));

    // A length past the frame cap and a header line past the header cap
    // are refused before the daemon allocates or reads anything for them.
    let long_header = format!(
        "PING {}\n",
        "k".repeat(viewcap::serve::MAX_HEADER_BYTES as usize)
    );
    for request in [
        "NONSENSE\n",
        "RUN not-a-number cold 5\n",
        "RUN 1 tepid 5\n",
        "RUN 1 warm: 5\n",
        "RUN 1 cold 18446744073709551615\n",
        &long_header,
    ] {
        let mut stream = UnixStream::connect(&socket).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        // The daemon stops reading at the header cap, so closing its end
        // can reset the connection once the refusal has been read.
        let mut response = Vec::new();
        let _ = stream.read_to_end(&mut response);
        let response = String::from_utf8_lossy(&response);
        assert!(
            response.starts_with("ERR "),
            "{request:?} must be refused, got {response:?}"
        );
    }

    // A scenario error comes back as ERR too, and the daemon survives it:
    // an unknown view, a join too wide for the search to enumerate, and
    // views too wide to normalize (17 attributes; a join of two 9s).
    let attrs: Vec<String> = (0..17).map(|i| format!("A{i}")).collect();
    let wide = format!("rel R({})\nview V {{\n  Q = R\n}}\n", attrs.join(", "));
    let simplify_wide = format!("{wide}simplify V\n");
    let nonredundant_wide = format!("{wide}nonredundant V\n");
    for bad in [
        "rel R(A, B)\ncheck member NoSuchView R\n",
        "rel R(A, B, C, D, E, F, G, H, I)\nrel S(J, K, L, M, N, O, P, Q, T)\n\
         view V {\n  X = R\n  Y = S\n}\ncheck member V pi{A,J}(R * S)\n",
        &simplify_wide,
        &nonredundant_wide,
        "rel R(A, B, C, D, E, F, G, H, I)\nrel S(J, K, L, M, N, O, P, Q, T)\n\
         view V {\n  X = R * S\n}\nsimplify V\n",
    ] {
        let mut stream = UnixStream::connect(&socket).unwrap();
        stream
            .write_all(format!("RUN 1 cold {}\n{bad}", bad.len()).as_bytes())
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("ERR "), "got {response:?}");

        let ping = run_cli(
            &["client", "--socket", socket.to_str().unwrap(), "--ping"],
            &[],
        );
        assert_ok(&ping, "ping after malformed requests");
        assert_eq!(ping.stdout, b"pong\n");
    }

    // Two stalled clients, held open: a body shorter than its length, and
    // a header with no newline. The daemon gives each at most its I/O
    // timeout, so a later client is answered after about two of them.
    let stalled: Vec<UnixStream> = ["RUN 1 cold 100\n0123456789", "PING"]
        .iter()
        .map(|partial| {
            let mut stream = UnixStream::connect(&socket).unwrap();
            stream.write_all(partial.as_bytes()).unwrap();
            stream
        })
        .collect();
    let bound = viewcap::serve::IO_TIMEOUT * 2 + Duration::from_secs(10);
    // Bounded on this side too, so a daemon that never answers fails the
    // test instead of hanging it.
    let request = |body: &str| {
        let mut stream = UnixStream::connect(&socket).unwrap();
        stream.set_read_timeout(Some(bound)).unwrap();
        stream.write_all(body.as_bytes()).unwrap();
        let mut response = String::new();
        stream
            .read_to_string(&mut response)
            .unwrap_or_else(|e| panic!("no answer to {body:?} within {bound:?}: {e}"));
        response
    };
    let start = Instant::now();
    assert_eq!(request("PING\n"), "OK 5\npong\n");
    assert!(
        start.elapsed() < bound,
        "ping took {:?} behind stalled clients",
        start.elapsed()
    );
    drop(stalled);
    let scenario = std::fs::read_to_string(scenario_path("example_3_1_5")).unwrap();
    let ran = request(&format!("RUN 1 cold {}\n{scenario}", scenario.len()));
    assert!(ran.starts_with("OK "), "RUN after stalled clients: {ran:?}");
}

/// Send one raw request and read the daemon's whole response.
fn raw_request(socket: &Path, request: &str) -> String {
    use std::io::{Read, Write};
    let mut stream = std::os::unix::net::UnixStream::connect(socket).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

#[test]
fn warm_keys_are_bounded() {
    let dir = scratch();
    let socket = dir.join("warm-bound.sock");
    let pile = dir.join("warm-bound.vcappile");
    let _ = std::fs::remove_file(&pile);
    let _daemon = start_daemon(&socket, &pile);
    let scenario = "rel R(A, B)\nview V {\n  v1 = pi{A}(R)\n}\ncheck member V pi{A}(R)\n";
    let run = |key: usize| {
        raw_request(
            &socket,
            &format!("RUN 1 warm:k{key} {}\n{scenario}", scenario.len()),
        )
    };
    let max = viewcap::serve::MAX_WARM_KEYS;
    for key in 0..=max {
        let response = run(key);
        assert!(response.starts_with("OK "), "key {key}: {response:?}");
    }
    let stats = raw_request(&socket, "STATS\n");
    assert!(
        stats.contains(&format!("warm catalogs: {max}\n")),
        "stats:\n{stats}"
    );
    assert!(!stats.contains("warm[k0]:"), "k0 was least recently used");
    let again = run(0);
    assert!(again.starts_with("OK "), "retired key answers: {again:?}");
    assert!(
        again.contains("check member V pi{A}(R): YES via v1"),
        "{again}"
    );
}

#[test]
fn run_clamps_its_worker_count() {
    let dir = scratch();
    let socket = dir.join("jobs.sock");
    let _daemon = start_daemon(&socket, &dir.join("jobs.vcappile"));
    let path = scenario_path("batch_workload");
    let scenario = std::fs::read_to_string(&path).unwrap();
    let direct = run_cli(&["--jobs", "1"], &[&path]);
    assert_ok(&direct, "batch_workload --jobs 1");
    let response = raw_request(
        &socket,
        &format!("RUN 4294967295 cold {}\n{scenario}", scenario.len()),
    );
    let body = response
        .strip_prefix(&format!("OK {}\n", direct.stdout.len()))
        .unwrap_or_else(|| panic!("unexpected response {response:?}"));
    assert_eq!(body.as_bytes(), direct.stdout);
}
