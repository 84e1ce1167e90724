//! `viewcap serve` — a resident decision daemon over a unix socket, and
//! the client side that drives scenarios through it.
//!
//! The daemon answers scenario requests with a line-delimited protocol.
//! One process hosts many catalogs: scenarios declare their own catalogs,
//! and warm verdict caches are keyed by a *client-supplied* catalog key,
//! so independent fleets share one resident service. A warm key holds
//! three things across requests:
//!
//! - its [`VerdictCache`] and space library (safe to share:
//!   fingerprints are catalog-content-addressed);
//! - the [`Declarations`] its last rebuilt request's leading `rel`/`view`
//!   lines produced, next to the exact source bytes they came from. A
//!   request whose source starts with those bytes starts from a copy of
//!   them instead of declaring its catalog again, and its transcript is
//!   byte-identical. Any other request declares afresh, and its
//!   declarations replace the held ones when they end on a line break
//!   (an empty prologue ends on none, so it holds nothing). A prologue
//!   that errors is never held.
//!
//! Engines, whose context pools hold catalog-bound ids, are built per
//! request. `cold` requests share nothing at all. At most
//! [`MAX_WARM_KEYS`] keys stay warm: past that, the least-recently-used
//! key is dropped, and its next request reloads it.
//!
//! ## Protocol
//!
//! Requests are a header line, then (for `RUN`) a length-prefixed body:
//!
//! ```text
//! RUN <jobs> <mode> <len>\n<len scenario bytes>   mode: cold | warm:<key>
//! PING\n
//! STATS\n
//! SHUTDOWN\n
//! ```
//!
//! Every response is `OK <len>\n<len bytes>` or `ERR <len>\n<len bytes>`.
//! Both sides refuse a header line longer than [`MAX_HEADER_BYTES`] and a
//! `<len>` above [`MAX_FRAME_BYTES`] before allocating anything for it;
//! the daemon answers either with `ERR`. The daemon drops a connection
//! whose reads or writes stall past [`IO_TIMEOUT`].
//! A `RUN` response body is *exactly* the batch CLI's stdout for the same
//! scenario — the report plus the final `-- N check(s) answered YES…`
//! line — so transcripts can be diffed byte-for-byte against `viewcap-cli
//! <scenario>`. `cold` mode guarantees that identity (a fresh, empty
//! cache per request); `warm:<key>` shares the key's cache across
//! requests, which serves repeat checks from memory at the cost of
//! transcript lines that say so.
//!
//! ## Crash safety
//!
//! With `--pile`, the daemon recovers the pile on startup (truncating any
//! suffix a crash mid-append left, and reporting it on stderr), seeds
//! warm caches from the pile's merged verdict set, and appends every
//! request's verdicts after answering. Killing the daemon at any moment
//! costs at most the in-flight append.
//!
//! Warm keys also get a per-key candidate-space library: seeded from the
//! pile's space records on first use, attached to every warm request's
//! engine (contexts hydrate their enumeration levels instead of
//! rebuilding them), and — whenever a request grew a space — appended
//! back to the pile, so even a daemon restart skips the cold-start
//! enumeration. `cold` requests get no shared state of any kind.

use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use crate::scenario::{
    declare, run_declared, run_scenario_with_engine, Declarations, ScenarioOptions,
};
use viewcap_engine::{
    effective_jobs, Engine, EngineConfig, Lru, PileRecords, PileStore, PileStoreError,
    SpaceLibrary, VerdictCache,
};

/// Longest header line either side reads, newline included. A `RUN`
/// header is a few dozen bytes plus the warm key.
pub const MAX_HEADER_BYTES: u64 = 4096;

/// Largest body either side accepts: a `RUN` scenario or a response.
/// The largest the tests and the benchmark send is about 10 KiB.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// How long the daemon waits on any one read from, or write to, a client
/// before dropping the connection. Requests are served one at a time, so
/// this bounds how long a stalled client — a header without its newline,
/// a body shorter than its `<len>` — holds up every client behind it.
pub const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Most warm catalog keys the daemon keeps. Each holds a full load of the
/// pile's verdict set and space library, so without a bound a client
/// naming fresh keys grows the daemon without limit.
pub const MAX_WARM_KEYS: usize = 16;

/// Read one header line, newline stripped. `Ok(None)` when the line runs
/// past [`MAX_HEADER_BYTES`] without ending.
fn read_header(reader: &mut impl BufRead) -> std::io::Result<Option<String>> {
    let mut line = Vec::new();
    reader
        .by_ref()
        .take(MAX_HEADER_BYTES)
        .read_until(b'\n', &mut line)?;
    if line.last() == Some(&b'\n') {
        line.pop();
    } else if line.len() as u64 == MAX_HEADER_BYTES {
        return Ok(None);
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Configuration of one [`serve`] daemon.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// The unix socket to listen on (created; removed on clean shutdown).
    pub socket: PathBuf,
    /// Crash-safe verdict pile to recover, seed warm caches from, and
    /// append every request's verdicts to.
    pub pile: Option<PathBuf>,
    /// Bound for warm per-key caches (`None` = unbounded).
    pub cache_max: Option<usize>,
}

/// Why a serve/client operation failed.
#[derive(Debug)]
pub enum ServeError {
    /// Socket or pile I/O failure.
    Io(std::io::Error),
    /// The peer spoke something that is not the protocol.
    Protocol(String),
    /// The daemon's pile rejected an operation.
    Pile(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "{e}"),
            ServeError::Protocol(what) => write!(f, "protocol error: {what}"),
            ServeError::Pile(what) => write!(f, "pile error: {what}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

static DECLARE_BUILD: viewcap_obs::Counter = viewcap_obs::Counter::new("serve.declare.build");
static DECLARE_REUSE: viewcap_obs::Counter = viewcap_obs::Counter::new("serve.declare.reuse");

/// One warm catalog key's state: its verdict cache and space library,
/// and the declarations its requests start from. The cache and library
/// are seeded from the pile on first use; every warm request's grown
/// spaces are harvested back, so a restarted daemon skips the enumeration
/// rebuild, not just the verdict recompute.
#[derive(Clone)]
struct Warm {
    cache: Arc<VerdictCache>,
    spaces: Arc<Mutex<SpaceLibrary>>,
    /// The source prefix a request declared, and what it declared.
    declared: Option<Arc<(String, Declarations)>>,
    /// Requests that started from `declared`.
    reused: u64,
    /// Requests that ran their declarations afresh.
    built: u64,
}

/// Shared daemon state: warm catalogs and the (optional) pile handle.
struct Daemon {
    /// Warm state per client-supplied catalog key, at most
    /// [`MAX_WARM_KEYS`] of them.
    warm: Mutex<Lru<String, Warm>>,
    pile: Option<Mutex<PileStore>>,
    cache_max: Option<usize>,
    served: AtomicU64,
}

impl Daemon {
    fn warm_keys(&self) -> MutexGuard<'_, Lru<String, Warm>> {
        self.warm.lock().expect("warm lock")
    }

    /// The warm state for `key`, created on first use — seeded from the
    /// pile when a pile is configured. A pile whose space records fail to
    /// load seeds an empty library instead of failing the request:
    /// hydration is an optimization, never correctness. The held
    /// declarations are returned only when `source` starts with their
    /// bytes, and are counted as reused.
    fn warm(&self, key: &str, source: &str) -> Result<Warm, ServeError> {
        let mut warm = self.warm_keys();
        if let Some(state) = warm.get(key) {
            let declared = state
                .declared
                .clone()
                .filter(|held| source.starts_with(held.0.as_str()));
            if declared.is_some() {
                state.reused += 1;
                DECLARE_REUSE.add(1);
            }
            return Ok(Warm {
                declared,
                ..state.clone()
            });
        }
        // No pile loads like an empty one: a fresh bounded cache, no spaces.
        let records = match &self.pile {
            Some(pile) => pile.lock().expect("pile lock").records(),
            None => Ok(PileRecords::default()),
        };
        let pile_err = |e: PileStoreError| ServeError::Pile(e.to_string());
        let records = records.map_err(pile_err)?;
        let state = Warm {
            cache: Arc::new(records.load(self.cache_max).map_err(pile_err)?),
            spaces: Arc::new(Mutex::new(records.load_spaces().unwrap_or_default())),
            declared: None,
            reused: 0,
            built: 0,
        };
        warm.insert(key.to_owned(), state.clone());
        while warm.len() > MAX_WARM_KEYS {
            warm.pop_lru();
        }
        Ok(state)
    }

    /// Count a warm request on `key` that declared afresh, and hold what it
    /// declared from `prefix` for the requests after it. Only a prefix that
    /// ends on a line break is held, so a source that extends it starts
    /// its commands on a line of their own.
    fn hold(&self, key: &str, prefix: &str, declarations: &Declarations) {
        DECLARE_BUILD.add(1);
        let held = prefix
            .ends_with('\n')
            .then(|| Arc::new((prefix.to_owned(), declarations.clone())));
        if let Some(state) = self.warm_keys().get(key) {
            state.built += 1;
            state.declared = held;
        }
    }

    /// Answer one `RUN`: build the request's engine, run the scenario,
    /// append the verdicts to the pile. Returns the exact batch-CLI
    /// stdout, or the scenario error text.
    fn run(&self, source: &str, jobs: usize, warm_key: Option<&str>) -> Result<String, String> {
        // `jobs` comes off the wire; transcripts are `--jobs`-invariant,
        // so clamping it to the host's cores only caps the thread count.
        let options = ScenarioOptions {
            jobs: jobs.min(effective_jobs(0)),
        };
        let engine;
        let outcome = match warm_key {
            None => {
                engine = Engine::new();
                run_scenario_with_engine(source, &options, &engine)
            }
            Some(key) => {
                let Warm {
                    cache,
                    spaces,
                    declared,
                    ..
                } = self.warm(key, source).map_err(|e| e.to_string())?;
                engine = Engine::from_config(
                    EngineConfig::new()
                        .shared_cache(cache)
                        .shared_spaces(spaces),
                )
                .map_err(|e| e.to_string())?;
                match declared {
                    Some(held) => {
                        let (prefix, declarations) = &*held;
                        let rest = &source[prefix.len()..];
                        run_declared(declarations.clone(), rest, &options, &engine)
                    }
                    None => {
                        let (declarations, rest) = declare(source).map_err(|e| e.to_string())?;
                        self.hold(key, &source[..source.len() - rest.len()], &declarations);
                        run_declared(declarations, rest, &options, &engine)
                    }
                }
            }
        }
        .map_err(|e| e.to_string())?;
        // Fold the request's grown candidate spaces back into the warm
        // library before persisting anything, so the pile append below
        // carries them too.
        let spaces_grew = engine.harvest_spaces() > 0;
        if let Some(pile) = &self.pile {
            pile.lock()
                .expect("pile lock")
                .append_run(&engine, &outcome.catalog, spaces_grew)
                .map_err(|e| format!("pile append failed: {e}"))?;
        }
        self.served.fetch_add(1, Ordering::Relaxed);
        Ok(format!(
            "{}-- {} check(s) answered YES, {} answered NO\n",
            outcome.report, outcome.yes, outcome.no
        ))
    }

    fn stats(&self) -> String {
        let warm = self.warm_keys();
        let mut body = format!(
            "served: {}\nwarm catalogs: {}\n",
            self.served.load(Ordering::Relaxed),
            warm.len()
        );
        let mut keys: Vec<_> = warm.iter().collect();
        keys.sort_by_key(|(key, _)| key.as_str());
        for (key, state) in &keys {
            body.push_str(&format!("warm[{key}]: {}\n", state.cache.stats()));
        }
        for (key, state) in &keys {
            let library = state.spaces.lock().expect("space library lock");
            body.push_str(&format!("spaces[{key}]: {} space(s)\n", library.len()));
        }
        for (key, state) in &keys {
            body.push_str(&format!(
                "declared[{key}]: {} reused, {} built\n",
                state.reused, state.built
            ));
        }
        if let Some(pile) = &self.pile {
            match pile.lock().expect("pile lock").records() {
                Ok(records) => body.push_str(&format!(
                    "pile records: {}\npile space records: {}\n",
                    records.cache.len(),
                    records.spaces.len()
                )),
                Err(e) => body.push_str(&format!("pile: {e}\npile spaces: {e}\n")),
            }
        }
        body
    }
}

/// Write one `OK`/`ERR` response frame.
fn respond(stream: &mut UnixStream, ok: bool, body: &str) -> std::io::Result<()> {
    let tag = if ok { "OK" } else { "ERR" };
    stream.write_all(format!("{tag} {}\n", body.len()).as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Serve requests on `config.socket` until a `SHUTDOWN` request (or a
/// fatal socket error). Prints a recovery report for the pile, and a
/// ready line once listening, to stderr.
pub fn serve(config: &ServeConfig) -> Result<(), ServeError> {
    let pile = match &config.pile {
        Some(path) => {
            let (store, report) =
                PileStore::recover(path).map_err(|e| ServeError::Pile(e.to_string()))?;
            eprintln!("viewcap-serve: pile {}: recovered {report}", path.display());
            Some(Mutex::new(store))
        }
        None => None,
    };
    let daemon = Daemon {
        warm: Mutex::default(),
        pile,
        cache_max: config.cache_max,
        served: AtomicU64::new(0),
    };

    // A stale socket file from a killed daemon would fail the bind.
    let _ = std::fs::remove_file(&config.socket);
    let listener = UnixListener::bind(&config.socket)?;
    eprintln!("viewcap-serve: listening on {}", config.socket.display());

    let mut shutdown = false;
    while !shutdown {
        let (stream, _) = listener.accept()?;
        // One request per connection; a broken or stalled client never
        // wedges the daemon, it just drops its own connection.
        if let Err(e) = handle_connection(&daemon, stream, &mut shutdown) {
            eprintln!("viewcap-serve: connection error: {e}");
        }
    }
    let _ = std::fs::remove_file(&config.socket);
    eprintln!("viewcap-serve: shut down");
    Ok(())
}

fn handle_connection(
    daemon: &Daemon,
    stream: UnixStream,
    shutdown: &mut bool,
) -> Result<(), ServeError> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut stream = stream;
    let Some(header) = read_header(&mut reader)? else {
        respond(&mut stream, false, "header line too long\n")?;
        return Ok(());
    };
    let mut words = header.split(' ');
    match words.next() {
        Some("PING") => respond(&mut stream, true, "pong\n")?,
        Some("STATS") => respond(&mut stream, true, &daemon.stats())?,
        Some("SHUTDOWN") => {
            *shutdown = true;
            respond(&mut stream, true, "bye\n")?;
        }
        Some("RUN") => {
            let (jobs, mode, len) = match (
                words.next().and_then(|w| w.parse::<usize>().ok()),
                words.next(),
                words.next().and_then(|w| w.parse::<usize>().ok()),
            ) {
                (Some(jobs), Some(mode), Some(len)) if words.next().is_none() => (jobs, mode, len),
                _ => {
                    respond(&mut stream, false, "malformed RUN header\n")?;
                    return Ok(());
                }
            };
            let warm_key = match mode {
                "cold" => None,
                _ => match mode.strip_prefix("warm:") {
                    Some(key) if !key.is_empty() => Some(key),
                    _ => {
                        respond(&mut stream, false, "mode must be cold or warm:<key>\n")?;
                        return Ok(());
                    }
                },
            };
            if len > MAX_FRAME_BYTES {
                let msg =
                    format!("scenario of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap\n");
                respond(&mut stream, false, &msg)?;
                return Ok(());
            }
            let mut source = vec![0u8; len];
            reader.read_exact(&mut source)?;
            let Ok(source) = String::from_utf8(source) else {
                respond(&mut stream, false, "scenario source is not UTF-8\n")?;
                return Ok(());
            };
            match daemon.run(&source, jobs, warm_key) {
                Ok(body) => respond(&mut stream, true, &body)?,
                Err(msg) => respond(&mut stream, false, &format!("{msg}\n"))?,
            }
        }
        _ => respond(&mut stream, false, "unknown request\n")?,
    }
    Ok(())
}

// ------------------------------------------------------------- client side

/// One request a client can pose to a running daemon.
#[derive(Clone, Debug)]
pub enum ClientRequest {
    /// Run a scenario; the response body is the exact batch-CLI stdout.
    Run {
        /// Scenario source text.
        source: String,
        /// Worker threads for `batch` blocks (`0` = all cores).
        jobs: usize,
        /// `None` = cold (fresh cache, byte-identical transcript);
        /// `Some(key)` = share the daemon's warm cache for `key`.
        warm_key: Option<String>,
    },
    /// Liveness probe.
    Ping,
    /// Daemon counters, warm-cache stats, pile record count.
    Stats,
    /// Ask the daemon to exit after responding.
    Shutdown,
}

/// A daemon's answer: `ok` distinguishes `OK` from `ERR` frames.
#[derive(Clone, Debug)]
pub struct ClientResponse {
    /// Whether the daemon answered `OK`.
    pub ok: bool,
    /// The response body (a transcript, stats text, or error message).
    pub body: String,
}

/// Pose one request to the daemon at `socket` and read its response.
pub fn client_request(
    socket: &Path,
    request: &ClientRequest,
) -> Result<ClientResponse, ServeError> {
    let mut stream = UnixStream::connect(socket)?;
    match request {
        ClientRequest::Run {
            source,
            jobs,
            warm_key,
        } => {
            let mode = match warm_key {
                Some(key) => {
                    if key.is_empty() || key.contains([' ', '\n']) {
                        return Err(ServeError::Protocol(
                            "warm key must be nonempty, without spaces or newlines".to_owned(),
                        ));
                    }
                    format!("warm:{key}")
                }
                None => "cold".to_owned(),
            };
            stream.write_all(format!("RUN {jobs} {mode} {}\n", source.len()).as_bytes())?;
            stream.write_all(source.as_bytes())?;
        }
        ClientRequest::Ping => stream.write_all(b"PING\n")?,
        ClientRequest::Stats => stream.write_all(b"STATS\n")?,
        ClientRequest::Shutdown => stream.write_all(b"SHUTDOWN\n")?,
    }
    stream.flush()?;

    let mut reader = BufReader::new(stream);
    let header = read_header(&mut reader)?
        .ok_or_else(|| ServeError::Protocol("response header too long".to_owned()))?;
    let (ok, len) = match header.split_once(' ') {
        Some(("OK", len)) => (true, len),
        Some(("ERR", len)) => (false, len),
        _ => {
            return Err(ServeError::Protocol(format!(
                "bad response header {header:?}"
            )))
        }
    };
    let len: usize = len
        .parse()
        .map_err(|_| ServeError::Protocol(format!("bad response length in {header:?}")))?;
    if len > MAX_FRAME_BYTES {
        return Err(ServeError::Protocol(format!(
            "response of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body)
        .map_err(|_| ServeError::Protocol("response body is not UTF-8".to_owned()))?;
    Ok(ClientResponse { ok, body })
}
