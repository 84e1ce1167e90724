//! Seeded workload inputs. The program receives only the generated
//! scenario text; the same seed always yields the same inputs.

use std::fmt::Write as _;
use viewcap_gen::{fleet_stream, FleetSpec};

/// The three benchmark workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Zipf fleet streams replayed in process through the batch-CLI path:
    /// the verdict-cache hit path.
    FleetStream,
    /// Deep bounded enumeration and Section 4 normalization on a fresh
    /// engine: the compute path.
    ColdDeep,
    /// Small fleet requests through `serve` with a pile: the daemon path.
    DaemonWarm,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "fleet_stream" => Some(Workload::FleetStream),
            "cold_deep" => Some(Workload::ColdDeep),
            "daemon_warm" => Some(Workload::DaemonWarm),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetStream => "fleet_stream",
            Workload::ColdDeep => "cold_deep",
            Workload::DaemonWarm => "daemon_warm",
        }
    }
}

/// One scenario the caller submits and waits for, and how many requests
/// it carries.
#[derive(Clone, Debug)]
pub struct Submission {
    pub source: String,
    pub requests: usize,
}

/// Input sizes, fixed per workload. Tests shrink them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sizes {
    /// Fleet streams per `fleet_stream` cycle. One stream's cost depends on
    /// its seed's event mix; a pool of streams averages that out, so the
    /// cost per run seed stays comparable.
    pub fleet_streams: usize,
    /// Events per fleet stream.
    pub fleet_events: usize,
    /// `RUN` requests per `daemon_warm` round.
    pub daemon_requests: usize,
    /// Events per daemon request.
    pub daemon_events: usize,
    /// Daemon restarts per round, each timed for `setup_s`.
    pub daemon_restarts: usize,
    /// Request sources the traced daemon passes replay in process.
    pub daemon_pass_sources: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        fleet_streams: 16,
        fleet_events: 200,
        daemon_requests: 1000,
        daemon_events: 4,
        daemon_restarts: 5,
        daemon_pass_sources: 32,
    };
}

/// Views in every fleet catalog.
pub const FLEET_VIEWS: usize = 200;

fn fleet_spec(events: usize) -> FleetSpec {
    FleetSpec {
        views: FLEET_VIEWS,
        events,
        ..FleetSpec::default()
    }
}

/// Seed of the `k`-th stream drawn for run seed `seed`.
fn sub_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(k as u64)
}

/// `fleet_stream`: a pool of zipf fleet streams. Every stream event (a
/// `batch` block, an `edit`+`recheck`, a `diff`, or a `txn`+`recheck`) is
/// one request.
pub fn fleet_pool(seed: u64, sizes: &Sizes) -> Vec<Submission> {
    (0..sizes.fleet_streams)
        .map(|k| {
            let spec = fleet_spec(sizes.fleet_events);
            let s = fleet_stream(sub_seed(seed, k), &spec);
            let batches = s.checks / spec.batch_size;
            let requests = batches + s.rechecks + s.diffs;
            assert_eq!(requests, spec.events, "every stream event is one request");
            Submission {
                source: s.source,
                requests,
            }
        })
        .collect()
}

/// `daemon_warm`: one small fleet stream per `RUN` request, all over the
/// same 200-view catalog so they share one warm cache key.
pub fn daemon_requests(seed: u64, sizes: &Sizes) -> Vec<Submission> {
    let spec = fleet_spec(sizes.daemon_events);
    (0..sizes.daemon_requests)
        .map(|i| Submission {
            source: fleet_stream(seed.wrapping_add(i as u64), &spec).source,
            requests: 1,
        })
        .collect()
}

/// Membership goals over the chain view: the depth class of goals within
/// four atoms. The four-atom non-member forces the exhaustive level-4
/// sweep, which dominates the chain's cold cost. Every seed poses all of
/// them, in its own order, so the cost per seed stays comparable. (Five
/// atoms would cost ten times the combinations, about 3 s per cold run,
/// too few samples per run to be steady on a noisy host.)
const CHAIN_GOALS: [&str; 16] = [
    "pi{A}(R) * pi{B}(R) * pi{C}(R) * pi{D}(S)",
    "pi{A,B}(R) * pi{B,C}(R) * pi{A,C}(R) * pi{C,D}(S)",
    "pi{A,B}(R) * pi{B,C}(R) * pi{C,D}(S) * pi{D,E}(T)",
    "pi{A,B}(R) * pi{C}(R) * pi{D}(S) * pi{E}(T)",
    "pi{A}(R) * pi{B,C}(R) * pi{C,D}(S) * pi{E}(T)",
    "pi{B,D}(pi{B,C}(R) * pi{C,D}(S)) * pi{A}(R) * pi{E}(T)",
    "pi{A,B}(R)",
    "pi{A,C}(pi{A,B}(R) * pi{B,C}(R)) * pi{D,E}(T)",
    "pi{A,B}(R) * pi{C,D}(S)",
    "pi{B}(R) * pi{D,E}(T)",
    "pi{A,C}(R) * pi{B}(R) * pi{C,D}(S) * pi{D,E}(T)",
    "R * pi{D}(S) * pi{E}(T)",
    "pi{A,D}(R * S) * pi{B}(R) * pi{E}(T)",
    "pi{A,E}(R * S * T)",
    "pi{A,C}(R)",
    "pi{C,E}(S * T) * pi{A}(R)",
];

/// Dominance and equivalence checks between the chain view and two of its
/// versions, posed as one `batch` block: `Merged` joins the first two
/// projections (equivalent to `Chain`), `Narrow` drops the last one
/// (strictly dominated).
const VERSION_CHECKS: [&str; 6] = [
    "check dominates Chain Merged",
    "check dominates Merged Chain",
    "check equivalent Chain Merged",
    "check dominates Chain Narrow",
    "check dominates Narrow Chain",
    "check equivalent Narrow Chain",
];

/// Views in the `cold_deep` catalog.
pub const COLD_VIEWS: usize = 4;

const VIEWS: [&str; COLD_VIEWS] = [
    "view Chain {\n  v1 = pi{A,B}(R)\n  v2 = pi{B,C}(R)\n  v3 = pi{C,D}(S)\n  v4 = pi{D,E}(T)\n}\n",
    "view Merged {\n  m1 = pi{A,B}(R) * pi{B,C}(R)\n  m3 = pi{C,D}(S)\n  m4 = pi{D,E}(T)\n}\n",
    "view Narrow {\n  n1 = pi{A,B}(R)\n  n2 = pi{B,C}(R)\n  n3 = pi{C,D}(S)\n}\n",
    // Section 4's running example, which `simplify` decomposes.
    "view Original {\n  S4 = pi{B,C,D}(AD * ABC) * AC\n  T4 = pi{A,B}(AB * BC) * (AC * BC)\n}\n",
];

/// SplitMix64: a tiny seeded generator for shuffles.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

/// `cold_deep`: membership goals up to four atoms over a four-projection
/// chain view, dominance and equivalence between view versions, and
/// `simplify`/`nonredundant` of Section 4's example. The seed permutes the
/// view declarations, the goals and the checks in the batch. It leaves the
/// relation declarations in place: `catalog permute` keeps verdicts but
/// changes the enumeration and normalization work (up to 15% more
/// combinations and 70% more normalization classes), which would make the
/// cost depend on the seed.
pub fn cold_deep(seed: u64) -> Submission {
    let mut rng = SplitMix(seed);
    let mut goals = CHAIN_GOALS.to_vec();
    rng.shuffle(&mut goals);
    let mut versions = VERSION_CHECKS.to_vec();
    rng.shuffle(&mut versions);
    let commands: Vec<String> = goals
        .iter()
        .map(|g| format!("check member Chain {g}"))
        .chain([
            format!("batch {{\n  {}\n}}", versions.join("\n  ")),
            "simplify Original".to_owned(),
            "nonredundant Original".to_owned(),
        ])
        .collect();
    let mut views = VIEWS.to_vec();
    rng.shuffle(&mut views);

    let mut source = String::new();
    for rel in [
        "R(A, B, C)",
        "S(C, D)",
        "T(D, E)",
        "AD(A, D)",
        "ABC(A, B, C)",
        "AB(A, B)",
        "BC(B, C)",
        "AC(A, C)",
    ] {
        let _ = writeln!(source, "rel {rel}");
    }
    for view in views {
        source.push_str(view);
    }
    for command in &commands {
        let _ = writeln!(source, "{command}");
    }
    Submission {
        source,
        requests: commands.len() - 1 + VERSION_CHECKS.len(),
    }
}
