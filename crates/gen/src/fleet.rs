//! Fleet workload family: catalogs with hundreds of views plus
//! zipf-distributed request streams, emitted as `.vcap` scenario text.
//!
//! A *fleet* catalog models many tenants sharing a few base relations:
//! each view projects one base relation, and requests concentrate on a
//! zipf-popular head of the view population — the regime where the
//! engine's verdict cache and shared candidate spaces pay off. Streams mix
//! `batch` checks, `edit` blocks, `recheck`, and the two first-class
//! scenario workloads this family was built to drive:
//!
//! * [`frontier_diff_stream`] — capacity-frontier diffing: version pairs
//!   diffed repeatedly with `diff`, so each version's pooled
//!   `ClosureContext` amortizes across the stream;
//! * [`txn_stream`] — multi-edit transactions: `txn { }` blocks batch
//!   several edits and invalidate the standing workload once, followed by
//!   `recheck`.
//!
//! Everything is deterministic given a seed. The zipf sampler is
//! hand-rolled (CDF + binary search) — the `rand` shim only provides
//! integer-uniform ranges.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Shape of a fleet workload.
#[derive(Clone, Debug)]
pub struct FleetSpec {
    /// Number of views in the catalog (the fleet size).
    pub views: usize,
    /// Number of shared base relations the views project.
    pub base_rels: usize,
    /// Number of stream events (each a batch, edit, recheck, diff, or txn).
    pub events: usize,
    /// Zipf skew of the request popularity over views (higher = more
    /// concentrated; 0 = uniform).
    pub zipf_s: f64,
    /// Checks per `batch` event.
    pub batch_size: usize,
    /// Atom bound handed to `diff` commands.
    pub atom_bound: usize,
}

impl Default for FleetSpec {
    fn default() -> Self {
        FleetSpec {
            views: 200,
            base_rels: 8,
            events: 200,
            zipf_s: 1.1,
            batch_size: 8,
            atom_bound: 2,
        }
    }
}

/// A generated `.vcap` scenario plus its command census.
#[derive(Clone, Debug)]
pub struct FleetScenario {
    /// The scenario source text.
    pub source: String,
    /// Views declared in the prologue.
    pub views: usize,
    /// Total `check` commands, batch members included.
    pub checks: usize,
    /// `edit` blocks (txn members included).
    pub edits: usize,
    /// `recheck` commands.
    pub rechecks: usize,
    /// `diff` commands.
    pub diffs: usize,
    /// `txn` blocks.
    pub txns: usize,
}

/// Zipf sampler over ranks `0..n` (rank 0 most popular): `p(i) ∝
/// 1/(i+1)^s`, drawn by binary search on the precomputed CDF.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Precompute the CDF for `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n >= 1);
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u = rng.gen_range(0u64..u64::MAX) as f64 / u64::MAX as f64;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The base relation index view `j` projects.
fn base_of(spec: &FleetSpec, j: usize) -> usize {
    j % spec.base_rels
}

/// The catalog prologue: `base_rels` three-attribute relations and
/// `views` single-pair views projecting them. View `Vj` starts as
/// `Pj = pi{Ab,Bb}(Rb)` over its base relation `b`.
fn prologue(spec: &FleetSpec, out: &mut String) {
    for b in 0..spec.base_rels {
        let _ = writeln!(out, "rel R{b}(A{b}, B{b}, C{b})");
    }
    for j in 0..spec.views {
        let b = base_of(spec, j);
        let _ = writeln!(out, "view V{j} {{\n  P{j} = pi{{A{b},B{b}}}(R{b})\n}}");
    }
}

/// Goal expression `g` against view `j`'s base relation. The five goal
/// shapes cover YES answers of construction sizes 1–2 and one NO (the full
/// base relation is never in a projection's capacity).
fn goal(spec: &FleetSpec, j: usize, g: usize) -> String {
    let b = base_of(spec, j);
    match g % 5 {
        0 => format!("pi{{A{b}}}(R{b})"),
        1 => format!("pi{{B{b}}}(R{b})"),
        2 => format!("pi{{A{b},B{b}}}(R{b})"),
        3 => format!("pi{{A{b}}}(R{b}) * pi{{B{b}}}(R{b})"),
        _ => format!("R{b}"),
    }
}

/// The two definitions view `j` toggles between under edits: its original
/// projection and a narrower one. A toggled-back view recovers its
/// original fingerprint, so the verdict cache answers the re-check.
fn edit_body(spec: &FleetSpec, j: usize, variant: usize) -> String {
    let b = base_of(spec, j);
    if variant.is_multiple_of(2) {
        format!("  P{j} = pi{{A{b},B{b}}}(R{b})\n")
    } else {
        format!("  P{j} = pi{{A{b}}}(R{b})\n")
    }
}

/// The mixed fleet stream: zipf-popular `batch` checks interleaved with
/// view edits, `recheck`s, version diffs, and multi-edit `txn` blocks.
pub fn fleet_stream(seed: u64, spec: &FleetSpec) -> FleetScenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = Zipf::new(spec.views, spec.zipf_s);
    let mut out = String::new();
    prologue(spec, &mut out);
    let mut census = FleetScenario {
        source: String::new(),
        views: spec.views,
        checks: 0,
        edits: 0,
        rechecks: 0,
        diffs: 0,
        txns: 0,
    };
    // Edits toggle per-view variants; track them so each edit block is a
    // real change (editing a view to its current definition would
    // invalidate nothing).
    let mut variant = vec![0usize; spec.views];
    for _ in 0..spec.events {
        match rng.gen_range(0u32..10) {
            // 60% batches: the sustained-check workload.
            0..=5 => {
                out.push_str("batch {\n");
                for _ in 0..spec.batch_size {
                    let j = zipf.sample(&mut rng);
                    let g = rng.gen_range(0usize..5);
                    let _ = writeln!(out, "  check member V{j} {}", goal(spec, j, g));
                    census.checks += 1;
                }
                out.push_str("}\n");
            }
            // 20% single edits followed by an incremental recheck.
            6..=7 => {
                let j = zipf.sample(&mut rng);
                variant[j] += 1;
                let _ = write!(out, "edit V{j} {{\n{}}}\n", edit_body(spec, j, variant[j]));
                out.push_str("recheck\n");
                census.edits += 1;
                census.rechecks += 1;
            }
            // 10% version diffs between two fleet views.
            8 => {
                let a = zipf.sample(&mut rng);
                let b = zipf.sample(&mut rng);
                let _ = writeln!(out, "diff V{a} V{b} {}", spec.atom_bound);
                census.diffs += 1;
            }
            // 10% multi-edit transactions over distinct views.
            _ => {
                let mut picked = Vec::new();
                while picked.len() < 3.min(spec.views) {
                    let j = zipf.sample(&mut rng);
                    if !picked.contains(&j) {
                        picked.push(j);
                    }
                }
                out.push_str("txn {\n");
                for &j in &picked {
                    variant[j] += 1;
                    let _ = write!(
                        out,
                        "  edit V{j} {{\n  {}  }}\n",
                        edit_body(spec, j, variant[j])
                    );
                    census.edits += 1;
                }
                out.push_str("}\nrecheck\n");
                census.txns += 1;
                census.rechecks += 1;
            }
        }
    }
    census.source = out;
    census
}

/// The capacity-frontier diffing workload: `views/2` version pairs — each
/// a two-projection view `D{p}a` and its narrowed successor `D{p}b` — and
/// a zipf-distributed stream of `diff` requests over the pairs. Popular
/// pairs are re-diffed many times, exercising the engine's pooled
/// `ClosureContext`s. A seed batch of member checks plus occasional
/// interleaved checks keep the engine's per-check latency histogram live,
/// so throughput harnesses can report p50/p99 for this stream too.
pub fn frontier_diff_stream(seed: u64, spec: &FleetSpec) -> FleetScenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let pairs = (spec.views / 2).max(1);
    let zipf = Zipf::new(pairs, spec.zipf_s);
    let mut out = String::new();
    for b in 0..spec.base_rels {
        let _ = writeln!(out, "rel R{b}(A{b}, B{b}, C{b})");
    }
    for p in 0..pairs {
        let b = p % spec.base_rels;
        let _ = writeln!(
            out,
            "view D{p}a {{\n  L{p} = pi{{A{b},B{b}}}(R{b})\n  M{p} = pi{{B{b},C{b}}}(R{b})\n}}"
        );
        let _ = writeln!(out, "view D{p}b {{\n  N{p} = pi{{A{b},B{b}}}(R{b})\n}}");
    }
    let mut census = FleetScenario {
        source: String::new(),
        views: pairs * 2,
        checks: 0,
        edits: 0,
        rechecks: 0,
        diffs: 0,
        txns: 0,
    };
    // Seed batch: zipf-popular member checks against the `a` versions.
    out.push_str("batch {\n");
    for _ in 0..spec.batch_size.max(4) * 2 {
        let p = zipf.sample(&mut rng);
        let g = rng.gen_range(0usize..5);
        let _ = writeln!(out, "  check member D{p}a {}", goal(spec, p, g));
        census.checks += 1;
    }
    out.push_str("}\n");
    for _ in 0..spec.events {
        let p = zipf.sample(&mut rng);
        let _ = writeln!(out, "diff D{p}a D{p}b {}", spec.atom_bound);
        census.diffs += 1;
        // ~30% of diff events ride with a membership check on the same
        // popular pair, mixing decided verdicts into the diff stream.
        if rng.gen_range(0u32..10) < 3 {
            let g = rng.gen_range(0usize..5);
            let _ = writeln!(out, "check member D{p}a {}", goal(spec, p, g));
            census.checks += 1;
        }
    }
    census.source = out;
    census
}

/// The multi-edit transaction workload: a standing workload of zipf-chosen
/// member checks, then `txn` blocks batching several edits each, every one
/// followed by an incremental `recheck`.
pub fn txn_stream(seed: u64, spec: &FleetSpec) -> FleetScenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = Zipf::new(spec.views, spec.zipf_s);
    let mut out = String::new();
    prologue(spec, &mut out);
    let mut census = FleetScenario {
        source: String::new(),
        views: spec.views,
        checks: 0,
        edits: 0,
        rechecks: 0,
        diffs: 0,
        txns: 0,
    };
    // Seed the standing workload.
    out.push_str("batch {\n");
    for _ in 0..spec.batch_size.max(4) * 4 {
        let j = zipf.sample(&mut rng);
        let g = rng.gen_range(0usize..5);
        let _ = writeln!(out, "  check member V{j} {}", goal(spec, j, g));
        census.checks += 1;
    }
    out.push_str("}\n");
    let mut variant = vec![0usize; spec.views];
    for _ in 0..spec.events {
        let mut picked = Vec::new();
        while picked.len() < 3.min(spec.views) {
            let j = zipf.sample(&mut rng);
            if !picked.contains(&j) {
                picked.push(j);
            }
        }
        out.push_str("txn {\n");
        for &j in &picked {
            variant[j] += 1;
            let _ = write!(
                out,
                "  edit V{j} {{\n  {}  }}\n",
                edit_body(spec, j, variant[j])
            );
            census.edits += 1;
        }
        out.push_str("}\nrecheck\n");
        census.txns += 1;
        census.rechecks += 1;
    }
    census.source = out;
    census
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FleetSpec {
        FleetSpec {
            views: 20,
            base_rels: 4,
            events: 30,
            batch_size: 4,
            ..FleetSpec::default()
        }
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let zipf = Zipf::new(100, 1.2);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0usize; 100];
        for _ in 0..10_000 {
            let r = zipf.sample(&mut rng);
            assert!(r < 100);
            counts[r] += 1;
        }
        // Rank 0 dominates the tail under s > 1.
        assert!(
            counts[0] > counts[50] * 5,
            "head {} tail {}",
            counts[0],
            counts[50]
        );
        assert!(counts[0] > 10_000 / 20);
    }

    #[test]
    fn zipf_zero_skew_is_roughly_uniform() {
        let zipf = Zipf::new(10, 0.0);
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = vec![0usize; 10];
        for _ in 0..10_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!(c > 500, "uniform rank starved: {counts:?}");
        }
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let spec = small();
        for gen in [fleet_stream, frontier_diff_stream, txn_stream] {
            let a = gen(42, &spec);
            let b = gen(42, &spec);
            assert_eq!(a.source, b.source);
            let c = gen(43, &spec);
            assert_ne!(a.source, c.source);
        }
    }

    #[test]
    fn fleet_stream_mixes_all_command_kinds() {
        let spec = FleetSpec {
            events: 200,
            ..small()
        };
        let s = fleet_stream(1, &spec);
        assert!(s.checks > 0 && s.edits > 0 && s.rechecks > 0);
        assert!(s.diffs > 0 && s.txns > 0);
        assert!(s.source.contains("txn {"));
        assert!(s.source.contains("diff V"));
        assert!(s.source.contains("batch {"));
    }

    #[test]
    fn named_streams_emit_their_workload() {
        let spec = small();
        let d = frontier_diff_stream(5, &spec);
        assert_eq!(d.diffs, spec.events);
        assert_eq!(d.views, (spec.views / 2) * 2);
        assert!(d.checks > 0, "diff stream carries no member checks");
        let t = txn_stream(5, &spec);
        assert_eq!(t.txns, spec.events);
        assert_eq!(t.rechecks, spec.events);
        assert!(t.checks > 0);
    }
}
