//! Fleet workload conformance: generated zipf streams run clean through
//! the scenario engine, `txn` blocks agree byte-for-byte with sequential
//! edits, and `frontier`/`diff` agree with fresh, unshared frontier
//! enumerations — at every `--jobs` setting.

use std::fmt::Write as _;
use viewcap::scenario::{run_scenario_with_engine, ScenarioOptions, ScenarioOutcome};
use viewcap_base::Catalog;
use viewcap_core::{closure_members, ClosureMember, Query, SearchBudget};
use viewcap_engine::Engine;
use viewcap_expr::display::display_scheme;
use viewcap_expr::parse_expr;
use viewcap_gen::{fleet_stream, frontier_diff_stream, txn_stream, FleetSpec};

fn small_spec() -> FleetSpec {
    FleetSpec {
        views: 24,
        base_rels: 4,
        events: 40,
        batch_size: 4,
        ..FleetSpec::default()
    }
}

fn run(src: &str, jobs: usize) -> ScenarioOutcome {
    let engine = Engine::new();
    let options = ScenarioOptions { jobs };
    run_scenario_with_engine(src, &options, &engine).unwrap()
}

#[test]
fn fleet_stream_runs_and_is_jobs_invariant() {
    let spec = small_spec();
    for seed in [1u64, 7] {
        let stream = fleet_stream(seed, &spec);
        let out = run(&stream.source, 1);
        let (r1, r4) = (out.report, run(&stream.source, 4).report);
        assert_eq!(r1, r4, "seed {seed}: report depends on --jobs");
        assert!(
            out.yes > 0 && out.no > 0,
            "seed {seed}: goal mix degenerate"
        );
        // The zipf head and toggled-back edits repeat popular checks, so
        // a quarter of all lookups at least must hit the verdict cache.
        let (hits, misses) = (out.stats.hits, out.stats.misses);
        assert!(
            4 * hits >= hits + misses,
            "seed {seed}: {hits} hit(s), {misses} miss(es)"
        );
        assert!(r1.contains("txn:"), "seed {seed}");
        assert!(r1.contains("diff V"), "seed {seed}");
        assert!(r1.contains("recheck:"), "seed {seed}");
    }
}

/// Rewrite a generated txn stream into the same edits as plain sequential
/// `edit` blocks: drop the `txn {` / closing `}` wrapper and outdent the
/// members. The generated emission is regular, so this is line-exact.
fn sequentialize(src: &str) -> String {
    let mut out = String::new();
    let mut in_txn = false;
    for line in src.lines() {
        if line == "txn {" {
            in_txn = true;
            continue;
        }
        if in_txn && line == "}" {
            in_txn = false;
            continue;
        }
        if in_txn {
            out.push_str(line.strip_prefix("  ").unwrap_or(line));
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

#[test]
fn txn_stream_verdicts_match_sequential_edits() {
    let spec = small_spec();
    for seed in [3u64, 11] {
        let stream = txn_stream(seed, &spec);
        assert!(stream.txns > 0, "seed {seed}: no txn blocks generated");
        let seq_src = sequentialize(&stream.source);
        assert!(!seq_src.contains("txn {"));
        for jobs in [1usize, 4] {
            let txn = run(&stream.source, jobs);
            let seq = run(&seq_src, jobs);
            // Verdicts, witnesses, and incremental-recheck accounting are
            // byte-identical; only the edit/txn report lines differ.
            let picked = |r: &str| {
                r.lines()
                    .filter(|l| l.starts_with("check ") || l.starts_with("recheck:"))
                    .map(str::to_owned)
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                picked(&txn.report),
                picked(&seq.report),
                "seed {seed} jobs {jobs}"
            );
            assert_eq!(
                (txn.yes, txn.no),
                (seq.yes, seq.no),
                "seed {seed} jobs {jobs}"
            );
        }
    }
}

#[test]
fn diff_stream_matches_independent_frontier_enumeration() {
    let spec = small_spec();
    let stream = frontier_diff_stream(5, &spec);
    assert!(stream.diffs > 0, "no diff commands generated");
    let (r1, r4) = (run(&stream.source, 1).report, run(&stream.source, 4).report);
    assert_eq!(r1, r4, "diff report depends on --jobs");

    // Every generated pair diffs `{pi{Ab,Bb}, pi{Bb,Cb}}` against
    // `{pi{Ab,Bb}}` over its base relation; compute the expected set
    // difference with two fresh, unshared enumerations.
    let mut cat = Catalog::new();
    cat.relation("R", &["A", "B", "C"]).unwrap();
    let q = |src: &str| Query::from_expr(parse_expr(src, &cat).unwrap(), &cat);
    let budget = SearchBudget::default();
    let left = closure_members(
        &[q("pi{A,B}(R)"), q("pi{B,C}(R)")],
        spec.atom_bound,
        &cat,
        &budget,
    )
    .unwrap();
    let right = closure_members(&[q("pi{A,B}(R)")], spec.atom_bound, &cat, &budget).unwrap();
    let only_left = left
        .iter()
        .filter(|m| !right.iter().any(|n| n.query.equiv(&m.query)))
        .count();
    let only_right = right
        .iter()
        .filter(|m| !left.iter().any(|n| n.query.equiv(&m.query)))
        .count();
    let shared = left.len() - only_left;

    let diff_lines: Vec<&str> = r1.lines().filter(|l| l.starts_with("diff ")).collect();
    assert_eq!(diff_lines.len(), stream.diffs);
    // "diff Dpa Dpb k: N member(s) only in Dpa, M only in Dpb, S shared"
    for line in diff_lines {
        assert!(
            line.contains(&format!(": {only_left} member(s) only in D")),
            "{line}"
        );
        assert!(
            line.contains(&format!(", {only_right} only in D")),
            "{line}"
        );
        assert!(line.ends_with(&format!("{shared} shared")), "{line}");
    }
}

/// `frontier` and `diff` enumerate through the engine's pooled closure
/// contexts, which membership checks of the same view extend, which the
/// pool retires past its bound, and which both sides of a self-diff share.
/// In each case the output must match one-shot `closure_members` sweeps
/// line for line.
#[test]
fn pooled_frontier_and_diff_match_one_shot_enumeration() {
    // More single-view probes than the engine's context pool retains, so
    // V's and W's contexts are retired between the two sweeps.
    const FILLERS: usize = 80;
    let mut src = String::from(
        "rel R(A, B, C)\n\
         view V {\n  L = pi{A,B}(R)\n  M = pi{B,C}(R)\n}\n\
         view W {\n  N = pi{A,B}(R)\n}\n",
    );
    // 1. A 3-atom membership goal extends V's pooled space past the
    //    sweeps' bound before they run.
    src.push_str("check member V pi{A}(R) * pi{B}(R) * pi{C}(R)\nfrontier V 2\ndiff V W 2\n");
    // 2. Evict V and W, then sweep again through rebuilt contexts.
    for i in 0..FILLERS {
        let _ = write!(
            src,
            "rel S{i}(A, B)\nview F{i} {{\n  P{i} = pi{{A}}(S{i})\n}}\ncheck member F{i} pi{{A}}(S{i})\n"
        );
    }
    src.push_str("frontier V 2\ndiff V W 2\n");
    // 3. Both sides of a self-diff resolve to one pooled context.
    src.push_str("diff V V 2\n");

    for jobs in [1usize, 4] {
        let engine = Engine::new();
        let out = run_scenario_with_engine(&src, &ScenarioOptions { jobs }, &engine).unwrap();
        // V and W were each built twice: before and after their eviction.
        assert_eq!(
            out.enum_stats.contexts,
            FILLERS as u64 + 4,
            "jobs {jobs}: stats {}",
            out.enum_stats
        );

        let cat = &out.catalog;
        let q = |src: &str| Query::from_expr(parse_expr(src, cat).unwrap(), cat);
        let budget = SearchBudget::default();
        let v = closure_members(&[q("pi{A,B}(R)"), q("pi{B,C}(R)")], 2, cat, &budget).unwrap();
        let w = closure_members(&[q("pi{A,B}(R)")], 2, cat, &budget).unwrap();
        let line = |sign: &str, m: &ClosureMember| {
            format!(
                "  {sign}TRS {} (construction size {})\n",
                display_scheme(&m.query.trs(), cat),
                m.construction_size
            )
        };
        let only = |these: &[ClosureMember], those: &[ClosureMember]| -> Vec<ClosureMember> {
            these
                .iter()
                .filter(|m| !those.iter().any(|n| n.query.equiv(&m.query)))
                .cloned()
                .collect()
        };
        let (only_v, only_w) = (only(&v, &w), only(&w, &v));

        let mut sweeps = format!("frontier V 2: {} distinct member(s)\n", v.len());
        for m in &v {
            sweeps.push_str(&line("", m));
        }
        let _ = writeln!(
            sweeps,
            "diff V W 2: {} member(s) only in V, {} only in W, {} shared",
            only_v.len(),
            only_w.len(),
            v.len() - only_v.len()
        );
        for m in &only_v {
            sweeps.push_str(&line("- ", m));
        }
        for m in &only_w {
            sweeps.push_str(&line("+ ", m));
        }
        assert_eq!(
            out.report.matches(&sweeps).count(),
            2,
            "jobs {jobs}: expected\n{sweeps}\nin report:\n{}",
            out.report
        );
        let self_diff = format!(
            "diff V V 2: 0 member(s) only in V, 0 only in V, {} shared\n",
            v.len()
        );
        assert!(out.report.ends_with(&self_diff), "jobs {jobs}");
    }
}
