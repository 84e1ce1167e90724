//! Differential conformance: incremental re-checking must be
//! indistinguishable from cold full re-runs.
//!
//! For randomized catalogs and randomized single-view edits
//! (replace / add / remove one defining query), every [`DeltaWorkload`]
//! run is rendered to a canonical per-request string and compared
//! byte-for-byte against a fresh engine deciding the same standing
//! workload from scratch. Runs cover `jobs = 1` and `jobs = 4` (override
//! with `VIEWCAP_CONFORMANCE_JOBS`); seed count via
//! `VIEWCAP_CONFORMANCE_SEEDS` (default 50 seeds x 4 edits = 200 edit
//! sequences).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use viewcap_base::Catalog;
use viewcap_core::{Query, View};
use viewcap_engine::{Check, Decision, DeltaWorkload, Engine, Request, Workload};
use viewcap_gen::{random_query, random_view, random_world, WorldSpec};
use viewcap_template::SearchOverflow;

/// Canonical rendering of one decided request: everything observable —
/// answer, witness size, and the witness's labels in the requester's
/// vocabulary. Two runs conform iff these strings are byte-identical.
fn render(
    request: &Request,
    result: &Result<Decision, SearchOverflow>,
    catalog: &Catalog,
) -> String {
    let d = match result {
        Ok(d) => d,
        Err(_) => return format!("{}: OVERFLOW", request.label),
    };
    let base = format!(
        "{}: yes={} atoms={:?}",
        request.label,
        d.verdict.is_yes(),
        d.verdict.witness_atoms()
    );
    match &request.check {
        Check::Member { view, .. } if d.verdict.is_yes() => {
            let names: Vec<&str> = d
                .member_witness_names(view, catalog)
                .expect("witness lines up with the requesting view")
                .into_iter()
                .map(|r| catalog.rel_name(r))
                .collect();
            format!("{base} via={names:?}")
        }
        _ => base,
    }
}

fn render_delta(
    delta: &DeltaWorkload,
    results: &[Result<Decision, SearchOverflow>],
    catalog: &Catalog,
) -> Vec<String> {
    delta
        .requests()
        .zip(results)
        .map(|(request, result)| render(request, result, catalog))
        .collect()
}

fn render_batch(
    workload: &Workload,
    results: &[Result<Decision, SearchOverflow>],
    catalog: &Catalog,
) -> Vec<String> {
    workload
        .requests
        .iter()
        .zip(results)
        .map(|(request, result)| render(request, result, catalog))
        .collect()
}

/// The standing workload: all ordered cross-view equivalence and dominance
/// pairs plus one membership probe per view.
fn standing_workload(
    rng: &mut StdRng,
    seed: u64,
) -> (Catalog, Vec<viewcap_base::RelId>, Vec<View>, DeltaWorkload) {
    let spec = WorldSpec {
        attrs: 4,
        relations: 2,
        min_arity: 1,
        max_arity: 2,
    };
    let (mut cat, rels) = random_world(rng, &spec);
    let views: Vec<View> = (0..3)
        .map(|_| random_view(rng, &mut cat, &rels, 1 + (seed as usize) % 2, 2))
        .collect();

    let mut delta = DeltaWorkload::new();
    for (i, v) in views.iter().enumerate() {
        for (j, w) in views.iter().enumerate() {
            if i != j {
                delta.push(
                    format!("equivalent {i} {j}"),
                    Check::Equivalent {
                        left: v.clone(),
                        right: w.clone(),
                    },
                    &cat,
                );
                delta.push(
                    format!("dominates {i} {j}"),
                    Check::Dominates {
                        dominator: v.clone(),
                        dominated: w.clone(),
                    },
                    &cat,
                );
            }
        }
        delta.push(
            format!("member {i}"),
            Check::Member {
                view: v.clone(),
                goal: random_query(rng, &cat, &rels, 2),
            },
            &cat,
        );
    }
    (cat, rels, views, delta)
}

/// A random single-view edit: replace one defining query, add one, or
/// remove one (when more than one remains). New pairs mint fresh view
/// relations, so the catalog grows mid-sequence — exactly the situation
/// that used to pin stale catalog snapshots inside cached witnesses.
fn edited(rng: &mut StdRng, cat: &mut Catalog, rels: &[viewcap_base::RelId], old: &View) -> View {
    let mut pairs: Vec<_> = old.pairs().to_vec();
    let fresh_pair = |rng: &mut StdRng, cat: &mut Catalog| {
        let q: Query = random_query(rng, cat, rels, 2);
        let name = cat.fresh_relation("e", q.trs());
        (q, name)
    };
    match rng.gen_range(0..4) {
        0 if pairs.len() > 1 => {
            // Remove one defining query.
            let i = rng.gen_range(0..pairs.len());
            pairs.remove(i);
        }
        1 => {
            // Add one.
            let p = fresh_pair(rng, cat);
            pairs.push(p);
        }
        _ => {
            // Replace one.
            let i = rng.gen_range(0..pairs.len());
            pairs[i] = fresh_pair(rng, cat);
        }
    }
    View::new(pairs, cat).expect("edited pairs are well-typed")
}

fn jobs_under_test() -> Vec<usize> {
    match std::env::var("VIEWCAP_CONFORMANCE_JOBS") {
        Ok(v) => vec![v.parse().expect("VIEWCAP_CONFORMANCE_JOBS is a number")],
        Err(_) => vec![1, 4],
    }
}

fn seeds_under_test() -> u64 {
    std::env::var("VIEWCAP_CONFORMANCE_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50)
}

const EDITS_PER_SEED: usize = 4;

/// The conformance property: after every edit, incremental verdicts are
/// byte-identical to a cold full re-run, with measured reuse on every
/// unaffected check.
#[test]
fn delta_runs_conform_to_cold_full_runs() {
    for jobs in jobs_under_test() {
        for seed in 0..seeds_under_test() {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut cat, rels, mut views, mut delta) = standing_workload(&mut rng, seed);

            let engine = Engine::new();
            let first = delta.run(&engine, &cat, jobs);
            assert_eq!(
                (first.reused, first.recomputed),
                (0, delta.len()),
                "first run computes everything"
            );

            for round in 0..EDITS_PER_SEED {
                let vi = rng.gen_range(0..views.len());
                let old = views[vi].clone();
                let new_view = edited(&mut rng, &mut cat, &rels, &old);
                let invalidated = delta.replace_views(&[(old, new_view.clone())], &cat);
                views[vi] = new_view;

                let outcome = delta.run(&engine, &cat, jobs);

                // Cold baseline: a fresh engine deciding the same standing
                // workload from nothing.
                let workload = delta.to_workload();
                let cold = Engine::new().run_batch(&workload, &cat, jobs);

                assert_eq!(
                    render_delta(&delta, &outcome.results, &cat),
                    render_batch(&workload, &cold.results, &cat),
                    "seed {seed} round {round} jobs {jobs}: incremental != cold"
                );

                // Only invalidated requests were re-posed, and the checks
                // that never touched the edited view were reused.
                assert_eq!(outcome.recomputed, invalidated);
                assert!(
                    outcome.reused > 0,
                    "seed {seed} round {round}: no reuse on unaffected checks"
                );
            }
        }
    }
}

/// Regression (ROADMAP hot-path note): cached witnesses no longer pin a
/// catalog snapshot, so a verdict computed early renders correctly for a
/// view defined after the catalog has grown.
#[test]
fn cached_witness_renders_after_the_catalog_grows() {
    let mut cat = Catalog::new();
    cat.relation("R", &["A", "B", "C"]).unwrap();
    let ab = cat.scheme(&["A", "B"]).unwrap();
    let first = cat.fresh_relation("First", ab.clone());
    let q = |cat: &Catalog, src: &str| {
        Query::from_expr(viewcap_expr::parse_expr(src, cat).unwrap(), cat)
    };
    let v = View::new(vec![(q(&cat, "pi{A,B}(R)"), first)], &cat).unwrap();

    let engine = Engine::new();
    let goal = q(&cat, "pi{A}(R)");
    let d1 = engine
        .decide(
            &Check::Member {
                view: v.clone(),
                goal: goal.clone(),
            },
            &cat,
        )
        .unwrap();
    assert!(!d1.from_cache && d1.verdict.is_yes());

    // Grow the catalog well past the snapshot the witness was computed in.
    for i in 0..10 {
        cat.relation(&format!("Later{i}"), &["A", "B"]).unwrap();
    }
    let second = cat.fresh_relation("Second", ab);
    let w = View::new(vec![(q(&cat, "pi{A,B}(R)"), second)], &cat).unwrap();

    let d2 = engine
        .decide(
            &Check::Member {
                view: w.clone(),
                goal,
            },
            &cat,
        )
        .unwrap();
    assert!(d2.from_cache, "equal fingerprints share the verdict");
    let names = d2.member_witness_names(&w, &cat).unwrap();
    assert_eq!(names, vec![second], "witness renders in W's vocabulary");
}
