//! Differential conformance: `ClosureContext`-shared decisions must be
//! indistinguishable — verdicts *and* witnesses — from fresh per-goal
//! `closure_contains` runs.
//!
//! The sharing claim (DESIGN note in README §"Shared candidate-space
//! enumeration") is that the bounded enumeration depends only on
//! `(catalog, λ-atoms, atom bound)` and goals merely filter it. These
//! tests check that claim over randomized catalogs and query sets:
//!
//! * every goal's verdict and witness (skeleton, λ table, substituted
//!   template) is byte-identical between shared and fresh runs;
//! * probe *order* is irrelevant (a small-bound goal probed before a
//!   large-bound goal and vice versa — the bound-extension path);
//! * overflow is per-probe: under tiny budgets, exactly the goals that
//!   overflow fresh overflow shared, with the same overflow context;
//! * the batch engine's pooled contexts conform too, under `jobs` 1 and 4
//!   (override with `VIEWCAP_CONFORMANCE_JOBS`).
//!
//! Seed count via `VIEWCAP_CONFORMANCE_SEEDS` (default 20).

use rand::rngs::StdRng;
use rand::SeedableRng;
use viewcap_base::Catalog;
use viewcap_core::{closure_contains, ClosureContext, ClosureProof, Query, SearchBudget, View};
use viewcap_engine::{Check, Engine, Workload};
use viewcap_gen::{random_query, random_view, random_world, WorldSpec};
use viewcap_template::{SearchLimits, SearchOverflow};

fn seeds() -> u64 {
    std::env::var("VIEWCAP_CONFORMANCE_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20)
}

fn jobs_under_test() -> Vec<usize> {
    match std::env::var("VIEWCAP_CONFORMANCE_JOBS")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        Some(j) => vec![j],
        None => vec![1, 4],
    }
}

/// A randomized instance: catalog, generating query set, goal list.
fn instance(seed: u64) -> (Catalog, Vec<Query>, Vec<Query>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = WorldSpec {
        attrs: 4,
        relations: 2,
        min_arity: 1,
        max_arity: 3,
    };
    let (cat, rels) = random_world(&mut rng, &spec);
    let n_queries = 2 + (seed as usize) % 2;
    let queries: Vec<Query> = (0..n_queries)
        .map(|_| random_query(&mut rng, &cat, &rels, 2))
        .collect();
    let mut goals: Vec<Query> = Vec::new();
    // The set members themselves (always-in-closure goals)…
    goals.extend(queries.iter().cloned());
    // …plus random goals of growing size (bound-extension coverage: the
    // goal list mixes 1-, 2-, and 3-atom reduced templates).
    for atoms in [1usize, 2, 2, 3, 3] {
        goals.push(random_query(&mut rng, &cat, &rels, atoms));
    }
    (cat, queries, goals)
}

/// Canonical rendering of a decision — everything observable about it.
fn render(result: &Result<Option<ClosureProof>, SearchOverflow>) -> String {
    match result {
        Err(e) => format!("OVERFLOW({})", e.context),
        Ok(None) => "NO".to_owned(),
        Ok(Some(p)) => format!(
            "YES skeleton={:?} lambdas={:?} substituted={:?}",
            p.skeleton, p.lambda_queries, p.substituted
        ),
    }
}

#[test]
fn shared_contexts_match_fresh_per_goal_runs() {
    for seed in 0..seeds() {
        let (cat, queries, goals) = instance(seed);
        let budget = SearchBudget::default();
        let fresh: Vec<String> = goals
            .iter()
            .map(|g| render(&closure_contains(&queries, g, &cat, &budget)))
            .collect();

        // Forward order.
        let mut context = ClosureContext::new(&queries, &cat, &budget);
        let forward: Vec<String> = goals.iter().map(|g| render(&context.contains(g))).collect();
        assert_eq!(forward, fresh, "seed {seed}: shared (forward) diverged");

        // Reverse order (large-bound goals first, then small-bound; and
        // small before large for the seeds where the sizes run the other
        // way) — the shared space must be order-insensitive.
        let mut context = ClosureContext::new(&queries, &cat, &budget);
        let mut reversed: Vec<(usize, String)> = goals
            .iter()
            .enumerate()
            .rev()
            .map(|(i, g)| (i, render(&context.contains(g))))
            .collect();
        reversed.sort_by_key(|(i, _)| *i);
        let reversed: Vec<String> = reversed.into_iter().map(|(_, r)| r).collect();
        assert_eq!(reversed, fresh, "seed {seed}: shared (reverse) diverged");

        // The amortization must be real whenever the fresh runs did any
        // enumeration at all.
        let mut per_goal = 0u64;
        for g in &goals {
            let mut one = ClosureContext::new(&queries, &cat, &budget);
            let _ = one.contains(g);
            per_goal += one.search_stats().combos;
        }
        assert!(
            context.search_stats().combos <= per_goal,
            "seed {seed}: shared did more enumeration than per-goal runs"
        );
    }
}

#[test]
fn overflow_is_per_probe_and_matches_fresh_runs() {
    for seed in 0..seeds() {
        let (cat, queries, goals) = instance(seed);
        for max_visits in [1u64, 10, 100, 1000] {
            let budget = SearchBudget {
                limits: SearchLimits {
                    max_level_parts: 20_000,
                    max_visits,
                },
            };
            let fresh: Vec<String> = goals
                .iter()
                .map(|g| render(&closure_contains(&queries, g, &cat, &budget)))
                .collect();
            // Shared, both probe orders: overflow must strike exactly the
            // goals it strikes fresh, even when an earlier generous probe
            // already built the level a later starved probe asks about (and
            // even when an earlier starved probe rolled a level build back).
            let mut context = ClosureContext::new(&queries, &cat, &budget);
            let forward: Vec<String> = goals.iter().map(|g| render(&context.contains(g))).collect();
            assert_eq!(
                forward, fresh,
                "seed {seed} max_visits {max_visits}: forward diverged"
            );
            let mut context = ClosureContext::new(&queries, &cat, &budget);
            let mut reversed: Vec<(usize, String)> = goals
                .iter()
                .enumerate()
                .rev()
                .map(|(i, g)| (i, render(&context.contains(g))))
                .collect();
            reversed.sort_by_key(|(i, _)| *i);
            for ((i, r), f) in reversed.iter().zip(&fresh) {
                assert_eq!(
                    r, f,
                    "seed {seed} max_visits {max_visits} goal {i}: reverse diverged"
                );
            }
        }
    }
}

#[test]
fn mixed_budget_probes_share_one_space_soundly() {
    // One context, alternating starved and generous probes against the
    // same goals: each probe must behave exactly like a fresh run under its
    // own budget. (ClosureContext pins one budget, so this drives the
    // template-layer CandidateSpace through the core-layer semantics by
    // using two contexts over the same catalog but different budgets and a
    // shared goal list — and additionally exercises rollback + rebuild.)
    for seed in 0..seeds() {
        let (cat, queries, goals) = instance(seed);
        let starved = SearchBudget {
            limits: SearchLimits {
                max_level_parts: 20_000,
                max_visits: 10,
            },
        };
        let generous = SearchBudget::default();
        let mut starved_ctx = ClosureContext::new(&queries, &cat, &starved);
        let mut generous_ctx = ClosureContext::new(&queries, &cat, &generous);
        for (i, g) in goals.iter().enumerate() {
            let s_shared = render(&starved_ctx.contains(g));
            let g_shared = render(&generous_ctx.contains(g));
            let s_fresh = render(&closure_contains(&queries, g, &cat, &starved));
            let g_fresh = render(&closure_contains(&queries, g, &cat, &generous));
            assert_eq!(s_shared, s_fresh, "seed {seed} goal {i} (starved)");
            assert_eq!(g_shared, g_fresh, "seed {seed} goal {i} (generous)");
        }
    }
}

#[test]
fn engine_pooled_contexts_conform_under_all_job_counts() {
    for seed in 0..seeds() {
        let mut rng = StdRng::seed_from_u64(0x9E37 ^ seed);
        let spec = WorldSpec {
            attrs: 4,
            relations: 2,
            min_arity: 1,
            max_arity: 3,
        };
        let (mut cat, rels) = random_world(&mut rng, &spec);
        let view: View = random_view(&mut rng, &mut cat, &rels, 2, 2);
        let goals: Vec<Query> = (0..8)
            .map(|i| random_query(&mut rng, &cat, &rels, 1 + (i % 3)))
            .collect();
        let budget = SearchBudget::default();

        // Fresh per-goal baseline over the view's defining query set.
        let queries = view.query_set().queries().to_vec();
        let fresh: Vec<String> = goals
            .iter()
            .map(|g| render(&closure_contains(&queries, g, &cat, &budget)))
            .collect();

        let mut workload = Workload::new();
        for (i, g) in goals.iter().enumerate() {
            workload.push(
                format!("goal {i}"),
                Check::Member {
                    view: view.clone(),
                    goal: g.clone(),
                },
            );
        }
        for jobs in jobs_under_test() {
            let engine = Engine::new();
            let outcome = engine.run_batch(&workload, &cat, jobs);
            let rendered: Vec<String> = outcome
                .results
                .iter()
                .map(|r| match r {
                    Err(e) => format!("OVERFLOW({})", e.context),
                    Ok(d) => match &*d.verdict {
                        viewcap_engine::Verdict::Member(p) => render(&Ok(p.clone())),
                        other => panic!("member check produced {other:?}"),
                    },
                })
                .collect();
            assert_eq!(
                rendered, fresh,
                "seed {seed} jobs {jobs}: engine diverged from fresh runs"
            );
            let stats = engine.enum_stats();
            assert_eq!(stats.contexts, 1, "seed {seed}: one view, one context");
            assert!(stats.probes >= 1, "seed {seed}: context pool unused");
        }
    }
}
