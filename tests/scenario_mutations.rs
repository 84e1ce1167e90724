//! No scenario text can panic the runner.
//!
//! Every shipped `scenarios/*.vcap` file and a small fleet stream with
//! `txn` blocks are mutated (bytes deleted, replaced, inserted or
//! duplicated) and run. Each run must return, `Ok` with a report or `Err`
//! with a `line N: …` error, without panicking. Starting from another
//! source's declarations of the same prologue must not change what it
//! returns.

use proptest::prelude::*;
use std::path::Path;
use viewcap::scenario::{
    declare, run_declared, run_scenario, ScenarioError, ScenarioOptions, ScenarioOutcome,
};
use viewcap_engine::Engine;
use viewcap_gen::{fleet_stream, FleetSpec};

/// The sources mutations start from.
fn corpus() -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "vcap"))
        .collect();
    paths.sort();
    let mut sources: Vec<String> = paths
        .iter()
        .map(|p| std::fs::read_to_string(p).unwrap())
        .collect();
    let spec = FleetSpec {
        views: 8,
        base_rels: 3,
        events: 12,
        batch_size: 3,
        ..FleetSpec::default()
    };
    let stream = (1..)
        .map(|seed| fleet_stream(seed, &spec))
        .find(|stream| stream.txns > 0)
        .unwrap();
    sources.push(stream.source);
    sources
}

/// What a run shows: its report, answer counts and final relation names,
/// or its `line N: msg` error.
type Shown = Result<(String, usize, usize, Vec<String>), String>;

fn shown(run: Result<ScenarioOutcome, ScenarioError>) -> Shown {
    run.map(|out| {
        let names = out
            .catalog
            .relations()
            .map(|r| out.catalog.rel_name(r).to_owned())
            .collect();
        (out.report, out.yes, out.no, names)
    })
    .map_err(|e| e.to_string())
}

/// Run `src` from the declarations of a different source with the same
/// prologue, as a daemon holding them does.
fn reusing(src: &str) -> Result<ScenarioOutcome, ScenarioError> {
    let (_, rest) = declare(src)?;
    let prefix = &src[..src.len() - rest.len()];
    let (held, _) = declare(&format!("{prefix}\ncheck member Elsewhere R\n"))?;
    run_declared(held, rest, &ScenarioOptions::default(), &Engine::new())
}

/// Bytes that shape scenario syntax, plus a few plain ones.
const ALPHABET: &[u8] = b"{}()#=,*\n pi{ABRVW0129-";

/// Apply one mutation, drawn from `seed`, to `src`.
fn mutate(src: &mut Vec<u8>, seed: u64) {
    let len = src.len().max(1);
    let at = (seed >> 8) as usize % len;
    let span = 1 + (seed >> 40) as usize % 8;
    let byte = ALPHABET[(seed >> 24) as usize % ALPHABET.len()];
    match seed % 4 {
        0 => {
            let end = (at + span).min(src.len());
            src.drain(at.min(end)..end);
        }
        1 if !src.is_empty() => src[at] = byte,
        2 => src.insert(at.min(src.len()), byte),
        _ => {
            let end = (at + span).min(src.len());
            let copy = src[at.min(end)..end].to_vec();
            src.splice(end..end, copy);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    #[test]
    fn mutated_scenarios_never_panic(
        pick in any::<u64>(),
        seeds in proptest::collection::vec(any::<u64>(), 1..5),
    ) {
        let sources = corpus();
        let mut src = sources[pick as usize % sources.len()].as_bytes().to_vec();
        for seed in seeds {
            mutate(&mut src, seed);
        }
        // A cut through a multi-byte character becomes U+FFFD.
        let src = String::from_utf8_lossy(&src).into_owned();
        let ran = std::panic::catch_unwind(|| (shown(run_scenario(&src)), shown(reusing(&src))));
        prop_assert!(ran.is_ok(), "run_scenario panicked on:\n{src}");
        let (whole, reused) = ran.unwrap();
        prop_assert_eq!(reused, whole, "the declaration split changed a run of:\n{}", src);
    }
}
