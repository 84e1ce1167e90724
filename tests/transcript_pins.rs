//! Byte pins for whole scenario transcripts.
//!
//! Every shipped `scenarios/*.vcap` file and three generated fleet streams
//! run through the scenario engine at `--jobs` 1 and 4, and each full
//! report — summary lines included — is pinned by its length and
//! `fnv1a64`, next to the run's `(yes, no)` counts. The other transcript
//! suites compare one run against another of the same build; these pins
//! catch any change to the bytes themselves, so a change to how checks
//! are keyed, reused or rendered must keep them green unchanged.

use std::path::Path;
use viewcap::scenario::{run_scenario_with_engine, ScenarioOptions};
use viewcap_base::fnv1a64;
use viewcap_engine::Engine;
use viewcap_gen::{fleet_stream, FleetSpec};

/// `(report length, report fnv1a64, yes, no)` of one run.
type Pin = (usize, u64, usize, usize);

/// One run on a fresh engine.
fn pin(src: &str, jobs: usize) -> Pin {
    let engine = Engine::new();
    let out = run_scenario_with_engine(src, &ScenarioOptions { jobs }, &engine).unwrap();
    (
        out.report.len(),
        fnv1a64(out.report.as_bytes()),
        out.yes,
        out.no,
    )
}

/// Every case runs at both job counts against the same pin.
fn assert_pinned(case: &str, src: &str, expected: Pin) {
    for jobs in [1, 4] {
        let got = pin(src, jobs);
        assert_eq!(got, expected, "{case} at --jobs {jobs}: transcript changed");
    }
}

const SCENARIO_PINS: &[(&str, Pin)] = &[
    ("batch_workload.vcap", (686, 0xFE5A_2914_8329_E267, 12, 1)),
    ("capacity_diff.vcap", (986, 0x6108_4EDB_B4B9_CFE4, 0, 0)),
    (
        "cross_catalog_base.vcap",
        (498, 0x241C_9696_C82B_19FB, 7, 1),
    ),
    (
        "cross_catalog_permuted.vcap",
        (562, 0x55CE_2CDA_6A1E_3C3C, 7, 1),
    ),
    ("example_3_1_5.vcap", (671, 0x3A85_11D1_EEDA_0325, 4, 1)),
    ("incremental_edit.vcap", (925, 0x4EF1_14A0_39BB_D26F, 12, 3)),
    ("normal_form.vcap", (372, 0xADF6_F95A_61F0_020D, 0, 0)),
    ("security_audit.vcap", (330, 0x9689_1722_2BAA_930C, 2, 3)),
];

#[test]
fn shipped_scenarios_are_pinned() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".vcap"))
        .collect();
    files.sort();
    let pinned: Vec<&str> = SCENARIO_PINS.iter().map(|&(name, _)| name).collect();
    assert_eq!(files, pinned, "every scenario file needs exactly one pin");
    for &(name, expected) in SCENARIO_PINS {
        let src = std::fs::read_to_string(dir.join(name)).unwrap();
        assert_pinned(name, &src, expected);
    }
}

/// Small enough for debug builds, large enough that every seed below
/// emits batches, single edits and txn blocks with their rechecks, and
/// diffs.
fn fleet_spec() -> FleetSpec {
    FleetSpec {
        views: 24,
        base_rels: 4,
        events: 40,
        batch_size: 4,
        ..FleetSpec::default()
    }
}

const FLEET_PINS: &[(u64, Pin)] = &[
    (1, (32189, 0xA9D8_9385_D2E0_39E0, 434, 167)),
    (7, (28136, 0x3D4F_AAF0_0B3B_E874, 305, 209)),
    (20261016, (21429, 0x811F_F1C7_D2F3_9D70, 247, 136)),
];

#[test]
fn fleet_stream_transcripts_are_pinned() {
    let spec = fleet_spec();
    for &(seed, expected) in FLEET_PINS {
        let stream = fleet_stream(seed, &spec);
        assert!(stream.checks > 0, "seed {seed}: no batch checks");
        assert!(stream.diffs > 0, "seed {seed}: no diffs");
        assert!(stream.txns > 0, "seed {seed}: no txn blocks");
        assert!(
            stream.edits > 3 * stream.txns,
            "seed {seed}: no single edits"
        );
        assert!(
            stream.rechecks > stream.txns,
            "seed {seed}: no edit rechecks"
        );
        assert_pinned(
            &format!("fleet_stream seed {seed}"),
            &stream.source,
            expected,
        );
    }
}
