//! Two-process concurrent-append stress: the CLI variant of the in-crate
//! thread test (`crates/engine/tests/pile_store.rs`). Several *real*
//! `viewcap-cli --pile` processes decide disjoint verdict sets against one
//! shared pile while this test polls the live file; then the shared pile
//! must merge byte-identically to the same workers run alone, each on a
//! pile of its own. Also pinned here: `pile compact` and `pile import`.
//!
//! Byte-identity holds even though a `--pile` process loads whatever
//! records already exist before appending its own snapshot (so late
//! snapshots may contain early processes' entries too): cache entries are
//! name-addressed and deterministic, so every copy of an entry serializes
//! to the same bytes, and merge output depends only on the *union* —
//! sorted by key, names re-interned — not on which record carried which
//! entry.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use viewcap_engine::{
    compact_cache_bytes, merge_cache_bytes, save_cache, validate_cache_bytes, Check, Engine,
    PileStore, SpaceLibrary, CACHE_RECORD_KIND, SPACE_RECORD_KIND,
};
use viewcap_pile::{Pile, PileReader};

const CLI: &str = env!("CARGO_BIN_EXE_viewcap-cli");
const WORKERS: usize = 4;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("viewcap-pile-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Worker `w`'s scenario: the shared catalog (identical `rel` lines in
/// every file, so names resolve identically everywhere) with checks only
/// `w` poses — the workers' verdict sets are pairwise disjoint.
fn scenario(w: usize) -> String {
    let mut src = String::new();
    for i in 0..WORKERS {
        src.push_str(&format!("rel S{i}(A, B, C)\n"));
    }
    src.push_str(&format!(
        "view V{w} {{\n  Body = pi{{A,B}}(S{w})\n}}\n\
         check member V{w} pi{{A}}(S{w})\n\
         check member V{w} pi{{B}}(S{w})\n\
         check member V{w} S{w}\n"
    ));
    src
}

fn cli(args: &[&str], paths: &[&Path]) -> Child {
    Command::new(CLI)
        .args(args)
        .args(paths)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap()
}

fn wait_ok(child: Child, what: &str) {
    let out = child.wait_with_output().expect("wait for worker");
    assert!(
        out.status.success(),
        "{what} failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A polled record must be a complete, valid payload of its kind.
fn validate_record(kind: u8, payload: &[u8], offset: u64) {
    let valid = match kind {
        CACHE_RECORD_KIND => validate_cache_bytes(payload).map(drop).is_ok(),
        SPACE_RECORD_KIND => SpaceLibrary::from_bytes(payload).is_ok(),
        other => panic!("unexpected record kind {other} at {offset}"),
    };
    assert!(valid, "reader saw a torn/invalid record at {offset}");
}

/// The payloads of `pile`'s records of `kind`, in append order.
fn payloads(pile: &Path, kind: u8) -> Vec<Vec<u8>> {
    Pile::open(pile)
        .unwrap()
        .records()
        .unwrap()
        .into_iter()
        .filter(|r| r.kind == kind)
        .map(|r| r.payload)
        .collect()
}

#[test]
fn concurrent_cli_processes_share_one_pile() {
    let dir = scratch("fleet");
    let pile = dir.join("fleet.vcappile");

    // Reference piles: each worker's scenario run alone on a pile of its
    // own, the way a fleet without sharing would persist.
    let mut ref_caches = Vec::new();
    let mut ref_spaces = SpaceLibrary::new();
    for w in 0..WORKERS {
        let scenario_file = dir.join(format!("worker{w}.vcap"));
        std::fs::write(&scenario_file, scenario(w)).unwrap();
        let ref_pile = dir.join(format!("worker{w}.vcappile"));
        wait_ok(
            cli(&["--pile"], &[&ref_pile, &scenario_file]),
            &format!("reference run {w}"),
        );
        ref_caches.extend(payloads(&ref_pile, CACHE_RECORD_KIND));
        ref_spaces.merge(PileStore::open(&ref_pile).unwrap().load_spaces().unwrap());
    }
    assert_eq!(ref_caches.len(), WORKERS);
    assert!(!ref_spaces.is_empty(), "the reference runs harvest spaces");

    // Now the same scenarios as concurrent *processes* against one pile,
    // with a reader polling the live file the whole time. Touch the pile
    // first so the reader can open it before any worker does.
    PileStore::open(&pile).unwrap();
    let mut workers: Vec<Child> = (0..WORKERS)
        .map(|w| cli(&["--pile"], &[&pile, &dir.join(format!("worker{w}.vcap"))]))
        .collect();

    let mut reader = PileReader::open(&pile).unwrap();
    let mut cache_records = 0usize;
    let mut last_offset = 0u64;
    let mut poll = |reader: &mut PileReader| {
        // A polling reader must only ever surface complete, valid records
        // — a torn in-flight append stays invisible until finished.
        for record in reader.poll().unwrap() {
            assert!(record.offset >= last_offset, "records out of file order");
            last_offset = record.offset;
            validate_record(record.kind, &record.payload, record.offset);
            cache_records += usize::from(record.kind == CACHE_RECORD_KIND);
        }
    };
    while !workers.is_empty() {
        poll(&mut reader);
        workers.retain_mut(|child| match child.try_wait().unwrap() {
            None => true,
            Some(status) => {
                assert!(status.success(), "worker exited {status}");
                false
            }
        });
        std::thread::yield_now();
    }
    poll(&mut reader);
    assert_eq!(
        cache_records, WORKERS,
        "every worker appends exactly one cache record"
    );

    // The shared pile merges byte-identically to the reference piles'
    // caches — "merge" is just reading the shared pile — and to the union
    // of their space libraries.
    let mut store = PileStore::open(&pile).unwrap();
    assert_eq!(store.record_count().unwrap(), WORKERS);
    let (merged, _) = store.merged_bytes().unwrap();
    let (from_refs, merge_report) = merge_cache_bytes(&ref_caches).unwrap();
    assert_eq!(
        merged, from_refs,
        "the shared pile must merge to the reference piles' caches"
    );
    assert_eq!(merge_report.inputs, WORKERS);
    let spaces = store.load_spaces().unwrap();
    assert_eq!(spaces.to_bytes(), ref_spaces.to_bytes());

    // `pile compact` writes the merged state to a new two-record pile and
    // leaves the input byte-identical.
    let before = std::fs::read(&pile).unwrap();
    let compacted = dir.join("compacted.vcappile");
    wait_ok(
        cli(
            &["pile", "compact"],
            &[&pile, Path::new("--out"), &compacted],
        ),
        "pile compact",
    );
    assert_eq!(std::fs::read(&pile).unwrap(), before, "input untouched");
    let (compact, _) = compact_cache_bytes(&merged, None).unwrap();
    assert_eq!(payloads(&compacted, CACHE_RECORD_KIND), [compact]);
    assert_eq!(payloads(&compacted, SPACE_RECORD_KIND), [spaces.to_bytes()]);
    let mut reloaded = PileStore::open(&compacted).unwrap();
    assert_eq!(reloaded.merged_bytes().unwrap().0, merged);
    assert_eq!(
        reloaded.load_spaces().unwrap().to_bytes(),
        spaces.to_bytes()
    );

    // An existing --out is refused and left alone.
    let compacted_bytes = std::fs::read(&compacted).unwrap();
    let refused = cli(
        &["pile", "compact"],
        &[&pile, Path::new("--out"), &compacted],
    )
    .wait()
    .unwrap();
    assert!(!refused.success(), "compact must refuse an existing --out");
    assert_eq!(std::fs::read(&compacted).unwrap(), compacted_bytes);
}

#[test]
fn pile_import_tells_cache_and_space_files_apart() {
    use viewcap_base::Catalog;
    use viewcap_core::{Query, View};
    use viewcap_expr::parse_expr;

    let dir = scratch("import");
    let pile = dir.join("imported.vcappile");

    let mut cat = Catalog::new();
    cat.relation("R", &["A", "B", "C"]).unwrap();
    let ab = cat.scheme(&["A", "B"]).unwrap();
    let v1 = cat.fresh_relation("v1", ab);
    let view = View::from_exprs(vec![(parse_expr("pi{A,B}(R)", &cat).unwrap(), v1)], &cat).unwrap();
    let engine = Engine::new();
    let goal = Query::from_expr(parse_expr("pi{A}(R)", &cat).unwrap(), &cat);
    engine.decide(&Check::Member { view, goal }, &cat).unwrap();
    let legacy_cache = dir.join("w.vcapcache");
    std::fs::write(&legacy_cache, save_cache(engine.cache(), &cat)).unwrap();
    let mut library = SpaceLibrary::new();
    library.insert(7, vec![1, 2, 3]);
    let legacy_spaces = dir.join("w.vcapspaces");
    std::fs::write(&legacy_spaces, library.to_bytes()).unwrap();

    wait_ok(
        cli(
            &["pile", "import"],
            &[&legacy_cache, &legacy_spaces, Path::new("--pile"), &pile],
        ),
        "pile import",
    );
    let kinds: Vec<u8> = Pile::open(&pile)
        .unwrap()
        .records()
        .unwrap()
        .iter()
        .map(|r| r.kind)
        .collect();
    assert_eq!(kinds, [CACHE_RECORD_KIND, SPACE_RECORD_KIND]);
    assert_eq!(
        payloads(&pile, CACHE_RECORD_KIND),
        [std::fs::read(&legacy_cache).unwrap()]
    );
    assert_eq!(payloads(&pile, SPACE_RECORD_KIND), [library.to_bytes()]);

    // A garbage file fails, and the pile stays byte-identical.
    let before = std::fs::read(&pile).unwrap();
    let garbage = dir.join("garbage.bin");
    std::fs::write(&garbage, b"neither a cache nor a space library").unwrap();
    let refused = cli(&["pile", "import"], &[&garbage, Path::new("--pile"), &pile])
        .wait()
        .unwrap();
    assert!(!refused.success(), "garbage must be refused");
    assert_eq!(std::fs::read(&pile).unwrap(), before);
}
