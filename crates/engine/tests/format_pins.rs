//! Byte pins for every persisted format.
//!
//! Each test builds fixed inputs, encodes them, and pins the length and
//! the `fnv1a64` of the output. The round-trip suites only compare one
//! file against another written by the same build; these pins catch any
//! change to the bytes themselves — a reordered field, a different
//! interning order, a new header — so a refactor of the codecs must keep
//! them green unchanged. Changing a format on purpose means bumping its
//! version and re-pinning here.

use std::ops::ControlFlow;
use std::sync::Arc;
use viewcap_base::{fnv1a64, Catalog, RelId};
use viewcap_core::{Query, View};
use viewcap_engine::{
    compact_cache_bytes, load_cache, merge_cache_bytes, save_cache, Check, Engine, EngineConfig,
    PileStore, SpaceLibrary, Verdict,
};
use viewcap_expr::parse_expr;
use viewcap_template::{save_space, space_digest, CandidateSpace, SearchLimits};

/// `(length, fnv1a64)` of an encoded file.
fn pin(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), fnv1a64(bytes))
}

fn view(cat: &mut Catalog, defs: &[(&str, &str)]) -> View {
    let defs = defs
        .iter()
        .map(|&(name, src)| {
            let expr = parse_expr(src, cat).unwrap();
            let q = Query::from_expr(expr, cat);
            let rel = cat.fresh_relation(name, q.trs().clone());
            (q, rel)
        })
        .collect();
    View::new(defs, cat).unwrap()
}

/// A cache file from another catalog (it declares `T`, which the main
/// catalog does not), so its entry stays foreign when loaded below.
fn foreign_file() -> Vec<u8> {
    let mut cat = Catalog::new();
    cat.relation("T", &["D", "E"]).unwrap();
    let v = view(&mut cat, &[("t1", "pi{D}(T)"), ("t2", "pi{E}(T)")]);
    let goal = Query::from_expr(parse_expr("pi{D}(T) * pi{E}(T)", &cat).unwrap(), &cat);
    let engine = Engine::new();
    let d = engine
        .decide(&Check::Member { view: v, goal }, &cat)
        .unwrap();
    assert!(d.verdict.is_yes());
    save_cache(engine.cache(), &cat)
}

/// The main cache: one entry of every verdict kind, YES witnesses with λ
/// references, plus the foreign entry loaded from [`foreign_file`].
fn cache_files() -> (Vec<u8>, Vec<u8>) {
    let foreign = foreign_file();
    let mut cat = Catalog::new();
    cat.relation("R", &["A", "B", "C"]).unwrap();
    cat.relation("S", &["C", "D"]).unwrap();
    let v = view(&mut cat, &[("v1", "pi{A,B}(R)"), ("v2", "pi{B,C}(R)")]);
    let w = view(&mut cat, &[("w1", "pi{A}(R)")]);
    let v_again = view(&mut cat, &[("u2", "pi{B,C}(R)"), ("u1", "pi{A,B}(R)")]);
    let redundant = view(
        &mut cat,
        &[
            ("n1", "R * pi{C,D}(S)"),
            ("n2", "pi{A,B}(R)"),
            ("n3", "pi{C,D}(S)"),
        ],
    );
    let goal = Query::from_expr(parse_expr("pi{A,B}(R) * pi{B,C}(R)", &cat).unwrap(), &cat);

    let loaded = load_cache(&foreign, None).unwrap();
    let engine = Engine::from_config(EngineConfig::new().shared_cache(Arc::new(loaded))).unwrap();
    let checks = [
        Check::Member {
            view: v.clone(),
            goal,
        },
        Check::Dominates {
            dominator: v.clone(),
            dominated: w,
        },
        Check::Equivalent {
            left: v.clone(),
            right: v_again,
        },
    ];
    for check in &checks {
        let d = engine.decide(check, &cat).unwrap();
        assert!(d.verdict.is_yes(), "{check:?}");
    }
    let simplified = engine.simplify(&redundant, &cat).unwrap();
    assert!(matches!(*simplified.verdict, Verdict::Simplified(_)));
    let kept = engine.nonredundant(&redundant, &cat).unwrap();
    assert!(matches!(*kept.verdict, Verdict::Nonredundant(_)));
    assert_eq!(engine.cache().stats().entries, 6);
    let witness = match &*engine.decide(&checks[0], &cat).unwrap().verdict {
        Verdict::Member(Some(proof)) => proof.lambda_queries.len(),
        other => panic!("expected a member witness, got {other:?}"),
    };
    assert!(witness > 0, "the member witness references λ names");
    (foreign, save_cache(engine.cache(), &cat))
}

#[test]
fn cache_file_bytes_are_pinned() {
    let (foreign, saved) = cache_files();
    assert_eq!(pin(&foreign), (236, 0xF722_2F4C_73D8_FC72));
    assert_eq!(pin(&saved), (1271, 0x58E6_725A_75DB_F3AD));
    let (merged, _) = merge_cache_bytes(&[foreign, saved.clone()]).unwrap();
    assert_eq!(pin(&merged), (1271, 0x53BC_4894_2ECF_B35F));
    let (compacted, report) = compact_cache_bytes(&saved, Some(2)).unwrap();
    assert_eq!(report.entries_out, 2);
    assert_eq!(pin(&compacted), (288, 0x3001_E734_EFB5_514E));
}

/// Loading a pile is the merge: a pile holding both cache files as two
/// records loads a cache that saves to the merge pin's bytes.
#[test]
fn pile_load_saves_the_merge_pin() {
    let (foreign, saved) = cache_files();
    let dir = std::env::temp_dir().join(format!("viewcap-format-pins-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("merge.vcappile");
    let _ = std::fs::remove_file(&path);
    let mut store = PileStore::open(&path).unwrap();
    for file in [&foreign, &saved] {
        store.append_cache_bytes(file).unwrap();
    }
    let loaded = store.load(None).unwrap();
    let resaved = save_cache(&loaded, &Catalog::new());
    assert_eq!(pin(&resaved), (1271, 0x53BC_4894_2ECF_B35F));
}

fn space(cat: &Catalog, atoms: &[RelId], max_atoms: usize) -> Vec<u8> {
    let mut space = CandidateSpace::new(atoms);
    space
        .probe(
            cat,
            max_atoms,
            None,
            &SearchLimits::default(),
            &mut |_, _| ControlFlow::Continue(()),
        )
        .unwrap();
    save_space(&space, cat)
}

#[test]
fn space_snapshot_and_library_bytes_are_pinned() {
    let mut cat = Catalog::new();
    let r = cat.relation("R", &["A", "B"]).unwrap();
    let s = cat.relation("S", &["B", "C"]).unwrap();
    let snapshot = space(&cat, &[r, s], 3);
    assert_eq!(pin(&snapshot), (8865, 0x7743_25C4_752A_9D38));

    let mut lib = SpaceLibrary::new();
    assert!(lib.insert(space_digest(&cat, &[r, s]), snapshot));
    assert!(lib.insert(space_digest(&cat, &[s]), space(&cat, &[s], 2)));
    assert_eq!(pin(&lib.to_bytes()), (9278, 0x6E5C_9133_7D49_DDE0));
}
