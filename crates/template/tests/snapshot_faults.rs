//! Fault injection against the candidate-space snapshot format.
//!
//! A snapshot hydrates enumeration state another process will trust
//! verbatim, so — like the pile (`crates/pile/tests/pile_faults.rs`) —
//! its parser must refuse every damaged input cleanly:
//!
//! * **truncation at every byte offset** — the torn file a crash
//!   mid-write would leave if the atomic rename were ever bypassed;
//! * **single-byte flips at every position** (exhaustive ×3 masks) and
//!   at proptest-chosen positions — magic, version, checksum, length,
//!   and payload corruption alike;
//! * **arbitrary garbage** that was never a snapshot.
//!
//! The invariant under every fault: [`load_space`] never panics and
//! never yields a space — it returns a [`CodecError`]. A mismatched
//! but *valid* snapshot (wrong atoms, wrong options byte) is likewise
//! rejected, as `Mismatch`.

use proptest::prelude::*;
use std::ops::ControlFlow;
use viewcap_base::{Catalog, RelId};
use viewcap_template::{
    codec, load_space, save_space, CandidateSpace, CodecError, SearchLimits, SPACE_FORMAT,
};

fn setup() -> (Catalog, Vec<RelId>) {
    let mut cat = Catalog::new();
    let r = cat.relation("R", &["A", "B"]).unwrap();
    let s = cat.relation("S", &["B", "C"]).unwrap();
    (cat, vec![r, s])
}

fn built_space(cat: &Catalog, atoms: &[RelId], max_atoms: usize) -> CandidateSpace {
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
    space
}

fn snapshot_bytes() -> (Catalog, Vec<RelId>, Vec<u8>) {
    let (cat, atoms) = setup();
    let space = built_space(&cat, &atoms, 3);
    let bytes = save_space(&space, &cat);
    (cat, atoms, bytes)
}

#[test]
fn truncation_at_every_byte_offset_is_rejected() {
    let (cat, atoms, bytes) = snapshot_bytes();
    // Sanity: the untouched snapshot loads.
    load_space(&bytes, &cat, &atoms).unwrap();
    for cut in 0..bytes.len() {
        let Err(err) = load_space(&bytes[..cut], &cat, &atoms) else {
            panic!("cut={cut}: every proper prefix must be rejected");
        };
        // A prefix is torn framing or a checksum that cannot match —
        // never a semantic error against the catalog.
        assert!(
            !matches!(err, CodecError::Mismatch(_)),
            "cut={cut}: prefix misdiagnosed as {err}"
        );
    }
}

#[test]
fn single_byte_flip_at_every_position_is_rejected() {
    let (cat, atoms, bytes) = snapshot_bytes();
    for pos in 0..bytes.len() {
        for flip in [0x01u8, 0x80, 0xFF] {
            let mut damaged = bytes.clone();
            damaged[pos] ^= flip;
            assert!(
                load_space(&damaged, &cat, &atoms).is_err(),
                "pos={pos} flip={flip:#x} must be rejected"
            );
        }
    }
}

#[test]
fn mismatched_context_is_rejected_not_misloaded() {
    let (cat, atoms, bytes) = snapshot_bytes();
    // Wrong atom order.
    let swapped = vec![atoms[1], atoms[0]];
    assert!(matches!(
        load_space(&bytes, &cat, &swapped),
        Err(CodecError::Mismatch(_))
    ));
    // Wrong options byte (the first byte after the name table), re-sealed
    // so the frame itself is valid.
    let mut r = codec::open(&bytes, &SPACE_FORMAT).unwrap();
    r.table().unwrap();
    let mut payload = bytes[20..].to_vec(); // past magic, version, checksum
    let at = payload.len() - r.remaining();
    payload[at] = 0b01;
    assert!(matches!(
        load_space(&codec::seal(&SPACE_FORMAT, &payload), &cat, &atoms),
        Err(CodecError::Mismatch(_))
    ));
    // A catalog declaring different content under the same names.
    let mut alien = Catalog::new();
    let r = alien.relation("R", &["A", "B", "C"]).unwrap();
    let s = alien.relation("S", &["B", "C"]).unwrap();
    assert!(load_space(&bytes, &alien, &[r, s]).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A flip anywhere is rejected — no random position sneaks a damaged
    /// snapshot past validation.
    #[test]
    fn flips_anywhere_are_rejected(pos_seed in any::<u64>(), flip in 1u8..=255) {
        let (cat, atoms, bytes) = snapshot_bytes();
        let pos = (pos_seed % bytes.len() as u64) as usize;
        let mut damaged = bytes.clone();
        damaged[pos] ^= flip;
        prop_assert!(
            load_space(&damaged, &cat, &atoms).is_err()
        );
    }

    /// Arbitrary byte blobs were never snapshots: rejected, never a
    /// panic, never a space.
    #[test]
    fn garbage_is_rejected(blob in proptest::collection::vec(any::<u8>(), 0..512)) {
        let (cat, atoms, _) = snapshot_bytes();
        prop_assert!(
            load_space(&blob, &cat, &atoms).is_err()
        );
    }

    /// Valid prefix + garbage tail: the trailing junk must fail the
    /// checksum or the exhaustive-consumption check.
    #[test]
    fn garbage_tails_are_rejected(garbage in proptest::collection::vec(any::<u8>(), 1..128)) {
        let (cat, atoms, bytes) = snapshot_bytes();
        let mut damaged = bytes.clone();
        damaged.extend_from_slice(&garbage);
        prop_assert!(
            load_space(&damaged, &cat, &atoms).is_err()
        );
    }
}
