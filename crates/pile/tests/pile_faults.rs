//! Fault injection against the pile format.
//!
//! Crash-safety claims are only as good as their adversarial tests, so this
//! suite attacks a valid pile every way a crash or bad disk can:
//!
//! * **truncation at every byte offset** of the final record — the torn
//!   tail a crash mid-append leaves behind;
//! * **single-byte flips** at every position of the final record
//!   (exhaustive) and at proptest-chosen positions anywhere in the file —
//!   marker, hash, length, kind, padding, and payload corruption alike.
//!
//! The invariant under every fault: [`Pile::recover`] never panics, keeps
//! every record *before* the damage byte-identically, truncates the rest,
//! and reports what it dropped.

use proptest::prelude::*;
use viewcap_pile::{Pile, PileError, PileReader, Record, RecoveryReport};

/// A scratch path unique to this test name.
fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("viewcap-pile-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}.vcappile"))
}

/// Build a pile of `payloads` records and return (file bytes, records).
fn build_pile(name: &str, payloads: &[Vec<u8>]) -> (Vec<u8>, Vec<Record>) {
    let path = tmp(name);
    let _ = std::fs::remove_file(&path);
    let mut pile = Pile::open(&path).unwrap();
    pile.set_sync(false); // tests favor speed; atomicity is unaffected
    for (i, payload) in payloads.iter().enumerate() {
        pile.append((i % 7) as u8, payload).unwrap();
    }
    let records = pile.records().unwrap();
    (std::fs::read(&path).unwrap(), records)
}

/// Write `bytes` to a fresh file and fully recover it, asserting the
/// kept prefix is exactly `expected` (byte-identical records) and the
/// report is self-consistent. Returns the report.
fn recover_and_check(name: &str, bytes: &[u8], expected: &[Record]) -> RecoveryReport {
    let path = tmp(name);
    std::fs::write(&path, bytes).unwrap();
    let (mut pile, report) = Pile::recover(&path).unwrap();
    assert_eq!(report.records_kept, expected.len(), "{report}");
    assert_eq!(
        report.bytes_kept + report.bytes_dropped,
        bytes.len() as u64,
        "report must account for every input byte: {report}"
    );
    let survivors = pile.records().expect("recovered pile must read cleanly");
    assert_eq!(
        survivors, expected,
        "prior records must survive damage byte-identically"
    );
    assert_eq!(
        std::fs::metadata(&path).unwrap().len(),
        report.bytes_kept,
        "file must be truncated to the reported prefix"
    );
    // A recovered pile accepts appends again.
    pile.set_sync(false);
    pile.append(0, b"post-recovery append").unwrap();
    assert_eq!(pile.records().unwrap().len(), expected.len() + 1);
    report
}

#[test]
fn truncation_at_every_byte_offset_of_the_final_record() {
    let payloads: Vec<Vec<u8>> = vec![
        b"alpha".to_vec(),
        vec![0xAB; 64],
        Vec::new(),
        (0u8..=200).collect(),
    ];
    let (bytes, records) = build_pile("trunc-build", &payloads);
    let last_offset = records.last().unwrap().offset as usize;
    let prior = &records[..records.len() - 1];

    for cut in last_offset..bytes.len() {
        let report = recover_and_check("trunc-case", &bytes[..cut], prior);
        if cut == last_offset {
            // Truncating exactly at the final record's start leaves a
            // shorter but fully valid pile: nothing to report.
            assert_eq!(report.bytes_dropped, 0, "cut={cut}");
            assert!(report.damage.is_none(), "cut={cut}");
        } else {
            assert_eq!(report.bytes_kept, last_offset as u64, "cut={cut}");
            assert_eq!(
                report.bytes_dropped,
                (cut - last_offset) as u64,
                "cut={cut}"
            );
            let damage = report
                .damage
                .as_ref()
                .unwrap_or_else(|| panic!("cut={cut}: a torn final record must be reported"));
            assert!(
                damage.contains(&format!("byte {last_offset}")),
                "cut={cut}: {damage}"
            );
        }
    }
}

#[test]
fn single_byte_flip_at_every_position_of_the_final_record() {
    let payloads: Vec<Vec<u8>> = vec![
        b"keep-me".to_vec(),
        vec![7u8; 40],
        b"victim-record".to_vec(),
    ];
    let (bytes, records) = build_pile("flip-build", &payloads);
    let last_offset = records.last().unwrap().offset as usize;
    let prior = &records[..records.len() - 1];

    for pos in last_offset..bytes.len() {
        for flip in [0x01u8, 0x80, 0xFF] {
            let mut damaged = bytes.clone();
            damaged[pos] ^= flip;
            let report = recover_and_check("flip-case", &damaged, prior);
            assert_eq!(
                report.bytes_kept, last_offset as u64,
                "pos={pos} flip={flip:#x}"
            );
            assert!(
                report.damage.is_some(),
                "pos={pos} flip={flip:#x}: corruption must be reported"
            );
            // Lazy open must also refuse the damage (framing faults) or
            // defer it to record reads (hash faults) — never accept it.
            let path = tmp("flip-lazy");
            std::fs::write(&path, &damaged).unwrap();
            match Pile::open(&path) {
                Err(PileError::Corrupt { .. }) => {}
                Err(e) => panic!("pos={pos} flip={flip:#x}: unexpected open error {e}"),
                Ok(mut pile) => {
                    let err = pile
                        .records()
                        .expect_err("flipped byte must fail validation");
                    assert!(matches!(err, PileError::Corrupt { .. }), "pos={pos}: {err}");
                }
            }
        }
    }
}

#[test]
fn every_reader_stops_where_recovery_cuts() {
    let payloads: Vec<Vec<u8>> = vec![
        b"first".to_vec(),
        vec![0x5A; 33],
        Vec::new(),
        b"fourth-record".to_vec(),
    ];
    let (bytes, _) = build_pile("readers-build", &payloads);
    let mut damaged_piles: Vec<(String, Vec<u8>)> = (0..bytes.len())
        .map(|cut| (format!("cut={cut}"), bytes[..cut].to_vec()))
        .collect();
    for pos in 0..bytes.len() {
        for flip in [0x01u8, 0x80] {
            let mut damaged = bytes.clone();
            damaged[pos] ^= flip;
            damaged_piles.push((format!("pos={pos} flip={flip:#x}"), damaged));
        }
    }
    let path = tmp("readers-case");
    for (case, damaged) in &damaged_piles {
        // A handle opened on an empty file re-reads whatever the file
        // holds, so `records()` runs even where `open` would refuse.
        std::fs::write(&path, b"").unwrap();
        let mut handle = Pile::open(&path).unwrap();
        std::fs::write(&path, damaged).unwrap();
        let opened = Pile::open(&path);
        let read = handle.records();
        let polled = PileReader::open(&path).unwrap().poll().unwrap();
        let (mut recovered, report) = Pile::recover(&path).unwrap();
        let kept = recovered.records().unwrap();

        assert_eq!(
            polled, kept,
            "{case}: poll must surface what recovery keeps"
        );
        match read {
            Ok(records) => assert_eq!(records.len(), report.records_kept, "{case}"),
            Err(PileError::Corrupt { offset, .. }) => {
                assert_eq!(offset, report.bytes_kept, "{case}")
            }
            Err(e) => panic!("{case}: unexpected records() error {e}"),
        }
        match opened {
            Ok(_) => {}
            Err(PileError::Corrupt { offset, .. }) => {
                assert!(
                    offset >= report.bytes_kept,
                    "{case}: open failed at {offset}"
                )
            }
            Err(e) => panic!("{case}: unexpected open error {e}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random piles survive a flip anywhere: every record before the
    /// damaged one is kept, everything from it on is truncated away.
    #[test]
    fn flips_anywhere_keep_the_prefix_before_the_damage(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..96), 1..6),
        pos_seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let (bytes, records) = build_pile("prop-flip-build", &payloads);
        let pos = (pos_seed % bytes.len() as u64) as usize;
        let mut damaged = bytes.clone();
        damaged[pos] ^= flip;
        // Which record did we hit? Everything before it must survive.
        let hit = records.iter().rposition(|r| r.offset as usize <= pos).unwrap();
        let report = recover_and_check("prop-flip-case", &damaged, &records[..hit]);
        prop_assert_eq!(report.bytes_kept, records[hit].offset);
        prop_assert!(report.damage.is_some());
    }

    /// Random truncation points: recovery keeps exactly the records that
    /// fit entirely inside the cut, and never panics.
    #[test]
    fn truncations_anywhere_keep_whole_records_only(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..96), 1..6),
        cut_seed in any::<u64>(),
    ) {
        let (bytes, records) = build_pile("prop-trunc-build", &payloads);
        let cut = (cut_seed % (bytes.len() as u64 + 1)) as usize;
        let keep = records.iter().take_while(|r| {
            r.offset as usize + encoded_len(&r.payload) <= cut
        }).count();
        let report = recover_and_check("prop-trunc-case", &bytes[..cut], &records[..keep]);
        prop_assert_eq!(report.records_kept, keep);
    }

    /// Appending arbitrary garbage after a valid pile: the original
    /// records always survive recovery (a random blob colliding with the
    /// marker + a valid hash is out of reach).
    #[test]
    fn garbage_tails_are_truncated_away(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64), 1..5),
        garbage in proptest::collection::vec(any::<u8>(), 1..128),
    ) {
        let (bytes, records) = build_pile("prop-garbage-build", &payloads);
        let mut damaged = bytes.clone();
        damaged.extend_from_slice(&garbage);
        let report = recover_and_check("prop-garbage-case", &damaged, &records);
        prop_assert_eq!(report.bytes_kept, bytes.len() as u64);
        prop_assert_eq!(report.bytes_dropped, garbage.len() as u64);
    }
}

/// On-disk footprint of a record with this payload (header + aligned payload).
fn encoded_len(payload: &[u8]) -> usize {
    viewcap_pile::HEADER_LEN + payload.len().div_ceil(8) * 8
}
