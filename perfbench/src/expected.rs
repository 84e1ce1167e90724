//! The verdicts a run must reproduce. Every timed answer is checked
//! against a live cold reference run of the same code by a digest of its
//! verdict lines; the digests recorded here when the benchmark was defined
//! check that reference itself, so a change that alters verdicts on both
//! sides at once is still caught.

use crate::inputs::{Sizes, Workload};

/// The digest of no lines: the FNV-1a offset basis.
pub const EMPTY: u64 = 0xcbf2_9ce4_8422_2325;

/// The lines that carry verdicts. `batch:` and `recheck:` summaries say how
/// many answers came from the cache, which legitimately differs between a
/// cold reference and a warm run, so they are left out.
fn verdict_lines(transcript: &str) -> impl Iterator<Item = &str> {
    transcript
        .lines()
        .filter(|l| !l.starts_with("batch: ") && !l.starts_with("recheck: "))
}

/// FNV-1a over the verdict lines of `transcript`, continuing from `hash`;
/// with `sorted`, in sorted order.
pub fn verdict_digest(hash: u64, transcript: &str, sorted: bool) -> u64 {
    let mut lines: Vec<&str> = verdict_lines(transcript).collect();
    if sorted {
        lines.sort_unstable();
    }
    lines
        .iter()
        .flat_map(|l| l.bytes().chain([b'\n']))
        .fold(hash, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Fold one reference transcript into a workload's digest, which hashes the
/// verdict lines in submission order. `cold_deep`'s single transcript is
/// hashed sorted: its seed only permutes declarations and commands, so the
/// sorted lines are the same for every seed.
pub fn fold(workload: Workload, hash: u64, transcript: &str) -> u64 {
    verdict_digest(hash, transcript, workload == Workload::ColdDeep)
}

/// The seed held out to confirm claimed gains.
const HELD_OUT: u64 = 20_261_016;

/// `(workload, seed, digest)` at full input sizes: seeds 1 to 20 and the
/// held-out seed. `cold_deep`'s entry (no seed) holds for every seed.
const RECORDED: &[(Workload, Option<u64>, u64)] = &[
    (Workload::ColdDeep, None, 0x6e76_4a17_0c61_197d),
    (Workload::FleetStream, Some(1), 0x3953_2fce_eee9_950d),
    (Workload::FleetStream, Some(2), 0x8ddd_7513_20c1_ac00),
    (Workload::FleetStream, Some(3), 0x69eb_497b_4428_da88),
    (Workload::FleetStream, Some(4), 0x82ff_8062_ada6_4a24),
    (Workload::FleetStream, Some(5), 0xc632_11da_ba5c_7694),
    (Workload::FleetStream, Some(6), 0x4ddb_2c8a_230f_7391),
    (Workload::FleetStream, Some(7), 0x444c_641a_1e43_3e09),
    (Workload::FleetStream, Some(8), 0xb9de_36bc_84c7_dd3b),
    (Workload::FleetStream, Some(9), 0xecb9_3878_192f_14c5),
    (Workload::FleetStream, Some(10), 0x3c4f_3721_48ea_bff9),
    (Workload::FleetStream, Some(11), 0xe492_ff7b_cc85_83e3),
    (Workload::FleetStream, Some(12), 0xc9c5_b065_8fb8_57dc),
    (Workload::FleetStream, Some(13), 0x08c1_d97a_0362_f64d),
    (Workload::FleetStream, Some(14), 0x4c4a_1c5b_3be6_749e),
    (Workload::FleetStream, Some(15), 0xd149_d8f4_e1af_a3df),
    (Workload::FleetStream, Some(16), 0x0e49_724c_45d8_3acb),
    (Workload::FleetStream, Some(17), 0x11a3_cf38_bffb_00ae),
    (Workload::FleetStream, Some(18), 0x8dce_8751_399c_a35c),
    (Workload::FleetStream, Some(19), 0x6c18_3aba_eef6_52ff),
    (Workload::FleetStream, Some(20), 0xa146_12a6_1921_9c2f),
    (Workload::FleetStream, Some(HELD_OUT), 0x27a0_dcfd_e76c_690f),
    (Workload::DaemonWarm, Some(1), 0xf163_ff9a_45a1_e4b9),
    (Workload::DaemonWarm, Some(2), 0x6a0b_a46f_2617_6832),
    (Workload::DaemonWarm, Some(3), 0x6dfc_daa4_8698_654d),
    (Workload::DaemonWarm, Some(4), 0x3096_e058_273d_f3be),
    (Workload::DaemonWarm, Some(5), 0xde15_deff_8fd1_907c),
    (Workload::DaemonWarm, Some(6), 0x4206_3574_6e2d_43f0),
    (Workload::DaemonWarm, Some(7), 0x7a32_3535_84c7_ebaf),
    (Workload::DaemonWarm, Some(8), 0x1f7f_2c6f_b8ba_50cd),
    (Workload::DaemonWarm, Some(9), 0xf6d0_2b48_8781_cc30),
    (Workload::DaemonWarm, Some(10), 0x73d6_03c7_b431_98fc),
    (Workload::DaemonWarm, Some(11), 0xc71a_8308_85f4_0e47),
    (Workload::DaemonWarm, Some(12), 0xac11_50b4_0d72_f7ea),
    (Workload::DaemonWarm, Some(13), 0x67cd_8289_9b65_1859),
    (Workload::DaemonWarm, Some(14), 0x8f4e_8944_e977_9213),
    (Workload::DaemonWarm, Some(15), 0x0546_06aa_4a1f_3225),
    (Workload::DaemonWarm, Some(16), 0x48fb_8112_b0c4_039a),
    (Workload::DaemonWarm, Some(17), 0xec76_bdff_60ee_1a36),
    (Workload::DaemonWarm, Some(18), 0x632a_0a97_06aa_4365),
    (Workload::DaemonWarm, Some(19), 0x9d8f_7f90_8629_d8e6),
    (Workload::DaemonWarm, Some(20), 0x2120_3746_6df3_1073),
    (Workload::DaemonWarm, Some(HELD_OUT), 0xffe2_9482_41fe_65fe),
];

/// Why the reference verdicts are wrong, if a digest was recorded for this
/// input and they do not match it.
pub fn check(workload: Workload, seed: u64, sizes: &Sizes, digest: u64) -> Option<String> {
    let (_, _, want) = RECORDED
        .iter()
        .find(|(w, s, _)| *w == workload && s.is_none_or(|s| s == seed && *sizes == Sizes::FULL))?;
    (*want != digest).then(|| {
        format!(
            "{} seed {seed}: reference verdicts hash to {digest:016x}, recorded {want:016x}",
            workload.name()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_digests_catch_changed_verdicts() {
        let full = &Sizes::FULL;
        let fleet = 0x3953_2fce_eee9_950d;
        assert_eq!(check(Workload::FleetStream, 1, full, fleet), None);
        assert!(check(Workload::FleetStream, 1, full, fleet ^ 1).is_some());
        // Nothing recorded for this seed, nor for other sizes.
        assert_eq!(check(Workload::FleetStream, 21, full, 0), None);
        let small = Sizes {
            fleet_streams: 1,
            ..Sizes::FULL
        };
        assert_eq!(check(Workload::FleetStream, 1, &small, 0), None);
        // `cold_deep`'s digest holds for every seed.
        assert!(check(Workload::ColdDeep, 99, full, 0).is_some());
    }

    #[test]
    fn cold_deep_digest_ignores_order() {
        let (a, b) = ("x YES\nbatch: 1 cached\ny NO\n", "y NO\nx YES\n");
        assert_eq!(
            fold(Workload::ColdDeep, EMPTY, a),
            fold(Workload::ColdDeep, EMPTY, b)
        );
        assert_ne!(
            fold(Workload::FleetStream, EMPTY, a),
            fold(Workload::FleetStream, EMPTY, b)
        );
    }
}
