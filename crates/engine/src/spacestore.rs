//! Persisted library of [`CandidateSpace`](viewcap_template::CandidateSpace)
//! snapshots, keyed by content digest.
//!
//! A [`SpaceLibrary`] maps `space_digest` keys (128-bit content digests of
//! the λ-atom schemes — see
//! [`viewcap_template::space_digest`]) to serialized snapshots produced by
//! [`viewcap_template::save_space`]. The engine's context pool stages a
//! matching snapshot into every [`viewcap_core::ClosureContext`] it builds,
//! so fresh processes replay persisted enumeration levels instead of
//! rebuilding them; contexts that extend past the persisted bound are
//! harvested back ([`crate::Engine::harvest_spaces`]) and the grown library
//! is appended to the pile as one space record ([`crate::PileStore`]).
//!
//! **Payload** (inside the [`codec`] frame, magic `VCAPSLIB`, version 1):
//!
//! ```text
//! count     u32
//! entries   sorted by digest: key u128, then the snapshot as a u32-length blob
//! ```
//!
//! Entries are opaque here — each snapshot carries its own frame and is
//! validated against the loading catalog at hydration time (`load_space`),
//! so a library can ferry snapshots between catalogs that declare the same
//! relations in any order.

use std::collections::BTreeMap;
use viewcap_template::codec::{self, put_blob, put_u128, put_u32, CodecError, Format};

/// The space-library format's frame.
pub const SPACE_LIB_FORMAT: Format = Format {
    magic: b"VCAPSLIB",
    version: 1,
    label: "space library",
};

/// A digest-keyed collection of candidate-space snapshots.
///
/// Deterministically ordered (by digest), so `to_bytes` is a pure function
/// of the contents — two processes that harvested the same spaces write
/// byte-identical libraries.
#[derive(Debug, Default)]
pub struct SpaceLibrary {
    entries: BTreeMap<u128, Vec<u8>>,
}

impl SpaceLibrary {
    /// An empty library.
    pub fn new() -> SpaceLibrary {
        SpaceLibrary::default()
    }

    /// Number of snapshots held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the library holds no snapshots.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The snapshot for a space key, if any.
    pub fn get(&self, key: u128) -> Option<&[u8]> {
        self.entries.get(&key).map(Vec::as_slice)
    }

    /// Absorb a snapshot. For one space key, a snapshot holding more
    /// enumeration levels strictly extends one holding fewer and serializes
    /// to strictly more bytes, so "keep the longer payload" keeps the most
    /// levels; ties keep the incumbent. Returns whether the library
    /// changed.
    pub fn insert(&mut self, key: u128, bytes: Vec<u8>) -> bool {
        match self.entries.get(&key) {
            Some(existing) if existing.len() >= bytes.len() => false,
            _ => {
                self.entries.insert(key, bytes);
                true
            }
        }
    }

    /// Absorb every snapshot of `other` (same per-key policy as
    /// [`SpaceLibrary::insert`]). Returns how many entries changed.
    pub fn merge(&mut self, other: SpaceLibrary) -> usize {
        other
            .entries
            .into_iter()
            .map(|(k, v)| self.insert(k, v) as usize)
            .sum()
    }

    /// Serialize to the container format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        put_u32(&mut payload, self.entries.len() as u32);
        for (&key, bytes) in &self.entries {
            put_u128(&mut payload, key);
            put_blob(&mut payload, bytes);
        }
        codec::seal(&SPACE_LIB_FORMAT, &payload)
    }

    /// Parse a library file, rejecting corruption cleanly.
    pub fn from_bytes(bytes: &[u8]) -> Result<SpaceLibrary, CodecError> {
        let mut r = codec::open(bytes, &SPACE_LIB_FORMAT)?;
        // Each entry needs at least its digest + length fields.
        let count = r.count(20)?;
        let mut entries = BTreeMap::new();
        for _ in 0..count {
            let key = r.u128()?;
            if entries.insert(key, r.blob()?.to_vec()).is_some() {
                return Err(r.corrupt("duplicate space key"));
            }
        }
        r.finish()?;
        Ok(SpaceLibrary { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_orders_by_digest() {
        let mut lib = SpaceLibrary::new();
        assert!(lib.insert(7, vec![1, 2, 3]));
        assert!(lib.insert(3, vec![9]));
        let bytes = lib.to_bytes();
        let back = SpaceLibrary::from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.get(7), Some(&[1, 2, 3][..]));
        assert_eq!(back.get(3), Some(&[9][..]));
        // Serialization is a pure function of contents, whatever the
        // insertion order.
        let mut relib = SpaceLibrary::new();
        relib.insert(3, vec![9]);
        relib.insert(7, vec![1, 2, 3]);
        assert_eq!(relib.to_bytes(), bytes);
    }

    #[test]
    fn insert_keeps_the_most_levels() {
        let mut lib = SpaceLibrary::new();
        assert!(lib.insert(1, vec![0; 10]));
        assert!(!lib.insert(1, vec![0; 5]), "shorter snapshot ignored");
        assert_eq!(lib.get(1).unwrap().len(), 10);
        assert!(lib.insert(1, vec![0; 20]), "longer snapshot replaces");
        assert_eq!(lib.get(1).unwrap().len(), 20);

        let mut other = SpaceLibrary::new();
        other.insert(1, vec![0; 15]);
        other.insert(2, vec![0; 1]);
        assert_eq!(lib.merge(other), 1, "only the new key lands");
        assert_eq!(lib.get(1).unwrap().len(), 20);
        assert!(lib.get(2).is_some());
    }

    #[test]
    fn corruption_is_rejected_cleanly() {
        let mut lib = SpaceLibrary::new();
        lib.insert(42, vec![5; 33]);
        let good = lib.to_bytes();
        assert!(matches!(
            SpaceLibrary::from_bytes(b"not a library"),
            Err(CodecError::BadMagic { .. })
        ));
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            SpaceLibrary::from_bytes(&bad),
            Err(CodecError::BadMagic { .. })
        ));
        let mut bad = good.clone();
        bad[8] = 0xEE;
        assert!(matches!(
            SpaceLibrary::from_bytes(&bad),
            Err(CodecError::VersionMismatch { .. })
        ));
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(matches!(
            SpaceLibrary::from_bytes(&bad),
            Err(CodecError::ChecksumMismatch { .. })
        ));
        // Every truncation is caught by the header or checksum guards.
        for cut in 0..good.len() {
            assert!(SpaceLibrary::from_bytes(&good[..cut]).is_err(), "cut {cut}");
        }
    }
}
