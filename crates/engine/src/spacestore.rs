//! Persisted library of [`CandidateSpace`](viewcap_template::CandidateSpace)
//! snapshots, keyed by content digest.
//!
//! A [`SpaceLibrary`] maps `space_digest` keys (128-bit content digests of
//! the search options plus the λ-atom schemes — see
//! [`viewcap_template::space_digest`]) to serialized snapshots produced by
//! [`viewcap_template::save_space`]. The engine's context pool stages a
//! matching snapshot into every [`viewcap_core::ClosureContext`] it builds,
//! so fresh processes replay persisted enumeration levels instead of
//! rebuilding them; contexts that extend past the persisted bound are
//! harvested back ([`crate::Engine::harvest_spaces`]) and the grown library
//! is appended to the pile as one space record ([`crate::PileStore`]).
//!
//! The container format mirrors the verdict-cache payload: magic, version,
//! FNV-1a checksum over the payload, then a digest-ordered entry table.
//! Entries are opaque here — each snapshot carries its own magic, version,
//! and checksum, and is validated against the loading catalog at hydration
//! time (`load_space`), so a library can ferry snapshots between catalogs
//! that declare the same relations in any order.

use std::collections::BTreeMap;
use std::fmt;
use viewcap_base::fnv1a64;

/// First bytes of a space-library file.
pub const SPACE_LIB_MAGIC: &[u8; 8] = b"VCAPSLIB";

/// Version written by this build; anything else is rejected.
pub const SPACE_LIB_VERSION: u32 = 1;

/// Why a space-library payload was rejected.
#[derive(Debug)]
pub enum SpaceStoreError {
    /// The payload does not start with [`SPACE_LIB_MAGIC`].
    BadMagic,
    /// The file's version is not [`SPACE_LIB_VERSION`].
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// The payload checksum does not match.
    ChecksumMismatch,
    /// Structurally invalid data (truncation, bad counts).
    Corrupt(&'static str),
}

impl fmt::Display for SpaceStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpaceStoreError::BadMagic => write!(f, "not a viewcap space library (bad magic)"),
            SpaceStoreError::VersionMismatch { found, expected } => write!(
                f,
                "space library version {found} is not the supported version {expected}"
            ),
            SpaceStoreError::ChecksumMismatch => {
                write!(f, "space library checksum mismatch (corrupted file)")
            }
            SpaceStoreError::Corrupt(what) => write!(f, "corrupt space library: {what}"),
        }
    }
}

impl std::error::Error for SpaceStoreError {}

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
            .filter(|(k, v)| self.insert(*k, v.clone()))
            .count()
    }

    /// Serialize to the container format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for (key, bytes) in &self.entries {
            payload.extend_from_slice(&key.to_le_bytes());
            payload.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            payload.extend_from_slice(bytes);
        }
        let mut out = Vec::with_capacity(20 + payload.len());
        out.extend_from_slice(SPACE_LIB_MAGIC);
        out.extend_from_slice(&SPACE_LIB_VERSION.to_le_bytes());
        out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Parse a library file, rejecting corruption cleanly.
    pub fn from_bytes(bytes: &[u8]) -> Result<SpaceLibrary, SpaceStoreError> {
        if bytes.len() < 20 {
            return Err(SpaceStoreError::Corrupt("shorter than the header"));
        }
        if &bytes[..8] != SPACE_LIB_MAGIC {
            return Err(SpaceStoreError::BadMagic);
        }
        let found = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if found != SPACE_LIB_VERSION {
            return Err(SpaceStoreError::VersionMismatch {
                found,
                expected: SPACE_LIB_VERSION,
            });
        }
        let checksum = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
        let payload = &bytes[20..];
        if fnv1a64(payload) != checksum {
            return Err(SpaceStoreError::ChecksumMismatch);
        }
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], SpaceStoreError> {
            let end = pos
                .checked_add(n)
                .filter(|&e| e <= payload.len())
                .ok_or(SpaceStoreError::Corrupt("truncated entry"))?;
            let slice = &payload[*pos..end];
            *pos = end;
            Ok(slice)
        };
        let count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
        // Each entry needs at least its digest + length fields.
        if count > payload.len() / 20 {
            return Err(SpaceStoreError::Corrupt("entry count exceeds payload"));
        }
        let mut entries = BTreeMap::new();
        for _ in 0..count {
            let key = u128::from_le_bytes(take(&mut pos, 16)?.try_into().expect("16 bytes"));
            let len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
            let snapshot = take(&mut pos, len)?.to_vec();
            if entries.insert(key, snapshot).is_some() {
                return Err(SpaceStoreError::Corrupt("duplicate space key"));
            }
        }
        if pos != payload.len() {
            return Err(SpaceStoreError::Corrupt("trailing bytes after entries"));
        }
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
            Err(SpaceStoreError::Corrupt(_))
        ));
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            SpaceLibrary::from_bytes(&bad),
            Err(SpaceStoreError::BadMagic)
        ));
        let mut bad = good.clone();
        bad[8] = 0xEE;
        assert!(matches!(
            SpaceLibrary::from_bytes(&bad),
            Err(SpaceStoreError::VersionMismatch { .. })
        ));
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(matches!(
            SpaceLibrary::from_bytes(&bad),
            Err(SpaceStoreError::ChecksumMismatch)
        ));
        // Every truncation is caught by the header or checksum guards.
        for cut in 0..good.len() {
            assert!(SpaceLibrary::from_bytes(&good[..cut]).is_err(), "cut {cut}");
        }
    }
}
