//! Content digests for catalog relations.
//!
//! The decision procedures are purely structural: equivalence by query
//! capacity depends on the defining queries and relation *schemes*, never
//! on the order a catalog happened to intern names. A [`RelDigest`] is a
//! stable 128-bit hash of a relation's *content* — its name and the names
//! of its scheme attributes — so two catalogs declaring the same relations
//! in any order assign every relation the same digest. Downstream
//! canonicalization (the `viewcap-engine` fingerprints) keys templates by
//! these digests instead of raw [`RelId`](crate::RelId)s, which is what
//! lets one persisted verdict cache serve every catalog declaring the same
//! content.
//!
//! Digests depend only on the relation itself, so they are stable under
//! catalog *growth* as well: interning more attributes or relations later
//! never changes an existing relation's digest.
//!
//! [`fnv1a64`] is the payload checksum every persisted format in the
//! workspace stamps into its header (verdict caches, space snapshots and
//! space libraries), kept here so the formats share one definition.

use std::fmt;

/// SplitMix64 finalizer — a strong 64-bit mixer.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A 128-bit content digest of a catalog relation (name + scheme).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RelDigest(u128);

impl RelDigest {
    /// The raw 128-bit value.
    #[inline]
    pub fn as_u128(self) -> u128 {
        self.0
    }
}

impl fmt::Display for RelDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Incremental 128-bit content hasher: two independently seeded 64-bit
/// lanes folded over a word stream (the same construction the engine's
/// fingerprints use, duplicated here so `viewcap-base` stays dependency
/// free).
pub struct ContentHasher {
    lo: u64,
    hi: u64,
    len: u64,
}

impl Default for ContentHasher {
    fn default() -> Self {
        ContentHasher::new()
    }
}

impl ContentHasher {
    /// A fresh hasher.
    pub fn new() -> Self {
        ContentHasher {
            lo: 0x243F_6A88_85A3_08D3, // pi
            hi: 0xB7E1_5162_8AED_2A6A, // e
            len: 0,
        }
    }

    /// Fold one word.
    pub fn word(&mut self, w: u64) {
        self.len += 1;
        self.lo = mix(self.lo ^ w.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(self.len)));
        self.hi = mix(self.hi.rotate_left(23) ^ w ^ 0xA5A5_A5A5_A5A5_A5A5);
    }

    /// Fold a string: its length, then its bytes in 8-byte chunks. The
    /// length prefix keeps concatenations unambiguous (`"ab","c"` never
    /// collides with `"a","bc"`).
    pub fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    /// Finish into 128 bits.
    pub fn finish(mut self) -> u128 {
        let len = self.len;
        self.lo = mix(self.lo ^ len);
        self.hi = mix(self.hi ^ len.rotate_left(32));
        ((self.hi as u128) << 64) | self.lo as u128
    }
}

/// Digest of a relation described by its name and scheme attribute names.
///
/// The attribute names are hashed in *sorted (name) order*, so the digest
/// is independent of both attribute interning order and the declaration
/// order of the scheme. [`Catalog::rel_digest`](crate::Catalog::rel_digest)
/// is the usual entry point; this free function exists for persistence
/// layers that hold name tables without a catalog.
pub fn rel_content_digest<'a>(name: &str, attr_names: impl Iterator<Item = &'a str>) -> RelDigest {
    let mut names: Vec<&str> = attr_names.collect();
    names.sort_unstable();
    let mut h = ContentHasher::new();
    h.word(0x5245_4C44); // "RELD" domain tag
    h.str(name);
    h.word(names.len() as u64);
    for n in names {
        h.str(n);
    }
    RelDigest(h.finish())
}

/// 64-bit FNV-1a over `bytes`: the checksum of the persisted cache, space
/// snapshot and space library formats. Its multiplier is
/// `0x1000_0000_01B3`, not the standard FNV prime `0x100_0000_01B3`; the
/// formats were written with it, so changing it changes those formats.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_attr_name_order() {
        let d1 = rel_content_digest("R", ["A", "B", "C"].into_iter());
        let d2 = rel_content_digest("R", ["C", "A", "B"].into_iter());
        assert_eq!(d1, d2);
    }

    #[test]
    fn digest_sees_name_and_scheme_content() {
        let base = rel_content_digest("R", ["A", "B"].into_iter());
        assert_ne!(base, rel_content_digest("S", ["A", "B"].into_iter()));
        assert_ne!(base, rel_content_digest("R", ["A", "C"].into_iter()));
        assert_ne!(base, rel_content_digest("R", ["A"].into_iter()));
    }

    #[test]
    fn string_hashing_is_concatenation_unambiguous() {
        let mut h1 = ContentHasher::new();
        h1.str("ab");
        h1.str("c");
        let mut h2 = ContentHasher::new();
        h2.str("a");
        h2.str("bc");
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn fnv1a64_is_pinned() {
        // Persisted files carry these checksums; the values must not move.
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF74_D84C_8601_EC8C);
        assert_eq!(fnv1a64(b"foobar"), 0xF8AC_2471_F739_67E8);
    }
}
