//! The one codec every persisted format reads and writes through: verdict
//! caches (`VCAPCACH`, `viewcap_engine::persist`), candidate-space
//! snapshots (`VCAPSPCE`, [`crate::snapshot`]) and space libraries
//! (`VCAPSLIB`, `viewcap_engine::spacestore`). Every integer is
//! little-endian.
//!
//! ```text
//! frame        magic 8 bytes (Format::magic), version u32 (Format::version),
//!              checksum u64 = fnv1a64(payload), payload (the format's layout)
//! name table   u32 count, then per name: u32 byte length + UTF-8 bytes
//! rows         u32 count, then per tagged tuple: rel ref u32, arity u32,
//!              arity × (attr ref u32, ord u32)
//! ```
//!
//! [`seal`] writes a frame; [`open`] checks magic, version, then checksum.
//! Names are numbered in first-encounter order ([`Interner`]) and referenced
//! by their `u32` position in the table, so files address attributes and
//! relations by *name*, never by a catalog's ids. What a rel ref in a row
//! means is up to the format; [`put_template`] writes rows and
//! [`Reader::template`] reads them. Reading is strictly bounds-checked: a
//! short buffer, an absurd count or a reference out of range is a
//! [`CodecError`], never a panic.

use crate::template::{TaggedTuple, Template};
use std::collections::HashMap;
use std::fmt;
use viewcap_base::{fnv1a64, AttrId, RelId, Symbol};

/// Maximum expression nesting depth a reader accepts.
pub const MAX_EXPR_DEPTH: usize = 64;

/// A persisted format's frame header, and the name its errors use.
#[derive(Debug)]
pub struct Format {
    /// Leading magic bytes.
    pub magic: &'static [u8; 8],
    /// The one version this build writes and reads.
    pub version: u32,
    /// The file kind, as error messages name it.
    pub label: &'static str,
}

/// Why persisted bytes were rejected. `format` is the [`Format::label`]
/// of the file kind being read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The bytes do not start with the format's magic.
    BadMagic { format: &'static str },
    /// The file's version is not the one this build reads.
    VersionMismatch {
        format: &'static str,
        /// Version found in the file.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// The payload checksum does not match.
    ChecksumMismatch { format: &'static str },
    /// Structurally invalid data: truncation, bad tags or counts, broken
    /// invariants.
    Corrupt {
        format: &'static str,
        /// What was wrong.
        what: &'static str,
    },
    /// A valid space snapshot that describes another space (its atom
    /// signature or options disagree with the loading space).
    Mismatch(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic { format } => write!(f, "not a viewcap {format} (bad magic)"),
            CodecError::VersionMismatch {
                format,
                found,
                expected,
            } => {
                write!(
                    f,
                    "{format} version {found} is not the supported version {expected}"
                )?;
                if found < expected {
                    // No format migrates an older version in place.
                    f.write_str(" (older files cannot be migrated: delete the file and re-run)")?;
                }
                Ok(())
            }
            CodecError::ChecksumMismatch { format } => {
                write!(f, "{format} checksum mismatch (corrupted file)")
            }
            CodecError::Corrupt { format, what } => write!(f, "corrupt {format}: {what}"),
            CodecError::Mismatch(what) => {
                write!(f, "space snapshot does not match this space: {what}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

// ------------------------------------------------------------------ frame

/// Frame `payload` as a complete file of `format`.
pub fn seal(format: &Format, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 20);
    out.extend_from_slice(format.magic);
    put_u32(&mut out, format.version);
    put_u64(&mut out, fnv1a64(payload));
    out.extend_from_slice(payload);
    out
}

/// Check `bytes`' frame against `format` and return a reader over the
/// payload.
pub fn open<'a>(bytes: &'a [u8], format: &Format) -> Result<Reader<'a>, CodecError> {
    let label = format.label;
    if bytes.get(..8) != Some(format.magic) {
        return Err(CodecError::BadMagic { format: label });
    }
    let mut header = Reader::new(&bytes[8..], label);
    let (found, checksum) = (header.u32()?, header.u64()?);
    if found != format.version {
        return Err(CodecError::VersionMismatch {
            format: label,
            found,
            expected: format.version,
        });
    }
    let payload = &bytes[20..];
    if fnv1a64(payload) != checksum {
        return Err(CodecError::ChecksumMismatch { format: label });
    }
    Ok(Reader::new(payload, label))
}

// ---------------------------------------------------------------- writing

/// Append a `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u128`.
pub fn put_u128(out: &mut Vec<u8>, v: u128) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed byte string (`u32` length, then the bytes).
pub fn put_blob(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// Append a template as tagged-tuple rows. `rel` and `attr` map ids to
/// the `u32` references the format stores; the first `None` aborts the
/// write, leaving `out` partly written.
pub fn put_template(
    out: &mut Vec<u8>,
    t: &Template,
    mut rel: impl FnMut(RelId) -> Option<u32>,
    mut attr: impl FnMut(AttrId) -> Option<u32>,
) -> Option<()> {
    put_u32(out, t.len() as u32);
    for tuple in t.tuples() {
        put_u32(out, rel(tuple.rel())?);
        put_u32(out, tuple.row().len() as u32);
        for sym in tuple.row() {
            put_u32(out, attr(sym.attr())?);
            put_u32(out, sym.ord());
        }
    }
    Some(())
}

/// A first-encounter name interner: the first name interned is reference
/// 0, the next new one 1, and so on.
#[derive(Default)]
pub struct Interner<'a> {
    names: Vec<&'a str>,
    index: HashMap<&'a str, u32>,
}

impl<'a> Interner<'a> {
    /// The reference of `name`, assigning the next one on first encounter.
    pub fn intern(&mut self, name: &'a str) -> u32 {
        let next = self.names.len() as u32;
        *self.index.entry(name).or_insert_with(|| {
            self.names.push(name);
            next
        })
    }

    /// Append the name table.
    pub fn put_table(&self, out: &mut Vec<u8>) {
        put_u32(out, self.names.len() as u32);
        for name in &self.names {
            put_blob(out, name.as_bytes());
        }
    }
}

// ---------------------------------------------------------------- reading

/// A bounds-checked cursor over a payload.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    format: &'static str,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes` whose errors name `format`.
    fn new(bytes: &'a [u8], format: &'static str) -> Reader<'a> {
        Reader {
            bytes,
            pos: 0,
            format,
        }
    }

    /// A [`CodecError::Corrupt`] for this reader's format.
    pub fn corrupt(&self, what: &'static str) -> CodecError {
        CodecError::Corrupt {
            format: self.format,
            what,
        }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` bytes.
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(self.corrupt("unexpected end of payload"));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// The next `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// The next `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// The next `u128`.
    pub fn u128(&mut self) -> Result<u128, CodecError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// A `u32` count of elements that each occupy at least `min_bytes`:
    /// a count the rest of the payload cannot hold is rejected before
    /// anything is allocated for it.
    pub fn count(&mut self, min_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_bytes) > self.remaining() {
            return Err(self.corrupt("length prefix exceeds payload"));
        }
        Ok(n)
    }

    /// A byte string written by [`put_blob`].
    pub fn blob(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.count(1)?;
        self.take(len)
    }

    /// A name table written by [`Interner::put_table`].
    pub fn table(&mut self) -> Result<Vec<String>, CodecError> {
        let n = self.count(4)?;
        (0..n)
            .map(|_| {
                let name = self.blob()?.to_vec();
                String::from_utf8(name).map_err(|_| self.corrupt("name is not UTF-8"))
            })
            .collect()
    }

    /// A `u32` reference resolved by `resolve`; `None` is corruption.
    pub fn lookup<T>(&mut self, resolve: impl FnOnce(u32) -> Option<T>) -> Result<T, CodecError> {
        let i = self.u32()?;
        resolve(i).ok_or_else(|| self.corrupt("reference out of range"))
    }

    /// A template written by [`put_template`]. `rel` and `attr` resolve
    /// references; `tuple` builds each tagged tuple from its relation and
    /// row (`None` rejects it).
    pub fn template(
        &mut self,
        rel: impl Fn(u32) -> Option<RelId>,
        attr: impl Fn(u32) -> Option<AttrId>,
        tuple: impl Fn(RelId, Vec<Symbol>) -> Option<TaggedTuple>,
    ) -> Result<Template, CodecError> {
        let n = self.count(8)?;
        let mut tuples = Vec::with_capacity(n);
        for _ in 0..n {
            let r = self.lookup(&rel)?;
            let width = self.count(8)?;
            let mut row = Vec::with_capacity(width);
            for _ in 0..width {
                let a = self.lookup(&attr)?;
                row.push(Symbol::new(a, self.u32()?));
            }
            tuples.push(tuple(r, row).ok_or_else(|| self.corrupt("invalid tagged tuple"))?);
        }
        Template::new(tuples).map_err(|_| self.corrupt("invalid template"))
    }

    /// Reject trailing bytes after the last structure.
    pub fn finish(&self) -> Result<(), CodecError> {
        let done = self.remaining() == 0;
        done.then_some(())
            .ok_or_else(|| self.corrupt("trailing bytes after the payload"))
    }
}
