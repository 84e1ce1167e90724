//! # viewcap-pile
//!
//! A crash-safe, append-only record pile — the shared on-disk verdict log
//! a fleet of workers appends to concurrently (in the style of the
//! `tribles-rust` pile store). The format is deliberately dumb: a pile is
//! nothing but a sequence of independently verifiable records, so the only
//! write operation is an atomic append and the only failure mode is a
//! truncated or damaged *suffix*.
//!
//! ## Record layout
//!
//! Every record is 8-byte aligned:
//!
//! ```text
//! offset  size  field
//!      0    16  marker   RECORD_MARKER (b"VCAPPILE-RECORD\n")
//!     16    16  hash     u128 LE — hash_bytes(kind ‖ length_le ‖ payload)
//!     32     4  length   u32 LE — payload byte count
//!     36     1  kind     record kind (opaque to this crate)
//!     37     3  pad      zero
//!     40     n  payload
//!      —   0-7  zpad     zero padding to the next 8-byte boundary
//! ```
//!
//! The hash reuses the engine's fingerprint folding ([`hash`]), so a
//! record hash and a verdict fingerprint are the same 128-bit
//! construction. A record is *valid* when its marker, pad, hash, and zero
//! padding all check out; anything else is damage.
//!
//! ## Crash safety
//!
//! * **Atomic append** ([`Pile::append`]): the full record (header +
//!   payload + padding) is assembled in memory and written with a single
//!   `write` on an `O_APPEND` descriptor, then flushed. Concurrent
//!   appenders — threads or whole processes sharing the file — therefore
//!   never interleave record bytes.
//! * **Lazy validation on read** ([`Pile::records`],
//!   [`PileReader::poll`]): opening a pile checks framing only; each
//!   record's hash is verified as that record is materialized, so opening
//!   a multi-gigabyte pile costs a scan, not a full rehash.
//! * **Recovery** ([`Pile::recover`]): a crash mid-append leaves a
//!   damaged suffix and nothing else. Recovery walks the file front to
//!   back with *full* validation, truncates to the last valid prefix,
//!   and reports what was dropped. Every record before the damage
//!   survives byte-identically.
//!
//! Readers polling a live pile ([`PileReader`]) surface a record only
//! once it is complete and its hash verifies — a torn (in-flight or
//! crashed) tail is silently retried on the next poll, so a reader can
//! never observe a partially written record.

pub mod hash;

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// Leading marker of every record.
pub const RECORD_MARKER: [u8; 16] = *b"VCAPPILE-RECORD\n";
/// Fixed header size (marker + hash + length + kind + pad).
pub const HEADER_LEN: usize = 40;

/// Round `n` up to the next multiple of 8.
fn align8(n: usize) -> usize {
    (n + 7) & !7
}

/// Why a pile operation failed.
#[derive(Debug)]
pub enum PileError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The pile's content is invalid from `offset` on. `recover` the file
    /// to truncate back to the preceding valid prefix.
    Corrupt {
        /// Byte offset of the first invalid record.
        offset: u64,
        /// What check failed there.
        what: String,
    },
    /// A payload exceeded the format's `u32` length field.
    TooLarge(usize),
}

impl fmt::Display for PileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PileError::Io(e) => write!(f, "pile I/O error: {e}"),
            PileError::Corrupt { offset, what } => {
                write!(
                    f,
                    "corrupt pile at byte {offset}: {what} (run recovery to truncate)"
                )
            }
            PileError::TooLarge(n) => write!(f, "record payload of {n} bytes exceeds the format"),
        }
    }
}

impl std::error::Error for PileError {}

impl From<std::io::Error> for PileError {
    fn from(e: std::io::Error) -> Self {
        PileError::Io(e)
    }
}

/// One validated record, materialized out of the pile.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// Byte offset of the record's marker in the file.
    pub offset: u64,
    /// Caller-defined record kind.
    pub kind: u8,
    /// The payload, hash-verified.
    pub payload: Vec<u8>,
}

/// What [`Pile::recover`] found and did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Valid records in the kept prefix.
    pub records_kept: usize,
    /// Bytes kept (the new file length).
    pub bytes_kept: u64,
    /// Bytes truncated away.
    pub bytes_dropped: u64,
    /// Description of the damage, when anything was dropped.
    pub damage: Option<String>,
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} record(s) kept ({} byte(s)), {} byte(s) dropped",
            self.records_kept, self.bytes_kept, self.bytes_dropped
        )?;
        if let Some(damage) = &self.damage {
            write!(f, " — {damage}")?;
        }
        Ok(())
    }
}

/// Check the frame starting at `pos`: marker, header pad and extent, and,
/// when `verify`, its zero alignment padding and hash. `Ok` is the kind,
/// the payload and the frame's aligned length; `Err` says what failed.
fn frame(bytes: &[u8], pos: usize, verify: bool) -> Result<(u8, &[u8], usize), String> {
    let remaining = bytes.len() - pos;
    if remaining < HEADER_LEN {
        return Err(format!(
            "{remaining} trailing byte(s) where a {HEADER_LEN}-byte record header was expected"
        ));
    }
    let header = &bytes[pos..pos + HEADER_LEN];
    if header[..16] != RECORD_MARKER {
        return Err("bad record marker".to_owned());
    }
    let hash = u128::from_le_bytes(header[16..32].try_into().unwrap());
    let payload_len = u32::from_le_bytes(header[32..36].try_into().unwrap()) as usize;
    let kind = header[36];
    if header[37..40] != [0, 0, 0] {
        return Err("nonzero header padding".to_owned());
    }
    let total = HEADER_LEN + align8(payload_len);
    if total > remaining {
        return Err(format!(
            "record of {total} byte(s) extends past end of file"
        ));
    }
    let payload = &bytes[pos + HEADER_LEN..pos + HEADER_LEN + payload_len];
    if verify {
        if bytes[pos + HEADER_LEN + payload_len..pos + total]
            .iter()
            .any(|&b| b != 0)
        {
            return Err("nonzero alignment padding".to_owned());
        }
        if record_hash(kind, payload) != hash {
            return Err("record hash mismatch".to_owned());
        }
    }
    Ok((kind, payload, total))
}

/// A valid frame found by [`walk`]: its offset, kind and payload.
type Frame<'a> = (usize, u8, &'a [u8]);

/// Walk `bytes` front to back, checking each frame (hashes too when
/// `verify`), up to the first invalid one. Returns the valid frames, the
/// offset where the walk stopped, and what failed there (`None` when it
/// reached the end). Payloads are borrowed, never copied.
fn walk(bytes: &[u8], verify: bool) -> (Vec<Frame<'_>>, usize, Option<String>) {
    let mut frames = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        match frame(bytes, pos, verify) {
            Ok((kind, payload, total)) => {
                frames.push((pos, kind, payload));
                pos += total;
            }
            Err(what) => return (frames, pos, Some(what)),
        }
    }
    (frames, pos, None)
}

/// Read `file` from byte `pos` to its end.
fn read_from(file: &mut File, pos: u64) -> std::io::Result<Vec<u8>> {
    let mut bytes = Vec::new();
    file.seek(SeekFrom::Start(pos))?;
    file.read_to_end(&mut bytes)?;
    Ok(bytes)
}

/// Open (creating if absent) a pile file for reading and appending, and
/// read it whole.
fn open_rw(path: &Path) -> std::io::Result<(File, Vec<u8>)> {
    let mut file = OpenOptions::new()
        .read(true)
        .create(true)
        .append(true)
        .open(path)?;
    let bytes = read_from(&mut file, 0)?;
    Ok((file, bytes))
}

/// Materialize walked frames, each at `base` plus its offset.
fn to_records(frames: Vec<Frame<'_>>, base: u64) -> Vec<Record> {
    frames
        .into_iter()
        .map(|(pos, kind, payload)| Record {
            offset: base + pos as u64,
            kind,
            payload: payload.to_vec(),
        })
        .collect()
}

/// The content hash of a record: kind byte, length field, then payload.
fn record_hash(kind: u8, payload: &[u8]) -> u128 {
    let mut hashed = Vec::with_capacity(5 + payload.len());
    hashed.push(kind);
    hashed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    hashed.extend_from_slice(payload);
    hash::hash_bytes(&hashed)
}

/// Assemble the on-disk bytes of one record.
fn encode_record(kind: u8, payload: &[u8]) -> Result<Vec<u8>, PileError> {
    if payload.len() > u32::MAX as usize {
        return Err(PileError::TooLarge(payload.len()));
    }
    let mut buf = Vec::with_capacity(HEADER_LEN + align8(payload.len()));
    buf.extend_from_slice(&RECORD_MARKER);
    buf.extend_from_slice(&record_hash(kind, payload).to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.push(kind);
    buf.extend_from_slice(&[0, 0, 0]);
    buf.extend_from_slice(payload);
    buf.resize(HEADER_LEN + align8(payload.len()), 0);
    Ok(buf)
}

/// An append-capable handle on a pile file.
///
/// Appends go through an `O_APPEND` descriptor, so handles in other
/// threads or processes appending to the same path interleave whole
/// records, never bytes. [`Pile::records`] re-reads the file, so records
/// appended by others are picked up.
pub struct Pile {
    file: File,
    path: PathBuf,
    /// `sync_data` after every append (the crash-safe default).
    sync: bool,
}

impl Pile {
    /// Open (creating if absent) a pile, scanning its framing. Hashes are
    /// *not* verified here — that happens lazily, per record, on read.
    /// A structurally invalid file is rejected with
    /// [`PileError::Corrupt`]; use [`Pile::recover`] to truncate it back
    /// to its valid prefix instead.
    pub fn open(path: impl AsRef<Path>) -> Result<Pile, PileError> {
        let path = path.as_ref().to_path_buf();
        let (file, bytes) = open_rw(&path)?;
        if let (_, end, Some(what)) = walk(&bytes, false) {
            return Err(PileError::Corrupt {
                offset: end as u64,
                what,
            });
        }
        Ok(Pile {
            file,
            path,
            sync: true,
        })
    }

    /// Open a pile, truncating any damaged suffix: the file is walked
    /// front to back with *full* validation (framing, padding, hashes)
    /// and cut at the first invalid byte. Every record before the damage
    /// survives byte-identically; the report says what was dropped.
    /// Never panics, whatever the damage.
    pub fn recover(path: impl AsRef<Path>) -> Result<(Pile, RecoveryReport), PileError> {
        let path = path.as_ref().to_path_buf();
        let (file, bytes) = open_rw(&path)?;
        let (frames, end, damage) = walk(&bytes, true);
        let bytes_dropped = (bytes.len() - end) as u64;
        if bytes_dropped > 0 {
            file.set_len(end as u64)?;
            file.sync_data()?;
        }
        let report = RecoveryReport {
            records_kept: frames.len(),
            bytes_kept: end as u64,
            bytes_dropped,
            damage: damage.map(|what| format!("record at byte {end}: {what}")),
        };
        let pile = Pile {
            file,
            path,
            sync: true,
        };
        Ok((pile, report))
    }

    /// The pile's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Disable (or re-enable) the `sync_data` after every append. With
    /// sync off a machine crash can lose the newest records; the file can
    /// still never parse as anything but a valid prefix.
    pub fn set_sync(&mut self, sync: bool) {
        self.sync = sync;
    }

    /// Append one record atomically: the full frame is written with a
    /// single `O_APPEND` write, then flushed. A crash before the flush
    /// leaves a damaged suffix that recovery truncates; a crash after it
    /// leaves a longer valid pile. Returns the record's encoded size in
    /// bytes.
    pub fn append(&mut self, kind: u8, payload: &[u8]) -> Result<usize, PileError> {
        let buf = encode_record(kind, payload)?;
        self.file.write_all(&buf)?;
        if self.sync {
            self.file.sync_data()?;
        }
        Ok(buf.len())
    }

    /// Re-read the file and materialize every record, verifying each
    /// record's hash as it is read (lazy: a pile opened and never read
    /// pays no hashing). The first invalid record — including a torn
    /// tail from a concurrent in-flight append — yields
    /// [`PileError::Corrupt`] with its offset.
    pub fn records(&mut self) -> Result<Vec<Record>, PileError> {
        let bytes = read_from(&mut self.file, 0)?;
        match walk(&bytes, true) {
            (_, end, Some(what)) => Err(PileError::Corrupt {
                offset: end as u64,
                what,
            }),
            (frames, _, None) => Ok(to_records(frames, 0)),
        }
    }
}

/// A read-only polling cursor over a (possibly live) pile.
///
/// [`PileReader::poll`] surfaces each record exactly once, and only once
/// it is complete and hash-valid — a torn tail (an in-flight concurrent
/// append, or crash damage) is never surfaced; the reader simply stops
/// there and retries from the same offset on the next poll. Polling
/// therefore never observes a torn or partially hashed record, and never
/// errors on one either: distinguishing "still being written" from
/// "damaged" is [`Pile::recover`]'s job, not a reader's.
pub struct PileReader {
    file: File,
    /// Offset of the next unread record.
    pos: u64,
}

impl PileReader {
    /// Open a polling reader at the start of the pile.
    pub fn open(path: impl AsRef<Path>) -> Result<PileReader, PileError> {
        let file = OpenOptions::new().read(true).open(path.as_ref())?;
        Ok(PileReader { file, pos: 0 })
    }

    /// The offset the next poll resumes from.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Return every record that has become complete and valid since the
    /// last poll, in file order.
    pub fn poll(&mut self) -> Result<Vec<Record>, PileError> {
        let bytes = read_from(&mut self.file, self.pos)?;
        // A torn or damaged frame ends the poll; the next one retries it.
        let (frames, end, _) = walk(&bytes, true);
        let records = to_records(frames, self.pos);
        self.pos += end as u64;
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("viewcap-pile-unit-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("test.vcappile")
    }

    #[test]
    fn round_trip_and_alignment() {
        let path = tmp("round-trip");
        let mut pile = Pile::open(&path).unwrap();
        for (kind, payload) in [(1u8, &b"hello"[..]), (2, b""), (7, &[0xFFu8; 23])] {
            let n = pile.append(kind, payload).unwrap();
            assert_eq!(n % 8, 0, "records stay 8-byte aligned");
        }
        let records = pile.records().unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].payload, b"hello");
        assert_eq!(records[1].payload, b"");
        assert_eq!((records[2].kind, records[2].payload.len()), (7, 23));
        assert_eq!(records[0].offset, 0);
        assert!(records.iter().all(|r| r.offset % 8 == 0));

        // A fresh handle sees the same records.
        let mut again = Pile::open(&path).unwrap();
        assert_eq!(again.records().unwrap(), records);
    }

    #[test]
    fn reader_polls_incrementally() {
        let path = tmp("poll");
        let mut pile = Pile::open(&path).unwrap();
        pile.append(0, b"first").unwrap();
        let mut reader = PileReader::open(&path).unwrap();
        assert_eq!(reader.poll().unwrap().len(), 1);
        assert_eq!(reader.poll().unwrap().len(), 0);
        pile.append(0, b"second").unwrap();
        pile.append(0, b"third").unwrap();
        let batch = reader.poll().unwrap();
        assert_eq!(
            batch
                .iter()
                .map(|r| r.payload.as_slice())
                .collect::<Vec<_>>(),
            [&b"second"[..], b"third"]
        );
    }

    #[test]
    fn torn_tail_is_invisible_to_readers_and_recoverable() {
        let path = tmp("torn");
        let mut pile = Pile::open(&path).unwrap();
        pile.append(0, b"kept").unwrap();
        let full = std::fs::read(&path).unwrap();
        // Simulate a crash mid-append: half a second record.
        let second = encode_record(0, b"torn-away").unwrap();
        let mut torn = full.clone();
        torn.extend_from_slice(&second[..second.len() / 2]);
        std::fs::write(&path, &torn).unwrap();

        let mut reader = PileReader::open(&path).unwrap();
        let seen = reader.poll().unwrap();
        assert_eq!(seen.len(), 1, "torn tail never surfaces");

        assert!(matches!(Pile::open(&path), Err(PileError::Corrupt { .. })));
        let (mut recovered, report) = Pile::recover(&path).unwrap();
        assert_eq!(report.records_kept, 1);
        assert_eq!(report.bytes_kept, full.len() as u64);
        assert_eq!(report.bytes_dropped, (second.len() / 2) as u64);
        assert!(report.damage.is_some());
        assert_eq!(recovered.records().unwrap()[0].payload, b"kept");
        // And the pile appends cleanly again after recovery.
        recovered.append(0, b"after").unwrap();
        assert_eq!(recovered.records().unwrap().len(), 2);
    }

    #[test]
    fn payload_corruption_is_caught_on_read() {
        let path = tmp("flip");
        let mut pile = Pile::open(&path).unwrap();
        pile.append(3, b"payload-bytes").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HEADER_LEN] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        // Framing is intact, so open (lazy) succeeds…
        let mut pile = Pile::open(&path).unwrap();
        // …but materializing the record verifies the hash.
        let err = pile.records().unwrap_err();
        assert!(matches!(err, PileError::Corrupt { offset: 0, .. }), "{err}");
    }
}
