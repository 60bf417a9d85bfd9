//! Write-ahead ledger framing and replay.
//!
//! Every record is one frame: `[len: u32 LE][crc: u32 LE][payload]`, where
//! `crc` is the CRC-32 of the payload. Replay walks frames in order, once,
//! checking each CRC once, and stops at the first frame that is torn
//! (fewer bytes than the header promises), oversized, checksum-failing, or
//! undecodable — everything before that point is the durable prefix;
//! everything after is discarded by truncating the file at the prefix's
//! end, exactly as an interrupted `write(2)` demands.

use crate::crc::crc32;
use crate::record::{Decoder, RecordRef, WalRecord};
use crate::vfs::{persist_error, Vfs, VfsFile};
use osdp_core::error::{FaultClass, PersistError, PersistOp};
use std::io::SeekFrom;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Frame header size: payload length + checksum.
pub(crate) const FRAME_HEADER: usize = 8;

/// Upper bound on a frame payload. Real records are a few hundred bytes; a
/// length field above this is bit rot, not a record, and replay treats it
/// as a torn tail rather than attempting a multi-gigabyte read.
pub(crate) const MAX_PAYLOAD: usize = 1 << 20;

/// When the ledger flushes **and fsyncs** buffered frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Every append is flushed and fsync'd before the call returns: a
    /// granted release is durable before its sample exists, and zero
    /// grants are lost on crash. Concurrent appenders share fsyncs: frames
    /// that queue while one append's fsync is in flight are written and
    /// fsync'd together by the next one (see [`crate::ledger`]), so `k`
    /// concurrent grantors pay about one fsync per batch instead of one
    /// each. Single-threaded it is one write and one fsync per append.
    Always,
    /// Flush + fsync once every `n` appends (and on drop, snapshot or an
    /// explicit sync). `EveryN(u32::MAX)` is the fully buffered setting:
    /// in practice it flushes only on those events. A crash loses at most
    /// the last `n − 1` grants — the recovered spent total is then *under*
    /// the true total. This is the unsafe direction for a privacy ledger:
    /// those grants' samples may already have been released, so after
    /// recovery the tenant can spend the lost budget again and release more
    /// than its cap in total. Open item 1 in `ROADMAP.md` tracks the fix
    /// (budget leases).
    EveryN(u32),
}

impl SyncPolicy {
    /// The serving plane's policy: [`SyncPolicy::Always`], which batches
    /// concurrent appenders into one write and one fsync.
    pub fn group_commit() -> Self {
        SyncPolicy::Always
    }
}

/// Bounded exponential backoff for **transient** write faults (interrupted
/// syscalls, would-block, timeouts). Permanent faults — `ENOSPC`, a failed
/// fsync, a bad descriptor — are never retried on the same handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total write attempts, including the first (≥ 1; 1 disables retry).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base_delay: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(25),
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `attempt` (1-based): exponential,
    /// capped at [`RetryPolicy::max_delay`].
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(16);
        self.base_delay.saturating_mul(factor).min(self.max_delay)
    }
}

/// Encodes `record` as one checksummed frame appended to `out`, reusing
/// `scratch` for the payload encoding — no allocations once both buffers
/// have grown to frame size.
pub(crate) fn encode_frame_into(out: &mut Vec<u8>, scratch: &mut Vec<u8>, record: RecordRef<'_>) {
    scratch.clear();
    record.encode_into(scratch);
    out.extend_from_slice(&(scratch.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(scratch).to_le_bytes());
    out.extend_from_slice(scratch);
}

/// The frame writer behind a ledger: owns the WAL file handle and the
/// pending (encoded-but-unwritten) frame bytes, a buffer reused across
/// flushes. The ledger encodes frames elsewhere and moves them here just
/// before a flush.
///
/// ## Fault handling
///
/// The writer tracks `written_len`, the byte boundary up to which the file
/// is known to hold complete frames. Any failed write may have landed a
/// torn prefix past that boundary; before every retry (and before giving
/// up) the writer **truncates back to the boundary**, so a retry never
/// duplicates bytes mid-file — the corruption that would make replay drop
/// every later acknowledged frame. Transient faults are retried with the
/// bounded backoff of [`RetryPolicy`]; permanent faults fail immediately.
///
/// A failed **fsync** (or a failed boundary restore) poisons the handle:
/// the page-cache state is unknown, so every later operation is refused
/// with the original error until the ledger is reopened — never re-fsync a
/// handle whose fsync already failed. A failed repair of a torn tail or
/// replacement of the whole file poisons it too.
#[derive(Debug)]
pub struct WalWriter {
    file: Box<dyn VfsFile>,
    path: PathBuf,
    /// Encoded frames accepted but not yet handed to the OS — the bytes a
    /// simulated crash loses.
    pending: Vec<u8>,
    /// Bytes known fully written: the truncate-and-retry boundary.
    written_len: u64,
    retry: RetryPolicy,
    /// Set by a failed fsync, boundary restore, repair or replacement;
    /// every later operation returns a clone of it.
    poisoned: Option<PersistError>,
}

impl WalWriter {
    /// A writer over an opened WAL file positioned at its end, whose first
    /// `written_len` bytes are known-good frames.
    pub(crate) fn new(
        file: Box<dyn VfsFile>,
        path: PathBuf,
        written_len: u64,
        retry: RetryPolicy,
    ) -> Self {
        Self { file, path, pending: Vec::new(), written_len, retry, poisoned: None }
    }

    /// The underlying file (crash simulation's torn-tail write).
    pub(crate) fn file_mut(&mut self) -> &mut dyn VfsFile {
        self.file.as_mut()
    }

    /// The pending (unflushed) frame bytes.
    pub(crate) fn pending(&self) -> &[u8] {
        &self.pending
    }

    /// Mutable access to the pending buffer: the ledger moves queued
    /// frames in before a flush, and a simulated crash clears it.
    pub(crate) fn pending_mut(&mut self) -> &mut Vec<u8> {
        &mut self.pending
    }

    /// Fails with the poison error if the handle is poisoned.
    pub(crate) fn ensure_usable(&self) -> Result<(), PersistError> {
        match &self.poisoned {
            Some(err) => Err(err.clone()),
            None => Ok(()),
        }
    }

    /// Truncates the file back to the known-good boundary after a failed
    /// write, discarding any torn prefix the attempt landed. A failed
    /// restore poisons the handle — the file may now hold garbage past the
    /// boundary, and appending after it would put frames beyond replay's
    /// reach.
    fn restore_boundary(&mut self) -> Result<(), PersistError> {
        let outcome = self
            .file
            .set_len(self.written_len)
            .and_then(|()| self.file.seek(SeekFrom::End(0)).map(|_| ()));
        if let Err(e) = outcome {
            let mut err = persist_error(PersistOp::Write, &self.path, &e);
            err.detail = format!(
                "restoring the write boundary after a torn write failed (handle poisoned; \
                 reopen the ledger): {}",
                err.detail
            );
            return Err(self.poison(err));
        }
        Ok(())
    }

    /// `fdatasync`, poisoning the handle on failure: after a failed fsync
    /// the page-cache state is unknown, and fsyncing the same descriptor
    /// again proves nothing — the only safe move is reopen + recover.
    pub(crate) fn sync(&mut self) -> Result<(), PersistError> {
        self.ensure_usable()?;
        match self.file.sync_data() {
            Ok(()) => Ok(()),
            Err(e) => {
                let mut err = persist_error(PersistOp::Fsync, &self.path, &e);
                err.detail = format!(
                    "{} (fsync failed: page-cache state unknown, handle poisoned; reopen the \
                     ledger before any further attempt)",
                    err.detail
                );
                Err(self.poison(err))
            }
        }
    }

    /// Writes the whole pending buffer, retrying transient faults with
    /// truncate-back-to-boundary between attempts. On success the pending
    /// buffer is cleared and the boundary advances; on failure the pending
    /// frames stay buffered (a later flush retries them whole) and the
    /// file holds no torn bytes.
    fn write_pending_with_retry(&mut self) -> Result<(), PersistError> {
        let mut attempt = 1u32;
        loop {
            match self.file.write_all(&self.pending) {
                Ok(()) => {
                    self.written_len += self.pending.len() as u64;
                    self.pending.clear();
                    return Ok(());
                }
                Err(e) => {
                    let err = persist_error(PersistOp::Write, &self.path, &e);
                    self.restore_boundary()?;
                    if err.class != FaultClass::Transient || attempt >= self.retry.max_attempts {
                        return Err(err);
                    }
                    std::thread::sleep(self.retry.backoff(attempt));
                    attempt += 1;
                }
            }
        }
    }

    /// Writes + fsyncs the pending buffer (no-op when empty).
    pub(crate) fn flush_and_sync(&mut self) -> Result<(), PersistError> {
        self.ensure_usable()?;
        if self.pending.is_empty() {
            return Ok(());
        }
        self.write_pending_with_retry()?;
        self.sync()
    }

    /// Cuts the file back to `len` bytes and fsyncs: how recovery repairs
    /// a torn or corrupt tail, with `len` the end of the valid frame prefix
    /// replay found. The prefix itself is never rewritten, so a failure
    /// here cannot cost a durable frame. Any failure poisons the handle.
    pub(crate) fn truncate_to(&mut self, len: u64) -> Result<(), PersistError> {
        self.ensure_usable()?;
        if let Err(e) =
            self.file.set_len(len).and_then(|()| self.file.seek(SeekFrom::End(0)).map(|_| ()))
        {
            return Err(self.poison(persist_error(PersistOp::Write, &self.path, &e)));
        }
        self.written_len = len;
        self.sync()
    }

    /// Replaces the file contents with `image` in place and fsyncs,
    /// resetting the boundary to the image length. Only for a WAL shorter
    /// than its header: it holds no frame, so a rewrite torn half-way loses
    /// nothing. Any failure poisons the handle.
    pub(crate) fn rewrite_in_place(&mut self, image: &[u8]) -> Result<(), PersistError> {
        self.ensure_usable()?;
        self.written_len = 0;
        if let Err(e) =
            self.file.set_len(0).and_then(|()| self.file.seek(SeekFrom::Start(0)).map(|_| ()))
        {
            return Err(self.poison(persist_error(PersistOp::Write, &self.path, &e)));
        }
        let mut attempt = 1u32;
        loop {
            match self.file.write_all(image) {
                Ok(()) => {
                    self.written_len = image.len() as u64;
                    break;
                }
                Err(e) => {
                    let err = persist_error(PersistOp::Write, &self.path, &e);
                    self.restore_boundary()?;
                    if err.class != FaultClass::Transient || attempt >= self.retry.max_attempts {
                        return Err(self.poison(err));
                    }
                    std::thread::sleep(self.retry.backoff(attempt));
                    attempt += 1;
                }
            }
        }
        self.sync()
    }

    /// Replaces the WAL with `image` (a fresh header, marker and epoch
    /// transitions) without ever exposing a partial file: the image is
    /// written to `wal.log.tmp` and fsynced, renamed over the WAL, the
    /// directory is fsynced, and the writer continues on the new file. A
    /// failure before the rename leaves the old WAL whole; the rename
    /// itself is atomic.
    ///
    /// Any failure poisons the handle. The caller has already moved the
    /// snapshot past the old WAL's generation, and recovery ignores the
    /// grants of a WAL whose generation is behind the snapshot's: an
    /// append acknowledged into the old file would be lost. The epoch
    /// transitions, which snapshots do not carry, survive in whichever
    /// file is in place.
    pub(crate) fn replace(&mut self, vfs: &dyn Vfs, image: &[u8]) -> Result<(), PersistError> {
        self.ensure_usable()?;
        match self.replace_file(vfs, image) {
            Ok(file) => {
                self.file = file;
                self.written_len = image.len() as u64;
                Ok(())
            }
            Err(err) => Err(self.poison(err)),
        }
    }

    /// The steps of [`WalWriter::replace`]; returns the new file, positioned
    /// at its end.
    fn replace_file(&self, vfs: &dyn Vfs, image: &[u8]) -> Result<Box<dyn VfsFile>, PersistError> {
        let mut tmp = self.path.clone().into_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let mut attempt = 1u32;
        loop {
            match write_synced(vfs, &tmp, image) {
                Ok(()) => break,
                Err(err)
                    if err.class == FaultClass::Transient && attempt < self.retry.max_attempts =>
                {
                    std::thread::sleep(self.retry.backoff(attempt));
                    attempt += 1;
                }
                Err(err) => return Err(err),
            }
        }
        vfs.rename(&tmp, &self.path).map_err(|e| persist_error(PersistOp::Rename, &tmp, &e))?;
        let dir = self.path.parent().unwrap_or(Path::new("."));
        vfs.sync_dir(dir).map_err(|e| persist_error(PersistOp::Fsync, dir, &e))?;
        let mut file =
            vfs.open_rw(&self.path).map_err(|e| persist_error(PersistOp::Open, &self.path, &e))?;
        file.seek(SeekFrom::End(0)).map_err(|e| persist_error(PersistOp::Open, &self.path, &e))?;
        Ok(file)
    }

    /// Poisons the handle with `err`, made permanent (nothing on this
    /// handle can succeed again), and returns it.
    fn poison(&mut self, mut err: PersistError) -> PersistError {
        err.class = FaultClass::Permanent;
        self.poisoned = Some(err.clone());
        err
    }
}

/// Creates (truncating) `path`, writes `bytes` and fsyncs it.
fn write_synced(vfs: &dyn Vfs, path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    let mut file =
        vfs.create_truncate(path).map_err(|e| persist_error(PersistOp::Open, path, &e))?;
    file.write_all(bytes).map_err(|e| persist_error(PersistOp::Write, path, &e))?;
    file.sync_data().map_err(|e| persist_error(PersistOp::Fsync, path, &e))
}

/// Appends `record` to `buf` as one checksummed frame.
pub fn append_record(buf: &mut Vec<u8>, record: &WalRecord) {
    let mut payload = Vec::with_capacity(128);
    record.encode_into(&mut payload);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(&payload).to_le_bytes());
    buf.extend_from_slice(&payload);
}

/// Why a frame failed checksum verification (see
/// [`WalReader::verify_frames`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameDefect {
    /// The stored CRC-32 disagrees with the payload — silent bit rot.
    CrcMismatch {
        /// The checksum the frame header claims.
        stored: u32,
        /// The checksum the payload actually hashes to.
        actual: u32,
    },
    /// A fully-present header carries a length above the frame cap: the
    /// length field itself rotted (a torn append leaves a *valid* header
    /// with a short payload, never an absurd length).
    OversizedLength {
        /// The claimed payload length.
        len: u64,
    },
}

impl std::fmt::Display for FrameDefect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameDefect::CrcMismatch { stored, actual } => {
                write!(f, "crc mismatch (stored {stored:#010x}, actual {actual:#010x})")
            }
            FrameDefect::OversizedLength { len } => {
                write!(f, "oversized length field ({len} bytes)")
            }
        }
    }
}

/// A checksum failure found mid-stream by [`WalReader::verify_frames`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameCorruption {
    /// Byte offset of the corrupt frame's header, relative to the start of
    /// the verified byte stream (the WAL body, after any file header).
    pub offset: u64,
    /// What failed.
    pub defect: FrameDefect,
}

/// The result of a verify-only pass over a frame stream
/// ([`WalReader::verify_frames`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameVerification {
    /// Frames whose CRC checked out.
    pub frames: u64,
    /// Byte length of the verified prefix.
    pub valid_len: usize,
    /// A **complete** frame whose checksum or length field is wrong —
    /// silent corruption of durable data. `None` when every byte up to (at
    /// most) a torn tail verifies.
    pub corruption: Option<FrameCorruption>,
    /// Bytes after the verified prefix that do not amount to a complete
    /// frame — the benign torn tail an interrupted append (or a read racing
    /// a live writer) leaves behind. Zero when `corruption` is set (the
    /// remainder is attributed to the corrupt frame instead).
    pub torn_tail_bytes: u64,
}

impl FrameVerification {
    /// Whether the stream holds no evidence of bit rot (a torn tail is
    /// *not* corruption — it is where durability ended).
    pub fn is_clean(&self) -> bool {
        self.corruption.is_none()
    }
}

/// The verify-only reader over WAL frame streams: checks framing and
/// CRC-32s **without decoding payloads** (and therefore without allocating
/// records). This is the fast path shared by the cold-segment scrubber
/// ([`crate::scrub`]) and recovery's preflight — both need "are the durable
/// bytes still the bytes we wrote?", not the records themselves.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalReader;

impl WalReader {
    /// Verifies the longest checksummed frame prefix of `bytes` (the WAL
    /// body, after any file header). Distinguishes the two ways a stream
    /// can end early:
    ///
    /// * a **torn tail** — fewer bytes than one more frame needs — is the
    ///   expected residue of an interrupted append (or of reading behind a
    ///   live writer) and leaves the stream *clean*;
    /// * a **complete frame that fails its CRC** (or a full header whose
    ///   length field is absurd) is silent corruption of bytes that were
    ///   once durable, reported as [`FrameCorruption`].
    ///
    /// Never reads past `valid_len + one frame`, never decodes a payload,
    /// never fails: corruption is *data* for the health plane, not an
    /// error.
    pub fn verify_frames(bytes: &[u8]) -> FrameVerification {
        let mut frames = 0u64;
        let mut at = 0usize;
        while bytes.len() - at >= FRAME_HEADER {
            let len =
                u32::from_le_bytes(bytes[at..at + 4].try_into().expect("len checked")) as usize;
            let stored = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("len checked"));
            if len > MAX_PAYLOAD {
                return FrameVerification {
                    frames,
                    valid_len: at,
                    corruption: Some(FrameCorruption {
                        offset: at as u64,
                        defect: FrameDefect::OversizedLength { len: len as u64 },
                    }),
                    torn_tail_bytes: 0,
                };
            }
            if bytes.len() - at - FRAME_HEADER < len {
                break; // torn tail: the frame never finished landing
            }
            let actual = crc32(&bytes[at + FRAME_HEADER..at + FRAME_HEADER + len]);
            if actual != stored {
                return FrameVerification {
                    frames,
                    valid_len: at,
                    corruption: Some(FrameCorruption {
                        offset: at as u64,
                        defect: FrameDefect::CrcMismatch { stored, actual },
                    }),
                    torn_tail_bytes: 0,
                };
            }
            frames += 1;
            at += FRAME_HEADER + len;
        }
        FrameVerification {
            frames,
            valid_len: at,
            corruption: None,
            torn_tail_bytes: (bytes.len() - at) as u64,
        }
    }
}

/// The result of [`replay`]: the records of a frame stream's longest valid
/// prefix, collected.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Every record of the longest valid frame prefix, in log order. Grant
    /// and refusal labels that repeat the previous frame's are shared
    /// `Arc<str>`s, not copies.
    pub records: Vec<WalRecord>,
    /// Byte length of that valid prefix.
    pub valid_len: usize,
    /// Whether bytes were discarded after the valid prefix (a torn or
    /// corrupt tail — expected after a crash, impossible after a clean
    /// shutdown).
    pub truncated: bool,
}

/// Decodes the longest valid frame prefix of `bytes` (the WAL body, after
/// any file header) into a vector. Never fails: a torn or corrupt tail is
/// *data*, not an error — it marks where durability ended. Recovery does
/// not collect: it streams the same records into its own vectors.
pub fn replay(bytes: &[u8]) -> ReplayOutcome {
    let mut records = Vec::new();
    let Ok((valid_len, _)) = replay_each(bytes, |record| {
        records.push(record);
        Ok::<(), std::convert::Infallible>(())
    });
    ReplayOutcome { records, valid_len, truncated: valid_len != bytes.len() }
}

/// The one replay pass: walks the frames of `bytes` in order, checks each
/// frame's CRC once, decodes it (sharing repeated labels between frames)
/// and hands the record to `visit`. Stops at the first frame that is torn,
/// oversized, checksum-failing or undecodable, and returns the byte length
/// of the valid prefix before it and the number of frames in that prefix.
/// An error from `visit` stops the walk and is returned as is.
pub(crate) fn replay_each<E>(
    bytes: &[u8],
    mut visit: impl FnMut(WalRecord) -> Result<(), E>,
) -> Result<(usize, u64), E> {
    let mut decoder = Decoder::default();
    let (mut at, mut frames) = (0usize, 0u64);
    while bytes.len() - at >= FRAME_HEADER {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("len checked")) as usize;
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("len checked"));
        if len > MAX_PAYLOAD || bytes.len() - at - FRAME_HEADER < len {
            break;
        }
        let payload = &bytes[at + FRAME_HEADER..at + FRAME_HEADER + len];
        if crc32(payload) != crc {
            break;
        }
        let Ok(record) = decoder.decode(payload) else {
            break;
        };
        visit(record)?;
        frames += 1;
        at += FRAME_HEADER + len;
    }
    Ok((at, frames))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{GrantRecord, GuaranteeTag, RefusalRecord};

    fn grant(index: u64, units: u64) -> WalRecord {
        WalRecord::Grant(GrantRecord {
            index,
            units,
            epsilon: units as f64 * 1e-12,
            trials: 1,
            bins: 8,
            guarantee: GuaranteeTag::Osdp,
            mechanism: "M".into(),
            policy: "P".into(),
            query: "q".into(),
            policy_version: 0,
        })
    }

    fn stream(n: u64) -> (Vec<u8>, Vec<WalRecord>) {
        let mut buf = Vec::new();
        let mut records = Vec::new();
        for i in 0..n {
            let r = if i % 4 == 3 {
                WalRecord::Refusal(RefusalRecord {
                    units: 5,
                    epsilon: 5e-12,
                    mechanism: "M".into(),
                })
            } else {
                grant(i, 100 + i)
            };
            append_record(&mut buf, &r);
            records.push(r);
        }
        (buf, records)
    }

    #[test]
    fn clean_streams_replay_exactly() {
        let (buf, records) = stream(12);
        let outcome = replay(&buf);
        assert_eq!(outcome.records, records);
        assert_eq!(outcome.valid_len, buf.len());
        assert!(!outcome.truncated);
        let empty = replay(&[]);
        assert!(empty.records.is_empty() && !empty.truncated);
    }

    #[test]
    fn every_truncation_point_yields_a_record_prefix() {
        let (buf, records) = stream(8);
        for cut in 0..=buf.len() {
            let outcome = replay(&buf[..cut]);
            assert!(outcome.valid_len <= cut);
            assert_eq!(
                outcome.records[..],
                records[..outcome.records.len()],
                "cut at {cut} must yield a prefix"
            );
            assert_eq!(outcome.truncated, outcome.valid_len != cut);
        }
    }

    #[test]
    fn corruption_stops_replay_at_the_bad_frame() {
        // Six identical-length frames, so frame boundaries are arithmetic.
        let records: Vec<WalRecord> = (0..6).map(|i| grant(i, 100)).collect();
        let mut buf = Vec::new();
        for r in &records {
            append_record(&mut buf, r);
        }
        // Flip a byte in the 4th frame's payload region.
        let frame = buf.len() / 6;
        buf[3 * frame + FRAME_HEADER + 2] ^= 0x01;
        let outcome = replay(&buf);
        assert_eq!(outcome.records, records[..3].to_vec());
        assert!(outcome.truncated);
        // An absurd length field is a torn tail, not an allocation request.
        let mut bomb = Vec::new();
        append_record(&mut bomb, &grant(0, 1));
        let keep = bomb.len();
        bomb.extend_from_slice(&u32::MAX.to_le_bytes());
        bomb.extend_from_slice(&[0u8; 12]);
        let outcome = replay(&bomb);
        assert_eq!(outcome.records.len(), 1);
        assert_eq!(outcome.valid_len, keep);
    }

    #[test]
    fn verify_frames_matches_replay_on_clean_and_torn_streams() {
        let (buf, records) = stream(12);
        let v = WalReader::verify_frames(&buf);
        assert!(v.is_clean());
        assert_eq!(v.frames, records.len() as u64);
        assert_eq!(v.valid_len, buf.len());
        assert_eq!(v.torn_tail_bytes, 0);
        // Every truncation point is a benign torn tail, never corruption,
        // and the verified prefix agrees with replay's byte-for-byte.
        for cut in 0..=buf.len() {
            let v = WalReader::verify_frames(&buf[..cut]);
            let r = replay(&buf[..cut]);
            assert!(v.is_clean(), "cut at {cut} is a torn tail, not corruption");
            assert_eq!(v.valid_len, r.valid_len, "cut at {cut}");
            assert_eq!(v.frames, r.records.len() as u64, "cut at {cut}");
            assert_eq!(v.torn_tail_bytes as usize, cut - v.valid_len, "cut at {cut}");
        }
    }

    #[test]
    fn verify_frames_pins_seeded_bit_flips_to_their_frame() {
        // Regression for silent bit rot: flip bit positions chosen by a
        // seeded walk and assert verification never admits the rotted frame
        // — it either flags corruption pinned to the right frame offset, or
        // (only when the flip inflates a *length field* past the remaining
        // bytes) sees the same torn tail an interrupted append would leave.
        // Either way the verified prefix agrees with replay's.
        let records: Vec<WalRecord> = (0..6).map(|i| grant(i, 100)).collect();
        let mut clean = Vec::new();
        for r in &records {
            append_record(&mut clean, r);
        }
        let frame = clean.len() / 6;
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..256 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let byte = (seed >> 33) as usize % clean.len();
            let bit = (seed >> 29) as u32 & 7;
            let mut rotted = clean.clone();
            rotted[byte] ^= 1 << bit;
            let v = WalReader::verify_frames(&rotted);
            let hit_frame = byte / frame;
            let in_len_field = byte % frame < 4;
            assert!(
                v.frames as usize <= hit_frame,
                "flip at byte {byte} bit {bit}: the rotted frame must not verify"
            );
            match v.corruption {
                Some(corruption) => {
                    assert_eq!(
                        corruption.offset,
                        (hit_frame * frame) as u64,
                        "flip at byte {byte} pins to frame {hit_frame}"
                    );
                    assert_eq!(v.valid_len, hit_frame * frame);
                    assert_eq!(v.torn_tail_bytes, 0);
                }
                None => {
                    // Only an inflated length field can masquerade as a torn
                    // tail; payload and CRC flips must always be caught.
                    assert!(in_len_field, "flip at byte {byte} bit {bit} escaped detection");
                    assert_eq!(v.valid_len, hit_frame * frame);
                }
            }
            assert_eq!(
                replay(&rotted).valid_len,
                v.valid_len,
                "replay and verify agree on the durable prefix"
            );
        }
    }

    #[test]
    fn verify_frames_reports_an_oversized_length_as_corruption() {
        let mut buf = Vec::new();
        append_record(&mut buf, &grant(0, 1));
        let keep = buf.len();
        // A full header claiming a multi-gigabyte payload is rot in the
        // length field, not a torn append.
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 12]);
        let v = WalReader::verify_frames(&buf);
        assert_eq!(v.frames, 1);
        assert_eq!(v.valid_len, keep);
        let corruption = v.corruption.expect("oversized length is corruption");
        assert_eq!(corruption.offset, keep as u64);
        assert!(matches!(
            corruption.defect,
            FrameDefect::OversizedLength { len } if len == u32::MAX as u64
        ));
    }
}
