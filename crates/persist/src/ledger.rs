//! [`TenantLedger`]: one tenant shard's durable budget state on disk.
//!
//! A tenant shard is a directory holding three files:
//!
//! * `wal.log` — header (`OSDPWAL1` + the generation it continues from)
//!   followed by checksummed record frames ([`crate::wal`]);
//! * `snapshot.bin` — the compact collapsed state as of the last rotation
//!   ([`crate::snapshot`]), written via temp-file + rename;
//! * `LOCK` — created with `O_CREAT|O_EXCL`; whoever creates it is the
//!   shard's **single writer**. A crashed writer leaves a stale lock behind
//!   (exactly as a real `kill -9` would); [`force_unlock`] removes it once
//!   the operator knows the process is gone.
//!
//! ## Crash consistency
//!
//! Snapshot rotation orders its writes so that every crash point recovers:
//! flush + fsync the WAL, rename the new snapshot into place, then replace
//! the WAL with `header(generation+1) + marker + transitions`, written to
//! `wal.log.tmp` and renamed over `wal.log`. A crash (or a failed write)
//! before that rename leaves the old WAL whole, its header generation
//! *older* than the snapshot's — recovery detects the pair mismatch and
//! ignores the stale grants (the snapshot already contains them) while
//! keeping the stale file's epoch transitions, which is what makes the
//! rotation atomic without double-counting or loss. A failed replacement
//! poisons the writer, so nothing is acknowledged into the stale file.
//!
//! ## Recovery
//!
//! Opening a shard reads `wal.log` once and replays its frames in one pass
//! (one CRC check per frame, labels shared between frames that repeat
//! them). A torn or corrupt tail is repaired by **truncating** the file to
//! the valid prefix and fsyncing; the prefix is never rewritten, so a
//! fault during the repair cannot cost a durable frame. Only a WAL with no
//! usable header (written in place: it holds no frame) or a stale
//! generation (replaced as rotation does) is rewritten.
//!
//! ## Write path
//!
//! Every sync policy appends the same way, through two locks always taken
//! in one order, `io` then `log`:
//!
//! * An appender takes the short `log` lock, applies its record to the
//!   snapshot mirror, encodes its frame onto a queue (one buffer reused
//!   across appends) and takes a ticket, the frame's position in the log.
//! * When its policy wants the frame durable now (`Always`, or `EveryN(n)`
//!   once `n` frames are unsynced), it takes the `io` lock. If a flush made
//!   while it waited already covered its ticket, it returns at once.
//!   Otherwise it leads: it moves every queued frame into the writer and
//!   makes one write and one fsync for all of them.
//!
//! The leader holds `log` only to move the queue and, after the fsync, to
//! take back the flushed buffer, so appenders keep queueing while its
//! fsync is in flight, and the next leader makes them durable together. Concurrent `Always` appenders thus share fsyncs
//! (group commit) without a committer thread, and a lone appender makes one
//! write and one fsync per append. Rotation, [`TenantLedger::sync`] and
//! [`TenantLedger::crash`] take both locks and drain the queue first.

use crate::record::{
    EpochRecord, GrantRecord, GrantRef, RecordRef, RefusalRecord, SnapshotCounters, WalRecord,
};
use crate::snapshot::{marker_frame, MirrorState, SnapshotState};
use crate::vfs::{persist_error, StdVfs, Vfs};
use crate::wal::{encode_frame_into, replay_each, RetryPolicy, SyncPolicy, WalWriter};
use osdp_core::error::{FaultClass, OsdpError, PersistError, PersistOp, Result};
use std::io::SeekFrom;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Magic header of `wal.log`.
pub(crate) const WAL_MAGIC: &[u8; 8] = b"OSDPWAL1";

/// WAL header size: magic + the `u64` snapshot generation it continues.
pub(crate) const WAL_HEADER: usize = 16;

pub(crate) const WAL_FILE: &str = "wal.log";
pub(crate) const SNAPSHOT_FILE: &str = "snapshot.bin";
/// The parked prior snapshot generation: rotation renames the old
/// `snapshot.bin` here before moving the new one into place, covering the
/// crash window in which `snapshot.bin` is briefly absent and giving
/// corrupt-snapshot recovery a fallback.
pub(crate) const SNAPSHOT_PREV_FILE: &str = "snapshot.prev";
pub(crate) const LOCK_FILE: &str = "LOCK";

/// The error every operation returns after [`TenantLedger::crash`].
const CRASHED_MSG: &str = "ledger writer has crashed (simulated)";

/// Maps an io error into the workspace error type with context (logical
/// failures; typed IO faults go through [`pe`]).
fn io_err(what: &str, err: std::io::Error) -> OsdpError {
    OsdpError::Persistence(format!("{what}: {err}"))
}

/// A typed persistence error for an IO fault on `path`.
fn pe(op: PersistOp, path: &Path, err: &std::io::Error) -> OsdpError {
    OsdpError::Persist(persist_error(op, path, err))
}

/// The crashed-ledger error (typed: permanent, nothing on this handle can
/// succeed again).
fn crashed_err() -> OsdpError {
    OsdpError::Persist(PersistError::new(PersistOp::Commit, "", FaultClass::Permanent, CRASHED_MSG))
}

/// This boot's identity token, recorded in `LOCK` files so a later open can
/// distinguish a live writer (same boot, pid running) from a crash leftover
/// (different boot, or pid gone). Falls back to a constant when the kernel
/// does not expose a boot id — then only pid liveness discriminates.
fn boot_token() -> &'static str {
    static TOKEN: OnceLock<String> = OnceLock::new();
    TOKEN.get_or_init(|| {
        std::fs::read_to_string("/proc/sys/kernel/random/boot_id")
            .ok()
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown-boot".into())
    })
}

/// What inspecting an existing `LOCK` file concluded about its holder.
enum LockHolder {
    /// The recorded writer is (or may be) alive — refuse.
    Alive,
    /// The recorded writer is provably gone; the note says why.
    Dead(String),
    /// Cannot decide (unreadable lock, no liveness oracle) — refuse
    /// conservatively; [`force_unlock`] remains the manual override.
    Unknown,
}

/// Decides whether the holder of `lock_path` is still alive. The lock body
/// is `pid\nboot-token\n`; a token from another boot proves the writer
/// died with that boot, and within the same boot `/proc/<pid>` decides.
/// Legacy single-line locks (pid only) fall back to pid liveness alone.
fn lock_holder_status(vfs: &dyn Vfs, lock_path: &Path) -> LockHolder {
    let Ok(bytes) = vfs.read(lock_path) else {
        return LockHolder::Unknown;
    };
    let text = String::from_utf8_lossy(&bytes);
    let mut lines = text.lines();
    let pid: Option<u32> = lines.next().and_then(|l| l.trim().parse().ok());
    let token = lines.next().map(|l| l.trim().to_string()).filter(|t| !t.is_empty());
    if let Some(token) = &token {
        if token != "unknown-boot" && token != boot_token() {
            return LockHolder::Dead(format!(
                "cleared stale LOCK from a previous boot (token {token}, pid {pid:?})"
            ));
        }
    }
    let Some(pid) = pid else {
        return LockHolder::Unknown;
    };
    if pid == std::process::id() {
        // Our own pid: a live (or crashed-but-undropped) writer in this
        // process still owns the shard.
        return LockHolder::Alive;
    }
    if !Path::new("/proc").is_dir() {
        return LockHolder::Unknown;
    }
    if Path::new(&format!("/proc/{pid}")).exists() {
        LockHolder::Alive
    } else {
        LockHolder::Dead(format!("cleared stale LOCK left by dead pid {pid} (same boot)"))
    }
}

/// Takes the shard's single-writer lock: `O_CREAT|O_EXCL` on `LOCK`, whose
/// body records our pid + boot token. When the file already exists, the
/// recorded holder is probed — a provably-dead holder's lock is cleared
/// (recorded in `report`) and acquisition retried once; a live or
/// undecidable holder refuses with the "locked" error.
fn acquire_lock(vfs: &dyn Vfs, dir: &Path, report: &mut RecoveryReport) -> Result<()> {
    let lock_path = dir.join(LOCK_FILE);
    let locked = |dir: &Path| {
        OsdpError::Persistence(format!(
            "tenant shard '{}' is locked by another writer (or a crashed one left a stale \
             LOCK that could not be proven dead; use force_unlock once that process is \
             known dead)",
            dir.display()
        ))
    };
    for pass in 0..2u8 {
        match vfs.create_new(&lock_path) {
            Ok(mut lock) => {
                let body = format!("{}\n{}\n", std::process::id(), boot_token());
                let _ = lock.write_all(body.as_bytes());
                return Ok(());
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists && pass == 0 => {
                match lock_holder_status(vfs, &lock_path) {
                    LockHolder::Dead(note) => {
                        match vfs.remove_file(&lock_path) {
                            Ok(()) => {}
                            // Already gone: another opener cleared it first.
                            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                            Err(e) => return Err(pe(PersistOp::Lock, &lock_path, &e)),
                        }
                        report.cleared_stale_lock = true;
                        report.notes.push(note);
                        // Loop: retry the exclusive create exactly once.
                    }
                    LockHolder::Alive | LockHolder::Unknown => return Err(locked(dir)),
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                // The re-acquire after clearing raced another opener.
                return Err(locked(dir));
            }
            Err(e) => return Err(pe(PersistOp::Lock, &lock_path, &e)),
        }
    }
    Err(locked(dir))
}

/// Removes a stale `LOCK` file left behind by a crashed writer, returning
/// whether one existed. Only call this once the previous writer process is
/// known to be dead — removing a *live* writer's lock re-opens the shard to
/// a second writer and voids the single-writer guarantee. Usually
/// unnecessary: [`TenantLedger::open`] auto-clears locks whose recorded
/// writer is provably gone (dead pid, or a previous boot); this is the
/// manual override for the undecidable cases.
pub fn force_unlock(dir: impl AsRef<Path>) -> Result<bool> {
    match std::fs::remove_file(dir.as_ref().join(LOCK_FILE)) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(io_err("removing LOCK", e)),
    }
}

/// What recovery had to repair or fall back to while opening a shard — all
/// empty/false after a clean open. Surfaced on [`RecoveredLedger::report`]
/// so operators can distinguish "opened clean" from "opened by quarantining
/// a corrupt snapshot and replaying the full WAL".
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// The file name a corrupt `snapshot.bin` was parked under
    /// (`snapshot.corrupt-<wal-generation>`), if quarantine happened.
    pub quarantined_snapshot: Option<String>,
    /// Recovery fell back to the parked prior snapshot generation
    /// (`snapshot.prev`) and replayed the full WAL on top of it.
    pub used_prev_snapshot: bool,
    /// Recovery reconstructed base counters from the WAL's snapshot marker
    /// (totals intact, per-mechanism rows lost) — mirrors
    /// [`RecoveredLedger::degraded`].
    pub used_marker_fallback: bool,
    /// A stale `LOCK` from a provably-dead writer was auto-cleared.
    pub cleared_stale_lock: bool,
    /// Human-readable notes for each repair or fallback taken.
    pub notes: Vec<String>,
}

impl RecoveryReport {
    /// Whether recovery needed no repair or fallback at all.
    pub fn is_clean(&self) -> bool {
        self == &RecoveryReport::default()
    }
}

/// What [`TenantLedger::open`] reconstructed from disk. The `base` /
/// `grants` split is deliberate: recovery seeds counters from `base` as
/// plain integers and replays `grants` one record at a time, so the
/// reconstructed accountant and audit totals are integer sums of exactly
/// what was durably logged — bit for bit, no float round-trip.
///
/// The WAL tail is decoded straight into these vectors in one pass over
/// the file's bytes; grants and refusals whose labels repeat the previous
/// frame's share them (`Arc<str>`), so a tail of one tenant's releases
/// holds one copy of each label.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredLedger {
    /// The snapshot state recovery started from (generation 0 and all-zero
    /// counters for a fresh shard).
    pub base: SnapshotState,
    /// The grant records replayed from the WAL tail, in log order (which
    /// under concurrent writers may differ from index order).
    pub grants: Vec<GrantRecord>,
    /// Refusal records replayed from the WAL tail.
    pub refusals: Vec<RefusalRecord>,
    /// Every policy epoch transition recovered, sorted by version and
    /// deduplicated (rotation re-emits transitions into the fresh WAL, so
    /// the same version can legitimately appear in more than one file
    /// across a crash). Unlike grants, transitions are never collapsed
    /// into the snapshot: the full version history is recovered
    /// bit-for-bit for the stale-policy verifier.
    pub transitions: Vec<EpochRecord>,
    /// Bytes discarded from a torn or corrupt WAL tail (0 after a clean
    /// shutdown). [`TenantLedger::open`] truncates them off the file;
    /// [`TenantLedger::peek`] leaves them in place.
    pub truncated_bytes: u64,
    /// True when the snapshot file was missing or unreadable and the base
    /// counters were reconstructed from the WAL's snapshot marker instead:
    /// totals are intact, but the per-mechanism aggregate rows of the
    /// pre-marker history are lost.
    pub degraded: bool,
    /// What recovery had to repair or fall back to (all-default after a
    /// clean open).
    pub report: RecoveryReport,
}

impl RecoveredLedger {
    /// Total admitted spend in fixed-point units: base + replayed grants.
    pub fn spent_units(&self) -> u64 {
        self.grants.iter().fold(self.base.counters.spent_units, |t, g| t.saturating_add(g.units))
    }

    /// The audit ε total in fixed-point units: base + replayed grants.
    pub fn audit_units(&self) -> u64 {
        self.grants.iter().fold(self.base.counters.audit_units, |t, g| t.saturating_add(g.units))
    }

    /// The next audit release index (every replayed index is below it).
    pub fn audit_seq(&self) -> u64 {
        self.grants.iter().fold(self.base.counters.audit_seq, |s, g| s.max(g.index + 1))
    }

    /// Total refusals logged (base + replayed).
    pub fn refusal_count(&self) -> u64 {
        self.base.counters.refusals + self.refusals.len() as u64
    }

    /// Total grants logged (base + replayed).
    pub fn grant_count(&self) -> u64 {
        self.base.counters.grants + self.grants.len() as u64
    }

    /// The policy epoch version in force when the shard last served (the
    /// highest recovered transition's version; 0 for a shard that never
    /// transitioned).
    pub fn current_policy_version(&self) -> u64 {
        self.transitions.last().map_or(0, |t| t.version)
    }

    /// Whether the shard had no durable history at all.
    pub fn is_fresh(&self) -> bool {
        self.base == SnapshotState::default()
            && self.grants.is_empty()
            && self.refusals.is_empty()
            && self.transitions.is_empty()
            && self.truncated_bytes == 0
    }
}

/// Tuning knobs of [`TenantLedger::open_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LedgerOptions {
    /// Rotate a fresh snapshot automatically once this many frames have
    /// been appended since the last rotation, bounding recovery replay to
    /// at most that many tail frames for long-lived tenants. `None` (the
    /// default) never rotates automatically — rotation stays an explicit
    /// [`TenantLedger::rotate_snapshot`] call.
    pub auto_snapshot_every: Option<u64>,
    /// Bounded-backoff retry for transient WAL write faults (see
    /// [`RetryPolicy`]). Fsync failures are never retried regardless of
    /// this setting.
    pub retry: RetryPolicy,
}

/// How a ledger's frames reached the disk, counted for every sync policy:
/// frames appended, frames made durable, and the flushes (one write and
/// one fsync each) that made them durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GroupCommitStats {
    /// Frames appended: grants, refusals and epoch transitions.
    pub submitted_frames: u64,
    /// The durable watermark: frames written **and fsync'd**. Under
    /// `Always` it equals `submitted_frames` whenever no append is in
    /// flight, because every append waits until its frame is below it.
    pub durable_frames: u64,
    /// Flushes that made frames durable; `durable_frames / batches` is the
    /// frames per fsync.
    pub batches: u64,
    /// The most frames one flush made durable.
    pub largest_batch: u64,
}

/// The atomic counters behind [`GroupCommitStats`]. `submitted` hands out
/// tickets under `log`, and `durable`, the watermark, advances under `io`
/// (stored with `Release` after the fsync, loaded with `Acquire`), so the
/// locks order every read a flush depends on; the atomics let the stats
/// and `EveryN`'s flush trigger read them without a lock.
#[derive(Debug, Default)]
struct Counters {
    submitted: AtomicU64,
    durable: AtomicU64,
    batches: AtomicU64,
    largest: AtomicU64,
}

/// The append side of a ledger, behind its `log` lock.
#[derive(Debug)]
struct Log {
    /// The snapshot-consistent mirror of everything appended so far.
    mirror: MirrorState,
    /// Frames encoded but not yet moved into the writer.
    queue: Vec<u8>,
    /// Reused payload encode buffer.
    scratch: Vec<u8>,
    /// Frames appended since the last snapshot rotation (drives
    /// [`LedgerOptions::auto_snapshot_every`]).
    frames_since_rotation: u64,
    /// Set by [`TenantLedger::crash`]: every later operation fails, drop
    /// flushes nothing and leaves the `LOCK` file behind.
    crashed: bool,
    /// Why the ledger refuses every operation until it is reopened: the
    /// writer's poison, or a lock a panicking thread poisoned.
    failed: Option<PersistError>,
}

impl Log {
    /// Fails once the ledger has crashed or failed.
    fn ensure_open(&self) -> Result<()> {
        if self.crashed {
            return Err(crashed_err());
        }
        match &self.failed {
            Some(err) => Err(OsdpError::Persist(err.clone())),
            None => Ok(()),
        }
    }

    /// Moves every queued frame into the writer's pending bytes (by
    /// swapping buffers when nothing is pending).
    fn drain_into(&mut self, writer: &mut WalWriter) {
        let pending = writer.pending_mut();
        if pending.is_empty() {
            std::mem::swap(pending, &mut self.queue);
        } else {
            pending.extend_from_slice(&self.queue);
            self.queue.clear();
        }
    }

    /// Runs after a flush or a WAL replacement. A poisoned writer closes
    /// the ledger, so no later append is acknowledged, buffered or not.
    /// Otherwise, when nothing was queued meanwhile, the flushed buffer
    /// becomes the queue again, so a lone appender keeps one buffer of
    /// frames rather than two.
    fn settle(&mut self, writer: &mut WalWriter) {
        if let Err(err) = writer.ensure_usable() {
            self.failed.get_or_insert(err);
        } else if self.queue.is_empty() && writer.pending().is_empty() {
            std::mem::swap(&mut self.queue, writer.pending_mut());
        }
    }
}

/// Closes the ledger after a thread panicked holding one of its locks: the
/// state behind that lock may be half updated, so nothing is trusted to
/// reach the disk until the shard is reopened and recovered.
fn close_on_panic(log: &mut Log) -> OsdpError {
    let err = log.failed.get_or_insert_with(|| {
        PersistError::new(
            PersistOp::Commit,
            "",
            FaultClass::Permanent,
            "a thread panicked while holding the ledger lock; the ledger is closed (reopen it \
             to recover)",
        )
    });
    OsdpError::Persist(err.clone())
}

/// A single-writer, append-only durable ledger for one tenant shard (see
/// the module docs for the file layout, the crash-consistency argument and
/// the write path).
#[derive(Debug)]
pub struct TenantLedger {
    dir: PathBuf,
    /// The file system this shard does all its IO through.
    vfs: Arc<dyn Vfs>,
    sync: SyncPolicy,
    options: LedgerOptions,
    /// The WAL writer, held by a leader for its write and fsync. Taken
    /// before `log`.
    io: Mutex<WalWriter>,
    log: Mutex<Log>,
    counters: Counters,
}

impl TenantLedger {
    /// Opens (creating if absent) the tenant shard at `dir`, acquiring its
    /// writer lock and recovering whatever state is durable. The returned
    /// [`RecoveredLedger`] seeds the in-memory accountant/audit pair; the
    /// ledger itself is positioned to append.
    pub fn open(dir: impl Into<PathBuf>, sync: SyncPolicy) -> Result<(Self, RecoveredLedger)> {
        Self::open_with(dir, sync, LedgerOptions::default())
    }

    /// [`TenantLedger::open`] with explicit [`LedgerOptions`].
    pub fn open_with(
        dir: impl Into<PathBuf>,
        sync: SyncPolicy,
        options: LedgerOptions,
    ) -> Result<(Self, RecoveredLedger)> {
        Self::open_with_vfs(dir, sync, options, Arc::new(StdVfs))
    }

    /// [`TenantLedger::open_with`] over an explicit file system — the
    /// injection point for [`crate::vfs::FaultVfs`] in fault tests.
    pub fn open_with_vfs(
        dir: impl Into<PathBuf>,
        sync: SyncPolicy,
        options: LedgerOptions,
        vfs: Arc<dyn Vfs>,
    ) -> Result<(Self, RecoveredLedger)> {
        let dir = dir.into();
        vfs.create_dir_all(&dir).map_err(|e| pe(PersistOp::CreateDir, &dir, &e))?;
        let mut lock_report = RecoveryReport::default();
        acquire_lock(vfs.as_ref(), &dir, &mut lock_report)?;
        // From here on, errors must release the lock we just took.
        match Self::open_locked(&dir, sync, options, vfs.clone(), lock_report) {
            Ok(ok) => Ok(ok),
            Err(e) => {
                let _ = vfs.remove_file(&dir.join(LOCK_FILE));
                Err(e)
            }
        }
    }

    fn open_locked(
        dir: &Path,
        sync: SyncPolicy,
        options: LedgerOptions,
        vfs: Arc<dyn Vfs>,
        lock_report: RecoveryReport,
    ) -> Result<(Self, RecoveredLedger)> {
        let (mut recovered, repair) = read_state(vfs.as_ref(), dir, true)?;
        recovered.report.cleared_stale_lock = lock_report.cleared_stale_lock;
        recovered.report.notes.splice(0..0, lock_report.notes);
        let wal_path = dir.join(WAL_FILE);
        let mut file = vfs.open_rw(&wal_path).map_err(|e| pe(PersistOp::Open, &wal_path, &e))?;
        let len = file.seek(SeekFrom::End(0)).map_err(|e| pe(PersistOp::Open, &wal_path, &e))?;
        let mut writer = WalWriter::new(file, wal_path, len, options.retry);
        // Leave the next crash a clean base: cut a torn or corrupt tail off
        // (the valid prefix stays as it is), or write a fresh WAL when the
        // old one has no usable header or a stale generation.
        match repair {
            WalRepair::None => Ok(()),
            WalRepair::Truncate(valid_len) => writer.truncate_to(valid_len),
            WalRepair::Init => {
                writer.rewrite_in_place(&wal_image(&recovered.base, &recovered.transitions))
            }
            WalRepair::Replace => {
                writer.replace(vfs.as_ref(), &wal_image(&recovered.base, &recovered.transitions))
            }
        }
        .map_err(OsdpError::from)?;
        let mut mirror = MirrorState::from_snapshot(&recovered.base);
        for grant in &recovered.grants {
            mirror.apply_grant(grant);
        }
        for _ in &recovered.refusals {
            mirror.apply_refusal();
        }
        for transition in &recovered.transitions {
            mirror.apply_transition(transition);
        }
        // The replayed tail counts against the auto-snapshot threshold, so
        // "recovery replays ≤ N frames" holds across reopen chains too.
        let frames_since_rotation = (recovered.grants.len() + recovered.refusals.len()) as u64;
        let ledger = Self {
            dir: dir.to_path_buf(),
            vfs,
            sync,
            options,
            io: Mutex::new(writer),
            log: Mutex::new(Log {
                mirror,
                queue: Vec::new(),
                scratch: Vec::new(),
                frames_since_rotation,
                crashed: false,
                failed: None,
            }),
            counters: Counters::default(),
        };
        Ok((ledger, recovered))
    }

    /// Reads a shard's durable state **without** taking the writer lock,
    /// truncating, rewriting, or quarantining anything. For audits and
    /// tests that need an independent view of what is on disk; racing a
    /// live writer sees some durable prefix.
    pub fn peek(dir: impl AsRef<Path>) -> Result<RecoveredLedger> {
        Self::peek_with_vfs(dir, &StdVfs)
    }

    /// [`TenantLedger::peek`] over an explicit file system.
    pub fn peek_with_vfs(dir: impl AsRef<Path>, vfs: &dyn Vfs) -> Result<RecoveredLedger> {
        read_state(vfs, dir.as_ref(), false).map(|(recovered, _)| recovered)
    }

    /// Verifies this shard's cold data (WAL frame CRCs, snapshot codecs)
    /// through the ledger's own VFS, **without decoding records, taking a
    /// lock, or writing a byte** — see [`crate::scrub::scrub_shard`]. Safe
    /// while the ledger is serving: a racing append shows up as (at most) a
    /// benign torn-tail warning.
    pub fn scrub(&self) -> Result<crate::scrub::ScrubReport> {
        crate::scrub::scrub_shard(self.vfs.as_ref(), &self.dir).map_err(OsdpError::Persist)
    }

    /// The shard directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured sync policy.
    pub fn sync_policy(&self) -> SyncPolicy {
        self.sync
    }

    /// The counters a snapshot taken now would contain — the mirror of
    /// everything logged so far (logged state, not live session state).
    pub fn counters(&self) -> SnapshotCounters {
        self.log.lock().unwrap_or_else(PoisonError::into_inner).mirror.counters
    }

    /// How this ledger's frames reached the disk: frames appended, the
    /// durable-frame watermark, flushes, and the largest flush.
    pub fn group_commit_stats(&self) -> GroupCommitStats {
        let counters = &self.counters;
        GroupCommitStats {
            submitted_frames: counters.submitted.load(Ordering::Relaxed),
            durable_frames: self.durable(),
            batches: counters.batches.load(Ordering::Relaxed),
            largest_batch: counters.largest.load(Ordering::Relaxed),
        }
    }

    /// Appends one grant record, durable per the sync policy before return.
    /// Takes a [`GrantRef`] or a `&GrantRecord`; the labels are only
    /// borrowed, so a warm append allocates nothing.
    pub fn append_grant<'a>(&self, grant: impl Into<GrantRef<'a>>) -> Result<()> {
        self.append(RecordRef::Grant(grant.into()))
    }

    /// Appends one refusal record, durable per the sync policy.
    pub fn append_refusal(&self, refusal: &RefusalRecord) -> Result<()> {
        self.append(RecordRef::Refusal(refusal))
    }

    /// Appends one policy epoch transition, durable per the sync policy.
    pub fn append_epoch_transition(&self, transition: &EpochRecord) -> Result<()> {
        self.append(RecordRef::Epoch(transition))
    }

    /// The one append path (see the module docs).
    fn append(&self, record: RecordRef<'_>) -> Result<()> {
        let (ticket, rotate) = {
            let mut log = self.lock_log()?;
            // A crashed or poisoned ledger refuses before anything is
            // queued, even when the sync policy would not flush this append.
            log.ensure_open()?;
            match record {
                RecordRef::Grant(g) => log.mirror.apply_grant(g),
                RecordRef::Refusal(_) => log.mirror.apply_refusal(),
                RecordRef::Epoch(t) => log.mirror.apply_transition(t),
                RecordRef::Marker { .. } => unreachable!("markers are written by rotation"),
            }
            let Log { queue, scratch, .. } = &mut *log;
            encode_frame_into(queue, scratch, record);
            log.frames_since_rotation += 1;
            let ticket = self.counters.submitted.fetch_add(1, Ordering::Relaxed) + 1;
            (ticket, self.auto_rotate_due(&log))
        };
        let flush = match self.sync {
            SyncPolicy::Always => true,
            SyncPolicy::EveryN(n) => ticket.saturating_sub(self.durable()) >= u64::from(n.max(1)),
        };
        if !flush && !rotate {
            return Ok(());
        }
        let mut writer = self.lock_io()?;
        // An earlier leader's fsync may already cover this ticket.
        if flush && self.durable() < ticket {
            self.lead(&mut writer)?;
        }
        if rotate {
            let mut log = self.lock_log()?;
            if self.auto_rotate_due(&log) {
                self.rotate_locked(&mut writer, &mut log)?;
            }
        }
        Ok(())
    }

    /// Flushes and fsyncs every queued frame, regardless of policy.
    pub fn sync(&self) -> Result<()> {
        self.lead(&mut *self.lock_io()?)
    }

    /// Rotates the shard: collapses the logged history into a new snapshot
    /// generation and resets the WAL to `header + marker`. See the module
    /// docs for why each crash point in this sequence recovers cleanly.
    pub fn rotate_snapshot(&self) -> Result<()> {
        let mut writer = self.lock_io()?;
        let mut log = self.lock_log()?;
        self.rotate_locked(&mut writer, &mut log)
    }

    /// **Crash simulation**: drops the writer as an abrupt process death
    /// would. Queued and pending frames are lost; a `keep_fraction` in
    /// `(0, 1]` additionally writes that fraction of their *bytes* first —
    /// a torn frame mid-write, exercising the CRC truncation path. With
    /// concurrent appenders the crash severs **mid-batch**: frames whose
    /// appenders are still waiting for a flush (their grants not yet
    /// acknowledged) are among those bytes, while a frame whose `Always`
    /// append already *returned* was fsync'd and survives in full. The
    /// `LOCK` file is deliberately left behind (a dead process releases
    /// nothing), so reopening requires [`force_unlock`], same as after a
    /// real `kill -9`. Every later operation on this ledger fails.
    ///
    /// What this does **not** simulate: loss of OS-buffered writes that
    /// were never fsync'd (the file system keeps what `write(2)` accepted,
    /// a powered-off machine may not), and torn *sector* writes inside
    /// fsync'd data. Those need a real `kill -9` / power-cut harness.
    pub fn crash(&self, keep_fraction: f64) -> Result<()> {
        let mut writer = self.lock_io()?;
        let mut log = self.lock_log()?;
        if log.crashed {
            return Ok(());
        }
        log.crashed = true;
        log.drain_into(&mut writer);
        let keep = (writer.pending().len() as f64 * keep_fraction.clamp(0.0, 1.0)) as usize;
        if keep > 0 {
            let torn: Vec<u8> = writer.pending()[..keep].to_vec();
            writer.file_mut().write_all(&torn).map_err(|e| io_err("writing torn tail", e))?;
        }
        writer.pending_mut().clear();
        Ok(())
    }

    /// Whether [`TenantLedger::crash`] has been called.
    pub fn is_crashed(&self) -> bool {
        self.log.lock().unwrap_or_else(PoisonError::into_inner).crashed
    }

    /// The durable watermark: every ticket at or below it is fsync'd.
    fn durable(&self) -> u64 {
        self.counters.durable.load(Ordering::Acquire)
    }

    /// Whether the auto-snapshot threshold is due.
    fn auto_rotate_due(&self, log: &Log) -> bool {
        self.options.auto_snapshot_every.is_some_and(|n| log.frames_since_rotation >= n.max(1))
    }

    /// Takes the `log` lock; a lock poisoned by a panic closes the ledger.
    fn lock_log(&self) -> Result<MutexGuard<'_, Log>> {
        self.log.lock().map_err(|poisoned| close_on_panic(&mut poisoned.into_inner()))
    }

    /// Takes the `io` lock; a lock poisoned by a panic closes the ledger.
    fn lock_io(&self) -> Result<MutexGuard<'_, WalWriter>> {
        self.io.lock().map_err(|_| {
            close_on_panic(&mut self.log.lock().unwrap_or_else(PoisonError::into_inner))
        })
    }

    /// Leads a flush: moves every queued frame into the writer and makes
    /// one write and one fsync for all of them. The caller holds `io`;
    /// `log` is held only to move the queue and to settle afterwards, so
    /// appenders keep queueing during the fsync.
    fn lead(&self, writer: &mut WalWriter) -> Result<()> {
        let through = {
            let mut log = self.lock_log()?;
            log.ensure_open()?;
            log.drain_into(writer);
            self.counters.submitted.load(Ordering::Relaxed)
        };
        let flushed = self.commit(writer, through);
        if let Ok(mut log) = self.lock_log() {
            log.settle(writer);
        }
        flushed
    }

    /// Writes and fsyncs the writer's pending bytes, then advances the
    /// watermark to `through`, the last ticket they hold, and counts the
    /// flush. A failed write that does not poison the writer leaves the
    /// frames pending for the next leader.
    fn commit(&self, writer: &mut WalWriter, through: u64) -> Result<()> {
        writer.flush_and_sync()?;
        let before = self.counters.durable.fetch_max(through, Ordering::Release);
        if through > before {
            self.counters.batches.fetch_add(1, Ordering::Relaxed);
            self.counters.largest.fetch_max(through - before, Ordering::Relaxed);
        }
        Ok(())
    }

    /// The rotation body, shared by [`TenantLedger::rotate_snapshot`] and
    /// the auto-snapshot threshold on the append path. The caller holds
    /// both locks.
    fn rotate_locked(&self, writer: &mut WalWriter, log: &mut Log) -> Result<()> {
        log.ensure_open()?;
        // Queued frames go into the old WAL first: the snapshot below
        // includes them, so they must not also land in the new WAL.
        log.drain_into(writer);
        let through = self.counters.submitted.load(Ordering::Relaxed);
        let flushed = self.commit(writer, through);
        log.settle(writer);
        flushed?;
        let generation = log.mirror.generation + 1;
        let snapshot = log.mirror.to_snapshot(generation);
        let vfs = self.vfs.as_ref();
        // Temp + rename: a torn snapshot write never shadows the good one.
        let tmp = self.dir.join("snapshot.tmp");
        {
            let mut f = vfs.create_truncate(&tmp).map_err(|e| pe(PersistOp::Open, &tmp, &e))?;
            f.write_all(&snapshot.encode()).map_err(|e| pe(PersistOp::Write, &tmp, &e))?;
            f.sync_data().map_err(|e| pe(PersistOp::Fsync, &tmp, &e))?;
        }
        let snap = self.dir.join(SNAPSHOT_FILE);
        // Park the outgoing generation as snapshot.prev: it covers the crash
        // window where snapshot.bin is briefly absent, and gives recovery a
        // fallback should the new snapshot later prove corrupt.
        match vfs.rename(&snap, &self.dir.join(SNAPSHOT_PREV_FILE)) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {} // first rotation
            Err(e) => return Err(pe(PersistOp::Rename, &snap, &e)),
        }
        vfs.rename(&tmp, &snap).map_err(|e| pe(PersistOp::Rename, &tmp, &e))?;
        let _ = vfs.sync_dir(&self.dir);
        log.mirror.generation = generation;
        // Replace the WAL behind the new snapshot. Until the replacement lands,
        // wal.log is the old file, at a generation below the snapshot's:
        // recovery ignores its (now collapsed) grants instead of
        // double-counting them, and keeps its transitions, which the snapshot
        // does not carry. A failed replacement poisons the writer and closes
        // the ledger.
        let image = wal_image(&snapshot, &log.mirror.transitions);
        writer.replace(vfs, &image).inspect_err(|_| log.settle(writer))?;
        log.frames_since_rotation = 0;
        Ok(())
    }
}

impl Drop for TenantLedger {
    fn drop(&mut self) {
        match (self.io.get_mut(), self.log.get_mut()) {
            (Ok(writer), Ok(log)) => {
                if log.crashed {
                    // A crashed writer releases nothing: pending bytes are
                    // gone and the LOCK file stays, exactly like a killed
                    // process.
                    return;
                }
                log.drain_into(writer);
                let _ = writer.flush_and_sync();
            }
            // A panic under a lock closed the ledger and may have left its
            // queue half-written, so nothing more is written. This process
            // is still alive and done with the shard, though, so unless the
            // writer had crashed first the LOCK goes, and a later open in
            // this process can take the shard.
            (_, log) => {
                if log.unwrap_or_else(PoisonError::into_inner).crashed {
                    return;
                }
            }
        }
        let _ = self.vfs.remove_file(&self.dir.join(LOCK_FILE));
    }
}

/// The bytes of a fresh `wal.log` continuing `base`: the header at the
/// base generation, a marker when there is a snapshot to mark, then the
/// epoch transitions (grants and refusals are collapsed into `base`;
/// transitions are not).
fn wal_image(base: &SnapshotState, transitions: &[EpochRecord]) -> Vec<u8> {
    let mut image = Vec::with_capacity(WAL_HEADER + 256);
    image.extend_from_slice(WAL_MAGIC);
    image.extend_from_slice(&base.generation.to_le_bytes());
    if base.generation > 0 {
        image.extend_from_slice(&marker_frame(base.generation, base.counters));
    }
    let mut scratch = Vec::with_capacity(128);
    for transition in transitions {
        encode_frame_into(&mut image, &mut scratch, RecordRef::Epoch(transition));
    }
    image
}

/// How opening a shard must repair `wal.log` once its state is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WalRepair {
    /// The file is exactly its valid prefix.
    None,
    /// Cut the file back to this length, the end of the valid frame
    /// prefix: the tail after it is torn or corrupt.
    Truncate(u64),
    /// Write a fresh WAL in place: the file is shorter than its header, so
    /// it holds no frame to lose.
    Init,
    /// Replace the file with a fresh WAL: its generation is behind the
    /// snapshot's, and its epoch transitions must survive the swap.
    Replace,
}

/// Loads the snapshot base: `snapshot.bin`, falling back to the parked
/// `snapshot.prev` when the primary is corrupt — and, in `repair` mode,
/// parking the corrupt primary as `snapshot.corrupt-<wal-generation>` so it
/// never shadows recovery again yet stays available for forensics.
fn load_snapshot(
    vfs: &dyn Vfs,
    dir: &Path,
    repair: bool,
    wal_gen_hint: u64,
    report: &mut RecoveryReport,
) -> Result<Option<SnapshotState>> {
    let snap_path = dir.join(SNAPSHOT_FILE);
    match vfs.read(&snap_path) {
        Ok(bytes) => match SnapshotState::decode(&bytes) {
            Ok(state) => return Ok(Some(state)),
            Err(decode_err) => {
                report.notes.push(format!("snapshot.bin failed to decode: {decode_err}"));
                if repair {
                    let name = format!("snapshot.corrupt-{wal_gen_hint}");
                    match vfs.rename(&snap_path, &dir.join(&name)) {
                        Ok(()) => report.quarantined_snapshot = Some(name),
                        Err(e) => {
                            report.notes.push(format!("quarantining snapshot.bin failed: {e}"));
                        }
                    }
                }
                // Fall through to snapshot.prev.
            }
        },
        // Absent primary (fresh shard, or the crash window between the
        // prev-rename and the bin-rename): snapshot.prev may still match.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(pe(PersistOp::Read, &snap_path, &e)),
    }
    // The parked prior generation is only trustworthy when it is exactly
    // the generation the WAL header continues — otherwise replaying the
    // WAL on top of it would double-count collapsed history.
    let prev_path = dir.join(SNAPSHOT_PREV_FILE);
    match vfs.read(&prev_path) {
        Ok(bytes) => match SnapshotState::decode(&bytes) {
            Ok(state) if state.generation == wal_gen_hint => {
                report.used_prev_snapshot = true;
                report.notes.push(format!(
                    "recovered from snapshot.prev (generation {})",
                    state.generation
                ));
                Ok(Some(state))
            }
            Ok(state) => {
                report.notes.push(format!(
                    "snapshot.prev is at generation {} but the WAL continues generation \
                     {wal_gen_hint}; ignoring it",
                    state.generation
                ));
                Ok(None)
            }
            Err(e) => {
                report.notes.push(format!("snapshot.prev also failed to decode: {e}"));
                Ok(None)
            }
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(pe(PersistOp::Read, &prev_path, &e)),
    }
}

/// Reads and reconciles `snapshot.bin` + `wal.log` (shared by `open` and
/// `peek`), and says how `open` must repair the WAL. In `repair` mode a
/// corrupt snapshot is quarantined on disk; otherwise nothing is ever
/// written.
///
/// The WAL tail is read in one pass ([`replay_each`]): each frame's CRC is
/// checked once and its record goes straight into the recovered vectors.
/// Only when replay stops short of the end does a verify-only walk
/// ([`crate::wal::WalReader::verify_frames`]) look at the bytes after the
/// valid prefix, to tell mid-file corruption from a torn tail.
fn read_state(vfs: &dyn Vfs, dir: &Path, repair: bool) -> Result<(RecoveredLedger, WalRepair)> {
    let mut report = RecoveryReport::default();
    let wal_path = dir.join(WAL_FILE);
    let wal = match vfs.read(&wal_path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(pe(PersistOp::Read, &wal_path, &e)),
    };
    // The WAL generation (best effort — 0 on a short or foreign header),
    // used only to name a quarantined snapshot.
    let wal_gen_hint = if wal.len() >= WAL_HEADER && &wal[..WAL_MAGIC.len()] == WAL_MAGIC {
        u64::from_le_bytes(wal[WAL_MAGIC.len()..WAL_HEADER].try_into().expect("len checked"))
    } else {
        0
    };
    let snapshot = load_snapshot(vfs, dir, repair, wal_gen_hint, &mut report)?;
    let base_or_default = snapshot.unwrap_or_default();
    if wal.len() < WAL_HEADER {
        // Empty or mid-rewrite header: no tail survived; the snapshot (if
        // any) is the whole durable state.
        let recovered = RecoveredLedger {
            base: base_or_default,
            grants: Vec::new(),
            refusals: Vec::new(),
            transitions: Vec::new(),
            truncated_bytes: wal.len() as u64,
            degraded: false,
            report,
        };
        return Ok((recovered, WalRepair::Init));
    }
    if &wal[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(OsdpError::Persistence("wal.log has a bad magic header".into()));
    }
    let body = &wal[WAL_HEADER..];
    let wal_generation = wal_gen_hint;
    let snapshot_generation = base_or_default.generation;
    if wal_generation < snapshot_generation {
        // Rotation crashed between the snapshot rename and the WAL
        // replacement: every grant/refusal in the WAL is already collapsed
        // into the snapshot. Transitions are *not* collapsed, so they alone
        // are harvested from the stale file — they carry their own ordering
        // and version identity, so re-reading them can never double-count.
        let mut transitions = Vec::new();
        let Ok(_) = replay_each(body, |record| {
            if let WalRecord::EpochTransition(t) = record {
                transitions.push(t);
            }
            Ok::<(), std::convert::Infallible>(())
        });
        let recovered = RecoveredLedger {
            base: base_or_default,
            grants: Vec::new(),
            refusals: Vec::new(),
            transitions: sorted_transitions(transitions),
            truncated_bytes: body.len() as u64,
            degraded: false,
            report,
        };
        return Ok((recovered, WalRepair::Replace));
    }
    let no_marker = || {
        OsdpError::Persistence(format!(
            "wal.log continues snapshot generation {wal_generation} but snapshot.bin is at \
             generation {snapshot_generation} and the WAL carries no marker to recover from"
        ))
    };
    // A WAL ahead of the snapshot (a lost/deleted/quarantined primary with
    // no matching prev) must open with its rotation marker, whose counter
    // block then stands in for the snapshot: totals survive, aggregate rows
    // do not.
    let mut base = (wal_generation == snapshot_generation).then_some(base_or_default);
    let (mut grants, mut refusals, mut transitions) = (Vec::new(), Vec::new(), Vec::new());
    let (valid_len, frames) = replay_each(body, |record| {
        let Some(base) = &base else {
            return match record {
                WalRecord::SnapshotMarker { generation, counters }
                    if generation == wal_generation =>
                {
                    base = Some(SnapshotState { generation, counters, rows: Vec::new() });
                    Ok(())
                }
                _ => Err(no_marker()),
            };
        };
        match record {
            WalRecord::Grant(g) => grants.push(g),
            WalRecord::Refusal(r) => refusals.push(r),
            WalRecord::EpochTransition(t) => transitions.push(t),
            WalRecord::SnapshotMarker { generation, counters } => {
                // The rotation marker: must agree with the base it follows.
                if generation != base.generation || counters != base.counters {
                    return Err(OsdpError::Persistence(
                        "wal.log snapshot marker disagrees with the recovered base state".into(),
                    ));
                }
            }
        }
        Ok(())
    })?;
    let base = base.ok_or_else(no_marker)?;
    if valid_len < body.len() {
        // Replay stopped early. A verify-only walk of the rest (no payload
        // decode) tells *mid-file corruption* — bytes that were durable and
        // then rotted — from the benign torn tail of an interrupted append,
        // so the report says which one recovery is about to cut off.
        let rest = crate::wal::WalReader::verify_frames(&body[valid_len..]);
        if let Some(corruption) = rest.corruption {
            report.notes.push(format!(
                "wal.log holds a corrupt frame at byte {} ({}); the {} frames before it are the \
                 recoverable prefix",
                (WAL_HEADER + valid_len) as u64 + corruption.offset,
                corruption.defect,
                frames + rest.frames
            ));
        }
    }
    let degraded = wal_generation != snapshot_generation;
    if degraded {
        report.used_marker_fallback = true;
        report.notes.push(format!(
            "base counters reconstructed from the WAL marker at generation {wal_generation} \
             (per-mechanism rows lost)"
        ));
    }
    let truncated_bytes = (body.len() - valid_len) as u64;
    let repair = if truncated_bytes > 0 {
        WalRepair::Truncate((WAL_HEADER + valid_len) as u64)
    } else {
        WalRepair::None
    };
    let recovered = RecoveredLedger {
        base,
        grants,
        refusals,
        transitions: sorted_transitions(transitions),
        truncated_bytes,
        degraded,
        report,
    };
    Ok((recovered, repair))
}

/// Normalizes recovered transitions: sorted by version, duplicates (a
/// rotation re-emit racing a crash) collapsed to the first occurrence.
fn sorted_transitions(transitions: impl IntoIterator<Item = EpochRecord>) -> Vec<EpochRecord> {
    let mut out: Vec<EpochRecord> = Vec::new();
    for t in transitions {
        if out.iter().any(|seen| seen.version == t.version) {
            continue;
        }
        let at = out.partition_point(|seen| seen.version < t.version);
        out.insert(at, t);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::GuaranteeTag;
    use crate::wal::append_record;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("osdp-persist-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn grant(index: u64, units: u64) -> GrantRecord {
        GrantRecord {
            index,
            units,
            epsilon: units as f64 * 1e-12,
            trials: 1,
            bins: 8,
            guarantee: GuaranteeTag::Osdp,
            mechanism: "OsdpLaplaceL1".into(),
            policy: "P".into(),
            query: "q".into(),
            policy_version: 0,
        }
    }

    #[test]
    fn clean_shutdown_recovers_everything() {
        let dir = tmp_dir("clean");
        {
            let (ledger, recovered) =
                TenantLedger::open(&dir, SyncPolicy::EveryN(u32::MAX)).unwrap();
            assert!(recovered.is_fresh());
            for i in 0..5 {
                ledger.append_grant(&grant(i, 100)).unwrap();
            }
            ledger
                .append_refusal(&RefusalRecord {
                    units: 100,
                    epsilon: 1e-10,
                    mechanism: "M".into(),
                })
                .unwrap();
        }
        let (ledger, recovered) = TenantLedger::open(&dir, SyncPolicy::EveryN(u32::MAX)).unwrap();
        assert_eq!(recovered.grants.len(), 5);
        assert_eq!(recovered.spent_units(), 500);
        assert_eq!(recovered.audit_seq(), 5);
        assert_eq!(recovered.refusal_count(), 1);
        assert_eq!(recovered.truncated_bytes, 0);
        assert!(!recovered.degraded);
        drop(ledger);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn epoch_transitions_survive_reopen_and_rotation() {
        let dir = tmp_dir("epochs");
        let t1 = EpochRecord { version: 1, boundary_seq: 2, relaxes: false, label: "P-v1".into() };
        let t2 = EpochRecord { version: 2, boundary_seq: 4, relaxes: true, label: "P-v2".into() };
        {
            let (ledger, recovered) = TenantLedger::open(&dir, SyncPolicy::Always).unwrap();
            assert!(recovered.is_fresh());
            assert_eq!(recovered.current_policy_version(), 0);
            for i in 0..2 {
                ledger.append_grant(&grant(i, 100)).unwrap();
            }
            ledger.append_epoch_transition(&t1).unwrap();
            for i in 2..4 {
                ledger.append_grant(&grant(i, 100)).unwrap();
            }
            ledger.append_epoch_transition(&t2).unwrap();
        }
        // Reopen: the full version history comes back in version order.
        {
            let (ledger, recovered) = TenantLedger::open(&dir, SyncPolicy::Always).unwrap();
            assert_eq!(recovered.transitions, vec![t1.clone(), t2.clone()]);
            assert_eq!(recovered.current_policy_version(), 2);
            assert!(!recovered.is_fresh());
            // Rotation collapses grants into the snapshot but must re-emit
            // the transitions into the fresh WAL.
            ledger.rotate_snapshot().unwrap();
        }
        let (_ledger, recovered) = TenantLedger::open(&dir, SyncPolicy::Always).unwrap();
        assert!(recovered.grants.is_empty(), "grants collapsed by rotation");
        assert_eq!(recovered.spent_units(), 400);
        assert_eq!(recovered.transitions, vec![t1, t2], "transitions survive rotation verbatim");
        assert_eq!(recovered.current_policy_version(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_loses_only_unflushed_tail() {
        let dir = tmp_dir("crash");
        {
            let (ledger, _) = TenantLedger::open(&dir, SyncPolicy::EveryN(2)).unwrap();
            for i in 0..5 {
                ledger.append_grant(&grant(i, 100)).unwrap();
            }
            // 4 flushed (EveryN(2)), the 5th pending; crash drops it.
            ledger.crash(0.0).unwrap();
            assert!(ledger.is_crashed());
            assert!(ledger.append_grant(&grant(9, 1)).is_err());
            assert!(ledger.sync().is_err());
            assert!(ledger.rotate_snapshot().is_err());
        }
        // The crashed writer left its LOCK behind.
        assert!(TenantLedger::open(&dir, SyncPolicy::Always).is_err());
        assert!(force_unlock(&dir).unwrap());
        assert!(!force_unlock(&dir).unwrap());
        let (_ledger, recovered) = TenantLedger::open(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(recovered.grants.len(), 4, "the unflushed grant is gone");
        assert_eq!(recovered.spent_units(), 400);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_recovery() {
        let dir = tmp_dir("torn");
        {
            let (ledger, _) = TenantLedger::open(&dir, SyncPolicy::EveryN(u32::MAX)).unwrap();
            for i in 0..4 {
                ledger.append_grant(&grant(i, 250)).unwrap();
            }
            // Write ~60% of the pending bytes: two-and-a-bit frames.
            ledger.crash(0.6).unwrap();
        }
        force_unlock(&dir).unwrap();
        let peek = TenantLedger::peek(&dir).unwrap();
        assert!(peek.truncated_bytes > 0, "the torn frame is detected");
        assert!(peek.grants.len() < 4);
        let (_ledger, recovered) = TenantLedger::open(&dir, SyncPolicy::EveryN(u32::MAX)).unwrap();
        assert_eq!(recovered.grants.len(), peek.grants.len());
        assert_eq!(recovered.spent_units(), 250 * peek.grants.len() as u64);
        // Open truncated the torn tail: a second recovery sees a clean log.
        force_unlock(&dir).unwrap();
        let again = TenantLedger::peek(&dir).unwrap();
        assert_eq!(again.truncated_bytes, 0);
        assert_eq!(again.spent_units(), recovered.spent_units());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_collapses_history_and_survives() {
        let dir = tmp_dir("rotate");
        {
            let (ledger, _) = TenantLedger::open(&dir, SyncPolicy::EveryN(u32::MAX)).unwrap();
            for i in 0..6 {
                ledger.append_grant(&grant(i, 100)).unwrap();
            }
            ledger.rotate_snapshot().unwrap();
            for i in 6..8 {
                ledger.append_grant(&grant(i, 100)).unwrap();
            }
        }
        let (ledger, recovered) = TenantLedger::open(&dir, SyncPolicy::EveryN(u32::MAX)).unwrap();
        assert_eq!(recovered.base.generation, 1);
        assert_eq!(recovered.base.counters.spent_units, 600);
        assert_eq!(recovered.grants.len(), 2, "only the tail is replayed");
        assert_eq!(recovered.spent_units(), 800);
        assert_eq!(recovered.audit_seq(), 8);
        assert_eq!(recovered.base.rows.len(), 1);
        assert_eq!(recovered.base.rows[0].releases, 6);
        assert!(!recovered.degraded);
        assert_eq!(ledger.counters().spent_units, 800);
        drop(ledger);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_wal_after_interrupted_rotation_is_not_double_counted() {
        let dir = tmp_dir("stale");
        {
            let (ledger, _) = TenantLedger::open(&dir, SyncPolicy::Always).unwrap();
            for i in 0..3 {
                ledger.append_grant(&grant(i, 100)).unwrap();
            }
            ledger.rotate_snapshot().unwrap();
        }
        // Simulate the crash window between snapshot rename and WAL rewrite:
        // regress the WAL to generation 0 with the old records.
        let mut image = Vec::new();
        image.extend_from_slice(WAL_MAGIC);
        image.extend_from_slice(&0u64.to_le_bytes());
        for i in 0..3 {
            append_record(&mut image, &WalRecord::Grant(grant(i, 100)));
        }
        std::fs::write(dir.join(WAL_FILE), &image).unwrap();
        let (_ledger, recovered) = TenantLedger::open(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(recovered.base.generation, 1);
        assert_eq!(recovered.spent_units(), 300, "stale records are not re-added");
        assert!(recovered.grants.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_empty_stale_wal_is_replaced_before_appends_land_in_it() {
        let dir = tmp_dir("stale-empty");
        {
            let (ledger, _) = TenantLedger::open(&dir, SyncPolicy::Always).unwrap();
            for i in 0..3 {
                ledger.append_grant(&grant(i, 100)).unwrap();
            }
            ledger.rotate_snapshot().unwrap();
        }
        // The rotation crash window of a WAL that held no frame: the
        // header still continues generation 0, the snapshot is at 1.
        let mut header = WAL_MAGIC.to_vec();
        header.extend_from_slice(&0u64.to_le_bytes());
        std::fs::write(dir.join(WAL_FILE), &header).unwrap();
        {
            let (ledger, recovered) = TenantLedger::open(&dir, SyncPolicy::Always).unwrap();
            assert_eq!(recovered.spent_units(), 300);
            ledger.append_grant(&grant(3, 50)).unwrap();
        }
        // The acknowledged grant went into a WAL recovery reads.
        let (_ledger, recovered) = TenantLedger::open(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(recovered.spent_units(), 350);
        assert_eq!(recovered.grants.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lost_snapshot_falls_back_to_the_marker() {
        let dir = tmp_dir("marker");
        {
            let (ledger, _) = TenantLedger::open(&dir, SyncPolicy::Always).unwrap();
            for i in 0..3 {
                ledger.append_grant(&grant(i, 100)).unwrap();
            }
            ledger.rotate_snapshot().unwrap();
            ledger.append_grant(&grant(3, 50)).unwrap();
        }
        std::fs::remove_file(dir.join(SNAPSHOT_FILE)).unwrap();
        let (_ledger, recovered) = TenantLedger::open(&dir, SyncPolicy::Always).unwrap();
        assert!(recovered.degraded, "rows lost, totals kept");
        assert_eq!(recovered.spent_units(), 350);
        assert_eq!(recovered.audit_seq(), 4);
        assert!(recovered.base.rows.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn second_writer_is_refused_while_locked() {
        let dir = tmp_dir("lock");
        let (ledger, _) = TenantLedger::open(&dir, SyncPolicy::EveryN(u32::MAX)).unwrap();
        let err = TenantLedger::open(&dir, SyncPolicy::EveryN(u32::MAX)).unwrap_err();
        assert!(err.to_string().contains("locked"));
        drop(ledger);
        // A clean drop releases the lock.
        let (_again, _) = TenantLedger::open(&dir, SyncPolicy::EveryN(u32::MAX)).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_appends_are_durable_on_return() {
        let dir = tmp_dir("group-basic");
        {
            let (ledger, recovered) = TenantLedger::open(&dir, SyncPolicy::group_commit()).unwrap();
            assert!(recovered.is_fresh());
            for i in 0..6 {
                ledger.append_grant(&grant(i, 100)).unwrap();
                // Every returned append is at or below the watermark — and
                // visible to an independent peek immediately.
                let stats = ledger.group_commit_stats();
                assert_eq!(stats.durable_frames, i + 1);
                assert_eq!(stats.submitted_frames, i + 1);
            }
            let peek = TenantLedger::peek(&dir).unwrap();
            assert_eq!(peek.spent_units(), 600, "durable before the append returns");
            assert!(ledger.group_commit_stats().batches >= 1);
            ledger.sync().unwrap();
            ledger.rotate_snapshot().unwrap();
            ledger.append_grant(&grant(6, 50)).unwrap();
            assert_eq!(ledger.counters().spent_units, 650);
        }
        let (_ledger, recovered) = TenantLedger::open(&dir, SyncPolicy::group_commit()).unwrap();
        assert_eq!(recovered.base.generation, 1);
        assert_eq!(recovered.spent_units(), 650);
        assert_eq!(recovered.grants.len(), 1, "rotation collapsed the first six");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_crash_severs_mid_batch() {
        let dir = tmp_dir("group-crash");
        {
            let (ledger, _) = TenantLedger::open(&dir, SyncPolicy::group_commit()).unwrap();
            for i in 0..4 {
                ledger.append_grant(&grant(i, 100)).unwrap();
            }
            // Crash with nothing in flight: every returned append survives
            // in full — the Always-grade guarantee.
            ledger.crash(0.5).unwrap();
            assert!(ledger.append_grant(&grant(9, 1)).is_err());
        }
        force_unlock(&dir).unwrap();
        let peek = TenantLedger::peek(&dir).unwrap();
        assert_eq!(peek.spent_units(), 400, "returned group appends are never lost");
        assert_eq!(peek.truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn auto_snapshot_threshold_bounds_replay() {
        let dir = tmp_dir("auto-rotate");
        let options = LedgerOptions { auto_snapshot_every: Some(8), ..LedgerOptions::default() };
        {
            let (ledger, _) =
                TenantLedger::open_with(&dir, SyncPolicy::EveryN(u32::MAX), options).unwrap();
            for i in 0..20 {
                ledger.append_grant(&grant(i, 100)).unwrap();
            }
        }
        let (ledger, recovered) =
            TenantLedger::open_with(&dir, SyncPolicy::EveryN(u32::MAX), options).unwrap();
        // 20 appends with rotations at 8 and 16: the tail replays ≤ 8.
        assert_eq!(recovered.base.generation, 2);
        assert_eq!(recovered.grants.len(), 4);
        assert!(recovered.grants.len() as u64 <= 8);
        assert_eq!(recovered.spent_units(), 2_000, "rotation loses nothing");
        assert_eq!(recovered.audit_seq(), 20);
        // The replayed tail counts toward the next threshold: 4 more
        // appends trip rotation again (4 replayed + 4 fresh = 8).
        for i in 20..24 {
            ledger.append_grant(&grant(i, 100)).unwrap();
        }
        drop(ledger);
        let peek = TenantLedger::peek(&dir).unwrap();
        assert_eq!(peek.base.generation, 3);
        assert!(peek.grants.len() as u64 <= 8);
        assert_eq!(peek.spent_units(), 2_400);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_lock_from_dead_pid_is_auto_cleared() {
        let dir = tmp_dir("stale-lock-pid");
        std::fs::create_dir_all(&dir).unwrap();
        // A pid above the kernel's default pid_max cannot be running.
        std::fs::write(dir.join(LOCK_FILE), format!("999999999\n{}\n", boot_token())).unwrap();
        let (_ledger, recovered) = TenantLedger::open(&dir, SyncPolicy::EveryN(u32::MAX)).unwrap();
        assert!(recovered.report.cleared_stale_lock);
        assert!(recovered.report.notes.iter().any(|n| n.contains("dead pid")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_lock_from_previous_boot_is_auto_cleared() {
        let dir = tmp_dir("stale-lock-boot");
        std::fs::create_dir_all(&dir).unwrap();
        // Our own (live) pid, but a boot token that is not this boot's:
        // the writer died with that boot no matter what its pid says now.
        std::fs::write(
            dir.join(LOCK_FILE),
            format!("{}\nnot-this-boot-token\n", std::process::id()),
        )
        .unwrap();
        let (_ledger, recovered) = TenantLedger::open(&dir, SyncPolicy::EveryN(u32::MAX)).unwrap();
        assert!(recovered.report.cleared_stale_lock);
        assert!(recovered.report.notes.iter().any(|n| n.contains("previous boot")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn undecidable_lock_is_refused_conservatively() {
        let dir = tmp_dir("stale-lock-garbage");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(LOCK_FILE), "not a pid\n").unwrap();
        let err = TenantLedger::open(&dir, SyncPolicy::EveryN(u32::MAX)).unwrap_err();
        assert!(err.to_string().contains("locked"));
        assert!(force_unlock(&dir).unwrap());
        let (_ledger, recovered) = TenantLedger::open(&dir, SyncPolicy::EveryN(u32::MAX)).unwrap();
        assert!(!recovered.report.cleared_stale_lock);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_is_quarantined_with_prev_fallback() {
        let dir = tmp_dir("snap-quarantine-prev");
        {
            let (ledger, _) = TenantLedger::open(&dir, SyncPolicy::Always).unwrap();
            for i in 0..3 {
                ledger.append_grant(&grant(i, 100)).unwrap();
            }
            ledger.rotate_snapshot().unwrap();
            for i in 3..5 {
                ledger.append_grant(&grant(i, 100)).unwrap();
            }
        }
        // Same-generation prev (as the mid-rotation crash window leaves),
        // then rot the primary.
        std::fs::copy(dir.join(SNAPSHOT_FILE), dir.join(SNAPSHOT_PREV_FILE)).unwrap();
        let mut bytes = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(dir.join(SNAPSHOT_FILE), &bytes).unwrap();
        // peek never repairs: the corrupt file must still be in place after.
        let peeked = TenantLedger::peek(&dir).unwrap();
        assert!(peeked.report.used_prev_snapshot);
        assert!(peeked.report.quarantined_snapshot.is_none());
        assert!(dir.join(SNAPSHOT_FILE).exists());
        // open quarantines and falls back to the parked generation: full
        // rows survive, nothing is degraded.
        let (_ledger, recovered) = TenantLedger::open(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(recovered.spent_units(), 500);
        assert_eq!(recovered.base.rows.len(), 1);
        assert!(!recovered.degraded);
        assert!(recovered.report.used_prev_snapshot);
        assert_eq!(recovered.report.quarantined_snapshot.as_deref(), Some("snapshot.corrupt-1"));
        assert!(dir.join("snapshot.corrupt-1").exists());
        assert!(!dir.join(SNAPSHOT_FILE).exists(), "the corrupt primary was parked");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_without_prev_falls_back_to_marker() {
        let dir = tmp_dir("snap-quarantine-marker");
        {
            let (ledger, _) = TenantLedger::open(&dir, SyncPolicy::Always).unwrap();
            for i in 0..4 {
                ledger.append_grant(&grant(i, 100)).unwrap();
            }
            ledger.rotate_snapshot().unwrap();
            ledger.append_grant(&grant(4, 50)).unwrap();
        }
        let mut bytes = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
        bytes.truncate(bytes.len() / 2);
        std::fs::write(dir.join(SNAPSHOT_FILE), &bytes).unwrap();
        let (_ledger, recovered) = TenantLedger::open(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(recovered.spent_units(), 450, "totals survive via the marker");
        assert!(recovered.degraded, "rows are lost without a usable snapshot");
        assert!(recovered.report.used_marker_fallback);
        assert!(recovered.report.quarantined_snapshot.is_some());
        assert!(!recovered.report.is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn auto_snapshot_works_under_group_commit() {
        let dir = tmp_dir("auto-group");
        let options = LedgerOptions { auto_snapshot_every: Some(4), ..LedgerOptions::default() };
        {
            let (ledger, _) =
                TenantLedger::open_with(&dir, SyncPolicy::group_commit(), options).unwrap();
            for i in 0..10 {
                ledger.append_grant(&grant(i, 100)).unwrap();
            }
        }
        let peek = TenantLedger::peek(&dir).unwrap();
        assert!(peek.base.generation >= 2, "the append path rotated at the threshold");
        assert!(peek.grants.len() as u64 <= 4);
        assert_eq!(peek.spent_units(), 1_000);
        assert_eq!(peek.audit_seq(), 10);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
