//! Fault-injection tests for the durable budget plane.
//!
//! Every test here drives real on-disk shards through
//! [`osdp::persist::FaultVfs`], the deterministic seeded fault injector,
//! and checks the failure-model contract end to end:
//!
//! * **typed faults** — every injected failure surfaces as a
//!   [`PersistError`] carrying the operation, the path and a
//!   transient/permanent class;
//! * **bounded retry** — transient write faults (torn writes included) are
//!   absorbed by the WAL's truncate-and-retry boundary logic, invisibly to
//!   the caller and without duplicating bytes;
//! * **fsync is permanent** — one failed fsync poisons the handle; the
//!   ledger never re-fsyncs the descriptor, and recovery is the only
//!   continuation;
//! * **no appender blocks forever** — when a batch's fsync fails, every
//!   appender waiting on it gets a typed error, a panic under a ledger lock
//!   closes the ledger instead of wedging it, and concurrent `Always`
//!   appenders share fsyncs (natural batching);
//! * **prefix-closed, never-overspending recovery** — under arbitrary
//!   seeded fault plans and four sync configurations, recovery replays a
//!   prefix of the admitted history, never exceeds what the accountant
//!   admitted, and (for the always-durable policies) never loses an
//!   acknowledged grant.

use osdp::persist::{
    force_unlock, scrub_shard, EpochRecord, FaultKind, FaultPlan, FaultVfs, GrantRecord,
    GuaranteeTag, RecoveredLedger, ScrubFinding, StdVfs, TenantLedger, Vfs, VfsFile,
};
use osdp::prelude::*;
use proptest::prelude::*;
use std::io::{self, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// A fresh, empty scratch directory under the OS temp dir.
fn temp_root(name: &str) -> PathBuf {
    static UNIQUE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "osdp-faults-{}-{}-{name}",
        std::process::id(),
        UNIQUE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A grant of 100 fixed-point units with release index `index`.
fn grant(index: u64) -> GrantRecord {
    GrantRecord {
        index,
        units: 100,
        epsilon: 1e-10,
        trials: 1,
        bins: 4,
        guarantee: GuaranteeTag::Osdp,
        mechanism: "osdp-laplace".into(),
        policy: "P".into(),
        query: "q".into(),
        policy_version: 0,
    }
}

/// Ledger options with a fast, test-sized retry schedule.
fn fast_retry() -> LedgerOptions {
    LedgerOptions {
        retry: RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
        },
        ..LedgerOptions::default()
    }
}

/// The typed persistence error inside an [`OsdpError`], or a panic.
fn typed(err: &OsdpError) -> &PersistError {
    match err {
        OsdpError::Persist(p) => p,
        other => panic!("expected a typed PersistError, got {other:?}"),
    }
}

#[test]
fn transient_torn_write_is_retried_invisibly() {
    let root = temp_root("torn-retry");
    // Write ops #0–#1 on wal.log are the open-time rewrite (set_len +
    // write); op #2 is the first grant frame. Tear it after 3 bytes with a
    // *transient* class: the boundary logic must truncate the torn prefix
    // and the retry must land the full frame.
    let plan = FaultPlan::new().fail_nth(
        PersistOp::Write,
        "wal.log",
        2,
        FaultKind::TornWrite { keep_bytes: 3, class: FaultClass::Transient },
    );
    let vfs = FaultVfs::new(plan);
    let (ledger, recovered) = TenantLedger::open_with_vfs(
        root.clone(),
        SyncPolicy::Always,
        fast_retry(),
        Arc::<FaultVfs>::clone(&vfs),
    )
    .unwrap();
    assert_eq!(recovered.spent_units(), 0);
    for i in 0..3 {
        ledger.append_grant(&grant(i)).unwrap();
    }
    assert_eq!(vfs.injected_faults(), 1, "the torn write fired exactly once");
    drop(ledger);

    // The retry did not duplicate the torn prefix: recovery replays
    // exactly the three acknowledged grants.
    let recovered = TenantLedger::peek(&root).unwrap();
    assert_eq!(recovered.spent_units(), 300);
    assert_eq!(
        recovered.grants.iter().map(|g| g.index).collect::<Vec<_>>(),
        vec![0, 1, 2],
        "prefix-closed, gapless replay"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn failed_fsync_poisons_the_handle_and_never_refsyncs() {
    let root = temp_root("fsync-poison");
    // Fsync #0 on wal.log is the open-time rewrite; #1 is the first
    // append's. The rule is one-shot, so if the ledger ever re-fsynced the
    // poisoned descriptor the retry would *succeed* — the assertions below
    // would then see a second grant acknowledged.
    let plan = FaultPlan::new().fail_nth(PersistOp::Fsync, "wal.log", 1, FaultKind::FsyncFail);
    let vfs = FaultVfs::new(plan);
    let (ledger, _) = TenantLedger::open_with_vfs(
        root.clone(),
        SyncPolicy::Always,
        fast_retry(),
        Arc::<FaultVfs>::clone(&vfs),
    )
    .unwrap();

    let err = ledger.append_grant(&grant(0)).unwrap_err();
    let p = typed(&err);
    assert_eq!(p.class, FaultClass::Permanent, "a failed fsync is permanent for the handle");
    assert_eq!(p.op, PersistOp::Fsync);

    // Every later operation on the handle fails fast from the poison —
    // without touching the descriptor again (the one-shot fault stays the
    // only injected one, so a re-fsync would have succeeded and acked).
    assert!(ledger.append_grant(&grant(1)).is_err());
    assert!(ledger.sync().is_err());
    assert!(ledger.rotate_snapshot().is_err());
    assert_eq!(vfs.injected_faults(), 1, "the poisoned handle was never re-fsynced");
    drop(ledger);

    // Reopen + recover is the continuation: the un-acknowledged frame may
    // or may not have reached the platter (its write landed, its fsync did
    // not) — recovery may conservatively over-count it, never lose
    // acknowledged history, and stays internally consistent.
    let recovered = TenantLedger::peek(&root).unwrap();
    assert!(recovered.spent_units() <= 100, "at most the retained un-acked frame");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn injected_enospc_is_typed_permanent() {
    let root = temp_root("enospc");
    let plan = FaultPlan::new().fail_nth(PersistOp::Write, "wal.log", 2, FaultKind::DiskFull);
    let vfs = FaultVfs::new(plan);
    let (ledger, _) = TenantLedger::open_with_vfs(
        root.clone(),
        SyncPolicy::Always,
        fast_retry(),
        Arc::<FaultVfs>::clone(&vfs),
    )
    .unwrap();
    let err = ledger.append_grant(&grant(0)).unwrap_err();
    let p = typed(&err);
    assert_eq!(p.class, FaultClass::Permanent, "ENOSPC does not retry");
    assert_eq!(p.op, PersistOp::Write);
    assert!(p.path.contains("wal.log"), "the typed error names the file: {}", p.path);
    assert_eq!(vfs.injected_faults(), 1, "permanent faults are not retried");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn read_bit_flip_truncates_to_a_valid_prefix() {
    let root = temp_root("bit-flip");
    {
        let (ledger, _) = TenantLedger::open(&root, SyncPolicy::Always).unwrap();
        for i in 0..5 {
            ledger.append_grant(&grant(i)).unwrap();
        }
    }
    let clean = TenantLedger::peek(&root).unwrap();
    assert_eq!(clean.spent_units(), 500);

    // Re-read the shard through a bit-flipping VFS: silent media
    // corruption in the middle of the WAL. The CRCs catch it and replay
    // keeps exactly the frames before the flipped one.
    let plan = FaultPlan::new().fail_nth(
        PersistOp::Read,
        "wal.log",
        0,
        FaultKind::BitFlip { bit_index: 150 * 8 },
    );
    let vfs = FaultVfs::new(plan);
    let corrupt = TenantLedger::peek_with_vfs(&root, &*vfs).unwrap();
    assert!(corrupt.spent_units() < 500, "the flipped frame (and its suffix) must drop");
    assert_eq!(corrupt.spent_units() % 100, 0, "whole frames only — no partial debits");
    let replayed: Vec<u64> = corrupt.grants.iter().map(|g| g.index).collect();
    assert_eq!(replayed, (0..replayed.len() as u64).collect::<Vec<_>>(), "prefix-closed");
    assert!(corrupt.truncated_bytes > 0, "the torn suffix is reported");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn rename_failure_during_rotation_is_typed_and_loses_nothing() {
    let root = temp_root("rename-fail");
    let plan =
        FaultPlan::new().fail_nth(PersistOp::Rename, "snapshot.tmp", 0, FaultKind::RenameFail);
    let vfs = FaultVfs::new(plan);
    let (ledger, _) = TenantLedger::open_with_vfs(
        root.clone(),
        SyncPolicy::Always,
        fast_retry(),
        Arc::<FaultVfs>::clone(&vfs),
    )
    .unwrap();
    for i in 0..4 {
        ledger.append_grant(&grant(i)).unwrap();
    }
    let err = ledger.rotate_snapshot().unwrap_err();
    let p = typed(&err);
    assert_eq!(p.op, PersistOp::Rename);
    assert_eq!(p.class, FaultClass::Permanent);
    drop(ledger);

    // The failed rotation is crash-consistent: the WAL still holds every
    // acknowledged grant, so recovery loses nothing.
    let _ = force_unlock(&root);
    let recovered = TenantLedger::peek(&root).unwrap();
    assert_eq!(recovered.spent_units(), 400, "no acknowledged grant lost to the failed rotation");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn scrub_finds_cold_bit_rot_and_the_next_open_repairs_it() {
    let root = temp_root("scrub-rot");
    {
        let (ledger, _) = TenantLedger::open(root.clone(), SyncPolicy::Always).unwrap();
        for i in 0..6 {
            ledger.append_grant(&grant(i)).unwrap();
        }
    }

    // Silent rot: flip one payload bit in the last (cold, acknowledged)
    // frame, the kind of damage no crash ever produces.
    let wal = root.join("wal.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x80;
    std::fs::write(&wal, &bytes).unwrap();

    // The scrubber pins the rot to its frame — without decoding a record
    // or writing a byte (the rotten file is bit-identical afterwards).
    let report = scrub_shard(&StdVfs, &root).unwrap();
    assert!(!report.is_clean());
    assert_eq!(report.findings.len(), 1);
    match &report.findings[0] {
        ScrubFinding::WalCorruption { surviving_frames, .. } => {
            assert_eq!(*surviving_frames, 5, "the five frames before the rot are recoverable");
        }
        other => panic!("unexpected finding: {other}"),
    }
    assert_eq!(std::fs::read(&wal).unwrap(), bytes, "scrubbing is read-only");

    // Recovery truncates to the provably-valid prefix; the repaired shard
    // serves again and scrubs clean.
    let (ledger, recovered) = TenantLedger::open(root.clone(), SyncPolicy::Always).unwrap();
    assert_eq!(recovered.grants.len(), 5);
    ledger.append_grant(&grant(6)).unwrap();
    drop(ledger);
    assert_eq!(TenantLedger::peek(&root).unwrap().spent_units(), 600);
    assert!(scrub_shard(&StdVfs, &root).unwrap().is_clean());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn scrub_runs_against_a_live_serving_ledger() {
    let root = temp_root("scrub-live");
    let (ledger, _) = TenantLedger::open(root.clone(), SyncPolicy::Always).unwrap();
    for i in 0..4 {
        ledger.append_grant(&grant(i)).unwrap();
    }

    // Lock held, writer live: the scrubber needs neither.
    let report = ledger.scrub().unwrap();
    assert!(report.is_clean());
    assert_eq!(report.wal_frames, 4);

    // Cold rot behind the live writer's position is still found, and the
    // writer keeps serving — the scrub took nothing it holds.
    let wal = root.join("wal.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    let tail = bytes.len() - 1;
    bytes[tail] ^= 0x40;
    std::fs::write(&wal, &bytes).unwrap();
    assert_eq!(ledger.scrub().unwrap().findings.len(), 1);
    ledger.append_grant(&grant(4)).unwrap();
    drop(ledger);
    let _ = std::fs::remove_dir_all(&root);
}

/// A scrub loop racing 8 group-commit appenders on one live shard only ever
/// reports clean: a frame caught mid-write is a torn tail (a benign
/// warning), never a finding.
#[test]
fn scrub_racing_group_commit_appenders_always_reports_clean() {
    const APPENDERS: u64 = 8;
    const PER_APPENDER: u64 = 32;
    let root = temp_root("scrub-race");
    let (ledger, _) = TenantLedger::open(root.clone(), SyncPolicy::group_commit()).unwrap();
    let ledger = Arc::new(ledger);
    let done = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(APPENDERS as usize + 1));

    let scrubber = {
        let (ledger, done, barrier) =
            (Arc::clone(&ledger), Arc::clone(&done), Arc::clone(&barrier));
        thread::spawn(move || {
            barrier.wait();
            let mut sweeps = 0u64;
            while !done.load(Ordering::Acquire) {
                let report = ledger.scrub().unwrap();
                assert!(report.is_clean(), "live shard scrubbed dirty: {:?}", report.findings);
                sweeps += 1;
            }
            sweeps
        })
    };
    let appenders: Vec<_> = (0..APPENDERS)
        .map(|t| {
            let (ledger, barrier) = (Arc::clone(&ledger), Arc::clone(&barrier));
            thread::spawn(move || {
                barrier.wait();
                for i in 0..PER_APPENDER {
                    ledger.append_grant(&grant(t * 100 + i)).unwrap();
                }
            })
        })
        .collect();
    for appender in appenders {
        appender.join().unwrap();
    }
    done.store(true, Ordering::Release);
    let sweeps = scrubber.join().unwrap();
    assert!(sweeps >= 1, "the scrubber never swept while the appenders ran");

    let report = ledger.scrub().unwrap();
    assert!(report.is_clean());
    assert_eq!(report.wal_frames, APPENDERS * PER_APPENDER);
    drop(ledger);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn dying_committer_fails_every_blocked_appender() {
    let root = temp_root("gc-killed");
    const APPENDERS: usize = 8;
    // Fsync #0 on wal.log is the open-time rewrite; every batch fsync
    // after it fails, so the first leader's fsync poisons the writer — with
    // appenders from 8 threads racing into the queue behind it.
    let plan = FaultPlan::new().fail_from(PersistOp::Fsync, "wal.log", 1, FaultKind::FsyncFail);
    let (ledger, _) = TenantLedger::open_with_vfs(
        root.clone(),
        SyncPolicy::group_commit(),
        LedgerOptions::default(),
        FaultVfs::new(plan),
    )
    .unwrap();
    let ledger = Arc::new(ledger);

    let start = Instant::now();
    let barrier = Arc::new(Barrier::new(APPENDERS));
    let handles: Vec<_> = (0..APPENDERS)
        .map(|t| {
            let ledger = Arc::clone(&ledger);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                let mut acked = 0u64;
                for i in 0..4u64 {
                    match ledger.append_grant(&grant(t as u64 * 100 + i)) {
                        Ok(()) => acked += 100,
                        Err(err) => {
                            // Typed, not a hang and not a panic.
                            assert!(
                                matches!(err, OsdpError::Persist(_)),
                                "expected a typed failure, got {err:?}"
                            );
                            break;
                        }
                    }
                }
                acked
            })
        })
        .collect();
    let acked_units: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "no appender may block forever behind a dead committer"
    );
    assert_eq!(acked_units, 0, "nothing can be acknowledged once the first fsync fails");

    // The ledger is closed: later appends refuse fast with the writer's
    // typed poison error before anything is queued.
    let fast = Instant::now();
    let err = ledger.append_grant(&grant(9999)).unwrap_err();
    assert!(matches!(err, OsdpError::Persist(_)));
    assert!(fast.elapsed() < Duration::from_secs(5));
    drop(ledger);

    // Recovery after the massacre: consistent, and conservative (frames
    // whose fsync never succeeded may or may not have reached the disk —
    // none were acknowledged, so any replayed subset is an over-count in
    // the safe direction, bounded by what was attempted).
    let _ = force_unlock(&root);
    let recovered = TenantLedger::peek(&root).unwrap();
    assert!(recovered.spent_units() <= APPENDERS as u64 * 4 * 100);
    let _ = std::fs::remove_dir_all(&root);
}

/// The hooks of a [`HookVfs`]: what its `wal.log` files do before a write
/// or an fsync.
#[derive(Debug, Default)]
struct WalHooks {
    /// Armed: the next `wal.log` write panics.
    panic_next_write: AtomicBool,
    /// Armed: the next `wal.log` fsync blocks until the gate opens.
    stall_next_sync: AtomicBool,
    /// Set once an armed fsync is blocked.
    stalled: AtomicBool,
    gate_open: Mutex<bool>,
    gate: Condvar,
    /// `wal.log` fsyncs so far.
    syncs: AtomicUsize,
}

impl WalHooks {
    /// Unblocks the stalled fsync (and any later armed one).
    fn release(&self) {
        *self.gate_open.lock().unwrap() = true;
        self.gate.notify_all();
    }
}

/// [`StdVfs`] with [`WalHooks`] on its `wal.log` files.
#[derive(Debug)]
struct HookVfs(Arc<WalHooks>);

/// A `wal.log` file opened through a [`HookVfs`].
#[derive(Debug)]
struct HookFile {
    inner: Box<dyn VfsFile>,
    hooks: Arc<WalHooks>,
}

impl VfsFile for HookFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.hooks.panic_next_write.swap(false, Ordering::SeqCst) {
            panic!("injected panic in a wal.log write");
        }
        self.inner.write(buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.hooks.syncs.fetch_add(1, Ordering::SeqCst);
        if self.hooks.stall_next_sync.swap(false, Ordering::SeqCst) {
            self.hooks.stalled.store(true, Ordering::SeqCst);
            let mut open = self.hooks.gate_open.lock().unwrap();
            while !*open {
                open = self.hooks.gate.wait(open).unwrap();
            }
        }
        self.inner.sync_data()
    }

    fn read_to_end(&mut self, out: &mut Vec<u8>) -> io::Result<usize> {
        self.inner.read_to_end(out)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }

    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.inner.seek(pos)
    }
}

impl Vfs for HookVfs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        StdVfs.create_dir_all(path)
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let inner = StdVfs.open_rw(path)?;
        if !path.ends_with("wal.log") {
            return Ok(inner);
        }
        Ok(Box::new(HookFile { inner, hooks: Arc::clone(&self.0) }))
    }

    fn create_new(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        StdVfs.create_new(path)
    }

    fn create_truncate(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        StdVfs.create_truncate(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        StdVfs.read(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        StdVfs.remove_file(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        StdVfs.rename(from, to)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        StdVfs.sync_dir(path)
    }
}

/// A fresh `Always` ledger at `root` over a [`HookVfs`], and its hooks.
fn hooked_ledger(root: &Path) -> (TenantLedger, Arc<WalHooks>) {
    let hooks = Arc::new(WalHooks::default());
    let vfs = Arc::new(HookVfs(Arc::clone(&hooks)));
    let (ledger, _) = TenantLedger::open_with_vfs(
        root.to_path_buf(),
        SyncPolicy::Always,
        LedgerOptions::default(),
        vfs,
    )
    .unwrap();
    (ledger, hooks)
}

/// Polls `done` every millisecond for up to ten seconds.
fn eventually(done: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    while !done() {
        if start.elapsed() > Duration::from_secs(10) {
            return false;
        }
        thread::sleep(Duration::from_millis(1));
    }
    true
}

/// A panic while a thread holds the ledger's writer closes the ledger: the
/// next append and sync return a typed permanent error instead of
/// panicking on the poisoned lock.
#[test]
fn a_panic_under_the_ledger_lock_closes_the_ledger() {
    let root = temp_root("lock-poison");
    let (ledger, hooks) = hooked_ledger(&root);
    hooks.panic_next_write.store(true, Ordering::SeqCst);
    let first =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ledger.append_grant(&grant(0))));
    assert!(first.is_err(), "the injected write panic reaches the appender");
    for (what, result) in [("append", ledger.append_grant(&grant(1))), ("sync", ledger.sync())] {
        let err = result.expect_err(what);
        assert_eq!(typed(&err).class, FaultClass::Permanent, "{what}: {err}");
    }
    drop(ledger);
    let _ = std::fs::remove_dir_all(&root);
}

/// Dropping a ledger closed by a panic releases its LOCK: the same process
/// can reopen the shard and recovers every grant made durable before the
/// panic.
#[test]
fn a_ledger_closed_by_a_panic_can_be_reopened_in_the_same_process() {
    let root = temp_root("lock-poison-reopen");
    let (ledger, hooks) = hooked_ledger(&root);
    for index in 0..3 {
        ledger.append_grant(&grant(index)).unwrap();
    }
    hooks.panic_next_write.store(true, Ordering::SeqCst);
    let panicked =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ledger.append_grant(&grant(3))));
    assert!(panicked.is_err(), "the injected write panic reaches the appender");
    drop(ledger);

    let (reopened, recovered) = TenantLedger::open(&root, SyncPolicy::Always).unwrap();
    let indices: Vec<u64> = recovered.grants.iter().map(|g| g.index).collect();
    assert_eq!(indices, [0, 1, 2]);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&root);
}

/// Concurrent `Always` appenders share fsyncs without a committer thread:
/// while the first append's fsync stalls, seven more queue behind it, and
/// the next leader makes all seven durable with one write and one fsync.
#[test]
fn always_appenders_queued_behind_a_stalled_fsync_share_the_next_one() {
    const LATER: u64 = 7;
    let root = temp_root("natural-batching");
    let (ledger, hooks) = hooked_ledger(&root);
    let ledger = Arc::new(ledger);
    let syncs_at_open = hooks.syncs.load(Ordering::SeqCst);
    hooks.stall_next_sync.store(true, Ordering::SeqCst);
    let append = |index: u64| {
        let ledger = Arc::clone(&ledger);
        thread::spawn(move || ledger.append_grant(&grant(index)))
    };
    let mut appenders = vec![append(0)];
    let stalled = eventually(|| hooks.stalled.load(Ordering::SeqCst));
    appenders.extend((1..=LATER).map(append));
    let queued =
        stalled && eventually(|| ledger.group_commit_stats().submitted_frames == LATER + 1);
    hooks.release();
    for appender in appenders {
        appender.join().unwrap().unwrap();
    }
    assert!(stalled, "the first append never reached its fsync");
    assert!(queued, "the later appenders did not queue behind the stalled fsync");

    assert_eq!(hooks.syncs.load(Ordering::SeqCst) - syncs_at_open, 2, "wal.log fsyncs");
    let stats = ledger.group_commit_stats();
    assert_eq!((stats.batches, stats.largest_batch), (2, LATER));
    assert_eq!(stats.durable_frames, LATER + 1);
    let mut indices: Vec<u64> =
        TenantLedger::peek(&root).unwrap().grants.iter().map(|g| g.index).collect();
    indices.sort_unstable();
    assert_eq!(indices, (0..=LATER).collect::<Vec<_>>());
    drop(ledger);
    let _ = std::fs::remove_dir_all(&root);
}

/// What a recovered shard says about its durable history: spent units,
/// grant count, the replayed grant indices, refusals and transition
/// versions. Everything but the torn bytes a repair removes.
fn durable_view(r: &RecoveredLedger) -> (u64, u64, Vec<u64>, u64, Vec<u64>) {
    (
        r.spent_units(),
        r.grant_count(),
        r.grants.iter().map(|g| g.index).collect(),
        r.refusal_count(),
        r.transitions.iter().map(|t| t.version).collect(),
    )
}

/// A grant of 250 units with release index `index`.
fn grant_250(index: u64) -> GrantRecord {
    GrantRecord { units: 250, ..grant(index) }
}

/// The epoch transition to version 1 at release index `boundary_seq`.
fn transition(boundary_seq: u64) -> EpochRecord {
    EpochRecord { version: 1, boundary_seq, relaxes: false, label: "P-v1".into() }
}

/// Copies the files of shard `from` into a fresh directory `to`.
fn copy_shard(from: &std::path::Path, to: &std::path::Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// Opening a shard with a torn tail repairs the tail. A fault during that
/// repair may refuse the open, but must never cost durable history: the
/// shard read afterwards holds exactly what it held before.
#[test]
fn a_fault_while_repairing_a_torn_tail_loses_nothing() {
    let root = temp_root("torn-repair");
    let template = root.join("template");
    {
        let (ledger, _) = TenantLedger::open(&template, SyncPolicy::EveryN(4)).unwrap();
        ledger.append_epoch_transition(&transition(2)).unwrap();
        for i in 0..6 {
            ledger.append_grant(&grant_250(i)).unwrap();
        }
        // Frames 0–3 (the transition and three grants) are flushed; the
        // crash lands half of the buffered three: one whole, one torn.
        ledger.crash(0.5).unwrap();
    }
    assert!(force_unlock(&template).unwrap());
    let before = TenantLedger::peek(&template).unwrap();
    assert!(before.truncated_bytes > 0, "the template has a torn tail");
    assert_eq!(before.spent_units(), 1_000);

    let faults = [
        (PersistOp::Write, 0),
        (PersistOp::Write, 1),
        (PersistOp::Write, 2),
        (PersistOp::Fsync, 0),
        (PersistOp::Fsync, 1),
    ];
    for (case, (op, nth)) in faults.into_iter().enumerate() {
        let dir = root.join(format!("case-{case}"));
        copy_shard(&template, &dir);
        let plan =
            FaultPlan::new().fail_nth(op, "wal.log", nth, FaultKind::Fail(FaultClass::Permanent));
        let opened = TenantLedger::open_with_vfs(
            dir.clone(),
            SyncPolicy::Always,
            fast_retry(),
            FaultVfs::new(plan),
        );
        if let Ok((_, recovered)) = &opened {
            assert_eq!(durable_view(recovered), durable_view(&before), "{op:?} #{nth}");
        }
        drop(opened);
        let after = TenantLedger::peek(&dir).unwrap();
        assert_eq!(durable_view(&after), durable_view(&before), "{op:?} #{nth}: history lost");
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A snapshot rotation whose WAL rewrite fails poisons the ledger: the
/// next append is refused, so no grant is acknowledged into a WAL that
/// recovery would ignore or cannot read, and the epoch history survives.
#[test]
fn a_failed_wal_rewrite_poisons_the_ledger() {
    // Write ops on wal.log: #0–#1 open a fresh shard, #2 is the
    // transition, #3–#5 the grants; the rotation's rewrite comes next.
    let faults = [
        (PersistOp::Write, 6),
        (PersistOp::Write, 7),
        (PersistOp::Fsync, 5),
        (PersistOp::Fsync, 6),
        (PersistOp::Rename, 0),
        (PersistOp::Open, 1),
    ];
    for (case, (op, nth)) in faults.into_iter().enumerate() {
        let root = temp_root(&format!("rewrite-poison-{case}"));
        let plan =
            FaultPlan::new().fail_nth(op, "wal.log", nth, FaultKind::Fail(FaultClass::Permanent));
        let (ledger, _) = TenantLedger::open_with_vfs(
            root.clone(),
            SyncPolicy::Always,
            fast_retry(),
            FaultVfs::new(plan),
        )
        .unwrap();
        ledger.append_epoch_transition(&transition(0)).unwrap();
        let mut acked = 0;
        for i in 0..3 {
            ledger.append_grant(&grant_250(i)).unwrap();
            acked += 250;
        }
        let rotated = ledger.rotate_snapshot();
        let appended = ledger.append_grant(&grant_250(3));
        if appended.is_ok() {
            acked += 250;
        }
        if rotated.is_err() {
            assert!(appended.is_err(), "{op:?} #{nth}: a failed rewrite must poison the ledger");
        }
        drop(ledger);

        let _ = force_unlock(&root);
        let recovered = TenantLedger::peek(&root)
            .unwrap_or_else(|e| panic!("{op:?} #{nth}: the shard must stay readable: {e}"));
        assert!(recovered.spent_units() >= acked, "{op:?} #{nth}: an acknowledged grant was lost");
        assert!(recovered.spent_units() <= 1_000, "{op:?} #{nth}");
        assert_eq!(recovered.transitions.len(), 1, "{op:?} #{nth}: the epoch history was lost");
        let (_ledger, reopened) = TenantLedger::open(&root, SyncPolicy::Always).unwrap();
        assert_eq!(durable_view(&reopened), durable_view(&recovered), "{op:?} #{nth}");
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// A histogram-backed session builder (same substrate as the recovery
/// tests; ε debits of 1/8 divide the 1.0 cap exactly).
fn builder(seed: u64) -> SessionBuilder<Record> {
    let full = Histogram::from_counts(vec![40.0, 10.0, 25.0, 25.0]);
    let ns = Histogram::from_counts(vec![30.0, 10.0, 0.0, 20.0]);
    histogram_session(full, ns).policy_label("P-faults").seed(seed).budget(1.0)
}

/// One fault-sweep case: a seeded fault plan under one sync policy, driven
/// through the full engine grant path. Checks the recovery invariants that
/// must hold under **any** fault schedule.
fn sweep_case(seed: u64, policy: SyncPolicy, tag: &str) {
    let root = temp_root(tag);
    let vfs: Arc<dyn Vfs> = FaultVfs::new(FaultPlan::seeded(seed));
    let options = fast_retry();
    // An open refused by an injected fault admits nothing — nothing to
    // verify for this schedule.
    let Ok(persistence) =
        SessionPersistence::open_with_vfs(root.clone(), policy, options, Arc::clone(&vfs))
    else {
        let _ = std::fs::remove_dir_all(&root);
        return;
    };
    let session = builder(seed ^ 0x5eed).durable(persistence).build().unwrap();
    let mechanism = OsdpLaplaceL1::new(0.125).unwrap();
    let mut acked_units = 0u64;
    for _ in 0..12 {
        if session.release(&SessionQuery::bound(), &mechanism).is_ok() {
            acked_units += osdp::core::budget::epsilon_to_units(0.125);
        }
    }
    let admitted_units = session.accountant().total_spent_units();
    // Fail-closed bookkeeping: a WAL-refused grant is refused to the
    // caller but conservatively *kept* by both the accountant and the
    // audit log — so those two stay equal under any fault schedule, and
    // acknowledged grants are a subset of admitted ones.
    assert_eq!(session.audit_total_epsilon_units(), admitted_units);
    assert!(acked_units <= admitted_units);
    assert!(admitted_units <= osdp::core::budget::epsilon_to_units(1.0), "cap holds live");
    drop(session);

    // Recover with the real file system: whatever the fault schedule did,
    // the shard must come back consistent.
    let _ = force_unlock(&root);
    let recovered = TenantLedger::peek(&root)
        .unwrap_or_else(|e| panic!("recovery must survive fault plan seed={seed}: {e}"));
    assert!(
        recovered.spent_units() <= admitted_units,
        "recovery overspent: {} > admitted {} (seed={seed}, {policy:?})",
        recovered.spent_units(),
        admitted_units,
    );
    if matches!(policy, SyncPolicy::Always) {
        assert!(
            recovered.spent_units() >= acked_units,
            "acknowledged grants lost: {} < acked {} (seed={seed}, {policy:?})",
            recovered.spent_units(),
            acked_units,
        );
    }
    for pair in recovered.grants.windows(2) {
        assert!(pair[0].index < pair[1].index, "replay must be prefix-closed and ordered");
    }

    // A full reopen agrees with the independent peek bit for bit —
    // accountant == audit == ledger.
    let reopened = SessionPersistence::open(root.clone(), SyncPolicy::Always).unwrap();
    let session = builder(1).durable(reopened).build().unwrap();
    assert_eq!(session.accountant().total_spent_units(), session.audit_total_epsilon_units());
    let peek = TenantLedger::peek(&root).unwrap();
    assert_eq!(session.accountant().total_spent_units(), peek.spent_units());
    drop(session);
    let _ = std::fs::remove_dir_all(&root);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fault sweep (satellite of the failure-model PR): arbitrary
    /// seeded fault plans × four sync configurations.
    #[test]
    fn seeded_fault_plans_never_unbalance_recovery(seed in 0u64..u64::MAX / 2) {
        for (i, policy) in [
            SyncPolicy::Always,
            SyncPolicy::EveryN(3),
            SyncPolicy::EveryN(u32::MAX),
            SyncPolicy::group_commit(),
        ]
        .into_iter()
        .enumerate()
        {
            sweep_case(seed, policy, &format!("sweep-{seed}-{i}"));
        }
    }
}
