//! The virtual file system under every byte of ledger IO.
//!
//! All of `osdp-persist`'s file operations go through the [`Vfs`] /
//! [`VfsFile`] traits. Production uses [`StdVfs`] (a zero-cost shim over
//! `std::fs`); tests use [`FaultVfs`], which wraps `StdVfs` and injects
//! **deterministic, seeded** faults per a [`FaultPlan`]: fail-on-nth-op,
//! short (torn) writes, fsync failure, `ENOSPC`, read bit-flips, and
//! rename failure, each scoped to a path pattern. Determinism matters:
//! every fault a plan fires is a function of the plan and the operation
//! sequence, so a failing seed replays exactly.
//!
//! The fault taxonomy mirrors [`FaultClass`]: injected errors carry an
//! `io::ErrorKind` that [`classify`] maps back to `Transient` (interrupted,
//! would-block, timed-out) or `Permanent` (everything else, including
//! `ENOSPC`), which is the same classification the retry layer applies to
//! real OS errors.

use osdp_core::error::{FaultClass, PersistError, PersistOp};
use std::fmt::Debug;
use std::fs::{File, OpenOptions};
use std::io::{self, IoSlice, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Maps an `io::ErrorKind` to the retry class. Interrupted syscalls,
/// would-block, and timeouts are worth retrying on the same handle;
/// everything else (disk full, bad descriptor, permission, corruption) is
/// permanent for the handle.
pub fn classify(err: &io::Error) -> FaultClass {
    match err.kind() {
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
            FaultClass::Transient
        }
        _ => FaultClass::Permanent,
    }
}

/// Builds a typed [`PersistError`] from an `io::Error`, classifying it.
pub fn persist_error(op: PersistOp, path: &Path, err: &io::Error) -> PersistError {
    PersistError::new(op, path.display().to_string(), classify(err), err.to_string())
}

/// An open ledger file. Object-safe so ledgers hold `Box<dyn VfsFile>`.
pub trait VfsFile: Send + Debug {
    /// Writes some bytes, returning how many were accepted.
    fn write(&mut self, buf: &[u8]) -> io::Result<usize>;

    /// Vectored write of several buffers, returning bytes accepted. The
    /// ledger writes one contiguous buffer per flush and never calls this;
    /// the default forwards the first non-empty buffer to `write`.
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match bufs.iter().find(|b| !b.is_empty()) {
            Some(first) => self.write(first),
            None => Ok(0),
        }
    }

    /// Writes the whole buffer or fails. Unlike `std::io::Write::write_all`
    /// this does **not** swallow `Interrupted` — the caller's retry layer
    /// owns that decision (and fault plans rely on every injected error
    /// surfacing).
    fn write_all(&mut self, mut buf: &[u8]) -> io::Result<()> {
        while !buf.is_empty() {
            match self.write(buf) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "file refused further bytes",
                    ));
                }
                Ok(n) => buf = &buf[n..],
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// `fdatasync`.
    fn sync_data(&mut self) -> io::Result<()>;

    /// Reads everything from the current position.
    fn read_to_end(&mut self, out: &mut Vec<u8>) -> io::Result<usize>;

    /// Truncates (or extends) the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;

    /// Seeks, returning the new position.
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64>;
}

/// The file system a ledger shard lives on. Object-safe; ledgers hold an
/// `Arc<dyn Vfs>`.
pub trait Vfs: Send + Sync + Debug {
    /// `mkdir -p`.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// Opens (creating if absent, never truncating) a file for read+write.
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// Creates a file that must not already exist (`O_CREAT|O_EXCL`) —
    /// the single-writer lock primitive.
    fn create_new(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// Creates (truncating if present) a file for writing.
    fn create_truncate(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Renames a file (atomic within a directory on POSIX).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Fsyncs a directory, making renames within it durable.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
}

/// The production VFS: a transparent shim over `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdVfs;

/// A real file behind the [`StdVfs`].
#[derive(Debug)]
struct StdFile(File);

impl VfsFile for StdFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        self.0.write_vectored(bufs)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }

    fn read_to_end(&mut self, out: &mut Vec<u8>) -> io::Result<usize> {
        self.0.read_to_end(out)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }

    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.0.seek(pos)
    }
}

impl Vfs for StdVfs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        Ok(Box::new(StdFile(file)))
    }

    fn create_new(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = OpenOptions::new().write(true).create_new(true).open(path)?;
        Ok(Box::new(StdFile(file)))
    }

    fn create_truncate(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(StdFile(File::create(path)?)))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        File::open(path)?.sync_all()
    }
}

/// What an armed [`FaultRule`] does when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The operation fails outright with an injected error of this class.
    Fail(FaultClass),
    /// A write fails with `ENOSPC` (permanent) after accepting nothing.
    DiskFull,
    /// A **torn write**: the first `keep_bytes` bytes reach the file, then
    /// the call fails with an error of `class` — the mid-`write(2)`
    /// interruption the WAL's truncate-and-retry boundary logic defends
    /// against.
    TornWrite {
        /// Bytes that land before the failure.
        keep_bytes: usize,
        /// The class of the reported error.
        class: FaultClass,
    },
    /// `fdatasync` fails. Always permanent for the handle: after a failed
    /// fsync the page-cache state is unknown and re-fsyncing the same
    /// descriptor proves nothing.
    FsyncFail,
    /// The read succeeds but one bit of the returned data is flipped —
    /// silent media corruption, caught (not repaired) by the WAL CRCs.
    BitFlip {
        /// Which bit to flip, modulo the data length in bits.
        bit_index: u64,
    },
    /// The rename fails (permanent), leaving both names as they were.
    RenameFail,
}

/// One deterministic fault: fires on the `after`-th (0-based) operation
/// matching `op` on a path containing `path_contains`; `sticky` rules keep
/// firing on every later match.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// Substring the operation's path must contain (empty matches all).
    pub path_contains: String,
    /// The operation kind this rule arms on.
    pub op: PersistOp,
    /// Matching operations to let through before firing.
    pub after: u64,
    /// Stop firing once this many matching operations have been seen
    /// (`None` = no upper bound). Together with `after` this models a fault
    /// **window** — a device-wide `ENOSPC` storm that eventually clears, a
    /// controller that drops fsyncs for a while and recovers — which is what
    /// incident-correlation tests need: faults that open an incident and
    /// then stop so healing can be observed.
    pub until: Option<u64>,
    /// What happens when the rule fires.
    pub kind: FaultKind,
    /// Fire on every subsequent match instead of once.
    pub sticky: bool,
}

/// A deterministic fault schedule for a [`FaultVfs`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The rules, consulted in order; the first armed match fires.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (the `FaultVfs` behaves exactly like [`StdVfs`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a one-shot rule: the `after`-th `op` on a matching path fails.
    pub fn fail_nth(
        mut self,
        op: PersistOp,
        path_contains: &str,
        after: u64,
        kind: FaultKind,
    ) -> Self {
        self.rules.push(FaultRule {
            path_contains: path_contains.to_string(),
            op,
            after,
            until: None,
            kind,
            sticky: false,
        });
        self
    }

    /// Adds a sticky rule: every matching `op` from the `after`-th on fails.
    pub fn fail_from(
        mut self,
        op: PersistOp,
        path_contains: &str,
        after: u64,
        kind: FaultKind,
    ) -> Self {
        self.rules.push(FaultRule {
            path_contains: path_contains.to_string(),
            op,
            after,
            until: None,
            kind,
            sticky: true,
        });
        self
    }

    /// Adds a windowed rule: every matching `op` in `[after, until)` fails,
    /// then the fault **clears** — the shape of a shared-device storm
    /// (`ENOSPC` until an operator frees space, a controller rejecting
    /// fsyncs until it resets).
    pub fn fail_window(
        mut self,
        op: PersistOp,
        path_contains: &str,
        after: u64,
        until: u64,
        kind: FaultKind,
    ) -> Self {
        self.rules.push(FaultRule {
            path_contains: path_contains.to_string(),
            op,
            after,
            until: Some(until),
            kind,
            sticky: true,
        });
        self
    }

    /// A deterministic pseudo-random plan derived from `seed` (splitmix64,
    /// no external dependency): one to three rules over the WAL and
    /// snapshot paths, drawn from the full fault taxonomy. The same seed
    /// always yields the same plan, so a failing sweep case replays.
    pub fn seeded(seed: u64) -> Self {
        let mut state = seed;
        let mut next = move || {
            // splitmix64: the standard 64-bit mixer.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut plan = FaultPlan::new();
        let rules = 1 + (next() % 3) as usize;
        for _ in 0..rules {
            let op = match next() % 5 {
                0 => PersistOp::Write,
                1 => PersistOp::Fsync,
                2 => PersistOp::Read,
                3 => PersistOp::Rename,
                _ => PersistOp::Write,
            };
            let path = match next() % 3 {
                0 => "wal.log",
                1 => "snapshot",
                _ => "",
            };
            let class = if next() % 2 == 0 { FaultClass::Transient } else { FaultClass::Permanent };
            let kind = match (op, next() % 4) {
                (PersistOp::Write, 0) => FaultKind::DiskFull,
                (PersistOp::Write, 1) => {
                    FaultKind::TornWrite { keep_bytes: (next() % 64) as usize, class }
                }
                (PersistOp::Fsync, _) => FaultKind::FsyncFail,
                (PersistOp::Read, 0 | 1) => FaultKind::BitFlip { bit_index: next() },
                (PersistOp::Rename, _) => FaultKind::RenameFail,
                _ => FaultKind::Fail(class),
            };
            plan.rules.push(FaultRule {
                path_contains: path.to_string(),
                op,
                after: next() % 12,
                until: None,
                kind,
                sticky: next() % 4 == 0,
            });
        }
        plan
    }
}

/// Per-rule firing state.
#[derive(Debug, Default)]
struct RuleState {
    /// Matching operations seen so far.
    matched: u64,
    /// Whether a non-sticky rule has already fired.
    fired: bool,
}

/// State shared by the [`FaultVfs`] and every file it has opened.
#[derive(Debug)]
struct FaultShared {
    plan: FaultPlan,
    state: Mutex<Vec<RuleState>>,
    injected: AtomicU64,
}

impl FaultShared {
    /// Consults the plan for operation `op` on `path`; the first armed
    /// matching rule fires and its kind is returned.
    fn fault_for(&self, op: PersistOp, path: &Path) -> Option<FaultKind> {
        let path = path.to_string_lossy();
        let mut states = self.state.lock().expect("fault plan lock");
        for (rule, state) in self.plan.rules.iter().zip(states.iter_mut()) {
            if rule.op != op || !path.contains(rule.path_contains.as_str()) {
                continue;
            }
            let at = state.matched;
            state.matched += 1;
            if at < rule.after
                || rule.until.is_some_and(|until| at >= until)
                || (state.fired && !rule.sticky)
            {
                continue;
            }
            state.fired = true;
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Some(rule.kind);
        }
        None
    }
}

/// The injected `io::Error` of a [`FaultKind`].
fn injected_error(kind: FaultKind) -> io::Error {
    let (io_kind, msg) = match kind {
        FaultKind::Fail(FaultClass::Transient) => {
            (io::ErrorKind::WouldBlock, "injected transient fault")
        }
        FaultKind::Fail(FaultClass::Permanent) => {
            (io::ErrorKind::Other, "injected permanent fault")
        }
        FaultKind::DiskFull => (io::ErrorKind::StorageFull, "injected ENOSPC"),
        FaultKind::TornWrite { class: FaultClass::Transient, .. } => {
            (io::ErrorKind::WouldBlock, "injected torn write (transient)")
        }
        FaultKind::TornWrite { class: FaultClass::Permanent, .. } => {
            (io::ErrorKind::Other, "injected torn write (permanent)")
        }
        FaultKind::FsyncFail => (io::ErrorKind::Other, "injected fsync failure"),
        FaultKind::BitFlip { .. } => (io::ErrorKind::InvalidData, "injected bit flip"),
        FaultKind::RenameFail => (io::ErrorKind::Other, "injected rename failure"),
    };
    io::Error::new(io_kind, msg)
}

/// A [`Vfs`] that delegates to [`StdVfs`] but injects the faults of its
/// [`FaultPlan`] deterministically. Cheap to share: clone the `Arc`.
#[derive(Debug)]
pub struct FaultVfs {
    inner: StdVfs,
    shared: Arc<FaultShared>,
}

impl FaultVfs {
    /// A fault-injecting VFS armed with `plan`.
    pub fn new(plan: FaultPlan) -> Arc<Self> {
        let state = (0..plan.rules.len()).map(|_| RuleState::default()).collect();
        Arc::new(Self {
            inner: StdVfs,
            shared: Arc::new(FaultShared {
                plan,
                state: Mutex::new(state),
                injected: AtomicU64::new(0),
            }),
        })
    }

    /// How many faults have fired so far (observability for tests).
    pub fn injected_faults(&self) -> u64 {
        self.shared.injected.load(Ordering::Relaxed)
    }

    /// Consults the plan; maps a non-write-specific fault to its error.
    fn check(&self, op: PersistOp, path: &Path) -> io::Result<()> {
        match self.shared.fault_for(op, path) {
            Some(kind) => Err(injected_error(kind)),
            None => Ok(()),
        }
    }

    /// Applies any armed bit-flip to freshly-read bytes.
    fn corrupt_read(&self, path: &Path, bytes: &mut [u8]) -> io::Result<()> {
        match self.shared.fault_for(PersistOp::Read, path) {
            None => Ok(()),
            Some(FaultKind::BitFlip { bit_index }) => {
                if !bytes.is_empty() {
                    let bit = bit_index % (bytes.len() as u64 * 8);
                    bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
                }
                Ok(())
            }
            Some(kind) => Err(injected_error(kind)),
        }
    }
}

impl Vfs for FaultVfs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.check(PersistOp::CreateDir, path)?;
        self.inner.create_dir_all(path)
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.check(PersistOp::Open, path)?;
        let inner = self.inner.open_rw(path)?;
        Ok(Box::new(FaultFile {
            inner,
            path: path.to_path_buf(),
            shared: Arc::clone(&self.shared),
        }))
    }

    fn create_new(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.check(PersistOp::Open, path)?;
        let inner = self.inner.create_new(path)?;
        Ok(Box::new(FaultFile {
            inner,
            path: path.to_path_buf(),
            shared: Arc::clone(&self.shared),
        }))
    }

    fn create_truncate(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.check(PersistOp::Open, path)?;
        let inner = self.inner.create_truncate(path)?;
        Ok(Box::new(FaultFile {
            inner,
            path: path.to_path_buf(),
            shared: Arc::clone(&self.shared),
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut bytes = self.inner.read(path)?;
        self.corrupt_read(path, &mut bytes)?;
        Ok(bytes)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.check(PersistOp::Remove, path)?;
        self.inner.remove_file(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.check(PersistOp::Rename, from)?;
        self.inner.rename(from, to)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.check(PersistOp::Fsync, path)?;
        self.inner.sync_dir(path)
    }
}

/// A file opened through a [`FaultVfs`]: consults the shared plan on every
/// operation, delegating to the real file in between.
#[derive(Debug)]
struct FaultFile {
    inner: Box<dyn VfsFile>,
    path: PathBuf,
    shared: Arc<FaultShared>,
}

impl VfsFile for FaultFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.shared.fault_for(PersistOp::Write, &self.path) {
            None => self.inner.write(buf),
            Some(kind @ FaultKind::TornWrite { keep_bytes, .. }) => {
                // The torn prefix really lands; the caller sees a failure.
                let keep = keep_bytes.min(buf.len());
                if keep > 0 {
                    self.inner.write_all(&buf[..keep])?;
                }
                Err(injected_error(kind))
            }
            Some(kind) => Err(injected_error(kind)),
        }
    }

    fn sync_data(&mut self) -> io::Result<()> {
        match self.shared.fault_for(PersistOp::Fsync, &self.path) {
            None => self.inner.sync_data(),
            Some(kind) => Err(injected_error(kind)),
        }
    }

    fn read_to_end(&mut self, out: &mut Vec<u8>) -> io::Result<usize> {
        let start = out.len();
        let n = self.inner.read_to_end(out)?;
        match self.shared.fault_for(PersistOp::Read, &self.path) {
            None => Ok(n),
            Some(FaultKind::BitFlip { bit_index }) => {
                let fresh = &mut out[start..];
                if !fresh.is_empty() {
                    let bit = bit_index % (fresh.len() as u64 * 8);
                    fresh[(bit / 8) as usize] ^= 1 << (bit % 8);
                }
                Ok(n)
            }
            Some(kind) => Err(injected_error(kind)),
        }
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        match self.shared.fault_for(PersistOp::Write, &self.path) {
            None => self.inner.set_len(len),
            Some(kind) => Err(injected_error(kind)),
        }
    }

    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        // Seeks carry no data; faulting them adds schedules without adding
        // failure modes, so they pass through.
        self.inner.seek(pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("osdp-vfs-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn classification_splits_transient_from_permanent() {
        for kind in [io::ErrorKind::Interrupted, io::ErrorKind::WouldBlock, io::ErrorKind::TimedOut]
        {
            assert_eq!(classify(&io::Error::new(kind, "x")), FaultClass::Transient);
        }
        for kind in
            [io::ErrorKind::StorageFull, io::ErrorKind::PermissionDenied, io::ErrorKind::Other]
        {
            assert_eq!(classify(&io::Error::new(kind, "x")), FaultClass::Permanent);
        }
    }

    #[test]
    fn std_vfs_round_trips_bytes() {
        let dir = tmp("std");
        let path = dir.join("f");
        let mut f = StdVfs.create_truncate(&path).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync_data().unwrap();
        drop(f);
        assert_eq!(StdVfs.read(&path).unwrap(), b"hello");
        let mut f = StdVfs.open_rw(&path).unwrap();
        assert_eq!(f.seek(SeekFrom::End(0)).unwrap(), 5);
        f.set_len(3).unwrap();
        drop(f);
        assert_eq!(StdVfs.read(&path).unwrap(), b"hel");
        StdVfs.rename(&path, &dir.join("g")).unwrap();
        StdVfs.sync_dir(&dir).unwrap();
        StdVfs.remove_file(&dir.join("g")).unwrap();
        assert!(StdVfs.create_new(&dir.join("g")).is_ok());
        assert!(StdVfs.create_new(&dir.join("g")).is_err(), "O_EXCL refuses a second creator");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fault_rules_fire_deterministically() {
        let dir = tmp("nth");
        let path = dir.join("wal.log");
        let plan = FaultPlan::new().fail_nth(
            PersistOp::Write,
            "wal.log",
            2,
            FaultKind::Fail(FaultClass::Transient),
        );
        let vfs = FaultVfs::new(plan);
        let mut f = vfs.create_truncate(&path).unwrap();
        f.write_all(b"a").unwrap();
        f.write_all(b"b").unwrap();
        let err = f.write_all(b"c").unwrap_err();
        assert_eq!(classify(&err), FaultClass::Transient);
        // One-shot: the next write goes through.
        f.write_all(b"d").unwrap();
        assert_eq!(vfs.injected_faults(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_writes_land_a_prefix_then_fail() {
        let dir = tmp("torn");
        let path = dir.join("wal.log");
        let plan = FaultPlan::new().fail_nth(
            PersistOp::Write,
            "wal.log",
            0,
            FaultKind::TornWrite { keep_bytes: 3, class: FaultClass::Transient },
        );
        let vfs = FaultVfs::new(plan);
        let mut f = vfs.create_truncate(&path).unwrap();
        let err = f.write_all(b"abcdef").unwrap_err();
        assert_eq!(classify(&err), FaultClass::Transient);
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), b"abc", "the torn prefix landed");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flips_corrupt_exactly_one_bit() {
        let dir = tmp("flip");
        let path = dir.join("snapshot.bin");
        std::fs::write(&path, [0u8; 16]).unwrap();
        let plan = FaultPlan::new().fail_nth(
            PersistOp::Read,
            "snapshot",
            0,
            FaultKind::BitFlip { bit_index: 13 },
        );
        let vfs = FaultVfs::new(plan);
        let corrupted = vfs.read(&path).unwrap();
        let ones: u32 = corrupted.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1, "exactly one bit flipped");
        // One-shot: a second read is clean.
        assert_eq!(vfs.read(&path).unwrap(), vec![0u8; 16]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sticky_rules_fire_forever_and_rename_faults_leave_files_alone() {
        let dir = tmp("sticky");
        let a = dir.join("snapshot.tmp");
        let b = dir.join("snapshot.bin");
        std::fs::write(&a, b"x").unwrap();
        let plan =
            FaultPlan::new().fail_from(PersistOp::Rename, "snapshot", 0, FaultKind::RenameFail);
        let vfs = FaultVfs::new(plan);
        assert!(vfs.rename(&a, &b).is_err());
        assert!(vfs.rename(&a, &b).is_err(), "sticky rules keep firing");
        assert!(a.exists() && !b.exists());
        assert_eq!(vfs.injected_faults(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn windowed_rules_fire_inside_the_window_and_then_clear() {
        let dir = tmp("window");
        let path = dir.join("wal.log");
        // Writes #1 and #2 fail (a two-op ENOSPC storm); #0 and #3+ pass.
        let plan =
            FaultPlan::new().fail_window(PersistOp::Write, "wal.log", 1, 3, FaultKind::DiskFull);
        let vfs = FaultVfs::new(plan);
        let mut f = vfs.create_truncate(&path).unwrap();
        f.write_all(b"a").unwrap();
        assert!(f.write_all(b"b").is_err());
        assert!(f.write_all(b"c").is_err());
        f.write_all(b"d").unwrap();
        f.write_all(b"e").unwrap();
        assert_eq!(vfs.injected_faults(), 2, "the storm cleared at the window end");
        assert_eq!(std::fs::read(&path).unwrap(), b"ade");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seeded_plans_are_deterministic_and_varied() {
        for seed in 0..64u64 {
            assert_eq!(FaultPlan::seeded(seed), FaultPlan::seeded(seed));
            let plan = FaultPlan::seeded(seed);
            assert!(!plan.rules.is_empty() && plan.rules.len() <= 3);
        }
        assert_ne!(FaultPlan::seeded(1), FaultPlan::seeded(2), "seeds vary the plan");
    }
}
