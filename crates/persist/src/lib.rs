//! # osdp-persist
//!
//! The **durable budget plane** of the OSDP workspace: a write-ahead ledger
//! of fixed-point ε debits, compact snapshots, and crash recovery for the
//! engine's `BudgetAccountant` + `AuditLog` pair.
//!
//! The in-memory accountant made debits *replay-exact*: every grant is an
//! integer number of `1e-12`-ε units, integer addition commutes, and the
//! audit log accumulates the **same** integers — so `audit_total_epsilon ==
//! total_spent` bit for bit under any interleaving. That property is exactly
//! what a write-ahead log needs: replaying any durable prefix of the grant
//! stream reconstructs a state whose totals are the integer sums of the
//! replayed records, with no float drift and no order sensitivity.
//!
//! ## Layout
//!
//! * [`crc`] — table-driven CRC-32 (IEEE, slicing-by-8), the per-record
//!   checksum.
//! * [`record`] — the [`WalRecord`] codec: grants, refusals and snapshot
//!   markers, hand-serialized (tag byte, little-endian integers,
//!   length-prefixed strings).
//! * [`wal`] — length-prefixed, CRC-checksummed framing; [`replay`] decodes
//!   the longest valid frame prefix in one pass (one CRC check per frame,
//!   labels shared between frames that repeat them) and reports where a
//!   torn tail begins.
//! * [`snapshot`] — the compact per-tenant snapshot: generation counter,
//!   unit totals, audit sequence, and per-(mechanism, policy, guarantee)
//!   aggregate rows.
//! * [`ledger`] — [`TenantLedger`]: one directory per tenant shard holding
//!   `wal.log` + `snapshot.bin` + `LOCK`, with configurable [`SyncPolicy`]
//!   and a crash-simulation hook. Its one append path batches concurrent
//!   appenders into one write + one fsync on the ledger's own two locks.
//! * [`vfs`] — the file-system seam every byte of ledger IO flows through:
//!   [`StdVfs`] for production and [`FaultVfs`], a deterministic seeded
//!   fault injector (fail-on-nth-op, windowed fault storms, torn writes,
//!   fsync failure, `ENOSPC`, read bit-flips, rename failure) for
//!   robustness tests.
//! * [`scrub`] — cold-data checksum scrubbing: re-reads a shard's WAL and
//!   snapshots through the [`Vfs`] seam, verifies frame CRCs **without
//!   decoding** ([`WalReader`]'s verify-only walk), and reports silent bit
//!   rot as a [`ScrubReport`] *before* recovery depends on the bytes.
//!
//! ## Failure handling
//!
//! IO faults are **typed** ([`osdp_core::error::PersistError`]: operation +
//! path + transient/permanent class). Transient write faults are retried
//! with bounded exponential backoff ([`RetryPolicy`]), truncating back to
//! the last known-good byte boundary between attempts so a retry never
//! duplicates a torn prefix mid-file. A failed **fsync is permanent for the
//! handle**: the page-cache state is unknown, the handle is poisoned, and
//! the only safe continuation is reopen + recover — the ledger never
//! re-fsyncs a descriptor whose fsync already failed. A snapshot rotation
//! replaces the WAL by writing the new one to `wal.log.tmp` and renaming it
//! into place; if any step fails the handle is poisoned too, so no grant is
//! acknowledged into a WAL that recovery would ignore. A thread that
//! panics while holding one of a ledger's locks closes the ledger the same
//! way: every later operation returns a typed permanent error. A corrupt
//! snapshot is quarantined as `snapshot.corrupt-<gen>` with fallback to the
//! parked prior generation (`snapshot.prev`) or the WAL marker, all
//! surfaced in a [`RecoveryReport`].
//!
//! ## Durability contract
//!
//! A record is **durable** once its frame has been written and fsync'd; the
//! [`SyncPolicy`] decides when that happens. On recovery, replay reads the
//! WAL once and stops at the first torn, checksum-failing or undecodable
//! frame: the recovered spent total is the sum of durably-logged grants —
//! never more than was actually admitted, and with [`SyncPolicy::Always`]
//! never less. Only then, and only over the bytes after the valid prefix,
//! does a verify-only checksum walk run, so the [`RecoveryReport`] can tell
//! mid-file corruption from a torn tail.
//!
//! Opening a shard repairs a torn or corrupt tail by **truncating** the
//! file to the valid prefix and fsyncing. The prefix is never rewritten, so
//! a fault during the repair may refuse the open but cannot lose a durable
//! frame. A WAL is rewritten only when its header is missing or short (it
//! then holds no frame) or its generation is behind the snapshot's (it is
//! then replaced the way rotation replaces it). One writer per tenant
//! shard, enforced by a `LOCK` file.
//!
//! Buffered use — fsync once per `n` appends, or with `EveryN(u32::MAX)`
//! only on an explicit sync, a snapshot or drop — is [`SyncPolicy::EveryN`].
//! It is not yet sound for a privacy ledger: a crash drops grants whose
//! samples were already released, so recovery under-counts spent ε (open
//! item 1 in `ROADMAP.md`).
//!
//! Concurrent appenders share fsyncs under every policy. While one
//! appender writes and fsyncs, the others encode their frames onto the
//! ledger's queue; the next one to take the writer flushes them all with
//! one write and one `fdatasync` (see [`ledger`]). So under `Always` —
//! which [`SyncPolicy::group_commit`] names for the serving plane — `k`
//! concurrent grantors approach `k` grants per fsync, while a crash still
//! loses **only frames whose append never returned**: a mid-batch sever
//! leaves a torn tail that recovery truncates, same as any torn frame.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod crc;
pub mod ledger;
pub mod record;
pub mod scrub;
pub mod snapshot;
pub mod vfs;
pub mod wal;

pub use crc::crc32;
pub use ledger::{
    force_unlock, GroupCommitStats, LedgerOptions, RecoveredLedger, RecoveryReport, TenantLedger,
};
pub use record::{
    EpochRecord, GrantRecord, GrantRef, GuaranteeTag, RefusalRecord, SnapshotCounters, WalRecord,
};
pub use scrub::{scrub_shard, ScrubFinding, ScrubReport, ScrubWarning};
pub use snapshot::{AggregateRow, SnapshotState};
pub use vfs::{
    classify, persist_error, FaultKind, FaultPlan, FaultRule, FaultVfs, StdVfs, Vfs, VfsFile,
};
pub use wal::{
    append_record, replay, FrameCorruption, FrameDefect, FrameVerification, ReplayOutcome,
    RetryPolicy, SyncPolicy, WalReader, WalWriter,
};
