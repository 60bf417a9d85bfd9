//! The engine face of the durable budget plane: adapters between the
//! on-disk types of `osdp-persist` and the live session objects
//! ([`osdp_core::BudgetAccountant`], [`crate::AuditLog`]).
//!
//! The conversion contract is **all-integer**: every grant record stores
//! the fixed-point debit (`epsilon_to_units(ε × trials)`) the accountant
//! admitted, recovery sums those stored integers, and the reconstructed
//! accountant/audit counters equal the pre-crash ones bit for bit. Floats
//! ride along only as display metadata (ledger entries, reports) — they are
//! never summed to rebuild a counter.

use crate::audit::{AuditKeyRef, AuditLog};
use osdp_core::budget::{epsilon_to_units, units_to_epsilon, LedgerEntry};
use osdp_core::error::Result;
use osdp_core::{Guarantee, PrivacyGuarantee};
use osdp_persist::{
    GrantRecord, GrantRef, GroupCommitStats, GuaranteeTag, LedgerOptions, RecoveredLedger,
    RecoveryReport, RefusalRecord, SnapshotCounters, SyncPolicy, TenantLedger, Vfs,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The WAL tag of an engine guarantee.
fn tag_of(guarantee: Guarantee) -> GuaranteeTag {
    match guarantee {
        Guarantee::Dp { .. } => GuaranteeTag::Dp,
        Guarantee::Osdp { .. } => GuaranteeTag::Osdp,
        Guarantee::Pdp { .. } => GuaranteeTag::Pdp,
    }
}

/// The engine guarantee a WAL tag decodes to, rehydrated with its ε.
fn guarantee_of(tag: GuaranteeTag, eps: f64) -> Guarantee {
    match tag {
        GuaranteeTag::Dp => Guarantee::Dp { eps },
        GuaranteeTag::Osdp => Guarantee::Osdp { eps },
        GuaranteeTag::Pdp => Guarantee::Pdp { eps },
    }
}

/// The ledger [`PrivacyGuarantee`] kind of a WAL tag.
fn kind_of(tag: GuaranteeTag) -> PrivacyGuarantee {
    match tag {
        GuaranteeTag::Dp => PrivacyGuarantee::DifferentialPrivacy,
        GuaranteeTag::Osdp => PrivacyGuarantee::OneSided,
        GuaranteeTag::Pdp => PrivacyGuarantee::Personalized,
    }
}

/// One admitted grant, as the grant path describes it to the WAL: the
/// audit-record metadata plus the guarantee whose ε × `trials` debit the
/// accountant just admitted.
#[derive(Debug, Clone, Copy)]
pub struct GrantEvent<'a> {
    /// The release index the audit log allocated.
    pub index: u64,
    /// Mechanism display name.
    pub mechanism: &'a str,
    /// Policy label.
    pub policy: &'a str,
    /// Query label.
    pub query: &'a str,
    /// Histogram bins of the released estimate.
    pub bins: usize,
    /// Trials covered by this single grant.
    pub trials: usize,
    /// The per-trial guarantee.
    pub guarantee: Guarantee,
    /// Policy epoch version the release was stamped with.
    pub policy_version: u64,
}

/// A session's handle on its tenant WAL shard: the hook the grant path
/// calls **after** the accountant's CAS admits a debit and **before** any
/// noise is sampled. Cloneable (shares the underlying single-writer
/// ledger), so pool routing and the session can hold it together.
#[derive(Debug, Clone)]
pub struct SessionWal {
    ledger: Arc<TenantLedger>,
}

impl SessionWal {
    /// Logs one admitted grant. `units` is re-derived here as
    /// `epsilon_to_units(guarantee ε × trials)` — the **same** f64
    /// expression and ceiling conversion the accountant debited and the
    /// audit log accumulated, so replaying the stored integer reconstructs
    /// both counters exactly.
    ///
    /// The labels are only lent to the ledger, which encodes and mirrors
    /// them without copying under every sync policy.
    pub fn log_grant(&self, event: GrantEvent<'_>) -> Result<()> {
        let total_epsilon = event.guarantee.epsilon() * event.trials as f64;
        self.ledger.append_grant(GrantRef {
            index: event.index,
            units: epsilon_to_units(total_epsilon),
            epsilon: event.guarantee.epsilon(),
            trials: event.trials as u64,
            bins: event.bins as u64,
            guarantee: tag_of(event.guarantee),
            mechanism: event.mechanism,
            policy: event.policy,
            query: event.query,
            policy_version: event.policy_version,
        })
    }

    /// Logs a policy epoch transition so recovery can reconstruct the
    /// version history bit for bit. Called **after** the in-memory
    /// transition is live (new epoch installed, audit version bumped): on
    /// WAL failure the error propagates but the in-memory epoch stays in
    /// force — safe for tightenings (serving under a stricter policy than
    /// the durable record claims), and surfaced to the caller for
    /// relaxations.
    pub fn log_epoch_transition(&self, record: &osdp_persist::EpochRecord) -> Result<()> {
        self.ledger.append_epoch_transition(record)
    }

    /// Logs a refused grant (best-effort observability — refusals spend
    /// nothing, so losing one never unbalances recovery).
    pub fn log_refusal(&self, mechanism: &str, epsilon: f64) -> Result<()> {
        self.ledger.append_refusal(&RefusalRecord {
            units: epsilon_to_units(epsilon),
            epsilon,
            mechanism: Arc::from(mechanism),
        })
    }

    /// Flushes and fsyncs every buffered frame, regardless of sync policy.
    pub fn sync(&self) -> Result<()> {
        self.ledger.sync()
    }

    /// Collapses the logged history into a new snapshot generation and
    /// resets the WAL ([`TenantLedger::rotate_snapshot`]).
    pub fn snapshot(&self) -> Result<()> {
        self.ledger.rotate_snapshot()
    }

    /// Checksum-verifies this shard's cold data through the ledger's own
    /// VFS ([`TenantLedger::scrub`]): WAL frame CRCs without decoding,
    /// snapshot codecs, no lock taken, no byte written. Safe to call while
    /// the session is serving grants — a racing append is at most a benign
    /// torn-tail warning in the report.
    pub fn scrub(&self) -> Result<osdp_persist::ScrubReport> {
        self.ledger.scrub()
    }

    /// Crash simulation hook ([`TenantLedger::crash`]): drops buffered
    /// frames (optionally writing a torn prefix), leaves the `LOCK` file
    /// behind, and poisons every later append.
    pub fn crash(&self, keep_fraction: f64) -> Result<()> {
        self.ledger.crash(keep_fraction)
    }

    /// The shard directory this WAL writes to.
    pub fn dir(&self) -> &Path {
        self.ledger.dir()
    }

    /// The configured sync policy.
    pub fn sync_policy(&self) -> SyncPolicy {
        self.ledger.sync_policy()
    }

    /// The counters a snapshot taken now would contain (logged state).
    pub fn counters(&self) -> SnapshotCounters {
        self.ledger.counters()
    }

    /// How this shard's frames reached the disk, for every sync policy:
    /// submitted frames, the durable watermark, flushes (batches), and the
    /// largest batch — `durable_frames / batches` is the realized fsync
    /// amortization factor.
    pub fn group_commit_stats(&self) -> GroupCommitStats {
        self.ledger.group_commit_stats()
    }
}

/// What recovery reconstructed for one session: seed values for
/// [`osdp_core::BudgetAccountant::recovered`] and
/// [`crate::AuditLog::recovered`], plus the replayed tail, which
/// [`crate::SessionBuilder::build`] restores into the audit log as rows.
#[derive(Debug, Clone)]
pub struct RecoveredSession {
    /// Total admitted spend in fixed-point units (base + replayed tail) —
    /// the accountant's seed.
    pub spent_units: u64,
    /// The audit sequence the collapsed base history ends at.
    pub base_seq: u64,
    /// The audit ε units of the collapsed base history.
    pub base_units: u64,
    /// Ledger entries summarising the collapsed base history (one per
    /// `(mechanism, policy, guarantee)` aggregate row).
    pub base_entries: Vec<LedgerEntry>,
    /// Replayed tail grants in log order, as the WAL holds them: each
    /// carries its stored fixed-point debit (`units`), and grants that
    /// repeat their predecessor's labels share them.
    pub tail: Vec<GrantRecord>,
    /// Refusals logged across base + tail.
    pub refusals: u64,
    /// Grants logged across base + tail.
    pub grants: u64,
    /// Whether recovery fell back to the WAL's snapshot marker (totals
    /// intact, per-mechanism base rows lost).
    pub degraded: bool,
    /// Bytes discarded from a torn WAL tail (0 after a clean shutdown).
    pub truncated_bytes: u64,
    /// Policy epoch transitions recovered from the WAL, sorted by version.
    /// Recovery restores the version **history** (numbers, boundaries,
    /// directions, labels) — policies themselves are code, so the rebuilt
    /// session serves under its builder-bound policy as the current epoch.
    pub transitions: Vec<osdp_persist::EpochRecord>,
    /// The policy epoch version in force at the crash (last transition's
    /// version, or 0).
    pub policy_version: u64,
    /// What recovery had to repair or fall back to — quarantined snapshot,
    /// prev-generation fallback, cleared stale lock (all-default after a
    /// clean open).
    pub report: RecoveryReport,
}

impl RecoveredSession {
    fn from_ledger(recovered: RecoveredLedger) -> Self {
        let spent_units = recovered.spent_units();
        let refusals = recovered.refusal_count();
        let grants = recovered.grant_count();
        let base_entries = recovered
            .base
            .rows
            .iter()
            .map(|row| LedgerEntry {
                label: if row.releases > 1 {
                    format!("{} [recovered x{}]", row.mechanism, row.releases)
                } else {
                    format!("{} [recovered]", row.mechanism)
                },
                policy: row.policy.clone(),
                epsilon: units_to_epsilon(row.units),
                guarantee: kind_of(row.guarantee),
            })
            .collect();
        let policy_version = recovered.current_policy_version();
        Self {
            spent_units,
            base_seq: recovered.base.counters.audit_seq,
            base_units: recovered.base.counters.audit_units,
            base_entries,
            tail: recovered.grants,
            refusals,
            grants,
            degraded: recovered.degraded,
            truncated_bytes: recovered.truncated_bytes,
            transitions: recovered.transitions,
            policy_version,
            report: recovered.report,
        }
    }

    /// Whether the shard held no durable history.
    pub fn is_fresh(&self) -> bool {
        self.grants == 0
            && self.refusals == 0
            && self.spent_units == 0
            && self.transitions.is_empty()
    }
}

/// Restores a replayed `tail` into `audit` as rows, each debiting the
/// fixed-point units its grant logged. The key borrows the grant's labels,
/// so only a tuple the audit shard has not seen allocates.
pub(crate) fn restore_tail(tail: &[GrantRecord], audit: &AuditLog) {
    audit.restore_rows(tail.iter().map(|g| {
        let key = AuditKeyRef {
            mechanism: &g.mechanism,
            policy: &g.policy,
            query: &g.query,
            bins: g.bins as usize,
            trials: g.trials as usize,
            guarantee: guarantee_of(g.guarantee, g.epsilon),
        };
        (g.index, g.policy_version, key, g.units)
    }));
}

/// One tenant's durable budget plane, ready to back a session: the opened
/// WAL shard plus whatever state recovery reconstructed from it. Passed to
/// [`crate::SessionBuilder::durable`]; `build()` seeds the accountant and
/// audit log from [`SessionPersistence::recovered`] and hooks the grant
/// path into the WAL.
#[derive(Debug)]
pub struct SessionPersistence {
    pub(crate) wal: SessionWal,
    pub(crate) recovered: RecoveredSession,
}

impl SessionPersistence {
    /// Opens (creating if absent) the tenant shard at `dir`, acquiring its
    /// single-writer lock and recovering the durable state. Fails if
    /// another live writer holds the shard — or a crashed one left its
    /// `LOCK` behind (see [`osdp_persist::force_unlock`]).
    pub fn open(dir: impl Into<PathBuf>, sync: SyncPolicy) -> Result<Self> {
        Self::open_with(dir, sync, LedgerOptions::default())
    }

    /// [`SessionPersistence::open`] with explicit [`LedgerOptions`] —
    /// e.g. `auto_snapshot_every` to bound recovery replay for long-lived
    /// tenants.
    pub fn open_with(
        dir: impl Into<PathBuf>,
        sync: SyncPolicy,
        options: LedgerOptions,
    ) -> Result<Self> {
        let (ledger, recovered) = TenantLedger::open_with(dir, sync, options)?;
        Ok(Self {
            wal: SessionWal { ledger: Arc::new(ledger) },
            recovered: RecoveredSession::from_ledger(recovered),
        })
    }

    /// [`SessionPersistence::open_with`] over an explicit file system —
    /// the injection point for [`osdp_persist::FaultVfs`] in fault tests
    /// and the path durable pools use so every shard shares the pool's
    /// file system.
    pub fn open_with_vfs(
        dir: impl Into<PathBuf>,
        sync: SyncPolicy,
        options: LedgerOptions,
        vfs: Arc<dyn Vfs>,
    ) -> Result<Self> {
        let (ledger, recovered) = TenantLedger::open_with_vfs(dir, sync, options, vfs)?;
        Ok(Self {
            wal: SessionWal { ledger: Arc::new(ledger) },
            recovered: RecoveredSession::from_ledger(recovered),
        })
    }

    /// The state recovery reconstructed.
    pub fn recovered(&self) -> &RecoveredSession {
        &self.recovered
    }

    /// The WAL handle (the same one [`crate::SessionBuilder::durable`]
    /// wires into the grant path).
    pub fn wal(&self) -> &SessionWal {
        &self.wal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guarantee_tags_round_trip() {
        for g in
            [Guarantee::Dp { eps: 0.5 }, Guarantee::Osdp { eps: 0.5 }, Guarantee::Pdp { eps: 0.5 }]
        {
            assert_eq!(guarantee_of(tag_of(g), 0.5), g);
            assert_eq!(kind_of(tag_of(g)), g.kind());
        }
    }
}
