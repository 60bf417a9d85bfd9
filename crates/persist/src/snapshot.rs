//! The compact per-tenant snapshot: everything recovery needs to seed a
//! `BudgetAccountant` + `AuditLog` pair without replaying the full history.
//!
//! A snapshot collapses the WAL into a counter block plus one aggregate row
//! per `(mechanism, policy, guarantee)` triple — the ledger view keeps its
//! totals and its per-mechanism breakdown, while the file stays O(distinct
//! labels) instead of O(releases). The snapshot file is one checksummed
//! frame behind a magic header, written to a temporary name and renamed
//! into place, so a torn snapshot write can never shadow a good one.

use crate::record::{put_counters, put_str, put_u64, read_counters, GuaranteeTag, Reader};
use crate::record::{EpochRecord, GrantRef, SnapshotCounters};
use crate::wal::append_record;
use crate::WalRecord;
use osdp_core::error::{OsdpError, Result};
use std::sync::Arc;

/// Magic header of `snapshot.bin`.
pub(crate) const SNAPSHOT_MAGIC: &[u8; 8] = b"OSDPSNP1";

/// One aggregate row of a snapshot: the collapsed grants of a
/// `(mechanism, policy, guarantee)` triple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggregateRow {
    /// Mechanism display name.
    pub mechanism: String,
    /// Policy label.
    pub policy: String,
    /// Guarantee kind.
    pub guarantee: GuaranteeTag,
    /// Fixed-point unit total across the collapsed grants.
    pub units: u64,
    /// Number of collapsed grant records.
    pub releases: u64,
}

/// A decoded snapshot: generation, counter block, aggregate rows.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SnapshotState {
    /// Monotone snapshot generation; the WAL header carries the generation
    /// it continues from, which is how recovery pairs the two files.
    pub generation: u64,
    /// The counter block.
    pub counters: SnapshotCounters,
    /// Aggregate rows, sorted by `(mechanism, policy, guarantee)`.
    pub rows: Vec<AggregateRow>,
}

impl SnapshotState {
    /// Serializes the snapshot file image (magic + one checksummed frame).
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(64 + 64 * self.rows.len());
        put_u64(&mut payload, self.generation);
        put_counters(&mut payload, &self.counters);
        put_u64(&mut payload, self.rows.len() as u64);
        for row in &self.rows {
            payload.push(row.guarantee.to_byte());
            put_u64(&mut payload, row.units);
            put_u64(&mut payload, row.releases);
            put_str(&mut payload, &row.mechanism);
            put_str(&mut payload, &row.policy);
        }
        let mut out = Vec::with_capacity(SNAPSHOT_MAGIC.len() + payload.len() + 8);
        out.extend_from_slice(SNAPSHOT_MAGIC);
        // Reuse the WAL framing (len + crc32) for the single snapshot frame.
        let mut frame = Vec::with_capacity(payload.len() + 8);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crate::crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        out.extend_from_slice(&frame);
        out
    }

    /// Decodes a snapshot file image, verifying magic and checksum.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < SNAPSHOT_MAGIC.len() || &bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
            return Err(OsdpError::Persistence("snapshot file has a bad magic header".into()));
        }
        let body = &bytes[SNAPSHOT_MAGIC.len()..];
        let mut r = Reader::new(body);
        let len = r.u32()? as usize;
        let crc = r.u32()?;
        let mut r = Reader::new(body.get(8..8 + len).ok_or_else(|| {
            OsdpError::Persistence("snapshot frame is shorter than its header promises".into())
        })?);
        if crate::crc32(&body[8..8 + len]) != crc {
            return Err(OsdpError::Persistence("snapshot frame failed its checksum".into()));
        }
        let generation = r.u64()?;
        let counters = read_counters(&mut r)?;
        let row_count = r.u64()? as usize;
        let mut rows = Vec::with_capacity(row_count.min(1 << 16));
        for _ in 0..row_count {
            let guarantee = GuaranteeTag::from_byte(r.u8()?)?;
            let units = r.u64()?;
            let releases = r.u64()?;
            let mechanism = r.string()?;
            let policy = r.string()?;
            rows.push(AggregateRow { mechanism, policy, guarantee, units, releases });
        }
        r.finish()?;
        Ok(Self { generation, counters, rows })
    }
}

/// One aggregate row of the mirror: a `(mechanism, policy, guarantee)`
/// triple and its running totals.
#[derive(Debug, Clone)]
struct MirrorRow {
    mechanism: Arc<str>,
    policy: Arc<str>,
    guarantee: GuaranteeTag,
    units: u64,
    releases: u64,
}

impl MirrorRow {
    /// The row's sort key: the order of snapshot rows.
    fn key(&self) -> (&str, &str, GuaranteeTag) {
        (&self.mechanism, &self.policy, self.guarantee)
    }
}

/// The in-memory mirror of the logged state: what a snapshot taken *now*
/// would contain. The [`crate::TenantLedger`] updates it under the same
/// lock as each WAL append, so snapshots are consistent-by-construction
/// with the log — never read from live session counters, which may be
/// ahead of what has been logged.
#[derive(Debug, Clone, Default)]
pub(crate) struct MirrorState {
    pub(crate) generation: u64,
    pub(crate) counters: SnapshotCounters,
    /// Aggregate rows sorted by `(mechanism, policy, guarantee)`, the order
    /// a snapshot stores them in. A tenant has a handful of rows, so a
    /// sorted vector searched with borrowed labels beats a map that needs
    /// owned keys to look up.
    rows: Vec<MirrorRow>,
    /// Every epoch transition logged so far, in version order. Unlike
    /// grants, transitions are never collapsed into aggregate rows — the
    /// stale-policy verifier needs the full version history — so rotation
    /// re-emits them into the fresh WAL verbatim.
    pub(crate) transitions: Vec<EpochRecord>,
}

impl MirrorState {
    /// Seeds the mirror from a decoded snapshot base.
    pub(crate) fn from_snapshot(base: &SnapshotState) -> Self {
        let mut mirror =
            Self { generation: base.generation, counters: base.counters, ..Self::default() };
        for row in &base.rows {
            let at = mirror.row_at(&row.mechanism, &row.policy, row.guarantee);
            let stored = &mut mirror.rows[at];
            (stored.units, stored.releases) = (row.units, row.releases);
        }
        mirror
    }

    /// Applies one grant. A grant whose triple already has a row — every
    /// grant after a tenant's first few — allocates nothing.
    pub(crate) fn apply_grant<'a>(&mut self, g: impl Into<GrantRef<'a>>) {
        let g = g.into();
        self.counters.spent_units = self.counters.spent_units.saturating_add(g.units);
        self.counters.audit_units = self.counters.audit_units.saturating_add(g.units);
        self.counters.audit_seq = self.counters.audit_seq.max(g.index + 1);
        self.counters.grants += 1;
        let at = self.row_at(g.mechanism, g.policy, g.guarantee);
        let row = &mut self.rows[at];
        row.units = row.units.saturating_add(g.units);
        row.releases += 1;
    }

    /// The index of the row of `(mechanism, policy, guarantee)`, inserted
    /// empty (in sort order) on first sight.
    fn row_at(&mut self, mechanism: &str, policy: &str, guarantee: GuaranteeTag) -> usize {
        let key = (mechanism, policy, guarantee);
        match self.rows.binary_search_by(|row| row.key().cmp(&key)) {
            Ok(at) => at,
            Err(at) => {
                let (mechanism, policy) = (Arc::from(mechanism), Arc::from(policy));
                let row = MirrorRow { mechanism, policy, guarantee, units: 0, releases: 0 };
                self.rows.insert(at, row);
                at
            }
        }
    }

    /// Applies one refusal.
    pub(crate) fn apply_refusal(&mut self) {
        self.counters.refusals += 1;
    }

    /// Applies one epoch transition, keeping the history sorted by version
    /// and free of duplicates (rotation re-emits transitions, and a crash
    /// between the rewrite and the next append could otherwise double
    /// them on replay).
    pub(crate) fn apply_transition(&mut self, t: &EpochRecord) {
        if self.transitions.iter().any(|seen| seen.version == t.version) {
            return;
        }
        let at = self.transitions.partition_point(|seen| seen.version < t.version);
        self.transitions.insert(at, t.clone());
    }

    /// The snapshot image of the mirror at generation `generation`.
    pub(crate) fn to_snapshot(&self, generation: u64) -> SnapshotState {
        SnapshotState {
            generation,
            counters: self.counters,
            rows: self
                .rows
                .iter()
                .map(|row| AggregateRow {
                    mechanism: row.mechanism.to_string(),
                    policy: row.policy.to_string(),
                    guarantee: row.guarantee,
                    units: row.units,
                    releases: row.releases,
                })
                .collect(),
        }
    }
}

/// Sanity guard used by tests and the ledger: a freshly-rotated WAL body is
/// one marker frame; everything about it must agree with the snapshot.
pub(crate) fn marker_frame(generation: u64, counters: SnapshotCounters) -> Vec<u8> {
    let mut buf = Vec::with_capacity(80);
    append_record(&mut buf, &WalRecord::SnapshotMarker { generation, counters });
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::GrantRecord;
    use crate::wal::replay;

    fn state() -> SnapshotState {
        SnapshotState {
            generation: 2,
            counters: SnapshotCounters {
                spent_units: 1_000,
                audit_seq: 4,
                audit_units: 1_000,
                grants: 4,
                refusals: 1,
            },
            rows: vec![
                AggregateRow {
                    mechanism: "DAWA".into(),
                    policy: "P90".into(),
                    guarantee: GuaranteeTag::Dp,
                    units: 400,
                    releases: 1,
                },
                AggregateRow {
                    mechanism: "OsdpLaplaceL1".into(),
                    policy: "P90".into(),
                    guarantee: GuaranteeTag::Osdp,
                    units: 600,
                    releases: 3,
                },
            ],
        }
    }

    #[test]
    fn snapshots_round_trip() {
        let original = state();
        let bytes = original.encode();
        assert_eq!(SnapshotState::decode(&bytes).unwrap(), original);
        assert_eq!(SnapshotState::default().generation, 0);
    }

    #[test]
    fn corrupt_snapshots_are_rejected() {
        let mut bytes = state().encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        assert!(SnapshotState::decode(&bytes).is_err());
        assert!(SnapshotState::decode(b"NOTASNAP").is_err());
        assert!(SnapshotState::decode(&state().encode()[..20]).is_err());
    }

    #[test]
    fn mirror_round_trips_through_snapshots() {
        let base = state();
        let mut mirror = MirrorState::from_snapshot(&base);
        mirror.apply_grant(&GrantRecord {
            index: 4,
            units: 250,
            epsilon: 250e-12,
            trials: 1,
            bins: 8,
            guarantee: GuaranteeTag::Osdp,
            mechanism: "OsdpLaplaceL1".into(),
            policy: "P90".into(),
            query: "q".into(),
            policy_version: 0,
        });
        mirror.apply_refusal();
        let snap = mirror.to_snapshot(3);
        assert_eq!(snap.generation, 3);
        assert_eq!(snap.counters.spent_units, 1_250);
        assert_eq!(snap.counters.audit_seq, 5);
        assert_eq!(snap.counters.grants, 5);
        assert_eq!(snap.counters.refusals, 2);
        // The OsdpLaplaceL1 row absorbed the grant; row count unchanged.
        assert_eq!(snap.rows.len(), 2);
        let row = snap.rows.iter().find(|r| r.mechanism == "OsdpLaplaceL1").unwrap();
        assert_eq!((row.units, row.releases), (850, 4));
        // The marker frame replays to the same counters.
        let marker = marker_frame(3, snap.counters);
        let outcome = replay(&marker);
        assert_eq!(
            outcome.records,
            vec![WalRecord::SnapshotMarker { generation: 3, counters: snap.counters }]
        );
    }
}
