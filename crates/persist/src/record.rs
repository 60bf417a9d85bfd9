//! The write-ahead ledger record codec.
//!
//! Records are hand-serialized — tag byte, little-endian integers, `f64`
//! bit patterns, `u16`-length-prefixed UTF-8 strings — so the format is
//! fixed by this file alone and stable across builds. Every integer that matters for accounting is stored as the
//! **fixed-point unit count the grant path admitted**, so recovery is pure
//! integer addition: no float round-trip can perturb the recovered totals.
//!
//! Grant and refusal labels decode into shared `Arc<str>`s. A `Decoder`
//! remembers the previous frame's labels and hands out another reference
//! when a frame repeats them byte for byte, so replaying a tail whose
//! frames share their labels allocates nothing per frame.

use osdp_core::error::{OsdpError, Result};
use std::sync::Arc;

/// Record tag bytes (the first payload byte of every frame).
const TAG_GRANT: u8 = 1;
const TAG_REFUSAL: u8 = 2;
const TAG_MARKER: u8 = 3;
const TAG_EPOCH: u8 = 4;

/// The guarantee kind of a logged release, as a one-byte tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum GuaranteeTag {
    /// Plain ε-differential privacy.
    Dp,
    /// `(P, ε)`-one-sided differential privacy.
    Osdp,
    /// Personalized DP (the `Suppress` baseline — flagged by audits).
    Pdp,
}

impl GuaranteeTag {
    /// The on-disk byte.
    pub fn to_byte(self) -> u8 {
        match self {
            GuaranteeTag::Dp => 0,
            GuaranteeTag::Osdp => 1,
            GuaranteeTag::Pdp => 2,
        }
    }

    /// Decodes the on-disk byte.
    pub fn from_byte(byte: u8) -> Result<Self> {
        match byte {
            0 => Ok(GuaranteeTag::Dp),
            1 => Ok(GuaranteeTag::Osdp),
            2 => Ok(GuaranteeTag::Pdp),
            other => Err(OsdpError::Persistence(format!("unknown guarantee tag {other}"))),
        }
    }
}

/// One admitted grant: the durable image of a `BudgetAccountant` debit plus
/// the audit record it produced.
#[derive(Debug, Clone, PartialEq)]
pub struct GrantRecord {
    /// The audit-log release index the grant was stamped with.
    pub index: u64,
    /// The fixed-point unit count the CAS admitted (`epsilon_to_units` of
    /// the batch total) — the integer recovery sums, never re-derived from
    /// the float.
    pub units: u64,
    /// Per-trial ε (the batch debits `epsilon × trials`).
    pub epsilon: f64,
    /// Number of trials in the batch (1 for single releases).
    pub trials: u64,
    /// Histogram bins released (0 for record-sample releases).
    pub bins: u64,
    /// Guarantee kind of the release.
    pub guarantee: GuaranteeTag,
    /// Mechanism display name.
    pub mechanism: Arc<str>,
    /// Policy label the release was evaluated under.
    pub policy: Arc<str>,
    /// Query label.
    pub query: Arc<str>,
    /// Policy epoch version the release was stamped with (0 for sessions
    /// that never transition).
    pub policy_version: u64,
}

impl GrantRecord {
    /// Total ε of the batch (`epsilon × trials`), the f64 the grant path
    /// converted into [`GrantRecord::units`].
    pub fn total_epsilon(&self) -> f64 {
        self.epsilon * self.trials as f64
    }
}

/// A [`GrantRecord`] with borrowed labels: what
/// [`crate::TenantLedger::append_grant`] takes, so a grant whose labels the
/// caller already holds is encoded and mirrored without building owned
/// copies, under every sync policy.
#[derive(Debug, Clone, Copy)]
pub struct GrantRef<'a> {
    /// See [`GrantRecord::index`].
    pub index: u64,
    /// See [`GrantRecord::units`].
    pub units: u64,
    /// See [`GrantRecord::epsilon`].
    pub epsilon: f64,
    /// See [`GrantRecord::trials`].
    pub trials: u64,
    /// See [`GrantRecord::bins`].
    pub bins: u64,
    /// See [`GrantRecord::guarantee`].
    pub guarantee: GuaranteeTag,
    /// See [`GrantRecord::mechanism`].
    pub mechanism: &'a str,
    /// See [`GrantRecord::policy`].
    pub policy: &'a str,
    /// See [`GrantRecord::query`].
    pub query: &'a str,
    /// See [`GrantRecord::policy_version`].
    pub policy_version: u64,
}

impl<'a> From<&'a GrantRecord> for GrantRef<'a> {
    fn from(g: &'a GrantRecord) -> Self {
        GrantRef {
            index: g.index,
            units: g.units,
            epsilon: g.epsilon,
            trials: g.trials,
            bins: g.bins,
            guarantee: g.guarantee,
            mechanism: &g.mechanism,
            policy: &g.policy,
            query: &g.query,
            policy_version: g.policy_version,
        }
    }
}

/// One refused grant: nothing was spent, but the refusal itself is part of
/// the tenant's serving history (grants + refusals account for every
/// attempt against the cap).
#[derive(Debug, Clone, PartialEq)]
pub struct RefusalRecord {
    /// The unit count the refused request would have debited.
    pub units: u64,
    /// The requested ε total.
    pub epsilon: f64,
    /// Mechanism display name.
    pub mechanism: Arc<str>,
}

/// The counter block shared by snapshots and snapshot markers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotCounters {
    /// Total admitted spend in fixed-point units.
    pub spent_units: u64,
    /// Next audit release index (== releases logged so far).
    pub audit_seq: u64,
    /// Audit-log ε total in fixed-point units (equals `spent_units` for a
    /// session whose every grant is audited).
    pub audit_units: u64,
    /// Number of grant records logged.
    pub grants: u64,
    /// Number of refusal records logged.
    pub refusals: u64,
}

/// One policy epoch transition: the durable image of a
/// `set_policy_epoch` call, carrying everything recovery needs to rebuild
/// the version history bit-for-bit.
///
/// The record carries its own ordering (`version` is dense, and
/// `boundary_seq` pins the transition to a position in the audit sequence),
/// so its physical position in the WAL is irrelevant — snapshot rotation
/// re-emits transitions into the fresh WAL in version order without
/// changing their meaning.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// The version the transition installed (dense, starting at 1; version
    /// 0 is the session's initial epoch and is never logged).
    pub version: u64,
    /// The audit sequence number at which the version took force: every
    /// release with index `>= boundary_seq` is stamped with this version
    /// (until the next transition's boundary).
    pub boundary_seq: u64,
    /// `true` for a relax (consent), `false` for a tighten (opt-out,
    /// decay) — the direction the stale-policy verifier orders
    /// permissiveness by.
    pub relaxes: bool,
    /// The new epoch's policy label.
    pub label: String,
}

/// One write-ahead ledger record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// An admitted grant.
    Grant(GrantRecord),
    /// A refused grant.
    Refusal(RefusalRecord),
    /// The first record of a freshly-rotated WAL: the generation and
    /// counters of the snapshot that preceded the rotation, letting
    /// recovery cross-check (or, if the snapshot file is lost, partially
    /// reconstruct) the base state.
    SnapshotMarker {
        /// Snapshot generation this WAL continues from.
        generation: u64,
        /// The snapshot's counter block.
        counters: SnapshotCounters,
    },
    /// A policy epoch transition.
    EpochTransition(EpochRecord),
}

/// A borrowed view of an appendable record, so the hot append path can
/// encode a grant straight from the caller's [`GrantRef`] without first
/// copying its strings into an owned [`WalRecord`]. `WalRecord::encode_into`
/// delegates here, so the bytes are identical by construction.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RecordRef<'a> {
    /// A borrowed grant.
    Grant(GrantRef<'a>),
    /// A borrowed refusal.
    Refusal(&'a RefusalRecord),
    /// A borrowed snapshot marker.
    Marker {
        /// Snapshot generation the WAL continues from.
        generation: u64,
        /// The snapshot's counter block.
        counters: &'a SnapshotCounters,
    },
    /// A borrowed epoch transition.
    Epoch(&'a EpochRecord),
}

impl RecordRef<'_> {
    /// Serializes the record payload (no framing) into `out`.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        match *self {
            RecordRef::Grant(g) => {
                out.push(TAG_GRANT);
                put_u64(out, g.index);
                put_u64(out, g.units);
                put_f64(out, g.epsilon);
                put_u64(out, g.trials);
                put_u64(out, g.bins);
                out.push(g.guarantee.to_byte());
                put_str(out, g.mechanism);
                put_str(out, g.policy);
                put_str(out, g.query);
                // Appended after the original layout so fixed offsets into
                // the prefix (e.g. the guarantee byte at 41) stay put.
                put_u64(out, g.policy_version);
            }
            RecordRef::Refusal(r) => {
                out.push(TAG_REFUSAL);
                put_u64(out, r.units);
                put_f64(out, r.epsilon);
                put_str(out, &r.mechanism);
            }
            RecordRef::Marker { generation, counters } => {
                out.push(TAG_MARKER);
                put_u64(out, generation);
                put_counters(out, counters);
            }
            RecordRef::Epoch(t) => {
                out.push(TAG_EPOCH);
                put_u64(out, t.version);
                put_u64(out, t.boundary_seq);
                out.push(t.relaxes as u8);
                put_str(out, &t.label);
            }
        }
    }
}

impl WalRecord {
    /// The borrowed view of this record.
    pub(crate) fn as_ref(&self) -> RecordRef<'_> {
        match self {
            WalRecord::Grant(g) => RecordRef::Grant(g.into()),
            WalRecord::Refusal(r) => RecordRef::Refusal(r),
            WalRecord::SnapshotMarker { generation, counters } => {
                RecordRef::Marker { generation: *generation, counters }
            }
            WalRecord::EpochTransition(t) => RecordRef::Epoch(t),
        }
    }

    /// Serializes the record payload (no framing) into `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.as_ref().encode_into(out);
    }

    /// Decodes one record payload, requiring every byte to be consumed.
    /// Each label is a fresh allocation; replay decodes through a
    /// decoder that shares labels across frames.
    pub fn decode(payload: &[u8]) -> Result<Self> {
        Decoder::default().decode(payload)
    }
}

/// The labels of the last frame a [`Decoder`] decoded.
#[derive(Debug, Default)]
pub(crate) struct Decoder {
    mechanism: Option<Arc<str>>,
    policy: Option<Arc<str>>,
    query: Option<Arc<str>>,
}

impl Decoder {
    /// Decodes one record payload, requiring every byte to be consumed. A
    /// grant or refusal label whose bytes equal the previous frame's label
    /// in the same field is that label again (a reference-count increment);
    /// any other label is validated and allocated once.
    pub(crate) fn decode(&mut self, payload: &[u8]) -> Result<WalRecord> {
        let mut r = Reader::new(payload);
        let record = match r.u8()? {
            TAG_GRANT => WalRecord::Grant(GrantRecord {
                index: r.u64()?,
                units: r.u64()?,
                epsilon: r.f64()?,
                trials: r.u64()?,
                bins: r.u64()?,
                guarantee: GuaranteeTag::from_byte(r.u8()?)?,
                mechanism: shared_label(&mut self.mechanism, r.label()?)?,
                policy: shared_label(&mut self.policy, r.label()?)?,
                query: shared_label(&mut self.query, r.label()?)?,
                policy_version: r.u64()?,
            }),
            TAG_REFUSAL => WalRecord::Refusal(RefusalRecord {
                units: r.u64()?,
                epsilon: r.f64()?,
                mechanism: shared_label(&mut self.mechanism, r.label()?)?,
            }),
            TAG_MARKER => {
                WalRecord::SnapshotMarker { generation: r.u64()?, counters: read_counters(&mut r)? }
            }
            TAG_EPOCH => WalRecord::EpochTransition(EpochRecord {
                version: r.u64()?,
                boundary_seq: r.u64()?,
                relaxes: r.u8()? != 0,
                label: r.string()?,
            }),
            other => return Err(OsdpError::Persistence(format!("unknown record tag {other}"))),
        };
        r.finish()?;
        Ok(record)
    }
}

/// The label `bytes` decode to: the label in `last` when its bytes are the
/// same, otherwise a new one, which becomes `last`.
fn shared_label(last: &mut Option<Arc<str>>, bytes: &[u8]) -> Result<Arc<str>> {
    if let Some(label) = last.as_ref().filter(|label| label.as_bytes() == bytes) {
        return Ok(Arc::clone(label));
    }
    let label: Arc<str> = Arc::from(utf8(bytes)?);
    *last = Some(Arc::clone(&label));
    Ok(label)
}

/// `bytes` as a label, or the error every codec reports for one that is
/// not UTF-8.
fn utf8(bytes: &[u8]) -> Result<&str> {
    std::str::from_utf8(bytes)
        .map_err(|_| OsdpError::Persistence("record label is not valid UTF-8".into()))
}

/// Appends a little-endian `u64`.
pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its bit pattern.
pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends a `u16`-length-prefixed UTF-8 string (labels are short; longer
/// ones are truncated at a character boundary below 64 KiB).
pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    let mut end = s.len().min(u16::MAX as usize);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    out.extend_from_slice(&(end as u16).to_le_bytes());
    out.extend_from_slice(&s.as_bytes()[..end]);
}

/// Appends a [`SnapshotCounters`] block.
pub(crate) fn put_counters(out: &mut Vec<u8>, c: &SnapshotCounters) {
    put_u64(out, c.spent_units);
    put_u64(out, c.audit_seq);
    put_u64(out, c.audit_units);
    put_u64(out, c.grants);
    put_u64(out, c.refusals);
}

/// Reads a [`SnapshotCounters`] block.
pub(crate) fn read_counters(r: &mut Reader<'_>) -> Result<SnapshotCounters> {
    Ok(SnapshotCounters {
        spent_units: r.u64()?,
        audit_seq: r.u64()?,
        audit_units: r.u64()?,
        grants: r.u64()?,
        refusals: r.u64()?,
    })
}

/// A bounds-checked little-endian payload reader.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.bytes.len()).ok_or_else(|| {
            OsdpError::Persistence(format!(
                "record payload truncated: wanted {n} bytes at offset {}, have {}",
                self.at,
                self.bytes.len()
            ))
        })?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len checked")))
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len checked")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len checked")))
    }

    pub(crate) fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// The bytes of a `u16`-length-prefixed label, borrowed from the
    /// payload (not yet checked for UTF-8).
    pub(crate) fn label(&mut self) -> Result<&'a [u8]> {
        let len = self.u16()? as usize;
        self.take(len)
    }

    pub(crate) fn string(&mut self) -> Result<String> {
        Ok(utf8(self.label()?)?.to_string())
    }

    /// Fails if any payload bytes were left unread (a length mismatch that
    /// the CRC alone cannot catch — e.g. a record written by a newer,
    /// wider layout).
    pub(crate) fn finish(self) -> Result<()> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(OsdpError::Persistence(format!(
                "record payload has {} trailing bytes",
                self.bytes.len() - self.at
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grant() -> WalRecord {
        WalRecord::Grant(GrantRecord {
            index: 7,
            units: 125_000_000_000,
            epsilon: 0.125,
            trials: 1,
            bins: 16,
            guarantee: GuaranteeTag::Osdp,
            mechanism: "OsdpLaplaceL1".into(),
            policy: "P-stress".into(),
            query: "bound".into(),
            policy_version: 2,
        })
    }

    #[test]
    fn records_round_trip() {
        let originals = vec![
            grant(),
            WalRecord::Refusal(RefusalRecord {
                units: 1,
                epsilon: 1e-12,
                mechanism: "DAWA".into(),
            }),
            WalRecord::SnapshotMarker {
                generation: 3,
                counters: SnapshotCounters {
                    spent_units: 42,
                    audit_seq: 5,
                    audit_units: 42,
                    grants: 5,
                    refusals: 2,
                },
            },
            WalRecord::EpochTransition(EpochRecord {
                version: 1,
                boundary_seq: 9,
                relaxes: false,
                label: "P-decay".into(),
            }),
            WalRecord::EpochTransition(EpochRecord {
                version: 2,
                boundary_seq: 14,
                relaxes: true,
                label: "P-consent".into(),
            }),
        ];
        for original in originals {
            let mut bytes = Vec::new();
            original.encode_into(&mut bytes);
            assert_eq!(WalRecord::decode(&bytes).unwrap(), original);
        }
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        let mut bytes = Vec::new();
        grant().encode_into(&mut bytes);
        // Truncated payload.
        assert!(WalRecord::decode(&bytes[..bytes.len() - 1]).is_err());
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(WalRecord::decode(&long).is_err());
        // Unknown tag.
        let mut bad_tag = bytes.clone();
        bad_tag[0] = 99;
        assert!(WalRecord::decode(&bad_tag).is_err());
        // Unknown guarantee byte (offset: tag + 4×u64 + f64 = 41).
        let mut bad_guarantee = bytes;
        bad_guarantee[41] = 9;
        assert!(WalRecord::decode(&bad_guarantee).is_err());
        assert!(GuaranteeTag::from_byte(3).is_err());
    }

    #[test]
    fn a_decoder_shares_labels_between_frames_that_repeat_them() {
        let encode = |record: &WalRecord| {
            let mut bytes = Vec::new();
            record.encode_into(&mut bytes);
            bytes
        };
        let labels = |record: &WalRecord| match record {
            WalRecord::Grant(g) => [g.mechanism.clone(), g.policy.clone(), g.query.clone()],
            other => panic!("not a grant: {other:?}"),
        };
        let first = grant();
        let mut second = first.clone();
        if let WalRecord::Grant(g) = &mut second {
            g.index = 8;
            g.query = "other".into();
        }
        let mut decoder = Decoder::default();
        let a = decoder.decode(&encode(&first)).unwrap();
        let b = decoder.decode(&encode(&second)).unwrap();
        let c = decoder.decode(&encode(&second)).unwrap();
        assert_eq!((&a, &b), (&first, &second));
        let [am, ap, aq] = labels(&a);
        let [bm, bp, bq] = labels(&b);
        let [cm, cp, cq] = labels(&c);
        // Repeated labels are the previous frame's; a changed one is new.
        assert!(Arc::ptr_eq(&am, &bm) && Arc::ptr_eq(&ap, &bp) && !Arc::ptr_eq(&aq, &bq));
        assert!(Arc::ptr_eq(&bm, &cm) && Arc::ptr_eq(&bp, &cp) && Arc::ptr_eq(&bq, &cq));
        // A refusal's mechanism shares the grant field's label too.
        let refusal =
            WalRecord::Refusal(RefusalRecord { units: 1, epsilon: 1e-12, mechanism: am.clone() });
        match decoder.decode(&encode(&refusal)).unwrap() {
            WalRecord::Refusal(r) => assert!(Arc::ptr_eq(&r.mechanism, &am)),
            other => panic!("not a refusal: {other:?}"),
        }
        // Invalid UTF-8 is refused whether or not a label is remembered.
        let mut bad = encode(&first);
        let at = bad.len() - 8 - "bound".len();
        bad[at] = 0xFF;
        assert!(decoder.decode(&bad).is_err());
        assert!(WalRecord::decode(&bad).is_err());
    }

    #[test]
    fn oversized_labels_truncate_at_char_boundaries() {
        let mut out = Vec::new();
        // 70k of multi-byte chars: must truncate below 64 KiB without
        // splitting a character.
        let s = "é".repeat(35_000);
        put_str(&mut out, &s);
        let mut r = Reader::new(&out);
        let back = r.string().unwrap();
        assert!(back.len() <= u16::MAX as usize);
        assert!(s.starts_with(&back));
    }
}
