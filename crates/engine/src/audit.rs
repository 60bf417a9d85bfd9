//! The session audit log: one record per release, and the verifier that
//! checks it against the composition theorems.
//!
//! The log keeps every release, because it is the ledger of record, but it
//! does not keep an [`AuditRecord`] per release. Each shard holds a **key
//! table** of the distinct `(mechanism, policy, query, bins, trials,
//! guarantee)` tuples it has seen and an append-only vector of 16-byte
//! **rows**: the packed `(index, version)` stamp plus a key id. Snapshots
//! ([`AuditLog::records`], [`AuditLog::ledger`], [`AuditLog::to_json`])
//! rebuild the exact records from rows and keys.
//!
//! Verification ([`crate::OsdpSession::verify_policy_lifecycle`]) builds no
//! record: it folds each shard's rows into per-key counts, sums the keys'
//! fixed-point debits under sequential composition (Theorem 3.3), compares
//! the sum with the cap in the accountant's own units, and checks every
//! row's epoch stamp against the policy lifecycle as it passes. It also
//! flags the releases whose guarantee leaves them exposed to exclusion
//! attacks: PDP releases only enjoy φ = τ freedom (Theorem 3.4), while
//! DP/OSDP releases enjoy φ = ε (Theorems 3.1, 3.2).

use osdp_core::budget::{epsilon_to_units, units_to_epsilon, LedgerEntry, PrivacyGuarantee};
use osdp_core::{json_number, json_string, BudgetAccountant, Guarantee};
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher, RandomState};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// One release's policy epoch stamp: the audit sequence number of the
/// release and the epoch version the session stamped it with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReleaseStamp {
    /// The release's audit sequence number (dense, per session).
    pub seq: u64,
    /// The policy epoch version stamped onto the release.
    pub version: u64,
}

/// One epoch transition of the policy lifecycle under audit, as recovered
/// from the engine session or its WAL. The record carries its own ordering
/// (`version`, `boundary_seq`), so the verifier never depends on the order
/// transitions are handed to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochTransition {
    /// The version this transition installed (the initial epoch is 0, so
    /// transitions start at 1).
    pub version: u64,
    /// The first release sequence number stamped with `version`: every
    /// release with `seq < boundary_seq` was allocated under an earlier
    /// version, every release with `seq >= boundary_seq` under this one or
    /// later.
    pub boundary_seq: u64,
    /// Whether the transition relaxed the policy (consent) rather than
    /// tightened it (opt-out, decay).
    pub relaxes: bool,
    /// The label of the installed policy.
    pub label: String,
}

/// The stale-policy half of a ledger verdict: did any release get served
/// under a policy *more permissive* than the one in force at its sequence
/// number?
///
/// Permissiveness is the integer level of
/// `osdp_core::policy::VersionedPolicy`: the initial epoch sits at 0, each
/// relax adds 1, each tighten subtracts 1. The version **in force** at
/// sequence `s` is the highest version whose boundary is `<= s`. A release
/// violates exactly when its stamped level exceeds the in-force level —
/// being stamped with a *tighter* epoch than the one in force is allowed
/// (the release leaked less than it was entitled to).
///
/// The check fails **closed**: a stamp carrying a version the transition
/// history never issued, or a history whose versions are not the dense
/// chain 1..=n, is a violation, never excused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochVerdict {
    /// Number of known epoch versions (transitions forming the dense chain,
    /// plus the initial epoch).
    pub versions: u64,
    /// Sequence numbers of releases served under a more permissive policy
    /// than the one in force (or stamped with an unknown version).
    pub stale_releases: Vec<u64>,
    /// Whether version stamps are monotone non-decreasing in sequence
    /// order — the structural invariant an honest session's packed audit
    /// counter guarantees: no stamp carries a higher version than a stamp
    /// with a higher sequence number.
    pub monotone: bool,
    /// Whether the transition history itself was well-formed (dense
    /// versions 1..=n).
    pub history_dense: bool,
}

impl EpochVerdict {
    /// Whether the stamped history is provably free of stale-policy
    /// releases.
    pub fn consistent(&self) -> bool {
        self.stale_releases.is_empty() && self.monotone && self.history_dense
    }
}

/// Verifies epoch stamps against a transition history (see
/// [`EpochVerdict`]), through the same per-stamp fold that verifies a
/// session's audit rows. O(stamps · log transitions + transitions ·
/// log transitions).
pub fn verify_epoch_stamps(
    stamps: &[ReleaseStamp],
    transitions: &[EpochTransition],
) -> EpochVerdict {
    let mut check = EpochCheck::new(transitions);
    stamps.iter().for_each(|stamp| check.visit(stamp.seq, stamp.version));
    check.verdict()
}

/// The per-stamp fold of the stale-policy check: each stamp is checked
/// against the version in force at its sequence number as it is visited,
/// and only each stamped version's lowest and highest sequence number is
/// kept for the monotonicity check, so no stamp is stored or sorted.
#[derive(Default)]
struct EpochCheck {
    /// The permissiveness level of each version of the dense chain.
    levels: Vec<i64>,
    /// `boundaries[v]` is the minimum of version `v`'s first sequence
    /// number and every later version's.
    boundaries: Vec<u64>,
    history_dense: bool,
    stale_releases: Vec<u64>,
    /// The lowest and highest sequence number stamped with each version.
    ranges: BTreeMap<u64, (u64, u64)>,
}

impl EpochCheck {
    fn new(transitions: &[EpochTransition]) -> Self {
        let mut sorted: Vec<&EpochTransition> = transitions.iter().collect();
        sorted.sort_by_key(|t| (t.version, t.boundary_seq));
        // Rebuild the permissiveness levels and boundaries for the dense
        // chain 1..=n; anything past a gap or duplicate is unknown (fail
        // closed).
        let mut levels: Vec<i64> = vec![0];
        let mut boundaries: Vec<u64> = vec![0];
        for (i, t) in sorted.iter().enumerate().take_while(|(i, t)| t.version == *i as u64 + 1) {
            levels.push(levels[i] + if t.relaxes { 1 } else { -1 });
            boundaries.push(t.boundary_seq);
        }
        let history_dense = levels.len() == sorted.len() + 1;
        // The version in force at `seq` is max{v : b_v ≤ seq}. Replacing
        // each boundary by the minimum of it and every later one leaves
        // that answer unchanged — b_v ≤ seq implies min_{u≥v} b_u ≤ seq,
        // and min_{u≥v} b_u ≤ seq means some u ≥ v has b_u ≤ seq — even for
        // a dishonest history whose boundaries are not monotone. The
        // suffix minimum is non-decreasing, so a binary search finds it.
        for v in (1..boundaries.len()).rev() {
            boundaries[v - 1] = boundaries[v - 1].min(boundaries[v]);
        }
        Self { levels, boundaries, history_dense, ..Self::default() }
    }

    fn visit(&mut self, seq: u64, version: u64) {
        let in_force = self.boundaries.partition_point(|&b| b <= seq).saturating_sub(1);
        let stamped = self.levels.get(version as usize);
        // An unknown version is never excused.
        if stamped.is_none_or(|&level| level > self.levels[in_force]) {
            self.stale_releases.push(seq);
        }
        let (lowest, highest) = self.ranges.entry(version).or_insert((seq, seq));
        *lowest = (*lowest).min(seq);
        *highest = (*highest).max(seq);
    }

    fn verdict(mut self) -> EpochVerdict {
        self.stale_releases.sort_unstable();
        self.stale_releases.dedup();
        // Monotone when no version's lowest sequence number lies below the
        // highest of the version stamped before it; every range is ordered,
        // so that covers every lower version too.
        let next = self.ranges.values().skip(1);
        let monotone = self.ranges.values().zip(next).all(|(lower, upper)| lower.1 <= upper.0);
        EpochVerdict {
            versions: self.levels.len() as u64,
            stale_releases: self.stale_releases,
            monotone,
            history_dense: self.history_dense,
        }
    }
}

/// The outcome of verifying a session's audit log.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerVerdict {
    /// Total ε under sequential composition (Theorem 3.3): the fixed-point
    /// units of every release, summed exactly.
    pub total_epsilon: f64,
    /// Labels of the policies the composed guarantee refers to (their
    /// minimum relaxation, Definition 3.6), deduplicated: the recovered
    /// base rows' labels first, in snapshot order (sorted by mechanism,
    /// policy and guarantee), then the releases' in first-use order.
    pub policies: Vec<String>,
    /// Whether every release is plain ε-DP (then the composite is ε-DP too).
    pub is_pure_dp: bool,
    /// Whether the total respects the claimed cap, compared in fixed-point
    /// units (vacuously true without one).
    pub within_limit: bool,
    /// The worst exclusion-attack exponent φ across releases: for DP/OSDP
    /// releases φ equals their ε; PDP releases pay their full threshold τ.
    pub worst_exclusion_phi: f64,
    /// The distinct labels of the PDP releases, in first-use order —
    /// releases that satisfy personalized DP but **not** OSDP, and are
    /// therefore the ledger's exclusion-attack surface.
    pub pdp_entries: Vec<String>,
    /// The stale-policy verdict over the session's epoch history.
    pub epochs: EpochVerdict,
}

impl LedgerVerdict {
    /// Whether the ledger as a whole upholds the OSDP contract: within its
    /// cap, free of PDP releases, and free of stale-policy releases.
    pub fn upholds_osdp(&self) -> bool {
        self.within_limit && self.pdp_entries.is_empty() && self.epochs.consistent()
    }
}

/// The ε one release of `trials` trials under `guarantee` costs under
/// sequential composition — the f64 the grant path converts to units.
fn batch_epsilon(guarantee: Guarantee, trials: usize) -> f64 {
    guarantee.epsilon() * trials as f64
}

/// The ledger label of a release: its mechanism, and its trial count when
/// it is a batch.
fn ledger_label(mechanism: &str, trials: usize) -> String {
    if trials > 1 {
        format!("{mechanism} x{trials}")
    } else {
        mechanism.to_string()
    }
}

/// Appends `label` to `labels` unless it is already there.
fn push_distinct(labels: &mut Vec<String>, label: &str) {
    if !labels.iter().any(|l| l == label) {
        labels.push(label.into());
    }
}

/// One audited release.
///
/// The log stores releases as rows over a key table and rebuilds records
/// on snapshot: the three label fields are `Arc<str>`s shared with that
/// table, so a snapshot costs three reference-count increments per
/// record, not three string allocations.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditRecord {
    /// Monotone release index within the session.
    pub index: u64,
    /// Mechanism display name.
    pub mechanism: Arc<str>,
    /// Label of the policy the release was evaluated under.
    pub policy: Arc<str>,
    /// Label of the query answered.
    pub query: Arc<str>,
    /// Number of histogram bins released (0 for record-sample releases).
    pub bins: usize,
    /// Number of trials in the batch (1 for single releases).
    pub trials: usize,
    /// The guarantee of **one** trial; the batch costs
    /// `trials × guarantee.epsilon()` under sequential composition.
    pub guarantee: Guarantee,
    /// The policy epoch version in force when the release index was
    /// allocated (0 for sessions that never transition). Stamped
    /// atomically with the index, so stamps are monotone in index order.
    pub policy_version: u64,
}

impl AuditRecord {
    /// Total epsilon debited for this record (sequential composition over the
    /// batch, Theorem 3.3).
    pub fn total_epsilon(&self) -> f64 {
        batch_epsilon(self.guarantee, self.trials)
    }

    /// The ledger view of this record.
    pub fn to_ledger_entry(&self) -> LedgerEntry {
        LedgerEntry {
            label: ledger_label(&self.mechanism, self.trials),
            policy: self.policy.to_string(),
            epsilon: self.total_epsilon(),
            guarantee: self.guarantee.kind(),
        }
    }

    /// One JSON object describing the record.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"index\": {}, \"mechanism\": {}, \"policy\": {}, \"policy_version\": {}, \
             \"query\": {}, \"bins\": {}, \"trials\": {}, \"guarantee\": {}, \"epsilon\": {}}}",
            self.index,
            json_string(&self.mechanism),
            json_string(&self.policy),
            self.policy_version,
            json_string(&self.query),
            self.bins,
            self.trials,
            json_string(self.guarantee.label()),
            json_number(self.guarantee.epsilon()),
        )
    }

    /// The key half of the record: everything but its stamp.
    fn key(&self) -> AuditKeyRef<'_> {
        AuditKeyRef {
            mechanism: &self.mechanism,
            policy: &self.policy,
            query: &self.query,
            bins: self.bins,
            trials: self.trials,
            guarantee: self.guarantee,
        }
    }
}

/// The fields a release shares with every other release of the same tuple,
/// borrowed: what an append matches against its shard's key table.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AuditKeyRef<'a> {
    pub(crate) mechanism: &'a str,
    pub(crate) policy: &'a str,
    pub(crate) query: &'a str,
    pub(crate) bins: usize,
    pub(crate) trials: usize,
    pub(crate) guarantee: Guarantee,
}

impl AuditKeyRef<'_> {
    /// The fixed-point debit of the release — the same ceiling conversion
    /// of the same f64 (`trials × ε`) the grant path admits.
    pub(crate) fn units(&self) -> u64 {
        epsilon_to_units(batch_epsilon(self.guarantee, self.trials))
    }
}

/// A guarantee's identity in the key table: its kind and the bits of its
/// ε, so keys compare and hash exactly (no float equality).
fn guarantee_bits(guarantee: Guarantee) -> (u8, u64) {
    (guarantee.kind() as u8, guarantee.epsilon().to_bits())
}

/// One distinct release tuple of a shard, shared by every row naming it.
#[derive(Debug, Clone)]
struct AuditKey {
    mechanism: Arc<str>,
    policy: Arc<str>,
    query: Arc<str>,
    bins: usize,
    trials: usize,
    guarantee: Guarantee,
    /// The next key of the shard with the same hash.
    next: Option<u32>,
}

impl AuditKey {
    fn matches(&self, key: &AuditKeyRef<'_>) -> bool {
        self.bins == key.bins
            && self.trials == key.trials
            && guarantee_bits(self.guarantee) == guarantee_bits(key.guarantee)
            && *self.mechanism == *key.mechanism
            && *self.policy == *key.policy
            && *self.query == *key.query
    }

    /// The record of the release stamped `stamp` under this key.
    fn record(&self, stamp: u64) -> AuditRecord {
        AuditRecord {
            index: stamp & INDEX_MASK,
            mechanism: Arc::clone(&self.mechanism),
            policy: Arc::clone(&self.policy),
            query: Arc::clone(&self.query),
            bins: self.bins,
            trials: self.trials,
            guarantee: self.guarantee,
            policy_version: stamp >> VERSION_SHIFT,
        }
    }
}

/// One key of a log as verification sees it: how many rows name it, and
/// the lowest index among them.
struct KeyUse {
    first: u64,
    count: u64,
    key: AuditKey,
}

/// One stored release: the packed stamp word (`index | version << 48`,
/// the word the sequence counter's `fetch_add` returns) and the id of the
/// release's key in its shard's key table.
#[derive(Debug, Clone, Copy)]
struct Row {
    stamp: u64,
    key: u32,
}

// History grows by one row per release; keep it at 16 bytes.
const _: () = assert!(std::mem::size_of::<Row>() <= 16);

/// The bits of a key hash the key table keeps. Unit tests keep three, so
/// that distinct keys collide and the hash chains are exercised.
const KEY_HASH_MASK: u64 = if cfg!(test) { 0b111 } else { u64::MAX };

/// The hasher of the key table's chain heads, whose keys are already
/// seeded hashes: it passes them through rather than hashing them again.
#[derive(Default)]
struct PreHashed(u64);

impl Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(byte);
        }
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// Seeds the key hashes of every key table: one random key per process,
/// so query labels cannot be chosen to collide.
static KEY_HASHER: OnceLock<RandomState> = OnceLock::new();

/// One append shard: its rows, the key table they index, and the ε its
/// rows debited.
#[derive(Debug, Default)]
struct Shard {
    rows: Vec<Row>,
    /// The fixed-point debit of the shard's rows, kept under the shard
    /// mutex the append already holds, so no appender writes a counter
    /// another thread writes too.
    units: u64,
    /// Built on the shard's first append. Most shards of a log stay
    /// empty, and keeping them small keeps building a session cheap.
    table: Option<Box<KeyTable>>,
}

impl Shard {
    fn keys(&self) -> &[AuditKey] {
        self.table.as_deref().map_or(&[], |table| &table.keys)
    }
}

/// The distinct release tuples of one shard.
#[derive(Debug, Default)]
struct KeyTable {
    keys: Vec<AuditKey>,
    /// The first key of each hash chain through `keys`.
    heads: HashMap<u64, u32, BuildHasherDefault<PreHashed>>,
    /// The key the last append used: a warm append compares against it
    /// before hashing.
    last: u32,
}

impl KeyTable {
    /// The id of `key` in the key table, inserted on first sight. Labels of
    /// a new key share the last-used key's `Arc`s where the text is equal.
    fn key_id(&mut self, key: &AuditKeyRef<'_>) -> u32 {
        let last = self.keys.get(self.last as usize);
        if last.is_some_and(|k| k.matches(key)) {
            return self.last;
        }
        let hash = KEY_HASH_MASK
            & KEY_HASHER.get_or_init(RandomState::new).hash_one((
                key.mechanism,
                key.policy,
                key.query,
                key.bins,
                key.trials,
                guarantee_bits(key.guarantee),
            ));
        let head = self.heads.get(&hash).copied();
        let mut next = head;
        while let Some(id) = next {
            let candidate = &self.keys[id as usize];
            if candidate.matches(key) {
                self.last = id;
                return id;
            }
            next = candidate.next;
        }
        let share = |label: &str, prev: Option<&Arc<str>>| match prev {
            Some(prev) if **prev == *label => Arc::clone(prev),
            _ => Arc::from(label),
        };
        let stored = AuditKey {
            mechanism: share(key.mechanism, last.map(|k| &k.mechanism)),
            policy: share(key.policy, last.map(|k| &k.policy)),
            query: share(key.query, last.map(|k| &k.query)),
            bins: key.bins,
            trials: key.trials,
            guarantee: key.guarantee,
            next: head,
        };
        let id = u32::try_from(self.keys.len()).expect("fewer than 2^32 audit keys per shard");
        self.keys.push(stored);
        self.heads.insert(hash, id);
        self.last = id;
        id
    }
}

/// Bit position of the policy version in the packed sequence word: the low
/// 48 bits hold the next release index, the high 16 bits the current policy
/// epoch version. One `fetch_add(1)` therefore allocates an index **and**
/// reads the version in force at allocation as a single atomic — version
/// stamps are exactly monotone in index order by construction, with no lock
/// on the release path.
const VERSION_SHIFT: u32 = 48;
/// Mask selecting the release-index bits of the packed sequence word.
const INDEX_MASK: u64 = (1 << VERSION_SHIFT) - 1;
/// Largest representable policy version (16 version bits).
const MAX_VERSION: u64 = (1 << (64 - VERSION_SHIFT)) - 1;

/// Number of per-thread append shards. Appenders on different threads land
/// on different mutexes, so hot-path appends never contend; 16 covers any
/// realistic serving thread count without measurable snapshot cost.
const AUDIT_SHARDS: usize = 16;

/// Slots between the shards of threads started one after another. The
/// shards are not padded to cache lines (padding all 16 makes a log slower
/// to build), so two 48-byte shards one or two slots apart can share a
/// 64-byte line. Two threads started one after another land 7 shards apart
/// and never share one. Other pairs can: the second thread after a given
/// one lands 2 shards away (14 ≡ −2 mod 16), the seventh 1 shard away
/// (49 ≡ 1 mod 16). 7 is coprime to 16, so 16 threads in a row still cover
/// every shard.
const SHARD_STRIDE: usize = 7;

/// The shard slot of the calling thread: assigned round-robin, in steps of
/// [`SHARD_STRIDE`], on first use and cached in a thread-local, so a
/// serving thread always appends to the same shard (its "per-thread append
/// buffer").
fn thread_shard() -> usize {
    static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    SLOT.with(|slot| {
        let mut v = slot.get();
        if v == usize::MAX {
            v = NEXT_SLOT.fetch_add(1, Ordering::Relaxed).wrapping_mul(SHARD_STRIDE) % AUDIT_SHARDS;
            slot.set(v);
        }
        v
    })
}

/// A thread-safe, append-only log of audited releases, sharded for
/// concurrent appenders.
///
/// Releases are appended to **per-thread shards** (no global append lock)
/// and stamped with a monotone sequence number drawn from one atomic
/// counter. A shard stores each release as a 16-byte row — the packed
/// `(index, version)` stamp and the id of its `(mechanism, policy, query,
/// bins, trials, guarantee)` tuple in the shard's key table — so history
/// costs 16 bytes per release plus one key per distinct tuple.
/// [`AuditLog::records`] merges the shards back into sequence order and
/// rebuilds each record from its row and key, so single-threaded callers
/// observe exactly the historical append-order log, and concurrent callers
/// observe a total order consistent with the grant sequence.
/// [`AuditLog::len`] / [`AuditLog::is_empty`] read the sequence counter;
/// [`AuditLog::total_epsilon`] sums the recovered base and each shard's
/// units, one shard lock at a time.
#[derive(Debug)]
pub struct AuditLog {
    /// Packed counter: low 48 bits are the next sequence stamp (== number of
    /// records appended, the atomic `len`), high 16 bits the current policy
    /// epoch version. Packing both into one word is what makes version
    /// stamps monotone: index allocation and version observation are a
    /// single `fetch_add`.
    seq: AtomicU64,
    /// The debited ε of the collapsed pre-recovery history, in
    /// [`BudgetAccountant::RESOLUTION`] fixed-point units; the live
    /// releases' units are kept per shard.
    base_units: u64,
    /// Collapsed pre-recovery history: ledger entries reconstructed from a
    /// durable snapshot, prepended to every [`AuditLog::ledger`] view.
    /// Empty (and allocation-free) for non-recovered logs.
    base: Vec<LedgerEntry>,
    shards: Vec<Mutex<Shard>>,
}

impl Default for AuditLog {
    fn default() -> Self {
        Self::recovered(0, 0, 0, Vec::new())
    }
}

impl AuditLog {
    /// Highest representable policy version: the packed sequence counter
    /// keeps versions in its top 16 bits, so a session supports 65 535
    /// epoch transitions (and 2⁴⁸ releases).
    pub const MAX_VERSION: u64 = MAX_VERSION;

    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// A log **seeded from recovered state**: the next release index starts
    /// at `seq`, the fixed-point ε counter at `spent_units` (both raw
    /// integers — no float round-trip), and `base` holds the ledger view of
    /// the collapsed pre-recovery history, which [`AuditLog::ledger`]
    /// prepends to the live records. Replayed tail records are then added
    /// one by one via [`AuditLog::restore`]. `version` is the policy epoch
    /// version in force at the crash (0 for sessions that never
    /// transitioned); live version stamps resume from it.
    pub fn recovered(seq: u64, version: u64, spent_units: u64, base: Vec<LedgerEntry>) -> Self {
        debug_assert!(seq <= INDEX_MASK && version <= MAX_VERSION);
        Self {
            seq: AtomicU64::new(seq | (version << VERSION_SHIFT)),
            base_units: spent_units,
            base,
            shards: (0..AUDIT_SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
        }
    }

    /// Re-appends a record replayed from a durable ledger, debiting exactly
    /// `units` (the fixed-point debit the original grant logged) rather
    /// than re-deriving it from the record's ε — recovery reproduces the
    /// pre-crash counter bit for bit. The sequence counter advances to
    /// cover the record's index; replay order does not matter.
    pub fn restore(&self, record: AuditRecord, units: u64) {
        self.restore_rows([(record.index, record.policy_version, record.key(), units)]);
    }

    /// Re-appends releases replayed from a durable ledger, each given as
    /// `(index, version, key, units)`, as rows of the calling thread's
    /// shard: one lock, one counter update per batch, and an allocation
    /// only for a key the shard has not seen. Every release debits exactly
    /// its logged `units`, and the sequence counter advances past the
    /// highest index; order does not matter.
    pub(crate) fn restore_rows<'a>(
        &self,
        releases: impl IntoIterator<Item = (u64, u64, AuditKeyRef<'a>, u64)>,
    ) {
        let mut releases = releases.into_iter().peekable();
        if releases.peek().is_none() {
            return;
        }
        let mut next = 0u64;
        {
            let mut shard = self.shards[thread_shard()].lock();
            let Shard { rows, units, table } = &mut *shard;
            let table = table.get_or_insert_default();
            rows.reserve(releases.size_hint().0);
            for (index, version, key, debit) in releases {
                debug_assert!(index <= INDEX_MASK && version <= MAX_VERSION);
                rows.push(Row {
                    stamp: index | (version << VERSION_SHIFT),
                    key: table.key_id(&key),
                });
                next = next.max(index + 1);
                *units = units.wrapping_add(debit);
            }
        }
        // Recovery is single-writer, so reading the version bits and
        // fetch_max'ing the packed word is race-free here.
        let version = self.seq.load(Ordering::Acquire) >> VERSION_SHIFT;
        self.seq.fetch_max(next | (version << VERSION_SHIFT), Ordering::AcqRel);
    }

    /// Allocates the next release index with one atomic increment and
    /// returns it with the policy epoch version in force at that instant.
    /// The caller must then [`AuditLog::push_row`] the release.
    pub(crate) fn next_stamp(&self) -> (u64, u64) {
        let packed = self.seq.fetch_add(1, Ordering::AcqRel);
        (packed & INDEX_MASK, packed >> VERSION_SHIFT)
    }

    /// Appends the row of the release stamped `(index, version)` to the
    /// calling thread's shard, and adds `units` to that shard's ε total.
    /// Every live append — grant path, [`AuditLog::append_versioned`] —
    /// goes through here; recovery goes through [`AuditLog::restore_rows`].
    /// Only the thread's own shard mutex is taken and no log-wide word is
    /// written; a warm append clones no `Arc`.
    ///
    /// Live appends debit [`AuditKeyRef::units`] — the **same**
    /// ceiling-rounded fixed-point conversion the `BudgetAccountant` grant
    /// path applies to the same f64 — so for a session whose every grant is
    /// audited, `total_epsilon()` equals the accountant's `total_spent()`
    /// **bit for bit**, independent of shard interleaving (integer addition
    /// commutes).
    pub(crate) fn push_row(&self, index: u64, version: u64, key: AuditKeyRef<'_>, units: u64) {
        debug_assert!(index <= INDEX_MASK && version <= MAX_VERSION);
        let mut shard = self.shards[thread_shard()].lock();
        let key = shard.table.get_or_insert_default().key_id(&key);
        shard.rows.push(Row { stamp: index | (version << VERSION_SHIFT), key });
        shard.units = shard.units.wrapping_add(units);
    }

    /// Allocates the next monotone release index and appends the record
    /// built from it. Index allocation is one atomic increment, so
    /// concurrent releases get dense, unique indices without serializing;
    /// the index doubles as the record's sequence stamp, keeping
    /// [`AuditLog::records`] in release-index order. The stored record's
    /// `index` and `policy_version` are the stamp's, whatever `make` put
    /// there.
    ///
    /// The closure also receives the policy epoch version in force **at
    /// the instant the index was allocated** — both come out of one
    /// `fetch_add`, so across any interleaving of appends and
    /// [`AuditLog::bump_version`] calls the returned `(index, version)`
    /// pairs are monotone: a later index never carries an earlier version.
    /// Returns the pair so the caller can detect that a transition landed
    /// mid-release and re-derive under the stamped epoch.
    pub fn append_versioned(&self, make: impl FnOnce(u64, u64) -> AuditRecord) -> (u64, u64) {
        let (index, version) = self.next_stamp();
        let record = make(index, version);
        let key = record.key();
        self.push_row(index, version, key, key.units());
        (index, version)
    }

    /// Advances the policy epoch version by one, returning `(new_version,
    /// boundary_seq)`: every release index `< boundary_seq` was stamped with
    /// an earlier version, every index `>= boundary_seq` with `new_version`
    /// or later. One atomic add on the packed word — the boundary is exact,
    /// not racy. Errors when the 16-bit version space is exhausted (65 535
    /// transitions) rather than corrupting the index bits.
    pub fn bump_version(&self) -> Result<(u64, u64), osdp_core::OsdpError> {
        let prev = self
            .seq
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |packed| {
                if packed >> VERSION_SHIFT >= MAX_VERSION {
                    None
                } else {
                    Some(packed + (1 << VERSION_SHIFT))
                }
            })
            .map_err(|_| {
                osdp_core::OsdpError::InvalidInput(
                    "policy epoch version space exhausted (65535 transitions)".into(),
                )
            })?;
        Ok(((prev >> VERSION_SHIFT) + 1, prev & INDEX_MASK))
    }

    /// The policy epoch version currently stamped onto new releases — one
    /// atomic load.
    pub fn current_version(&self) -> u64 {
        self.seq.load(Ordering::Acquire) >> VERSION_SHIFT
    }

    /// A snapshot of all records, merged from the shards, sorted into
    /// release order and rebuilt from rows and keys. **O(n)** in the
    /// number of audited releases — use [`AuditLog::len`] /
    /// [`AuditLog::total_epsilon`] for hot-path probes. A snapshot taken
    /// while appends are in flight contains every release whose append
    /// completed (an in-flight index may be absent until its appender
    /// finishes); a quiesced log snapshots exactly.
    pub fn records(&self) -> Vec<AuditRecord> {
        // Each shard is locked once, to copy its rows and clone its key
        // table (reference-count increments); the merged rows are then
        // stably sorted by index.
        let mut keys = Vec::with_capacity(self.shards.len());
        let mut rows: Vec<(u64, u32, u32)> = Vec::with_capacity(self.len());
        for (slot, shard) in self.shards.iter().enumerate() {
            let shard = shard.lock();
            keys.push(shard.keys().to_vec());
            rows.extend(shard.rows.iter().map(|row| (row.stamp, slot as u32, row.key)));
        }
        rows.sort_by_key(|&(stamp, ..)| stamp & INDEX_MASK);
        rows.into_iter()
            .map(|(stamp, slot, key)| keys[slot as usize][key as usize].record(stamp))
            .collect()
    }

    /// The `(index, version)` stamp of every audited release, in release
    /// order, read straight from the rows: no record is rebuilt and no
    /// `Arc` is cloned.
    pub fn release_stamps(&self) -> Vec<ReleaseStamp> {
        let mut stamps = Vec::with_capacity(self.len());
        for shard in &self.shards {
            stamps.extend(shard.lock().rows.iter().map(|row| ReleaseStamp {
                seq: row.stamp & INDEX_MASK,
                version: row.stamp >> VERSION_SHIFT,
            }));
        }
        stamps.sort_by_key(|stamp| stamp.seq);
        stamps
    }

    /// Current number of rows in each shard, in shard order — an
    /// O(shards) observability probe for append skew (a healthy concurrent
    /// workload spreads across shards; a single-threaded one fills exactly
    /// one).
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|shard| shard.lock().rows.len()).collect()
    }

    /// Number of audited releases — one atomic load, no shard locks.
    pub fn len(&self) -> usize {
        (self.seq.load(Ordering::Acquire) & INDEX_MASK) as usize
    }

    /// Whether the log is empty — one atomic load, no shard locks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total ε debited across every audited release (fixed-point,
    /// [`BudgetAccountant::RESOLUTION`] units, kept per shard on append):
    /// the ledger total without iterating the rows, exactly what the
    /// accountant's grant path debits for the same releases — bit for bit,
    /// not merely within a float tolerance (see
    /// [`AuditLog::total_epsilon_units`]).
    pub fn total_epsilon(&self) -> f64 {
        self.total_epsilon_units() as f64 * BudgetAccountant::RESOLUTION
    }

    /// The raw fixed-point ε total ([`BudgetAccountant::RESOLUTION`] units
    /// each): the recovered base plus every shard's units, O(shards). It is
    /// directly comparable to `BudgetAccountant::total_spent_units()`: when
    /// every accountant grant is audited (every session release path), the
    /// two integers are equal under any thread interleaving once the
    /// appenders have quiesced.
    pub fn total_epsilon_units(&self) -> u64 {
        self.shards.iter().fold(self.base_units, |sum, shard| sum.wrapping_add(shard.lock().units))
    }

    /// The ledger view of the whole log: recovered-base entries first,
    /// then one entry per live audited release, in release order. O(n),
    /// like the [`AuditLog::records`] snapshot it is derived from.
    pub fn ledger(&self) -> Vec<LedgerEntry> {
        let live = self.records().into_iter().map(|r| r.to_ledger_entry());
        self.base.iter().cloned().chain(live).collect()
    }

    /// Every key named by a row indexed below `seen`, with its row count
    /// and lowest index, in first-use order; `visit` sees each such row's
    /// `(index, version)` stamp. Each shard is locked once, and a key's
    /// labels are shared, not copied.
    fn key_uses(&self, seen: u64, mut visit: impl FnMut(u64, u64)) -> Vec<KeyUse> {
        let mut uses = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock();
            let start = uses.len();
            uses.extend(shard.keys().iter().map(|key| KeyUse {
                first: u64::MAX,
                count: 0,
                key: key.clone(),
            }));
            for row in &shard.rows {
                let index = row.stamp & INDEX_MASK;
                if index < seen {
                    visit(index, row.stamp >> VERSION_SHIFT);
                    let used = &mut uses[start + row.key as usize];
                    used.count += 1;
                    used.first = used.first.min(index);
                }
            }
        }
        uses.retain(|used| used.count > 0);
        uses.sort_by_key(|used| used.first);
        uses
    }

    /// The distinct policy labels of the recovered base rows (in snapshot
    /// order), then of the keys in `uses` order.
    fn distinct_policies(&self, uses: &[KeyUse]) -> Vec<String> {
        let mut labels = Vec::new();
        self.base.iter().for_each(|e| push_distinct(&mut labels, &e.policy));
        uses.iter().for_each(|used| push_distinct(&mut labels, &used.key.policy));
        labels
    }

    /// The distinct policy labels of the log: the recovered base rows'
    /// labels first, in snapshot order (sorted by mechanism, policy and
    /// guarantee, not by first use), then the releases' in first-use order
    /// — the labels whose minimum relaxation the composed guarantee
    /// refers to (Theorem 3.3). O(n) in the rows, allocating per distinct
    /// key and label.
    pub fn policy_labels(&self) -> Vec<String> {
        self.distinct_policies(&self.key_uses(u64::MAX, |_, _| {}))
    }

    /// Verifies the log in one fold over each shard's rows, the recovered
    /// base included (see [`LedgerVerdict`]): budget conservation under
    /// sequential composition, summed in fixed-point units and compared
    /// exactly with `limit`'s units, plus the stale-policy and
    /// stamp-monotonicity checks over the history `transitions` returns.
    /// Allocates per distinct key, policy and epoch version, never per
    /// release.
    ///
    /// `transitions` is called after the log's length is read, and only
    /// releases indexed below that length are verified: any version they
    /// carry was installed before the call, so a transition racing the
    /// verification cannot leave a stamp without its history.
    pub(crate) fn verify(
        &self,
        limit: Option<f64>,
        transitions: impl FnOnce() -> Vec<EpochTransition>,
    ) -> LedgerVerdict {
        let seen = self.len() as u64;
        let mut epochs = EpochCheck::new(&transitions());
        let uses = self.key_uses(seen, |index, version| epochs.visit(index, version));
        // Saturating: an overflowing total is over any cap.
        let units = uses.iter().fold(self.base_units, |sum, KeyUse { count, key, .. }| {
            let debit = epsilon_to_units(batch_epsilon(key.guarantee, key.trials));
            sum.saturating_add(count.saturating_mul(debit))
        });
        // Every release as (kind, ε, mechanism, trials): base rows (whose
        // label stands for the mechanism), then keys.
        let base = self.base.iter().map(|e| (e.guarantee, e.epsilon, &*e.label, 1));
        let live = uses.iter().map(|KeyUse { key, .. }| {
            let epsilon = batch_epsilon(key.guarantee, key.trials);
            (key.guarantee.kind(), epsilon, &*key.mechanism, key.trials)
        });
        let releases: Vec<_> = base.chain(live).collect();
        let mut pdp_entries = Vec::new();
        for &(kind, _, mechanism, trials) in &releases {
            if kind == PrivacyGuarantee::Personalized {
                push_distinct(&mut pdp_entries, &ledger_label(mechanism, trials));
            }
        }
        LedgerVerdict {
            total_epsilon: units_to_epsilon(units),
            policies: self.distinct_policies(&uses),
            is_pure_dp: !releases.is_empty()
                && releases.iter().all(|r| r.0 == PrivacyGuarantee::DifferentialPrivacy),
            within_limit: limit.is_none_or(|l| units <= epsilon_to_units(l)),
            worst_exclusion_phi: releases.iter().map(|r| r.1).fold(0.0, f64::max),
            pdp_entries,
            epochs: epochs.verdict(),
        }
    }

    /// The log as a JSON array.
    pub fn to_json(&self) -> String {
        let records = self.records();
        let mut out = String::from("[\n");
        for (i, r) in records.iter().enumerate() {
            out.push_str("  ");
            out.push_str(&r.to_json());
            out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn record(index: u64, trials: usize) -> AuditRecord {
        AuditRecord {
            index,
            mechanism: "OsdpLaplaceL1".into(),
            policy: "P90".into(),
            query: "bound".into(),
            bins: 16,
            trials,
            guarantee: Guarantee::Osdp { eps: 0.5 },
            policy_version: 0,
        }
    }

    #[test]
    fn ledger_view_scales_epsilon_by_trials() {
        let single = record(0, 1).to_ledger_entry();
        assert_eq!(single.label, "OsdpLaplaceL1");
        assert_eq!(single.epsilon, 0.5);
        assert_eq!(single.guarantee, PrivacyGuarantee::OneSided);

        let batch = record(1, 10).to_ledger_entry();
        assert_eq!(batch.label, "OsdpLaplaceL1 x10");
        assert!((batch.epsilon - 5.0).abs() < 1e-12);
    }

    #[test]
    fn sharded_appends_merge_into_index_order() {
        use std::sync::Arc;
        // 8 threads append through append_versioned concurrently: indices are
        // dense and unique, the merged snapshot is sorted by index, and the
        // atomic counters agree with the snapshot.
        let log = Arc::new(AuditLog::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    for trials in 1..=4 {
                        log.append_versioned(|index, _| record(index, trials));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.len(), 32);
        let records = log.records();
        assert_eq!(records.len(), 32);
        let indices: Vec<u64> = records.iter().map(|r| r.index).collect();
        assert_eq!(indices, (0..32).collect::<Vec<u64>>(), "dense, merged in order");
        let expected: f64 = records.iter().map(AuditRecord::total_epsilon).sum();
        assert!((log.total_epsilon() - expected).abs() < 1e-9);
        assert!(log.verify(Some(expected + 1.0), Vec::new).within_limit);
        assert!(!log.verify(Some(expected - 1.0), Vec::new).within_limit);
        assert!(log.verify(None, Vec::new).within_limit);
    }

    #[test]
    fn recovered_logs_resume_counters_and_prepend_the_base() {
        let base = vec![LedgerEntry {
            label: "OsdpLaplaceL1 [recovered x4]".into(),
            policy: "P90".into(),
            epsilon: 2.0,
            guarantee: PrivacyGuarantee::OneSided,
        }];
        // 4 collapsed releases (indices 0..4), 2.0 ε = 2e12 units.
        let log = AuditLog::recovered(4, 0, 2_000_000_000_000, base);
        assert_eq!(log.len(), 4);
        assert_eq!(log.total_epsilon_units(), 2_000_000_000_000);
        // Replay a tail record with its logged debit: counters advance by
        // the stored integers, not a re-derived float.
        log.restore(record(4, 1), 500_000_000_000);
        assert_eq!(log.len(), 5);
        assert_eq!(log.total_epsilon_units(), 2_500_000_000_000);
        // Live appends continue the index sequence after the tail.
        let (next, _) = log.append_versioned(|index, _| record(index, 1));
        assert_eq!(next, 5);
        // The ledger view: base entry first, then tail + live records.
        let ledger = log.ledger();
        assert_eq!(ledger.len(), 3);
        assert!(ledger[0].label.contains("recovered"));
        assert_eq!(ledger[1].epsilon, 0.5);
        // Policy labels: base rows in snapshot order, then records.
        assert_eq!(log.policy_labels(), vec!["P90".to_string()]);
        // records() holds only the replayed + live records, not the base.
        assert_eq!(log.records().len(), 2);
    }

    #[test]
    fn a_single_thread_appends_to_one_shard() {
        let log = AuditLog::new();
        for trials in 1..=3 {
            log.append_versioned(|index, _| record(index, trials));
        }
        let lens = log.shard_lens();
        assert_eq!(lens.len(), 16);
        assert_eq!(lens.iter().sum::<usize>(), 3);
        assert_eq!(lens.iter().filter(|&&n| n > 0).count(), 1);
    }

    #[test]
    fn version_stamps_are_monotone_under_racing_bumps() {
        use std::sync::Arc;
        // 8 appender threads race 4 version bumps: stamped versions must be
        // monotone in index order, and every bump's boundary must split the
        // stamps exactly (index < boundary → version < bumped version).
        let log = Arc::new(AuditLog::new());
        let appenders: Vec<_> = (0..8)
            .map(|_| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    for _ in 0..64 {
                        log.append_versioned(|index, version| {
                            let mut r = record(index, 1);
                            r.policy_version = version;
                            r
                        });
                    }
                })
            })
            .collect();
        let bumper = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                (0..4)
                    .map(|_| {
                        std::thread::yield_now();
                        log.bump_version().unwrap()
                    })
                    .collect::<Vec<_>>()
            })
        };
        for h in appenders {
            h.join().unwrap();
        }
        let bumps = bumper.join().unwrap();
        assert_eq!(log.current_version(), 4);
        assert_eq!(log.len(), 512);
        let records = log.records();
        for pair in records.windows(2) {
            assert!(
                pair[0].policy_version <= pair[1].policy_version,
                "stamps monotone in index order"
            );
        }
        for &(version, boundary) in &bumps {
            for r in &records {
                if r.index < boundary {
                    assert!(r.policy_version < version, "pre-boundary index stamped earlier");
                } else {
                    assert!(r.policy_version >= version, "post-boundary index stamped later");
                }
            }
        }
        // Indices stayed dense despite the interleaved version bumps.
        let indices: Vec<u64> = records.iter().map(|r| r.index).collect();
        assert_eq!(indices, (0..512).collect::<Vec<u64>>());
    }

    #[test]
    fn version_space_exhaustion_is_an_error_not_index_corruption() {
        let log = AuditLog::recovered(7, MAX_VERSION, 0, Vec::new());
        assert_eq!(log.current_version(), MAX_VERSION);
        assert!(log.bump_version().is_err());
        assert_eq!(log.len(), 7, "failed bump leaves the index bits untouched");
        assert_eq!(log.current_version(), MAX_VERSION);
    }

    #[test]
    fn log_appends_and_snapshots() {
        let log = AuditLog::new();
        assert!(log.is_empty());
        log.append_versioned(|index, _| record(index, 1));
        log.append_versioned(|index, _| record(index, 3));
        assert_eq!(log.len(), 2);
        assert_eq!(log.records()[1].trials, 3);
        assert_eq!(log.ledger().len(), 2);
        let json = log.to_json();
        assert!(json.starts_with('['));
        assert!(json.contains("\"OsdpLaplaceL1\""));
        assert!(json.contains("\"trials\": 3"));
        assert!(json.ends_with(']'));
    }

    /// A release tuple drawn from small alphabets, so tuples repeat (warm
    /// appends and hash-chain hits) and differ in every field, the ε bits
    /// included.
    fn random_record(rng: &mut proptest::TestRng, index: u64, version: u64) -> AuditRecord {
        const MECHANISMS: [&str; 3] = ["OsdpLaplaceL1", "DAWA", "OsdpRR"];
        const POLICIES: [&str; 3] = ["P90", "P99", "Pall"];
        const GUARANTEES: [Guarantee; 4] = [
            Guarantee::Osdp { eps: 0.5 },
            Guarantee::Osdp { eps: 0.25 },
            Guarantee::Dp { eps: 0.5 },
            Guarantee::Pdp { eps: 0.5 },
        ];
        let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
        AuditRecord {
            index,
            mechanism: MECHANISMS[pick(3)].into(),
            policy: POLICIES[pick(3)].into(),
            query: format!("q{}", pick(5)).into(),
            bins: [0, 16, 64][pick(3)],
            trials: 1 + pick(3),
            guarantee: GUARANTEES[pick(4)],
            policy_version: version,
        }
    }

    /// The snapshots a plain `Vec<AuditRecord>` of the same appends gives,
    /// next to the base entries of a recovered log.
    struct Oracle {
        base: Vec<LedgerEntry>,
        records: Vec<AuditRecord>,
    }

    impl Oracle {
        fn ledger(&self) -> Vec<LedgerEntry> {
            let live = self.records.iter().map(AuditRecord::to_ledger_entry);
            self.base.iter().cloned().chain(live).collect()
        }

        fn policy_labels(&self) -> Vec<String> {
            let mut labels: Vec<String> = Vec::new();
            let used = self.base.iter().map(|e| e.policy.clone());
            for policy in used.chain(self.records.iter().map(|r| r.policy.to_string())) {
                if !labels.contains(&policy) {
                    labels.push(policy);
                }
            }
            labels
        }

        fn to_json(&self) -> String {
            let objects: Vec<String> =
                self.records.iter().map(|r| format!("  {}", r.to_json())).collect();
            if objects.is_empty() {
                "[\n]".to_string()
            } else {
                format!("[\n{}\n]", objects.join(",\n"))
            }
        }

        fn release_stamps(&self) -> Vec<ReleaseStamp> {
            let stamp = |r: &AuditRecord| ReleaseStamp { seq: r.index, version: r.policy_version };
            self.records.iter().map(stamp).collect()
        }

        fn check(&self, log: &AuditLog) {
            assert_eq!(log.records(), self.records);
            assert_eq!(log.ledger(), self.ledger());
            assert_eq!(log.policy_labels(), self.policy_labels());
            assert_eq!(log.to_json(), self.to_json());
            assert_eq!(log.release_stamps(), self.release_stamps());
            let units: u64 = self.records.iter().map(|r| r.key().units()).sum();
            assert_eq!(log.total_epsilon_units(), self.base_units() + units);
            // The verifier's fold gives the owned ledger's verdict.
            let verdict = log.verify(None, Vec::new);
            let ledger = self.ledger();
            assert_eq!(verdict.total_epsilon, units_to_epsilon(self.base_units() + units));
            assert_eq!(verdict.policies, self.policy_labels());
            let kinds = || ledger.iter().map(|e| e.guarantee);
            let pure = !ledger.is_empty()
                && kinds().all(|kind| kind == PrivacyGuarantee::DifferentialPrivacy);
            assert_eq!(verdict.is_pure_dp, pure);
            let phi = ledger.iter().map(|e| e.epsilon).fold(0.0, f64::max);
            assert_eq!(verdict.worst_exclusion_phi, phi);
            let mut pdp = Vec::new();
            for e in ledger.iter().filter(|e| e.guarantee == PrivacyGuarantee::Personalized) {
                push_distinct(&mut pdp, &e.label);
            }
            assert_eq!(verdict.pdp_entries, pdp);
            assert_eq!(verdict.epochs, verify_epoch_stamps(&self.release_stamps(), &[]));
        }

        /// The units seeded into a recovered log (its base entries).
        fn base_units(&self) -> u64 {
            self.base.iter().map(|e| epsilon_to_units(e.epsilon)).sum()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The row store reproduces an owned-record log exactly: 4–8
        /// threads append random tuples while another bumps the version,
        /// on a fresh log and on a recovered one with restored tail
        /// records.
        #[test]
        fn rows_reproduce_an_owned_record_log(
            threads in 4usize..=8,
            appends in 1usize..80,
            bumps in 0u64..6,
            recovered in 0usize..2,
            tail in 0u64..12,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = proptest::TestRng::deterministic(&format!("audit-oracle-{seed}"));
            let (log, base, mut records) = if recovered == 1 {
                // Four collapsed releases, then a tail replayed out of
                // order with stamps from versions 0..=2.
                let base = vec![LedgerEntry {
                    label: "DAWA [recovered x4]".into(),
                    policy: "P-base".into(),
                    epsilon: 2.0,
                    guarantee: osdp_core::PrivacyGuarantee::OneSided,
                }];
                let log = AuditLog::recovered(4, 2, epsilon_to_units(2.0), base.clone());
                let mut tail: Vec<AuditRecord> = (0..tail)
                    .map(|i| random_record(&mut rng, 4 + i, i * 3 / tail.max(1)))
                    .collect();
                for record in tail.iter().rev() {
                    log.restore(record.clone(), record.key().units());
                }
                tail.sort_by_key(|r| r.index);
                (log, base, tail)
            } else {
                (AuditLog::new(), Vec::new(), Vec::new())
            };
            let log = Arc::new(log);
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let log = Arc::clone(&log);
                    let mut rng = proptest::TestRng::deterministic(&format!("{seed}-{t}"));
                    std::thread::spawn(move || {
                        let mut appended = Vec::with_capacity(appends);
                        for _ in 0..appends {
                            log.append_versioned(|index, version| {
                                let record = random_record(&mut rng, index, version);
                                appended.push(record.clone());
                                record
                            });
                        }
                        appended
                    })
                })
                .collect();
            let bumper = {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    for _ in 0..bumps {
                        std::thread::yield_now();
                        log.bump_version().unwrap();
                    }
                })
            };
            for worker in workers {
                records.extend(worker.join().unwrap());
            }
            bumper.join().unwrap();
            records.sort_by_key(|r| r.index);
            let oracle = Oracle { base, records };
            oracle.check(&log);
        }
    }

    /// Keys across the shards (a tuple appended from two threads counts
    /// once per shard).
    fn key_count(log: &AuditLog) -> usize {
        log.shards.iter().map(|shard| shard.lock().keys().len()).sum()
    }

    #[test]
    fn key_churn_keeps_snapshots_exact() {
        // A new query label on every release: one key per row, the case
        // where rows save least. Snapshots must stay exact regardless.
        let log = AuditLog::new();
        let mut records = Vec::new();
        for i in 0..10_000u64 {
            log.append_versioned(|index, version| {
                let mut r = record(index, 1 + (i % 2) as usize);
                r.query = format!("query-{i}").into();
                r.policy_version = version;
                records.push(r.clone());
                r
            });
        }
        assert_eq!(key_count(&log), 10_000);
        let oracle = Oracle { base: Vec::new(), records };
        oracle.check(&log);
        // A repeated tuple reuses its key.
        log.append_versioned(|index, _| {
            let mut r = record(index, 1);
            r.query = "query-0".into();
            r
        });
        assert_eq!(key_count(&log), 10_000);
        assert_eq!(log.records().last().unwrap().query.as_ref(), "query-0");
    }

    /// Appends one release of `mechanism` under `policy` to `log`.
    fn append(log: &AuditLog, mechanism: &str, policy: &str, guarantee: Guarantee, trials: usize) {
        log.append_versioned(|index, version| AuditRecord {
            index,
            mechanism: mechanism.into(),
            policy: policy.into(),
            query: "q".into(),
            bins: 8,
            trials,
            guarantee,
            policy_version: version,
        });
    }

    #[test]
    fn sequential_composition_sums_units_and_dedups_policies() {
        let log = AuditLog::new();
        append(&log, "OsdpRR", "P99", Guarantee::Osdp { eps: 0.375 }, 1);
        append(&log, "DAWA", "Pall", Guarantee::Dp { eps: 0.25 }, 2);
        append(&log, "OsdpLaplaceL1", "P99", Guarantee::Osdp { eps: 0.125 }, 1);
        let verdict = log.verify(Some(1.0), Vec::new);
        assert_eq!(verdict.total_epsilon, units_to_epsilon(log.total_epsilon_units()));
        assert!((verdict.total_epsilon - 1.0).abs() < 1e-12);
        assert_eq!(verdict.policies, ["P99", "Pall"]);
        assert!(verdict.within_limit);
        assert!(!verdict.is_pure_dp);
        assert!(verdict.upholds_osdp());
        assert_eq!(verdict.worst_exclusion_phi, 0.5, "the 2-trial DAWA batch");
    }

    #[test]
    fn over_limit_logs_fail_to_the_unit() {
        let log = AuditLog::new();
        append(&log, "m", "P", Guarantee::Osdp { eps: 1.5 }, 1);
        let verdict = log.verify(Some(1.0), Vec::new);
        assert!(!verdict.within_limit);
        assert!(!verdict.upholds_osdp());
        assert!(log.verify(None, Vec::new).within_limit, "no cap, no violation");
        // The cap is compared in fixed-point units: the exact total passes,
        // and 500 units (5e-10 ε) less fails.
        let spent = log.total_epsilon_units();
        assert!(log.verify(Some(1.5), Vec::new).within_limit);
        assert!(!log.verify(Some(units_to_epsilon(spent - 500)), Vec::new).within_limit);
    }

    #[test]
    fn pdp_releases_are_the_exclusion_attack_surface() {
        let base = vec![LedgerEntry {
            label: "Suppress10 [recovered]".into(),
            policy: "P90".into(),
            epsilon: 10.0,
            guarantee: PrivacyGuarantee::Personalized,
        }];
        let log = AuditLog::recovered(1, 0, epsilon_to_units(10.0), base);
        append(&log, "OsdpLaplaceL1", "P90", Guarantee::Osdp { eps: 1.0 }, 1);
        for trials in [1, 1, 2, 1] {
            append(&log, "Suppress100", "P90", Guarantee::Pdp { eps: 100.0 }, trials);
        }
        let verdict = log.verify(None, Vec::new);
        assert_eq!(
            verdict.pdp_entries,
            ["Suppress10 [recovered]", "Suppress100", "Suppress100 x2"],
            "one entry per distinct label, in first-use order"
        );
        assert!(!verdict.upholds_osdp());
        assert_eq!(verdict.worst_exclusion_phi, 200.0);
    }

    #[test]
    fn pure_dp_logs_are_recognised() {
        let log = AuditLog::new();
        assert!(!log.verify(None, Vec::new).is_pure_dp, "an empty log proves nothing");
        append(&log, "Laplace", "Pall", Guarantee::Dp { eps: 0.3 }, 1);
        append(&log, "DAWA", "Pall", Guarantee::Dp { eps: 0.3 }, 1);
        assert!(log.verify(None, Vec::new).is_pure_dp);
        append(&log, "OsdpRR", "Pall", Guarantee::Osdp { eps: 0.3 }, 1);
        assert!(!log.verify(None, Vec::new).is_pure_dp);
    }

    fn tighten(version: u64, boundary_seq: u64) -> EpochTransition {
        EpochTransition { version, boundary_seq, relaxes: false, label: format!("P-v{version}") }
    }

    fn relax(version: u64, boundary_seq: u64) -> EpochTransition {
        EpochTransition { version, boundary_seq, relaxes: true, label: format!("P-v{version}") }
    }

    fn stamps_for(boundaries: &[u64], total: u64) -> Vec<ReleaseStamp> {
        // The honest stamping an engine session produces: each seq carries
        // the highest version whose boundary covers it.
        (0..total)
            .map(|seq| ReleaseStamp {
                seq,
                version: boundaries.iter().filter(|&&b| b <= seq).count() as u64,
            })
            .collect()
    }

    #[test]
    fn honest_multi_epoch_histories_verify_clean() {
        // v1 tightens at seq 3 (decay), v2 relaxes at seq 7 (consent),
        // v3 tightens again at seq 7 (an empty v2 window is legal).
        let transitions = vec![tighten(1, 3), relax(2, 7), tighten(3, 7)];
        let stamps = stamps_for(&[3, 7, 7], 12);
        let verdict = verify_epoch_stamps(&stamps, &transitions);
        assert!(verdict.consistent(), "{verdict:?}");
        assert_eq!(verdict.versions, 4);
        assert!(verdict.monotone);
        // A log stamped by the same bumps folds to the same verdict.
        let log = AuditLog::new();
        for seq in 0..12 {
            if seq == 3 || seq == 7 {
                log.bump_version().unwrap();
            }
            if seq == 7 {
                log.bump_version().unwrap();
                log.bump_version().unwrap();
            }
            append(&log, "OsdpRR", "P", Guarantee::Osdp { eps: 0.1 }, 1);
        }
        // The log's own bumps: v1 at 3, v2 and v3 at 7, v4 at 7.
        let bumped = vec![tighten(1, 3), relax(2, 7), tighten(3, 7), tighten(4, 7)];
        assert_eq!(log.release_stamps(), stamps_for(&[3, 7, 7, 7], 12));
        let full = log.verify(Some(2.0), || bumped.clone());
        assert!(full.upholds_osdp());
        assert_eq!(full.epochs, verify_epoch_stamps(&log.release_stamps(), &bumped));
        // Static-policy sessions: empty history, stamps all zero.
        assert!(verify_epoch_stamps(&stamps_for(&[], 5), &[]).consistent());
    }

    #[test]
    fn stale_policy_replay_is_rejected() {
        // Honest history: a tighten lands at seq 4. Seed a stale-policy
        // replay by serving seq 6 under the pre-tighten epoch (version 0,
        // level 0 > level -1 in force): the verifier must reject it.
        let transitions = vec![tighten(1, 4)];
        let mut stamps = stamps_for(&[4], 8);
        stamps[6].version = 0;
        let verdict = verify_epoch_stamps(&stamps, &transitions);
        assert_eq!(verdict.stale_releases, vec![6]);
        assert!(!verdict.monotone, "the replay also breaks stamp monotonicity");
        assert!(!verdict.consistent());
        // The same replay restored into a log's rows fails its verdict.
        let log = AuditLog::recovered(0, 1, 0, Vec::new());
        for stamp in stamps.iter().rev() {
            let mut r = record(stamp.seq, 1);
            r.policy_version = stamp.version;
            log.restore(r, epsilon_to_units(0.5));
        }
        let full = log.verify(None, || transitions.clone());
        assert_eq!(full.epochs, verdict);
        assert!(!full.upholds_osdp());
    }

    #[test]
    fn tighter_than_in_force_stamps_are_not_violations() {
        // A relax lands at seq 4; a release stamped with the *pre-relax*
        // (tighter) epoch afterwards leaked less than it was entitled to.
        let transitions = vec![relax(1, 4)];
        let mut stamps = stamps_for(&[4], 8);
        stamps[5].version = 0;
        let verdict = verify_epoch_stamps(&stamps, &transitions);
        assert!(verdict.stale_releases.is_empty(), "tighter stamps are allowed");
        assert!(!verdict.monotone, "but the structural invariant still flags it");
    }

    #[test]
    fn unknown_versions_and_gapped_histories_fail_closed() {
        // A stamp the lifecycle never issued is a violation...
        let transitions = vec![tighten(1, 2)];
        let stamps = vec![ReleaseStamp { seq: 3, version: 9 }];
        let verdict = verify_epoch_stamps(&stamps, &transitions);
        assert_eq!(verdict.stale_releases, vec![3]);
        assert!(!verdict.consistent());
        // ...and a history with a version gap is never trusted, even when
        // no stamp lands past the gap.
        let gapped = vec![tighten(1, 2), tighten(3, 5)];
        let verdict = verify_epoch_stamps(&stamps_for(&[2], 4), &gapped);
        assert!(!verdict.history_dense);
        assert!(!verdict.consistent());
    }

    /// The test oracle of [`verify_epoch_stamps`]: the version in force
    /// found by scanning every boundary for every stamp, and monotonicity
    /// checked over every pair of stamps.
    fn verify_epoch_stamps_linear(
        stamps: &[ReleaseStamp],
        transitions: &[EpochTransition],
    ) -> EpochVerdict {
        let mut sorted: Vec<&EpochTransition> = transitions.iter().collect();
        sorted.sort_by_key(|t| (t.version, t.boundary_seq));
        let chain: Vec<&EpochTransition> = sorted
            .into_iter()
            .enumerate()
            .take_while(|(i, t)| t.version == *i as u64 + 1)
            .map(|(_, t)| t)
            .collect();
        let level = |version: u64| {
            let known = chain.get(..version as usize)?;
            Some(known.iter().map(|t| if t.relaxes { 1 } else { -1 }).sum::<i64>())
        };
        let in_force = |seq: u64| {
            chain.iter().filter(|t| t.boundary_seq <= seq).map(|t| t.version).max().unwrap_or(0)
        };
        let mut stale_releases: Vec<u64> = stamps
            .iter()
            .filter(|s| level(s.version).is_none_or(|l| Some(l) > level(in_force(s.seq))))
            .map(|s| s.seq)
            .collect();
        stale_releases.sort_unstable();
        stale_releases.dedup();
        let monotone =
            stamps.iter().all(|a| stamps.iter().all(|b| a.seq >= b.seq || a.version <= b.version));
        EpochVerdict {
            versions: chain.len() as u64 + 1,
            stale_releases,
            monotone,
            history_dense: chain.len() == transitions.len(),
        }
    }

    fn stamps_of(pairs: &[(u64, u64)]) -> Vec<ReleaseStamp> {
        pairs.iter().map(|&(seq, version)| ReleaseStamp { seq, version }).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The suffix-minimum lookup and the version ranges give the
        /// oracle's verdict on any history: gapped or duplicated versions,
        /// non-monotone boundaries, repeated sequence numbers, and stamps
        /// carrying versions the history never issued.
        #[test]
        fn the_stamp_fold_matches_the_linear_oracle(
            history in prop::collection::vec((1u64..9, 0u64..40, 0u8..2), 0..10),
            stamps in prop::collection::vec((0u64..48, 0u64..11), 0..40),
        ) {
            let transitions: Vec<EpochTransition> = history
                .iter()
                .map(|&(version, boundary_seq, relaxes)| EpochTransition {
                    version,
                    boundary_seq,
                    relaxes: relaxes == 1,
                    label: format!("P-v{version}"),
                })
                .collect();
            let stamps = stamps_of(&stamps);
            prop_assert_eq!(
                verify_epoch_stamps(&stamps, &transitions),
                verify_epoch_stamps_linear(&stamps, &transitions)
            );
        }

        /// The same on dense histories (versions 1..=n in some order), so
        /// the lookup is exercised past the first version, not only cut
        /// short by a gap.
        #[test]
        fn the_stamp_fold_matches_on_dense_histories(
            boundaries in prop::collection::vec((0u64..40, 0u8..2), 0..12),
            rotate in 0usize..12,
            stamps in prop::collection::vec((0u64..48, 0u64..14), 0..40),
        ) {
            let mut transitions: Vec<EpochTransition> = boundaries
                .iter()
                .enumerate()
                .map(|(i, &(boundary_seq, relaxes))| EpochTransition {
                    version: i as u64 + 1,
                    boundary_seq,
                    relaxes: relaxes == 1,
                    label: format!("P-v{}", i + 1),
                })
                .collect();
            if !transitions.is_empty() {
                let by = rotate % transitions.len();
                transitions.rotate_left(by);
            }
            let stamps = stamps_of(&stamps);
            let verdict = verify_epoch_stamps(&stamps, &transitions);
            prop_assert!(verdict.history_dense);
            prop_assert_eq!(verdict, verify_epoch_stamps_linear(&stamps, &transitions));
        }

        /// A log's rows, restored in any order and from several threads
        /// (so across shards), fold to the verdict of their stamps.
        #[test]
        fn a_logs_rows_fold_like_its_stamps(
            boundaries in prop::collection::vec((0u64..40, 0u8..2), 0..6),
            stamps in prop::collection::vec((0u64..48, 0u64..8), 1..40),
        ) {
            let transitions: Vec<EpochTransition> = boundaries
                .iter()
                .enumerate()
                .map(|(i, &(boundary_seq, relaxes))| EpochTransition {
                    version: i as u64 + 1,
                    boundary_seq,
                    relaxes: relaxes == 1,
                    label: format!("P-v{}", i + 1),
                })
                .collect();
            let stamps = stamps_of(&stamps);
            let log = AuditLog::recovered(0, 7, 0, Vec::new());
            std::thread::scope(|scope| {
                for part in stamps.chunks(stamps.len().div_ceil(3)) {
                    let log = &log;
                    scope.spawn(move || {
                        for stamp in part {
                            let mut r = record(stamp.seq, 1);
                            r.policy_version = stamp.version;
                            log.restore(r, epsilon_to_units(0.5));
                        }
                    });
                }
            });
            let verdict = log.verify(None, || transitions.clone());
            prop_assert_eq!(verdict.epochs, verify_epoch_stamps(&stamps, &transitions));
            prop_assert_eq!(verdict.total_epsilon, units_to_epsilon(log.total_epsilon_units()));
        }
    }
}
