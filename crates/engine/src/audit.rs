//! The session audit log: one record per release, with a ledger view
//! consumable by `osdp_attack::verify_ledger`.
//!
//! The log keeps every release, because it is the ledger of record, but it
//! does not keep an [`AuditRecord`] per release. Each shard holds a **key
//! table** of the distinct `(mechanism, policy, query, bins, trials,
//! guarantee)` tuples it has seen and an append-only vector of 16-byte
//! **rows**: the packed `(index, version)` stamp plus a key id. Snapshots
//! ([`AuditLog::records`], [`AuditLog::ledger`], [`AuditLog::to_json`])
//! rebuild the exact records from rows and keys.

use osdp_attack::ReleaseStamp;
use osdp_core::budget::{epsilon_to_units, LedgerEntry};
use osdp_core::{BudgetAccountant, Guarantee};
use osdp_metrics::{json_number, json_string};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher, RandomState};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// One audited release.
///
/// The log stores releases as rows over a key table and rebuilds records
/// on snapshot: the three label fields are `Arc<str>`s shared with that
/// table, so a snapshot costs three reference-count increments per
/// record, not three string allocations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
        self.guarantee.epsilon() * self.trials as f64
    }

    /// The ledger view of this record, in the shape
    /// `osdp_attack::verify_ledger` consumes.
    pub fn to_ledger_entry(&self) -> LedgerEntry {
        LedgerEntry {
            label: if self.trials > 1 {
                format!("{} x{}", self.mechanism, self.trials)
            } else {
                self.mechanism.to_string()
            },
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
        epsilon_to_units(self.guarantee.epsilon() * self.trials as f64)
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

    /// Visits every stored release in release-index order with its stamp
    /// word and key. Each shard is locked once, to copy its rows and clone
    /// its key table (reference-count increments); the merged rows are
    /// then stably sorted by index.
    fn for_each_in_order(&self, mut visit: impl FnMut(u64, &AuditKey)) {
        let mut keys = Vec::with_capacity(self.shards.len());
        let mut rows: Vec<(u64, u32, u32)> = Vec::with_capacity(self.len());
        for (slot, shard) in self.shards.iter().enumerate() {
            let shard = shard.lock();
            keys.push(shard.keys().to_vec());
            rows.extend(shard.rows.iter().map(|row| (row.stamp, slot as u32, row.key)));
        }
        rows.sort_by_key(|&(stamp, ..)| stamp & INDEX_MASK);
        for (stamp, slot, key) in rows {
            visit(stamp, &keys[slot as usize][key as usize]);
        }
    }

    /// A snapshot of all records, merged from the shards, sorted into
    /// release order and rebuilt from rows and keys. **O(n)** in the
    /// number of audited releases — use [`AuditLog::len`] /
    /// [`AuditLog::total_epsilon`] for hot-path probes. A snapshot taken
    /// while appends are in flight contains every release whose append
    /// completed (an in-flight index may be absent until its appender
    /// finishes); a quiesced log snapshots exactly.
    pub fn records(&self) -> Vec<AuditRecord> {
        let mut out = Vec::new();
        self.records_into(&mut out);
        out
    }

    /// [`AuditLog::records`] into a caller-provided buffer: `out` is
    /// cleared and refilled, but its capacity is reused — repeated audits
    /// (a pool-wide `verify_all_ledgers` sweep, a monitoring loop) merge
    /// the shards without re-allocating the snapshot vector each time.
    pub fn records_into(&self, out: &mut Vec<AuditRecord>) {
        out.clear();
        out.reserve(self.len());
        self.for_each_in_order(|stamp, key| out.push(key.record(stamp)));
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

    /// O(shards) budget check: whether the log's total ε respects `limit`
    /// (vacuously true without one). Compared in fixed-point units — the
    /// same integers the accountant's cap enforcement uses, so the verdict
    /// never drifts from the grant path's. The iteration-free half of
    /// `osdp_attack::verify_ledger` — the full structural verdict still
    /// consumes the [`AuditLog::ledger`] snapshot.
    pub fn within_limit(&self, limit: Option<f64>) -> bool {
        limit.is_none_or(|l| self.total_epsilon_units() <= epsilon_to_units(l))
    }

    /// The ledger view of the whole log (recovered-base entries first, then
    /// one entry per live audited release, in release order), consumable by
    /// `osdp_attack::verify_ledger`. O(n), like the [`AuditLog::records`]
    /// snapshot it is derived from.
    pub fn ledger(&self) -> Vec<LedgerEntry> {
        let mut scratch = Vec::new();
        self.ledger_with(&mut scratch)
    }

    /// [`AuditLog::ledger`] with a caller-provided scratch buffer for the
    /// intermediate record snapshot: a sweep over many sessions reuses one
    /// allocation instead of building and dropping a full record vector per
    /// log.
    pub fn ledger_with(&self, scratch: &mut Vec<AuditRecord>) -> Vec<LedgerEntry> {
        self.records_into(scratch);
        let mut out = Vec::with_capacity(self.base.len() + scratch.len());
        out.extend(self.base.iter().cloned());
        out.extend(scratch.iter().map(AuditRecord::to_ledger_entry));
        out
    }

    /// [`AuditLog::ledger_with`] and [`AuditLog::release_stamps`] from
    /// **one** merge of the shards: both halves of the versioned ledger
    /// audit (`osdp_attack::verify_ledger_versioned`). The stamps are read
    /// off the same snapshot as the ledger, so they describe exactly the
    /// same releases even while appends are in flight.
    pub fn ledger_and_stamps_with(
        &self,
        scratch: &mut Vec<AuditRecord>,
    ) -> (Vec<LedgerEntry>, Vec<ReleaseStamp>) {
        let ledger = self.ledger_with(scratch);
        let stamps = scratch
            .iter()
            .map(|r| ReleaseStamp { seq: r.index, version: r.policy_version })
            .collect();
        (ledger, stamps)
    }

    /// The distinct policy labels of the log in first-use order: the
    /// recovered base rows (in snapshot order), then the releases in index
    /// order — the labels whose minimum relaxation the composed guarantee
    /// refers to (Theorem 3.3). O(n), like [`AuditLog::records`].
    pub fn policy_labels(&self) -> Vec<String> {
        let mut labels: Vec<String> = Vec::new();
        let mut note = |policy: &str| {
            if !labels.iter().any(|l| l == policy) {
                labels.push(policy.to_string());
            }
        };
        self.base.iter().for_each(|e| note(&e.policy));
        self.for_each_in_order(|_, key| note(&key.policy));
        labels
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
    use osdp_core::PrivacyGuarantee;

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
        assert!(log.within_limit(Some(expected + 1.0)));
        assert!(!log.within_limit(Some(expected - 1.0)));
        assert!(log.within_limit(None));
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
        // Policy labels in first-use order: base rows, then records.
        assert_eq!(log.policy_labels(), vec!["P90".to_string()]);
        // records() holds only the replayed + live records, not the base.
        assert_eq!(log.records().len(), 2);
    }

    #[test]
    fn scratch_buffer_snapshots_match_the_allocating_ones() {
        let log = AuditLog::new();
        for trials in 1..=3 {
            log.append_versioned(|index, _| record(index, trials));
        }
        let mut scratch = Vec::new();
        log.records_into(&mut scratch);
        assert_eq!(scratch, log.records());
        let held = scratch.capacity();
        assert_eq!(log.ledger_with(&mut scratch), log.ledger());
        assert!(scratch.capacity() >= held, "capacity is reused, not dropped");
        // This thread appended every record into one shard.
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
            let (ledger, stamps) = log.ledger_and_stamps_with(&mut Vec::new());
            assert_eq!((ledger, stamps), (self.ledger(), self.release_stamps()));
            let units: u64 = self.records.iter().map(|r| r.key().units()).sum();
            assert_eq!(log.total_epsilon_units(), self.base_units() + units);
        }

        /// The units seeded into a recovered log (its base entries).
        fn base_units(&self) -> u64 {
            self.base.iter().map(|e| epsilon_to_units(e.epsilon)).sum()
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

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
}
