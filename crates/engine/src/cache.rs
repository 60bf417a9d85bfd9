//! The session task cache: derive each [`HistogramTask`] once, serve it to
//! every release that asks the same question.
//!
//! Pool runners (the regret and crossover experiments of Section 6.3.3.2)
//! release the *same query under the same policy* through every mechanism of
//! a pool; before this cache each `release_trials` call re-ran the backend
//! scan, so an 8-mechanism pool paid for 8 identical scans. The cache keys a
//! derived task by the **identities** that determine the scan's result —
//! query (bin count + bin-closure allocation), policy allocation, and backend
//! allocation; the human-readable query/policy labels are projections of
//! those identities and never influence a scan's output. Each entry retains
//! the `Arc`s whose addresses key it, so an address can never be recycled
//! into a colliding key while the entry lives (the same no-ABA argument as
//! the backend partition cache).
//!
//! Data behind a backend is immutable for the backend's lifetime, so entries
//! never go stale; the cache is capacity-bounded per shard and cleared when
//! full (a pure cache: results are recomputed, never wrong). Entries live in
//! hash-sharded maps holding per-key derivation slots: concurrent
//! derivations of *distinct* queries run in parallel, while racing
//! derivations of the *same* key serialize on that key's slot and scan
//! exactly once.

use crate::backend::Backend;
use crate::sharding::shard_index;
use osdp_core::error::Result;
use osdp_core::frame::BinSpec;
use osdp_core::policy::Policy;
use osdp_mechanisms::HistogramTask;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Number of cache shards: keys hashing to different shards never contend
/// on the (brief) map locks.
const TASK_SHARDS: usize = 8;

/// Cap on cached tasks per shard. 16 per shard keeps any workload the
/// historical single-map 64-entry cap held fully cached (64 keys spread
/// over 8 shards average 8 per shard; 16 absorbs hash skew) while still
/// bounding the pinned memory; a full shard is cleared (a pure cache:
/// results are recomputed, never wrong).
const TASK_CACHE_CAP_PER_SHARD: usize = 16;

/// Identity key: `(bins, bin-closure, policy, backend)` allocations, the
/// policy epoch **version** the task is derived under, plus the query's
/// compiled bin spec **by value** — a hand-built query can pair an existing
/// closure `Arc` with a different spec, and columnar backends scan through
/// the spec, so spec-divergent queries must not share an entry. The version
/// component means an epoch transition can never serve a pre-transition
/// task to a post-transition release even if the transition re-installs a
/// policy `Arc` at a recycled address: the version is monotone, so stale
/// entries are unreachable the moment the audit counter bumps.
type TaskKey = (usize, usize, usize, usize, u64, Option<BinSpec>);

/// The row-level bin assignment closure, as stored by queries and plans.
type BinOf<R> = Arc<dyn Fn(&R) -> Option<usize> + Send + Sync>;

/// The identities a cached task is derived from, borrowed from the query,
/// the epoch and the session; [`TaskCache::get_or_derive`] keys by their
/// allocations (see [`TaskKey`]) and pins them in the entry.
pub(crate) struct TaskIdentity<'a, R> {
    pub(crate) bins: usize,
    pub(crate) bin_of: &'a BinOf<R>,
    pub(crate) spec: Option<&'a BinSpec>,
    /// The policy of the epoch the release is pinned to, and its version.
    pub(crate) policy: &'a Arc<dyn Policy<R>>,
    pub(crate) policy_version: u64,
    pub(crate) backend: &'a Arc<dyn Backend<R>>,
}

/// The per-key derivation slot: `None` until the first successful scan
/// fills it. Racing callers of one key serialize on this slot's own lock —
/// not the shard map lock — so a slow derivation never blocks hits or
/// derivations of other keys.
type TaskSlot = Arc<Mutex<Option<Arc<HistogramTask>>>>;

/// A cached derivation slot plus the pinned allocations that key it.
struct TaskEntry<R> {
    /// Pinned so the closure allocation outlives the entry (no ABA).
    _bin_of: BinOf<R>,
    /// Pinned so the policy allocation outlives the entry (no ABA).
    _policy: Arc<dyn Policy<R>>,
    /// Pinned so the backend allocation outlives the entry (no ABA).
    _backend: Arc<dyn Backend<R>>,
    slot: TaskSlot,
}

/// The per-session task cache, sharded by key hash.
pub(crate) struct TaskCache<R> {
    shards: Vec<Mutex<HashMap<TaskKey, TaskEntry<R>>>>,
}

impl<R> TaskCache<R> {
    /// An empty cache.
    pub(crate) fn new() -> Self {
        Self { shards: (0..TASK_SHARDS).map(|_| Mutex::new(HashMap::new())).collect() }
    }

    /// Number of live entries (test probe).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Drops every entry. For sources whose data **can** change between
    /// releases (the streaming plane swaps a new window behind its backend),
    /// this restores the cache's staleness invariant at the swap point:
    /// in-flight derivations keep their slot `Arc`s and finish unaffected;
    /// later callers re-derive against the new data (pure-cache semantics —
    /// results are recomputed, never wrong).
    pub(crate) fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }

    /// The shard a key hashes to.
    fn shard_of(&self, key: &TaskKey) -> &Mutex<HashMap<TaskKey, TaskEntry<R>>> {
        &self.shards[shard_index(key, TASK_SHARDS)]
    }

    /// Returns the cached task for `identity`, deriving it with `derive`
    /// (the backend scan) on a miss.
    ///
    /// Exactly-once, without blocking the shard: the shard map lock is held
    /// only long enough to find or insert the key's **slot**, and the scan
    /// runs under that slot's own lock — so threads racing the *same* key
    /// serialize and derive once (the historical lock → miss → unlock →
    /// relock sequence let two threads scan the same task concurrently),
    /// while hits and derivations of *other* keys, even on the same shard,
    /// never wait behind a slow scan. A failed derivation leaves the slot
    /// empty, so errors are retried by the next caller.
    pub(crate) fn get_or_derive(
        &self,
        identity: TaskIdentity<'_, R>,
        derive: impl FnOnce() -> Result<HistogramTask>,
    ) -> Result<Arc<HistogramTask>> {
        let TaskIdentity { bins, bin_of, spec, policy, policy_version, backend } = identity;
        let key: TaskKey = (
            bins,
            Arc::as_ptr(bin_of) as *const () as usize,
            Arc::as_ptr(policy) as *const () as usize,
            Arc::as_ptr(backend) as *const () as usize,
            policy_version,
            spec.cloned(),
        );
        let slot: TaskSlot = {
            let mut entries = self.shard_of(&key).lock();
            if let Some(entry) = entries.get(&key) {
                Arc::clone(&entry.slot)
            } else {
                if entries.len() >= TASK_CACHE_CAP_PER_SHARD {
                    // In-flight derivations keep their slot Arc and finish
                    // unaffected; their results are simply re-derived by
                    // later callers (pure-cache semantics).
                    entries.clear();
                }
                let entry = entries.entry(key).or_insert_with(|| TaskEntry {
                    _bin_of: Arc::clone(bin_of),
                    _policy: Arc::clone(policy),
                    _backend: Arc::clone(backend),
                    slot: Arc::new(Mutex::new(None)),
                });
                Arc::clone(&entry.slot)
            }
        };
        let mut slot = slot.lock();
        if let Some(task) = &*slot {
            return Ok(Arc::clone(task));
        }
        let task = Arc::new(derive()?);
        *slot = Some(Arc::clone(&task));
        Ok(task)
    }
}

impl<R> std::fmt::Debug for TaskCache<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let entries: usize = self.shards.iter().map(|s| s.lock().len()).sum();
        f.debug_struct("TaskCache").field("entries", &entries).finish()
    }
}
