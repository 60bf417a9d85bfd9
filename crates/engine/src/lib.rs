//! # osdp-engine
//!
//! The **audited front door** of the OSDP workspace: every release goes
//! through an [`OsdpSession`], which binds together the three things the
//! paper's contract `(P, ε)`-OSDP needs to be *enforced* rather than merely
//! claimed:
//!
//! 1. **the data** — either a record-level [`osdp_core::Database`] or a
//!    pre-aggregated histogram pair;
//! 2. **the policy function** `P` — so the non-sensitive sub-histogram
//!    `x_ns` is always derived from the bound policy and can never drift
//!    from it;
//! 3. **a [`osdp_core::BudgetAccountant`]** — debited *before* any noise is
//!    sampled, so an exhausted budget refuses the release instead of leaking
//!    it ([`osdp_core::OsdpError::BudgetExhausted`]). Every entry point
//!    takes the same grant path: capture the epoch, derive the task, admit
//!    the debit with one CAS, stamp the audit record, log the WAL frame,
//!    and only then sample. The debit itself takes no lock.
//!
//! On top of that contract the session provides:
//!
//! * a **pluggable scan plane** ([`Backend`]): the session never touches
//!   records directly — it compiles every query + policy into a
//!   [`QueryPlan`] and asks the bound backend to [`Backend::scan`] it into
//!   the `(x, x_ns)` histogram pair. [`RowBackend`] is the row-at-a-time
//!   reference; [`ColumnarBackend`] evaluates compiled policies and bin
//!   specs vectorized over an [`osdp_core::ColumnarFrame`] and caches the
//!   policy partition per `(backend, policy label)`, so repeated releases
//!   under one policy perform **zero** policy evaluations. Both produce
//!   bit-for-bit identical output; future stores (sharded, streaming, SQL)
//!   implement the same trait;
//! * **minimum-relaxation bookkeeping** (Theorem 3.3): releases under
//!   different policies accumulate into a
//!   [`osdp_core::policy::MinimumRelaxation`], and
//!   [`OsdpSession::composed_guarantee`] reports the total ε together with
//!   the policy labels the composite guarantee refers to;
//! * an **audit log** ([`AuditLog`]) of every release — mechanism, policy,
//!   query, guarantee — which [`OsdpSession::verify_policy_lifecycle`]
//!   verifies by folding its rows. The audit log (plus the WAL, for durable
//!   sessions) is the **ledger of record**: the accountant keeps only its
//!   cap and an atomic counter, and the composed guarantee's policy labels
//!   are read from the audit log;
//! * a **zero-allocation batch plane**: [`OsdpSession::release_trials`]
//!   runs one trial per core via rayon, writing into a preallocated output
//!   arena through the buffer-reuse
//!   [`HistogramMechanism::release_into`](osdp_mechanisms::HistogramMechanism::release_into)
//!   path (block noise kernels, per-thread mechanism scratch), with
//!   per-trial RNG streams derived deterministically from the session seed,
//!   so the output does not depend on the thread schedule;
//! * a **task cache** keyed by query/policy/backend identity: repeated
//!   releases of one question run one backend scan, and
//!   [`OsdpSession::release_pool`] amortizes that single scan plus a single
//!   compare-and-swap debit across a whole mechanism pool;
//! * a by-name **mechanism registry** ([`MechanismSpec`]): pools are
//!   constructed by name from experiment configurations instead of being
//!   hard-wired at each call site.
//!
//! ## Quickstart
//!
//! Open a session on the columnar backend, bind a compiled policy, and
//! release through a pushdown query — the hot path never makes a virtual
//! policy call per record:
//!
//! ```
//! use osdp_core::policy::AttributePolicy;
//! use osdp_core::{Database, Record, Value};
//! use osdp_engine::{SessionBuilder, SessionQuery};
//! use osdp_mechanisms::OsdpLaplaceL1;
//!
//! let db: Database = (0..1000)
//!     .map(|i| Record::builder().field("age", Value::Int(10 + (i % 60))).build())
//!     .collect();
//! // `int_at_most` compiles to a branch-free columnar comparison.
//! let policy = AttributePolicy::int_at_most("age", 17);
//!
//! let session = SessionBuilder::new(db)
//!     .columnar() // snapshot into a ColumnarFrame; RowBackend otherwise
//!     .policy(policy, "minors")
//!     .budget(2.0)
//!     .seed(7)
//!     .build()
//!     .unwrap();
//! assert_eq!(session.backend_name(), Some("columnar"));
//!
//! // Histogram of ages 10..70 in 6 decade bins: a compiled GROUP BY that
//! // the backend evaluates column-at-a-time.
//! let query = SessionQuery::count_by_int_linear("age-decades", "age", 10, 10, 6);
//! let mechanism = OsdpLaplaceL1::new(1.0).unwrap();
//! let release = session.release(&query, &mechanism).unwrap();
//! assert_eq!(release.estimate.len(), 6);
//! assert_eq!(session.total_spent(), 1.0);
//!
//! // A second release exhausts the 2.0 budget; a third is refused. The
//! // second scan reuses the cached policy partition.
//! session.release(&query, &mechanism).unwrap();
//! assert!(session.release(&query, &mechanism).is_err());
//! ```
//!
//! Opaque closure policies and `count_by` closures still work on either
//! backend — the columnar backend falls back to its retained rows — and
//! pre-aggregated `(x, x_ns)` pairs ride the same pipeline as weighted
//! frames via [`pair_session`] / [`pair_query`].
//!
//! ## Pool experiments
//!
//! Pool runners (the regret analysis of Section 6.3.3.2) release the same
//! query through every mechanism of a pool. [`OsdpSession::release_pool`]
//! batches the whole pool: **one** backend scan (served by the task cache),
//! **one** compare-and-swap on the budget's fixed-point units
//! ([`BudgetAccountant::spend_units`](osdp_core::BudgetAccountant::spend_units))
//! debiting every mechanism all-or-nothing, and one rayon fan-out over
//! every `(mechanism, trial)` pair. Accounting and estimates are identical — bitwise, for the
//! estimates — to calling [`OsdpSession::release_trials`] once per mechanism
//! in pool order:
//!
//! ```
//! use osdp_core::Histogram;
//! use osdp_engine::{histogram_session, pool_from_names, SessionQuery};
//! use osdp_mechanisms::HistogramMechanism;
//!
//! let full = Histogram::from_counts(vec![120.0, 45.0, 0.0, 80.0]);
//! let ns = Histogram::from_counts(vec![100.0, 40.0, 0.0, 0.0]);
//! let session =
//!     histogram_session(full, ns).policy_label("P-sampled").seed(7).build().unwrap();
//!
//! let mechanisms = pool_from_names(&["OsdpLaplaceL1", "DAWAz", "DAWA"], 1.0).unwrap();
//! let pool: Vec<&dyn HistogramMechanism> = mechanisms.iter().map(|m| m.as_ref()).collect();
//! // 3 mechanisms × 10 trials: one scan, one grant batch, one fan-out.
//! let releases = session.release_pool(&SessionQuery::bound(), &pool, 10).unwrap();
//! assert_eq!(releases.len(), 3);
//! assert!(releases.iter().all(|r| r.estimates.len() == 10));
//! assert_eq!(session.total_spent(), 30.0);
//! ```
//!
//! ## Policy lifecycle model
//!
//! The paper's policy `P` is not static in deployment: consent arrives
//! (relaxing `P`), opt-outs and retention decay land (tightening it). A
//! session opens under one bound policy — **epoch 0** — and
//! [`OsdpSession::set_policy_epoch`] transitions it to a new epoch with an
//! explicit [`EpochDirection`]:
//!
//! * **Tighten** (opt-out, decay): the new policy marks a superset of
//!   records sensitive. Tightening is always sound mid-session — past
//!   releases were made under a policy at least as strict as claimed.
//! * **Relax** (consent): the new policy frees records. Every release
//!   after the transition composes under **minimum relaxation**
//!   (Theorem 3.3): the session's [`VersionedPolicy`] registry tracks the
//!   permissiveness partial order across versions and
//!   [`OsdpSession::lifecycle_minimum_relaxation`] reports the composite
//!   guarantee's policy set.
//!
//! Three contracts make transitions safe under live traffic:
//!
//! * **Grant paths stay lock-free.** A release captures the current epoch
//!   with one atomic pointer load; only `set_policy_epoch` takes the slow
//!   path (the epoch history mutex). Sessions that never transition are
//!   **bitwise identical** to the pre-lifecycle engine on every release
//!   path.
//! * **Cache invalidation is atomic with the transition.** The epoch bump
//!   clears the [`OsdpSession`] task cache and the columnar partition
//!   caches (both are keyed by policy *version*, not just label), so no
//!   release can ever be served a `(x, x_ns)` pair derived under a stale
//!   epoch — a release racing a transition either re-derives under the
//!   new epoch or carries the old epoch's stamp, never a mix.
//! * **Every audit record stamps `(policy label, version)`** — allocated
//!   atomically with the release index, so stamps are monotone in index
//!   order. [`OsdpSession::verify_policy_lifecycle`] proves no release was
//!   served under a **more permissive** policy than the one in force at
//!   its sequence number; a stale-policy replay is rejected. Durable
//!   sessions log each transition as a WAL record, so recovery
//!   reconstructs the version history bit for bit.
//!
//! A retention **decay schedule** is just a sequence of tightens:
//!
//! ```
//! use osdp_core::policy::{AttributePolicy, EpochDirection};
//! use osdp_core::{Database, Record, Value};
//! use osdp_engine::{SessionBuilder, SessionQuery};
//! use osdp_mechanisms::OsdpLaplaceL1;
//! use std::sync::Arc;
//!
//! let db: Database = (0..600)
//!     .map(|i| Record::builder().field("age_days", Value::Int(i % 120)).build())
//!     .collect();
//! // Day 0: events older than 90 days have decayed to sensitive.
//! let session = SessionBuilder::new(db)
//!     .policy(AttributePolicy::int_at_most("age_days", 90), "decay-d0")
//!     .budget(10.0)
//!     .seed(7)
//!     .build()
//!     .unwrap();
//! let query = SessionQuery::count_by_int_linear("age-buckets", "age_days", 0, 30, 4);
//! let mechanism = OsdpLaplaceL1::new(1.0).unwrap();
//! session.release(&query, &mechanism).unwrap();
//!
//! // Each elapsed day shrinks the retention horizon: strictly tightening,
//! // so the transition is always admissible.
//! for (day, horizon) in [(1, 60), (2, 30)] {
//!     session
//!         .set_policy_epoch(
//!             Arc::new(AttributePolicy::int_at_most("age_days", horizon)),
//!             format!("decay-d{day}"),
//!             EpochDirection::Tighten,
//!         )
//!         .unwrap();
//!     session.release(&query, &mechanism).unwrap();
//! }
//!
//! assert_eq!(session.policy_version(), 2);
//! let versions: Vec<u64> =
//!     session.audit_records().iter().map(|r| r.policy_version).collect();
//! assert_eq!(versions, vec![0, 1, 2], "each release stamped with its epoch");
//! // The versioned ledger check proves no release ran under a more
//! // permissive policy than the one in force at its sequence number.
//! assert!(session.verify_policy_lifecycle(Some(10.0)).upholds_osdp());
//! ```
//!
//! [`SessionPool::set_policy_epoch`] gives multi-tenant serving the same
//! lifecycle per tenant, and [`SessionPool::verify_all_ledgers`] runs the
//! versioned check across every tenant in one sweep.
//!
//! ## Concurrency model
//!
//! A session serves concurrent callers without a global lock; the grant
//! path — the sequence every release takes before sampling — is lock-free.
//! What is atomic, what is sharded, and what ordering the audit ledger
//! guarantees:
//!
//! * **Two shared writes per release.** Sequential composition (Theorem
//!   3.3) needs exactly two writes to a word other threads also write: the
//!   accountant's units CAS and the audit sequence `fetch_add` that stamps
//!   the index and version. A warm release of a histogram-backed session
//!   writes no other word or cache line that another serving thread
//!   writes: the bound task and the policy label are borrowed, the RNG
//!   stream label is hashed in parts instead of looked up, and the audit
//!   row and its ε land in the thread's own shard (threads started one
//!   after another get shards far enough apart that their mutexes never
//!   share a line). Routing through a [`SessionPool`] adds the tenant
//!   shard's read lock and the session `Arc` clone, and its health machine
//!   is one load while every tenant is healthy; a record-backed session's
//!   task-cache hit adds the cached task's `Arc` clone, which the grant
//!   moves to the sampler. A counter added to the grant path (telemetry
//!   included) must keep this rule: count per thread or per shard, never in
//!   one shared atomic.
//!
//! * **Budget enforcement is atomic.** The
//!   [`osdp_core::BudgetAccountant`] keeps its spent total in fixed-point ε
//!   units ([`osdp_core::BudgetAccountant::RESOLUTION`] = 1e-12 ε) behind a
//!   single atomic counter; a grant — single release, trial batch, or
//!   all-or-nothing pool batch — is one CAS loop. Because integer addition
//!   commutes, the admitted total is independent of the interleaving order
//!   of concurrent spenders, and the cap can never be overshot (sequential
//!   composition, Theorem 3.3, enforced order-free). The accountant keeps
//!   no per-grant entry, so the debit takes no lock and allocates nothing;
//!   the audit log (plus the WAL, for durable sessions) is the ledger of
//!   record.
//! * **The audit log is sharded.** [`AuditLog`] appends to per-thread shard
//!   buffers (no global append lock) and stamps each release with a monotone
//!   sequence number from one atomic counter, which doubles as the release
//!   index keying the deterministic RNG streams. A shard keeps a release as
//!   a 16-byte row (the packed stamp and a key id) over a table of the
//!   distinct `(mechanism, policy, query, bins, trials, guarantee)` tuples
//!   it has seen, and snapshots rebuild the records. Each shard also sums
//!   the ε units of its rows, under the mutex the append already holds.
//!   `AuditLog::len` / `is_empty` read the sequence counter without
//!   touching the shards; `total_epsilon` adds the recovered base to the
//!   shards' sums, locking one shard at a time (O(shards), not O(n));
//!   [`AuditLog::records`] (O(n)) merges the shards back into
//!   release-index order. Single-threaded callers therefore observe exactly
//!   the historical append-order log, while concurrent callers observe a
//!   total order consistent with index allocation.
//! * **Caches are sharded.** The task cache hashes its identity keys
//!   across shards holding per-key derivation slots; racing derivations of
//!   the *same* key serialize on that key's slot and scan exactly once,
//!   while derivations of distinct keys — even on one shard — proceed in
//!   parallel. The policy registry behind
//!   [`OsdpSession::composed_policy`] is a read-write lock: releases under
//!   already-known policies only ever read.
//! * **Multi-tenant serving is a shard map.** [`SessionPool`] routes
//!   releases by tenant key to per-tenant sessions through shard read
//!   locks (the session `Arc` is cloned, not borrowed under the lock, so a
//!   durable release never holds a shard lock across its fsync). While no
//!   tenant is Degraded or Quarantined, admission and outcome recording
//!   read one pool-wide count and take no lock; per-tenant budgets are
//!   enforced independently, and the
//!   pool-wide cost across disjoint tenants composes in parallel
//!   (Theorem 10.2, [`SessionPool::parallel_composed_epsilon`]), with
//!   [`SessionPool::verify_all_ledgers`] checking every tenant's ledger in
//!   one sweep. Evicting a tenant whose releases may still be in flight is
//!   safe: [`SessionPool::remove`] returns the live `Arc`, whose audit log
//!   keeps absorbing the stragglers, and
//!   [`SessionPool::remove_quiesced`] additionally waits for them so a
//!   final ledger verify counts every release.
//!
//! ## Streaming model
//!
//! [`stream::StreamSession`] is the **continual-observation** half of the
//! engine: instead of one database fixed at construction, a
//! [`stream::WindowSource`] yields windows of records (one day of TIPPERS
//! trajectories, one batch of events) and each window is released as its
//! own histogram. The semantics are pinned by three rules:
//!
//! * **Window semantics.** Windows arrive densely in index order; window
//!   `w`'s rows are swapped into the session's bound [`Backend`] and
//!   scanned through the same policy/plan path as the one-shot plane, so
//!   the per-window `(x, x_ns)` pair is derived from the bound policy
//!   exactly as a one-shot release would derive it. Every release is
//!   audited under a window-stamped label (`"<query>@w<index>"`, or
//!   `"<query>@L<level>#<pos>"` for dyadic nodes).
//! * **Continual-observation ε accounting.** A
//!   [`StreamBudget`](osdp_core::StreamBudget) policy governs per-window
//!   debits: `PerWindow` composes sequentially (`T` windows cost `T·ε`);
//!   `SlidingWindow` enforces the *w-event* model — the ε-sum over any `W`
//!   consecutive windows stays within the frame cap, refused windows pass
//!   unreleased so the stream never aborts; `Hierarchical` buffers windows
//!   into a binary tree and debits **lazily**:
//!   [`stream::StreamSession::range_query`] answers a range over `T`
//!   windows from `O(log T)` dyadic node releases (each debited once,
//!   reused free afterwards) instead of `O(T)` per-window releases. All
//!   debits land in the wrapped session's lock-free accountant and its
//!   fixed-point units, so stream totals never drift from the grant path.
//! * **Oracle-parity guarantee.** Streaming is sugar over the one-shot
//!   machinery, not a parallel implementation: streaming `T` windows
//!   produces bitwise-identical estimates — and a ledger with the same
//!   fixed-point ε total — as releasing the same `T` window tasks through
//!   a plain [`OsdpSession`] with the same seed (the RNG stream of release
//!   `i` is `(seed, "release/<mechanism>", i)` on both planes).
//!   Property-tested in `tests/stream_parity.rs`.
//!
//! ## Durability model
//!
//! The in-memory accountant and audit log die with the process. The
//! **durable budget plane** ([`persist`], backed by the std-only
//! `osdp-persist` crate) fixes that without touching the in-memory fast
//! path: a session built with [`SessionBuilder::durable`] writes every
//! admitted grant to a per-tenant **write-ahead ledger** — an append-only
//! file of length-prefixed, CRC-checksummed records of the *fixed-point
//! debit units* the accountant admitted — after the budget CAS admits and
//! *before* any noise is sampled. Recovery ([`SessionPersistence::open`])
//! loads the latest snapshot, replays the WAL tail in one pass (one CRC
//! check per frame; it stops at the first torn or checksum-failing frame
//! and truncates the file there), and seeds a fresh accountant + audit
//! log whose counters equal the pre-crash ones **bit for bit** — integer
//! unit addition commutes, so replay order cannot drift the totals and
//! [`OsdpSession::verify_policy_lifecycle`] balances over the recovered
//! state. The
//! replayed grants reach the audit log as rows over its key table, and
//! frames that repeat their predecessor's labels share them, so a tail of
//! one tenant's releases costs no allocation per frame.
//!
//! * **Sync-policy trade-offs** ([`SyncPolicy`]): `Always` fsyncs before
//!   the grant call returns — a release is durable before its sample
//!   exists. Concurrent grantors share fsyncs: grants that queue while
//!   one grant's fsync is in flight are written and fsync'd together by
//!   the next (group commit on the ledger's own locks, no committer
//!   thread), so `k` concurrent grantors pay about one fsync per batch,
//!   and a crash mid-batch loses only grants whose call never returned.
//!   [`SyncPolicy::group_commit`] is `Always`. `EveryN(n)` amortizes the
//!   fsync; a crash loses at most the last `n − 1` grants, so the
//!   recovered total *under*-counts. That is **not** a safe direction:
//!   the lost frames' samples were already released before the crash, so
//!   the recovered session reports less spent ε than was released and
//!   grants the difference again, and the tenant's lifetime release can
//!   exceed its cap. Tests and bulk loads that want no fsync until an
//!   explicit `sync` or drop use `EveryN(u32::MAX)`, with the same hole
//!   for every grant since the last sync. Making `EveryN` sound (budget
//!   leases) is open item 1 in `ROADMAP.md`.
//! * **Single-writer-per-tenant.** Each tenant shard directory holds a
//!   `LOCK` file created with `O_EXCL`; a second concurrent opener is
//!   refused. A crash leaves the `LOCK` behind by design — reopening after
//!   a verified-dead writer requires an explicit
//!   [`osdp_persist::force_unlock`], so two live processes can never
//!   interleave frames in one WAL.
//! * **Crash-simulation coverage.** The test harness crashes writers via
//!   [`persist::SessionWal::crash`], which drops buffered frames (optionally
//!   writing a torn prefix) and leaks the lock — exercising torn tails,
//!   interrupted snapshot rotations, and stale-WAL generations. What it
//!   cannot simulate is the OS page cache discarding *fsync'd* data or a
//!   physical torn sector inside a single write: those need a real
//!   `kill -9` / power-cut rig. The recovery invariants (checksummed
//!   frames, generation-paired snapshot + WAL, prefix-closed replay) are
//!   designed so both failure classes degrade to the same observable: a
//!   truncated-but-balanced ledger.
//!
//! Sessions without [`SessionBuilder::durable`] take the exact same code
//! path as before the durable plane existed — the WAL hook is an `Option`
//! that is `None`, and every estimate, audit record, and ledger entry is
//! bitwise-identical to the in-memory build.
//!
//! # Failure model
//!
//! The durable plane assumes disks fail, and fails **closed**: no IO fault
//! can ever widen the privacy spend a tenant is held to.
//!
//! * **Typed faults.** Every persistence failure surfaces as
//!   [`osdp_core::error::PersistError`] — the operation (`open`, `write`,
//!   `fsync`, `rename`, …), the path, and a transient/permanent class — so
//!   callers branch on the taxonomy instead of string-matching. Transient
//!   write faults are retried inside the WAL with bounded exponential
//!   backoff ([`RetryPolicy`]), truncating back to the last known-good
//!   byte boundary between attempts so a retry can never duplicate a torn
//!   prefix mid-file.
//! * **Fsync is unforgiving.** A failed fsync is **permanent for the
//!   handle**: the page cache's state is unknown, so the writer is
//!   poisoned and the only continuation is reopen + recover. The ledger
//!   never re-fsyncs a descriptor whose fsync already failed.
//! * **Fail-closed grants.** The grant path debits the accountant, then
//!   writes the WAL, then samples noise. If the WAL cannot acknowledge the
//!   frame, the release call returns the typed error — the caller treats
//!   the grant as refused — while the admitted debit is conservatively
//!   kept. An IO fault can therefore waste budget, never resurrect it, and
//!   recovery replays at most the acknowledged history plus
//!   conservatively-retained frames (over-counting is the safe direction).
//! * **Recovery repairs what it can prove.** A torn or corrupt WAL tail is
//!   cut off by truncating the file to its valid prefix, which is never
//!   rewritten, so a fault during the repair cannot lose a durable frame; a
//!   snapshot rotation replaces the WAL by temp file and rename, and a
//!   failed replacement poisons the writer like a failed fsync. A corrupt
//!   snapshot is quarantined (`snapshot.corrupt-<gen>`) and recovery falls
//!   back to the parked prior generation or the WAL marker; a `LOCK` whose
//!   recorded writer is provably dead (dead pid, or a previous boot) is
//!   auto-cleared.
//!   Everything recovery repaired or fell back to is surfaced in a
//!   [`RecoveryReport`] on [`RecoveredSession`].
//! * **Tenant health and healing.** A durable [`SessionPool`] runs a
//!   per-tenant circuit breaker ([`TenantHealth`], tuned by
//!   [`HealthPolicy`]): transient faults mark a tenant `Degraded`,
//!   repeated or permanent faults `Quarantined` — further releases refuse
//!   fast with [`osdp_core::error::OsdpError::TenantQuarantined`] instead
//!   of queueing behind a dead shard, with one half-open probe per
//!   cooldown. [`SessionPool::try_heal`] evicts the wedged session, clears
//!   its leftover lock, reopens the shard through snapshot + replay, and
//!   restores `Healthy`; the healed accountant equals the audit log equals
//!   an independent ledger peek, bit for bit. One tenant's dead disk never
//!   blocks another tenant's releases.
//! * **Autonomous maintenance.** [`PoolSupervisor`] closes the heal loop
//!   without an operator: a background tick probes `Quarantined` tenants
//!   with **jittered exponential backoff** (deterministic per-(seed,
//!   tenant, attempt), so a herd of co-quarantined shards never probes in
//!   lockstep), bounded by a per-episode attempt budget, and runs periodic
//!   `sync_all` / `snapshot_all` / scrub sweeps. All scheduling reads an
//!   injectable [`SupervisorClock`] — tests drive it with [`ManualClock`]
//!   and observe every backoff expiry exactly.
//! * **Shared-device incident correlation.** When several tenants
//!   quarantine within one window and their typed errors all carry the
//!   device signature (permanent `write`/`fsync` —
//!   [`osdp_core::error::PersistError::is_device_signature`]), the
//!   supervisor opens a single [`DeviceIncident`] instead of treating them
//!   as independent shard deaths: heal probes collapse to one canary
//!   tenant until it recovers (no probe-storming a dying disk), and the
//!   incident names exactly the affected tenants — read faults and
//!   transient blips are never swept in.
//! * **Cold data is scrubbed before recovery needs it.**
//!   [`SessionPool::scrub_all`] (and the supervisor's periodic sweep)
//!   re-reads each shard's WAL and snapshots through the `Vfs` seam and
//!   verifies every frame CRC without decoding — silent bit rot surfaces
//!   as a quarantine with a typed `read`/permanent error *before* a crash
//!   makes recovery depend on the rotten bytes.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod audit;
pub mod backend;
pub(crate) mod cache;
pub(crate) mod intern;
pub mod persist;
pub mod pool;
pub mod registry;
pub mod session;
pub(crate) mod sharding;
pub mod stream;
pub mod supervisor;

pub use audit::{verify_epoch_stamps, AuditLog, AuditRecord, LedgerVerdict};
pub use audit::{EpochTransition, EpochVerdict, ReleaseStamp};
pub use backend::{Backend, ColumnarBackend, HistogramPair, QueryPlan, RowBackend};
pub use osdp_core::policy::{EpochDirection, PolicyEpoch, VersionedPolicy};
pub use osdp_persist::{GroupCommitStats, LedgerOptions, RecoveryReport, RetryPolicy, SyncPolicy};
pub use persist::{GrantEvent, RecoveredSession, SessionPersistence, SessionWal};
pub use pool::{
    HealthPolicy, PoolMaintenanceError, PoolScrubReport, PoolVerdict, SessionPool, TenantHealth,
    TenantHealthReport, TenantVerdict,
};
pub use registry::{pool_from_names, pool_from_specs, MechanismSpec};
pub use session::{
    histogram_session, pair_query, pair_session, OsdpSession, PoolRelease, Release, SessionBuilder,
    SessionQuery,
};
pub use stream::{
    windows_from_databases, PoolWindowOutcome, StreamSession, StreamSessionBuilder,
    SyntheticWindows, Window, WindowOutcome, WindowSource, SYNTHETIC_FIELD,
};
pub use supervisor::{
    DeviceIncident, HealOutcome, ManualClock, PoolSupervisor, SupervisorClock, SupervisorConfig,
    SupervisorEvent, SupervisorHandle, SystemClock, TickReport,
};
