//! [`SessionPool`]: the multi-tenant serving plane.
//!
//! A pool is a sharded map `tenant → OsdpSession`: every tenant owns an
//! independent session (its own data source, policy, budget accountant and
//! audit log), and the pool routes releases by tenant key. Because tenants
//! hold **disjoint** data, the pool as a whole composes in parallel
//! (Theorem 10.2): the worst-case privacy cost across the deployment is the
//! *maximum* per-tenant ε ([`SessionPool::parallel_composed_epsilon`]), not
//! the sum — exactly the contract `BudgetAccountant::spend_parallel`
//! records within one session, lifted to the process level.
//!
//! Concurrency: tenant lookup takes a shard **read** lock (shared, so
//! concurrent releases to any mix of tenants never serialize in the pool)
//! and clones the session `Arc`, and each session's own grant path is
//! lock-free (see the crate docs' concurrency model). Write locks are taken
//! only to register or evict a tenant.
//!
//! Durable pools additionally run a per-tenant **health machine**
//! ([`TenantHealth`]): typed persistence failures on a tenant's shard
//! degrade and eventually quarantine that tenant — releases then refuse
//! fast with [`OsdpError::TenantQuarantined`] instead of queueing behind a
//! dead disk — while every other tenant keeps serving.
//! [`SessionPool::try_heal`] reopens the failed shard through snapshot +
//! replay recovery and restores the tenant to service; see the crate docs'
//! *Failure model*. The pool counts the tenants that are not
//! [`TenantHealth::Healthy`]; while that count is zero, admitting a release
//! and recording its outcome are one load of the count, with no lock on the
//! health map or on any tenant's cell. Once the last failing tenant heals
//! (or succeeds again), releases are back on that path.

use crate::audit::{EpochTransition, LedgerVerdict};
use crate::persist::SessionPersistence;
use crate::session::{OsdpSession, PoolRelease, Release, SessionBuilder, SessionQuery};
use crate::sharding::shard_index;
use osdp_core::error::{FaultClass, OsdpError, PersistError, PersistOp, Result};
use osdp_core::{Histogram, Record};
use osdp_mechanisms::HistogramMechanism;
use osdp_persist::{force_unlock, persist_error, LedgerOptions, StdVfs, SyncPolicy, Vfs};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shard count of the tenant map: enough that 8–16 serving threads
/// touching random tenants rarely share a shard, cheap enough to iterate
/// for pool-wide reports.
const POOL_SHARDS: usize = 16;

/// One shard of the tenant map.
type Shard<R> = RwLock<HashMap<Arc<str>, Arc<OsdpSession<R>>>>;

/// The persistence configuration of a durable pool: the root directory
/// holding one WAL shard directory per tenant, the sync policy and ledger
/// options every tenant shard is opened with, and the file system the
/// shards write through (the [`osdp_persist::FaultVfs`] injection point).
#[derive(Clone)]
struct PoolPersistence {
    dir: PathBuf,
    sync: SyncPolicy,
    options: LedgerOptions,
    vfs: Arc<dyn Vfs>,
}

impl std::fmt::Debug for PoolPersistence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolPersistence")
            .field("dir", &self.dir)
            .field("sync", &self.sync)
            .field("options", &self.options)
            .finish_non_exhaustive()
    }
}

/// The serving health of one durable tenant, as the pool's circuit breaker
/// sees it. Transitions are driven by the typed
/// [`osdp_core::error::PersistError`] outcomes of the tenant's durable
/// operations (releases, [`SessionPool::sync_all`],
/// [`SessionPool::snapshot_all`]): transient faults degrade, repeated or
/// permanent faults quarantine, and a success (including a successful
/// [`SessionPool::try_heal`]) restores `Healthy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantHealth {
    /// The durable plane is serving normally.
    Healthy,
    /// Transient faults were observed but the breaker has not tripped:
    /// releases still flow (each one retries internally), and one success
    /// resets the tenant to [`TenantHealth::Healthy`].
    Degraded,
    /// The breaker is **open**: releases are refused fast with
    /// [`OsdpError::TenantQuarantined`] instead of queueing behind a dead
    /// shard. After [`HealthPolicy::probe_cooldown`] one half-open probe
    /// release is let through; its outcome closes or re-opens the breaker.
    /// [`SessionPool::try_heal`] reopens the shard outright.
    Quarantined,
}

/// Circuit-breaker tuning for a pool's per-tenant health machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthPolicy {
    /// Consecutive **transient** persistence failures before the tenant is
    /// quarantined (a permanent failure quarantines immediately).
    pub quarantine_after: u32,
    /// How long an open breaker refuses fast before letting one half-open
    /// probe release through.
    pub probe_cooldown: Duration,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        Self { quarantine_after: 3, probe_cooldown: Duration::from_millis(250) }
    }
}

/// The mutable state behind one tenant's health cell. Cells are created
/// lazily on the first observed failure and are read on the release path
/// only while some tenant is not healthy, so healthy tenants cost the pool
/// nothing.
#[derive(Debug)]
struct HealthInner {
    health: TenantHealth,
    /// Consecutive persistence failures since the last success.
    consecutive: u32,
    /// When the breaker opened (drives the half-open probe cooldown).
    opened_at: Option<Instant>,
    /// Whether a half-open probe is currently in flight.
    probing: bool,
    /// The most recent typed failure (cleared on success) — what operators
    /// and the supervisor's incident correlation read.
    last_error: Option<PersistError>,
}

/// One tenant's health cell, shared between the pool map and observers.
type HealthCell = Arc<Mutex<HealthInner>>;

/// Directory prefix of tenant WAL shards under a durable pool root. Only
/// prefixed directories are treated as tenant shards, so unrelated files in
/// the root never masquerade as tenants.
const TENANT_DIR_PREFIX: &str = "tenant-";

/// Encodes a tenant key into a filesystem-safe shard directory name:
/// `tenant-` plus the key with every byte outside `[A-Za-z0-9._-]`
/// (including `%` itself) percent-encoded. Injective, so distinct tenants
/// can never collide on one directory.
fn encode_tenant_dir(tenant: &str) -> String {
    let mut out = String::with_capacity(TENANT_DIR_PREFIX.len() + tenant.len());
    out.push_str(TENANT_DIR_PREFIX);
    for byte in tenant.bytes() {
        match byte {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'.' | b'_' | b'-' => {
                out.push(byte as char);
            }
            _ => {
                out.push('%');
                out.push_str(&format!("{byte:02X}"));
            }
        }
    }
    out
}

/// Decodes a shard directory name back to its tenant key; `None` for
/// directories that are not tenant shards (or are malformed).
fn decode_tenant_dir(name: &str) -> Option<String> {
    let encoded = name.strip_prefix(TENANT_DIR_PREFIX)?;
    let bytes = encoded.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut at = 0;
    while at < bytes.len() {
        if bytes[at] == b'%' {
            let hex = encoded.get(at + 1..at + 3)?;
            out.push(u8::from_str_radix(hex, 16).ok()?);
            at += 3;
        } else {
            out.push(bytes[at]);
            at += 1;
        }
    }
    String::from_utf8(out).ok()
}

/// A sharded, multi-tenant map of release sessions (see the module docs).
pub struct SessionPool<R = Record> {
    shards: Vec<Shard<R>>,
    persist: Option<PoolPersistence>,
    health: RwLock<HashMap<Arc<str>, HealthCell>>,
    /// How many health cells are not [`TenantHealth::Healthy`], changed
    /// only under the cell's lock together with its state. While it reads
    /// zero the release path leaves `health` alone: admission and success
    /// are then one load of this word.
    unhealthy: AtomicUsize,
    health_policy: HealthPolicy,
    /// The supervisor's open shared-device incident, mirrored into the pool
    /// so [`SessionPool::health_snapshot`] is the one read surface operators
    /// need — `None` when the device plane is clean.
    incident: RwLock<Option<crate::supervisor::DeviceIncident>>,
}

impl<R> Default for SessionPool<R> {
    fn default() -> Self {
        Self {
            shards: (0..POOL_SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            persist: None,
            health: RwLock::new(HashMap::new()),
            unhealthy: AtomicUsize::new(0),
            health_policy: HealthPolicy::default(),
            incident: RwLock::new(None),
        }
    }
}

impl<R> std::fmt::Debug for SessionPool<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionPool")
            .field("tenants", &self.len())
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl<R> SessionPool<R> {
    /// An empty in-memory pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// The open [`crate::supervisor::DeviceIncident`], as last published by
    /// the supervising tick; `None` when no correlated shared-device fault
    /// burst is in progress (or the pool is unsupervised).
    pub fn open_incident(&self) -> Option<crate::supervisor::DeviceIncident> {
        self.incident.read().clone()
    }

    /// Publishes (or clears) the supervisor's incident state — called by
    /// [`crate::supervisor::PoolSupervisor::tick`] whenever the incident
    /// opens or closes, so snapshot readers never need a supervisor handle.
    pub(crate) fn set_incident(&self, incident: Option<crate::supervisor::DeviceIncident>) {
        *self.incident.write() = incident;
    }

    /// Replaces the pool's circuit-breaker tuning (builder-style).
    pub fn with_health_policy(mut self, policy: HealthPolicy) -> Self {
        self.health_policy = policy;
        self
    }

    /// An empty **durable** pool rooted at `dir` (created if absent): every
    /// tenant registered through [`SessionPool::open_tenant`] gets its own
    /// WAL shard directory under the root, opened with `sync`. Existing
    /// shard directories are left untouched until their tenant is opened —
    /// use [`SessionPool::recover`] to bring every persisted tenant back up
    /// front, or [`SessionPool::persisted_tenants`] to enumerate them.
    pub fn open(dir: impl Into<PathBuf>, sync: SyncPolicy) -> Result<Self> {
        Self::open_with(dir, sync, LedgerOptions::default(), Arc::new(StdVfs))
    }

    /// [`SessionPool::open`] with explicit [`LedgerOptions`] and an explicit
    /// file system: every tenant shard is opened through `vfs`, so a single
    /// [`osdp_persist::FaultVfs`] can inject faults into the whole pool (and
    /// a single [`osdp_persist::RetryPolicy`] / `auto_snapshot_every`
    /// setting governs every shard).
    pub fn open_with(
        dir: impl Into<PathBuf>,
        sync: SyncPolicy,
        options: LedgerOptions,
        vfs: Arc<dyn Vfs>,
    ) -> Result<Self> {
        let dir = dir.into();
        vfs.create_dir_all(&dir)
            .map_err(|e| OsdpError::Persist(persist_error(PersistOp::CreateDir, &dir, &e)))?;
        Ok(Self { persist: Some(PoolPersistence { dir, sync, options, vfs }), ..Self::default() })
    }

    /// The durable pool root, if this pool persists its tenants.
    pub fn persist_dir(&self) -> Option<&Path> {
        self.persist.as_ref().map(|p| p.dir.as_path())
    }

    /// The tenant keys with a WAL shard directory under the pool root —
    /// including tenants not currently registered in the map. Empty for
    /// in-memory pools.
    pub fn persisted_tenants(&self) -> Result<Vec<String>> {
        let Some(persist) = &self.persist else {
            return Ok(Vec::new());
        };
        let entries = std::fs::read_dir(&persist.dir).map_err(|e| {
            OsdpError::Persistence(format!("listing pool root {}: {e}", persist.dir.display()))
        })?;
        let mut tenants = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| {
                OsdpError::Persistence(format!("listing pool root {}: {e}", persist.dir.display()))
            })?;
            if !entry.path().is_dir() {
                continue;
            }
            if let Some(tenant) = entry.file_name().to_str().and_then(decode_tenant_dir) {
                tenants.push(tenant);
            }
        }
        tenants.sort();
        Ok(tenants)
    }

    /// The shard a tenant key hashes to.
    fn shard_of(&self, tenant: &str) -> &Shard<R> {
        &self.shards[shard_index(&tenant, self.shards.len())]
    }

    /// Registers a tenant's session, refusing to replace an existing one —
    /// silently swapping a live session would discard the tenant's spent
    /// budget and audit history. Evict explicitly with
    /// [`SessionPool::remove`] first if replacement is intended.
    pub fn insert(
        &self,
        tenant: impl Into<String>,
        session: OsdpSession<R>,
    ) -> Result<Arc<OsdpSession<R>>> {
        let tenant: Arc<str> = tenant.into().into();
        let mut shard = self.shard_of(&tenant).write();
        if shard.contains_key(&tenant) {
            return Err(OsdpError::TenantExists { tenant: tenant.to_string() });
        }
        let session = Arc::new(session);
        shard.insert(tenant, Arc::clone(&session));
        Ok(session)
    }

    /// The tenant's session, registering the one `make` builds on first use.
    /// The shard write lock is held across `make`, so two racing callers
    /// construct the session exactly once; tenants on other shards are
    /// unaffected.
    pub fn get_or_insert_with(
        &self,
        tenant: &str,
        make: impl FnOnce() -> Result<OsdpSession<R>>,
    ) -> Result<Arc<OsdpSession<R>>> {
        let mut shard = self.shard_of(tenant).write();
        if let Some(session) = shard.get(tenant) {
            return Ok(Arc::clone(session));
        }
        let session = Arc::new(make()?);
        shard.insert(tenant.into(), Arc::clone(&session));
        Ok(session)
    }

    /// The tenant's session in a **durable** pool, opening (and recovering)
    /// its WAL shard on first use: `make` supplies the session builder —
    /// source, policy, budget, seed — and the pool chains
    /// [`SessionBuilder::durable`] onto it with the tenant's shard, so the
    /// built session resumes whatever budget and audit state the shard
    /// holds. The shard write lock is held across recovery, so two racing
    /// callers open the WAL exactly once (the WAL's own `LOCK` file guards
    /// against writers in *other* pools or processes).
    ///
    /// Errors on in-memory pools (no [`SessionPool::open`] root) — plain
    /// tenants belong in [`SessionPool::get_or_insert_with`].
    pub fn open_tenant(
        &self,
        tenant: &str,
        make: impl FnOnce() -> SessionBuilder<R>,
    ) -> Result<Arc<OsdpSession<R>>>
    where
        R: Send + Sync + 'static,
    {
        let Some(persist) = &self.persist else {
            return Err(OsdpError::Persistence(
                "open_tenant needs a durable pool: construct it with SessionPool::open".into(),
            ));
        };
        self.get_or_insert_with(tenant, || {
            let shard_dir = persist.dir.join(encode_tenant_dir(tenant));
            let persistence = SessionPersistence::open_with_vfs(
                shard_dir,
                persist.sync,
                persist.options,
                Arc::clone(&persist.vfs),
            )?;
            make().durable(persistence).build()
        })
    }

    /// Rebuilds a failed durable tenant in place — the recovery half of the
    /// circuit breaker. The wedged session is evicted and drained
    /// ([`SessionPool::remove_quiesced`]), its leftover `LOCK` is cleared
    /// (a poisoned writer leaves it behind with this process's own live
    /// pid, which the open-time auto-clearing rightly refuses to touch),
    /// and the shard is reopened through the normal snapshot + replay
    /// recovery path with the builder `make` returns. On success the tenant
    /// is re-registered and restored to [`TenantHealth::Healthy`].
    ///
    /// **Fail-closed accounting.** A grant the old writer could not get
    /// acknowledged was refused to its caller, so the durable ledger holds
    /// exactly the acknowledged history; recovery replays it, and the
    /// healed accountant equals the audit log equals an independent
    /// [`osdp_persist::TenantLedger::peek`] bit for bit. If the reopen
    /// itself fails, the tenant stays quarantined (and unregistered) and
    /// the typed error says why.
    ///
    /// Errors on in-memory pools, like [`SessionPool::open_tenant`].
    pub fn try_heal(
        &self,
        tenant: &str,
        make: impl FnOnce() -> SessionBuilder<R>,
    ) -> Result<Arc<OsdpSession<R>>>
    where
        R: Send + Sync + 'static,
    {
        let Some(persist) = self.persist.clone() else {
            return Err(OsdpError::Persistence(
                "try_heal needs a durable pool: construct it with SessionPool::open".into(),
            ));
        };
        // Retire the wedged session: evict it, wait for in-flight releases
        // to drain, and drop the last handle so the old writer is provably
        // gone before its lock is cleared.
        drop(self.remove_quiesced(tenant));
        let shard_dir = persist.dir.join(encode_tenant_dir(tenant));
        force_unlock(&shard_dir)?;
        let reopened = SessionPersistence::open_with_vfs(
            shard_dir,
            persist.sync,
            persist.options,
            Arc::clone(&persist.vfs),
        )
        .and_then(|persistence| make().durable(persistence).build());
        match reopened {
            Ok(session) => {
                let session = self.insert(tenant, session)?;
                self.record_success(tenant);
                Ok(session)
            }
            Err(err) => {
                let typed = match &err {
                    OsdpError::Persist(p) => p.clone(),
                    other => PersistError::new(
                        PersistOp::Commit,
                        "",
                        FaultClass::Permanent,
                        format!("try_heal: {other}"),
                    ),
                };
                self.record_failure(tenant, &typed);
                Err(err)
            }
        }
    }

    /// The circuit-breaker state of a tenant ([`TenantHealth::Healthy`] for
    /// tenants that have never failed, including unknown ones).
    pub fn health(&self, tenant: &str) -> TenantHealth {
        self.health_cell(tenant).map(|cell| cell.lock().health).unwrap_or(TenantHealth::Healthy)
    }

    /// One report per known tenant — every registered session plus every
    /// tenant with health state (a quarantined tenant is evicted from the
    /// map while it heals, but must not vanish from the operator's view) —
    /// sorted by tenant key. This is the read API the supervisor and
    /// external monitors poll instead of poking pool internals: health,
    /// the consecutive-failure counter, and the last typed
    /// [`PersistError`] whose `(op, class)` signature drives shared-device
    /// incident correlation.
    pub fn health_snapshot(&self) -> Vec<TenantHealthReport> {
        let incident = self.open_incident();
        let in_incident =
            |tenant: &Arc<str>| incident.as_ref().is_some_and(|i| i.tenants.contains(tenant));
        let mut reports: HashMap<Arc<str>, TenantHealthReport> = HashMap::new();
        for tenant in self.tenants() {
            reports.insert(
                Arc::clone(&tenant),
                TenantHealthReport {
                    in_open_incident: in_incident(&tenant),
                    tenant,
                    health: TenantHealth::Healthy,
                    consecutive_failures: 0,
                    last_error: None,
                },
            );
        }
        for (tenant, cell) in self.health.read().iter() {
            let inner = cell.lock();
            reports.insert(
                Arc::clone(tenant),
                TenantHealthReport {
                    tenant: Arc::clone(tenant),
                    health: inner.health,
                    consecutive_failures: inner.consecutive,
                    last_error: inner.last_error.clone(),
                    in_open_incident: in_incident(tenant),
                },
            );
        }
        let mut out: Vec<TenantHealthReport> = reports.into_values().collect();
        out.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        out
    }

    /// Checksum-scrubs one tenant's shard through the pool's VFS — see
    /// [`osdp_persist::scrub_shard`] — and feeds the outcome into the same
    /// health machine a failed write drives: a finding (or a scrub that
    /// cannot even read the shard) degrades / quarantines the tenant
    /// **before** any recovery path depends on the rotten bytes; a clean
    /// scrub records nothing (readable cold data is no evidence the write
    /// path works, so it must not close an open breaker).
    ///
    /// Lock-free and write-free: safe against a shard that is actively
    /// serving. Errors on in-memory pools.
    pub fn scrub_tenant(&self, tenant: &str) -> Result<osdp_persist::ScrubReport> {
        let Some(persist) = &self.persist else {
            return Err(OsdpError::Persistence(
                "scrub_tenant needs a durable pool: construct it with SessionPool::open".into(),
            ));
        };
        let shard_dir = persist.dir.join(encode_tenant_dir(tenant));
        match osdp_persist::scrub_shard(persist.vfs.as_ref(), &shard_dir) {
            Ok(report) => {
                if let Some(err) = report.to_persist_error() {
                    self.record_failure(tenant, &err);
                }
                Ok(report)
            }
            Err(err) => {
                self.record_failure(tenant, &err);
                Err(OsdpError::Persist(err))
            }
        }
    }

    /// Scrubs **every** persisted tenant shard ([`SessionPool::scrub_tenant`]
    /// semantics per shard), visiting all of them even when some fail, and
    /// returns the pool-wide outcome. Errors only when the pool root itself
    /// cannot be enumerated (or the pool is in-memory).
    pub fn scrub_all(&self) -> Result<PoolScrubReport> {
        if self.persist.is_none() {
            return Err(OsdpError::Persistence(
                "scrub_all needs a durable pool: construct it with SessionPool::open".into(),
            ));
        }
        let mut out = PoolScrubReport::default();
        for tenant in self.persisted_tenants()? {
            match self.scrub_tenant(&tenant) {
                Ok(report) => out.reports.push((Arc::from(tenant.as_str()), report)),
                Err(OsdpError::Persist(err)) => {
                    out.failures.push((Arc::from(tenant.as_str()), err));
                }
                Err(other) => {
                    out.failures
                        .push((Arc::from(tenant.as_str()), persist_failure("scrub_all", other)));
                }
            }
        }
        Ok(out)
    }

    /// The tenant's health cell, if one was ever created.
    fn health_cell(&self, tenant: &str) -> Option<HealthCell> {
        self.health.read().get(tenant).map(Arc::clone)
    }

    /// The tenant's health cell, created on first failure.
    fn health_cell_or_insert(&self, tenant: &str) -> HealthCell {
        if let Some(cell) = self.health_cell(tenant) {
            return cell;
        }
        let mut map = self.health.write();
        Arc::clone(map.entry(Arc::from(tenant)).or_insert_with(|| {
            Arc::new(Mutex::new(HealthInner {
                health: TenantHealth::Healthy,
                consecutive: 0,
                opened_at: None,
                probing: false,
                last_error: None,
            }))
        }))
    }

    /// Admission control on the release path: quarantined tenants are
    /// refused **fast** with a typed error — no shard IO, no queueing
    /// behind a dead disk — except for one half-open probe once the
    /// cooldown has elapsed.
    fn admit(&self, tenant: &str) -> Result<()> {
        if !self.any_unhealthy() {
            return Ok(());
        }
        let Some(cell) = self.health_cell(tenant) else {
            return Ok(());
        };
        let mut inner = cell.lock();
        if inner.health != TenantHealth::Quarantined {
            return Ok(());
        }
        let cooled =
            inner.opened_at.is_none_or(|at| at.elapsed() >= self.health_policy.probe_cooldown);
        if cooled && !inner.probing {
            // Half-open: let exactly one probe through; its observed
            // outcome closes the breaker or re-opens it.
            inner.probing = true;
            return Ok(());
        }
        Err(OsdpError::TenantQuarantined { tenant: tenant.to_string() })
    }

    /// Whether any tenant is Degraded or Quarantined. A `Healthy` cell is in
    /// its reset state (no failures counted, no breaker open, no probe in
    /// flight, no `last_error`), so while this is false a release outcome
    /// has nothing to admit against and nothing to reset.
    fn any_unhealthy(&self) -> bool {
        self.unhealthy.load(Ordering::Acquire) != 0
    }

    /// Moves a cell to `health`, keeping [`SessionPool::any_unhealthy`]'s
    /// count in step. The caller holds the cell's lock.
    fn set_health(&self, inner: &mut HealthInner, health: TenantHealth) {
        match (inner.health == TenantHealth::Healthy, health == TenantHealth::Healthy) {
            (true, false) => {
                self.unhealthy.fetch_add(1, Ordering::AcqRel);
            }
            (false, true) => {
                self.unhealthy.fetch_sub(1, Ordering::AcqRel);
            }
            _ => {}
        }
        inner.health = health;
    }

    /// A durable success: closes the breaker. Only resets an existing cell
    /// — successes never allocate health state, and while every tenant is
    /// healthy they touch no cell at all.
    fn record_success(&self, tenant: &str) {
        if !self.any_unhealthy() {
            return;
        }
        if let Some(cell) = self.health_cell(tenant) {
            let mut inner = cell.lock();
            self.set_health(&mut inner, TenantHealth::Healthy);
            inner.consecutive = 0;
            inner.opened_at = None;
            inner.probing = false;
            inner.last_error = None;
        }
    }

    /// A persistence failure: transient faults degrade (and quarantine
    /// after [`HealthPolicy::quarantine_after`] in a row); permanent faults
    /// quarantine immediately. A failed half-open probe re-opens the
    /// breaker and restarts the cooldown. The typed error is retained as
    /// the tenant's `last_error` (see [`SessionPool::health_snapshot`]) —
    /// it is what the supervisor's shared-device correlation groups on.
    pub(crate) fn record_failure(&self, tenant: &str, err: &PersistError) {
        let cell = self.health_cell_or_insert(tenant);
        let mut inner = cell.lock();
        inner.consecutive = inner.consecutive.saturating_add(1);
        inner.probing = false;
        inner.last_error = Some(err.clone());
        if err.class == FaultClass::Permanent
            || inner.consecutive >= self.health_policy.quarantine_after
        {
            self.set_health(&mut inner, TenantHealth::Quarantined);
            inner.opened_at = Some(Instant::now());
        } else {
            self.set_health(&mut inner, TenantHealth::Degraded);
        }
    }

    /// Feeds a release outcome into the tenant's health machine and passes
    /// it through. Non-persistence errors (budget refusals, unknown
    /// tenants) say nothing about the durable plane: they leave health
    /// alone, only releasing an in-flight probe slot so the next admit can
    /// probe again.
    fn observe<T>(&self, tenant: &str, result: Result<T>) -> Result<T> {
        match &result {
            Ok(_) => self.record_success(tenant),
            Err(OsdpError::Persist(err)) => self.record_failure(tenant, err),
            Err(OsdpError::Persistence(msg)) => self.record_failure(
                tenant,
                &PersistError::new(PersistOp::Commit, "", FaultClass::Permanent, msg.clone()),
            ),
            // Only a Quarantined cell can have a probe in flight.
            Err(_) if self.any_unhealthy() => {
                if let Some(cell) = self.health_cell(tenant) {
                    cell.lock().probing = false;
                }
            }
            Err(_) => {}
        }
        result
    }

    /// Reopens a durable pool and **recovers every persisted tenant**:
    /// each shard directory under the root is replayed and its session is
    /// rebuilt with the builder `make` returns for that tenant key. The
    /// recovered pool serves grants immediately; tenants never persisted
    /// are simply absent.
    pub fn recover(
        dir: impl Into<PathBuf>,
        sync: SyncPolicy,
        make: impl Fn(&str) -> SessionBuilder<R>,
    ) -> Result<Self>
    where
        R: Send + Sync + 'static,
    {
        let pool = Self::open(dir, sync)?;
        for tenant in pool.persisted_tenants()? {
            pool.open_tenant(&tenant, || make(&tenant))?;
        }
        Ok(pool)
    }

    /// Rotates every durable tenant's WAL into a fresh snapshot generation
    /// ([`crate::SessionWal::snapshot`]): the collapsed history keeps
    /// recovery O(aggregate rows + tail) instead of O(all releases).
    /// No-op for tenants without a WAL (and for in-memory pools).
    ///
    /// **Every** tenant is attempted — one crashed or disk-failed shard
    /// does not shadow the rest of the sweep. Failures come back as a
    /// [`PoolMaintenanceError`] naming each failing tenant.
    pub fn snapshot_all(&self) -> std::result::Result<(), PoolMaintenanceError> {
        self.maintain("snapshot_all", |wal| wal.snapshot())
    }

    /// Flushes and fsyncs every durable tenant's WAL, regardless of sync
    /// policy — the clean-shutdown barrier. Like
    /// [`SessionPool::snapshot_all`], every tenant is attempted and the
    /// failures (if any) come back together as a [`PoolMaintenanceError`].
    pub fn sync_all(&self) -> std::result::Result<(), PoolMaintenanceError> {
        self.maintain("sync_all", |wal| wal.sync())
    }

    /// Runs a WAL maintenance `op` on every durable tenant, collecting
    /// per-tenant failures instead of stopping at the first. Every outcome
    /// also drives the tenant's health machine: a failing shard degrades or
    /// quarantines its tenant (so the release path starts refusing fast),
    /// a succeeding one closes any open breaker.
    fn maintain(
        &self,
        operation: &'static str,
        op: impl Fn(&crate::SessionWal) -> Result<()>,
    ) -> std::result::Result<(), PoolMaintenanceError> {
        let outcomes = self
            .for_each_session(|tenant, session| session.persistence().map(|wal| (tenant, op(wal))));
        let mut failures: Vec<(Arc<str>, PersistError)> = Vec::new();
        for (tenant, outcome) in outcomes.into_iter().flatten() {
            match outcome {
                Ok(()) => self.record_success(&tenant),
                Err(err) => {
                    let err = persist_failure(operation, err);
                    self.record_failure(&tenant, &err);
                    failures.push((tenant, err));
                }
            }
        }
        if failures.is_empty() {
            return Ok(());
        }
        failures.sort_by(|a, b| a.0.cmp(&b.0));
        Err(PoolMaintenanceError { operation, failures })
    }

    /// The tenant's session, if registered.
    pub fn get(&self, tenant: &str) -> Option<Arc<OsdpSession<R>>> {
        self.shard_of(tenant).read().get(tenant).map(Arc::clone)
    }

    /// Evicts a tenant, returning its session.
    ///
    /// Releases may still be **in flight** on other threads when the map
    /// entry disappears: they hold their own clones of the session `Arc`,
    /// so every grant they win lands in the *returned* session's accountant
    /// and audit log — nothing is lost, but the tenant is no longer visible
    /// to [`SessionPool::verify_all_ledgers`]. The operator therefore owns
    /// the final audit: run [`OsdpSession::verify_policy_lifecycle`] on the
    /// returned session once its traffic has drained (or use
    /// [`SessionPool::remove_quiesced`], which waits for the drain).
    /// Tested in `tests/concurrent_sessions.rs`.
    pub fn remove(&self, tenant: &str) -> Option<Arc<OsdpSession<R>>> {
        self.shard_of(tenant).write().remove(tenant)
    }

    /// Evicts a tenant and **waits for in-flight releases to quiesce**: the
    /// call returns only once the returned handle is the session's sole
    /// `Arc`, so a final ledger verify observes every release that was
    /// racing the eviction. New releases cannot start (the tenant is
    /// already gone from the map), so the wait is bounded by the drain of
    /// the releases already running.
    ///
    /// Callers holding long-lived session `Arc`s (from
    /// [`SessionPool::get`] / [`SessionPool::insert`]) must drop them
    /// first, or this spins until they do.
    pub fn remove_quiesced(&self, tenant: &str) -> Option<Arc<OsdpSession<R>>> {
        let session = self.remove(tenant)?;
        while Arc::strong_count(&session) > 1 {
            std::thread::yield_now();
        }
        Some(session)
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether the pool has no tenants.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }

    /// All tenant keys, sorted (shard iteration order is not meaningful).
    pub fn tenants(&self) -> Vec<Arc<str>> {
        let mut all: Vec<Arc<str>> = self
            .shards
            .iter()
            .flat_map(|s| s.read().keys().map(Arc::clone).collect::<Vec<_>>())
            .collect();
        all.sort();
        all
    }

    /// The tenant's session, or an error naming the unknown tenant.
    fn session(&self, tenant: &str) -> Result<Arc<OsdpSession<R>>> {
        self.get(tenant).ok_or_else(|| {
            OsdpError::InvalidInput(format!("no session registered for tenant '{tenant}'"))
        })
    }

    /// Routes one audited release to the tenant's session
    /// ([`OsdpSession::release`]): the tenant's own accountant is debited,
    /// the tenant's own audit log extended. Quarantined tenants are refused
    /// fast ([`OsdpError::TenantQuarantined`]) without touching the shard;
    /// every routed outcome feeds the tenant's health machine.
    pub fn release(
        &self,
        tenant: &str,
        query: &SessionQuery<R>,
        mechanism: &dyn HistogramMechanism,
    ) -> Result<Release> {
        self.admit(tenant)?;
        let result = match self.session(tenant) {
            Ok(session) => session.release(query, mechanism),
            Err(err) => Err(err),
        };
        self.observe(tenant, result)
    }

    /// Routes a trial batch to the tenant's session
    /// ([`OsdpSession::release_trials`]), with the same admission control
    /// and health observation as [`SessionPool::release`].
    pub fn release_trials(
        &self,
        tenant: &str,
        query: &SessionQuery<R>,
        mechanism: &dyn HistogramMechanism,
        trials: usize,
    ) -> Result<Vec<Histogram>> {
        self.admit(tenant)?;
        let result = match self.session(tenant) {
            Ok(session) => session.release_trials(query, mechanism, trials),
            Err(err) => Err(err),
        };
        self.observe(tenant, result)
    }

    /// Routes a whole-pool mechanism batch to the tenant's session
    /// ([`OsdpSession::release_pool`]), with the same admission control and
    /// health observation as [`SessionPool::release`].
    pub fn release_pool(
        &self,
        tenant: &str,
        query: &SessionQuery<R>,
        pool: &[&dyn HistogramMechanism],
        trials: usize,
    ) -> Result<Vec<PoolRelease>> {
        self.admit(tenant)?;
        let result = match self.session(tenant) {
            Ok(session) => session.release_pool(query, pool, trials),
            Err(err) => Err(err),
        };
        self.observe(tenant, result)
    }

    /// Sum of ε spent across every tenant — the *sequential*-composition
    /// reading, an upper bound that ignores tenant disjointness.
    pub fn total_spent(&self) -> f64 {
        self.for_each_session(|_, s| s.total_spent()).into_iter().sum()
    }

    /// The pool-wide privacy cost under **parallel composition**
    /// (Theorem 10.2): tenants hold disjoint data, so an adversary's
    /// worst-case view is bounded by the *maximum* per-tenant ε, not the
    /// sum. Zero for an empty pool.
    pub fn parallel_composed_epsilon(&self) -> f64 {
        self.for_each_session(|_, s| s.total_spent()).into_iter().fold(0.0, f64::max)
    }

    /// Transitions one tenant's session to a new policy epoch
    /// ([`OsdpSession::set_policy_epoch`]): the tenant's caches are
    /// invalidated, its packed audit counter bumped, and the transition
    /// logged to its WAL shard when durable. Routed like a release —
    /// quarantined tenants are refused fast and the (durable) outcome feeds
    /// the tenant's health machine, since a transition writes an epoch
    /// record through the same shard a grant does.
    pub fn set_policy_epoch(
        &self,
        tenant: &str,
        policy: Arc<dyn osdp_core::policy::Policy<R>>,
        label: impl Into<String>,
        direction: osdp_core::policy::EpochDirection,
    ) -> Result<EpochTransition> {
        self.admit(tenant)?;
        let result = match self.session(tenant) {
            Ok(session) => session.set_policy_epoch(policy, label, direction),
            Err(err) => Err(err),
        };
        self.observe(tenant, result)
    }

    /// Verifies **every** tenant's audit ledger against its own budget cap
    /// ([`OsdpSession::verify_policy_lifecycle`]): budget conservation plus
    /// the stale-policy and version-stamp-monotonicity checks over the
    /// tenant's epoch history. Returns one verdict per tenant plus the
    /// parallel-composition total. O(total releases), folding each tenant's
    /// audit rows in place: it allocates per tenant and distinct key, not
    /// per release.
    pub fn verify_all_ledgers(&self) -> PoolVerdict {
        let mut tenants = self.for_each_session(|tenant, session| TenantVerdict {
            tenant,
            verdict: session.verify_policy_lifecycle(session.accountant().limit()),
        });
        tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        let parallel_epsilon = tenants.iter().map(|t| t.verdict.total_epsilon).fold(0.0, f64::max);
        PoolVerdict { tenants, parallel_epsilon }
    }

    /// Applies `f` to every registered session, one shard read lock at a
    /// time.
    fn for_each_session<T>(&self, mut f: impl FnMut(Arc<str>, &OsdpSession<R>) -> T) -> Vec<T> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.read();
            for (tenant, session) in shard.iter() {
                out.push(f(Arc::clone(tenant), session));
            }
        }
        out
    }
}

/// Collapses a maintenance failure into its typed persistence form:
/// already-typed errors pass through, anything else (a logical failure
/// surfaced as a plain [`OsdpError::Persistence`] string, say) is
/// conservatively wrapped as a permanent commit failure so the health
/// machine still trips.
fn persist_failure(operation: &'static str, err: OsdpError) -> PersistError {
    match err {
        OsdpError::Persist(err) => err,
        other => PersistError::new(
            PersistOp::Commit,
            "",
            FaultClass::Permanent,
            format!("{operation}: {other}"),
        ),
    }
}

/// The outcome of a pool-wide WAL maintenance sweep
/// ([`SessionPool::sync_all`] / [`SessionPool::snapshot_all`]) in which one
/// or more tenants failed. The sweep still visited **every** tenant — the
/// tenants absent from [`PoolMaintenanceError::failures`] completed the
/// operation — so the operator can retire exactly the failing shards
/// instead of re-running (and re-fsyncing) the whole pool. Each failure is
/// the typed [`PersistError`], so the operator can branch on
/// transient-vs-permanent (retry the sweep vs [`SessionPool::try_heal`])
/// without string-matching.
#[derive(Debug)]
pub struct PoolMaintenanceError {
    /// Which sweep failed (`"sync_all"` or `"snapshot_all"`).
    pub operation: &'static str,
    /// The failing tenants with their typed errors, sorted by tenant key.
    pub failures: Vec<(Arc<str>, PersistError)>,
}

impl PoolMaintenanceError {
    /// The failing tenant keys, sorted.
    pub fn tenants(&self) -> Vec<Arc<str>> {
        self.failures.iter().map(|(t, _)| Arc::clone(t)).collect()
    }
}

impl std::fmt::Display for PoolMaintenanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} failed for {} tenant(s): ", self.operation, self.failures.len())?;
        for (i, (tenant, err)) in self.failures.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "'{tenant}': {err}")?;
        }
        Ok(())
    }
}

impl std::error::Error for PoolMaintenanceError {}

impl From<PoolMaintenanceError> for OsdpError {
    fn from(err: PoolMaintenanceError) -> Self {
        OsdpError::Persistence(err.to_string())
    }
}

/// One row of [`SessionPool::health_snapshot`]: a tenant's circuit-breaker
/// state as the operator (or the supervisor) sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantHealthReport {
    /// The tenant key.
    pub tenant: Arc<str>,
    /// The breaker state.
    pub health: TenantHealth,
    /// Consecutive persistence failures since the last success.
    pub consecutive_failures: u32,
    /// The most recent typed failure, if the tenant is not clean — its
    /// `(op, class)` signature is what shared-device incident correlation
    /// groups on.
    pub last_error: Option<PersistError>,
    /// Whether this tenant is part of the supervisor's currently open
    /// [`crate::supervisor::DeviceIncident`] (always `false` when no
    /// incident is open or the pool is unsupervised). Without this the
    /// snapshot said *quarantined* but not *why the probes stopped*.
    pub in_open_incident: bool,
}

/// The outcome of a pool-wide scrub sweep ([`SessionPool::scrub_all`]):
/// every shard was visited; `reports` holds the per-shard verdicts
/// (possibly with findings) and `failures` the shards the scrubber could
/// not even read.
#[derive(Debug, Clone, Default)]
pub struct PoolScrubReport {
    /// Per-tenant scrub reports, in enumeration order.
    pub reports: Vec<(Arc<str>, osdp_persist::ScrubReport)>,
    /// Tenants whose shard could not be scrubbed at all (the scrub itself
    /// hit an IO fault), with the typed error.
    pub failures: Vec<(Arc<str>, PersistError)>,
}

impl PoolScrubReport {
    /// Whether every shard was scrubbed and none showed corruption.
    pub fn all_clean(&self) -> bool {
        self.failures.is_empty() && self.reports.iter().all(|(_, r)| r.is_clean())
    }

    /// The tenants with at least one corruption finding, by key.
    pub fn tenants_with_findings(&self) -> Vec<Arc<str>> {
        self.reports.iter().filter(|(_, r)| !r.is_clean()).map(|(t, _)| Arc::clone(t)).collect()
    }
}

/// One tenant's ledger verdict within a [`PoolVerdict`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantVerdict {
    /// The tenant key.
    pub tenant: Arc<str>,
    /// The tenant's ledger verdict against its own cap.
    pub verdict: LedgerVerdict,
}

/// The outcome of [`SessionPool::verify_all_ledgers`].
#[derive(Debug, Clone, PartialEq)]
pub struct PoolVerdict {
    /// Per-tenant verdicts, sorted by tenant key.
    pub tenants: Vec<TenantVerdict>,
    /// The pool-wide ε under parallel composition across disjoint tenants
    /// (Theorem 10.2): the maximum per-tenant ledger total.
    pub parallel_epsilon: f64,
}

impl PoolVerdict {
    /// Whether every tenant's ledger upholds the OSDP contract (within its
    /// cap, no PDP entries).
    pub fn all_upheld(&self) -> bool {
        self.tenants.iter().all(|t| t.verdict.upholds_osdp())
    }

    /// The tenants whose ledgers fail, by key.
    pub fn violating_tenants(&self) -> Vec<Arc<str>> {
        self.tenants
            .iter()
            .filter(|t| !t.verdict.upholds_osdp())
            .map(|t| Arc::clone(&t.tenant))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionBuilder;
    use osdp_core::policy::ClosurePolicy;
    use osdp_core::Database;
    use osdp_mechanisms::{OsdpLaplaceL1, Suppress};

    fn tenant_session(seed: u64, budget: f64) -> OsdpSession<u32> {
        let db: Database<u32> = (0..100u32).collect();
        SessionBuilder::new(db)
            .policy(ClosurePolicy::new("upper-half", |&v: &u32| v >= 50), "P50")
            .budget(budget)
            .seed(seed)
            .build()
            .unwrap()
    }

    fn mod8_query() -> SessionQuery<u32> {
        SessionQuery::count_by("mod8", 8, |&v: &u32| Some((v % 8) as usize))
    }

    #[test]
    fn routes_releases_to_independent_tenant_budgets() {
        let pool: SessionPool<u32> = SessionPool::new();
        pool.insert("acme", tenant_session(1, 1.0)).unwrap();
        pool.insert("globex", tenant_session(2, 2.0)).unwrap();
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.tenants(), vec![Arc::from("acme"), Arc::from("globex")]);

        let m = OsdpLaplaceL1::new(0.75).unwrap();
        pool.release("acme", &mod8_query(), &m).unwrap();
        // acme is now too drained for a second 0.75 release; globex is not.
        assert!(pool.release("acme", &mod8_query(), &m).is_err());
        pool.release("globex", &mod8_query(), &m).unwrap();
        pool.release("globex", &mod8_query(), &m).unwrap();

        assert_eq!(pool.get("acme").unwrap().total_spent(), 0.75);
        assert_eq!(pool.get("globex").unwrap().total_spent(), 1.5);
        assert_eq!(pool.total_spent(), 2.25);
        // Disjoint tenants compose in parallel: max, not sum.
        assert_eq!(pool.parallel_composed_epsilon(), 1.5);

        let verdict = pool.verify_all_ledgers();
        assert!(verdict.all_upheld());
        assert_eq!(verdict.parallel_epsilon, 1.5);
        assert_eq!(verdict.tenants.len(), 2);
        assert!(verdict.violating_tenants().is_empty());

        // Unknown tenants are refused by name.
        assert!(pool.release("initech", &mod8_query(), &m).is_err());
    }

    #[test]
    fn insert_refuses_to_replace_a_live_session() {
        let pool: SessionPool<u32> = SessionPool::new();
        pool.insert("acme", tenant_session(1, 1.0)).unwrap();
        // The refusal is the *typed* TenantExists error, so callers can
        // branch on it without string-matching.
        match pool.insert("acme", tenant_session(9, 9.0)) {
            Err(OsdpError::TenantExists { tenant }) => assert_eq!(tenant, "acme"),
            other => panic!("expected TenantExists, got {other:?}"),
        }
        // Explicit eviction allows re-registration.
        let old = pool.remove("acme").unwrap();
        assert_eq!(old.total_spent(), 0.0);
        pool.insert("acme", tenant_session(9, 9.0)).unwrap();
        assert_eq!(pool.get("acme").unwrap().remaining_budget(), Some(9.0));
    }

    #[test]
    fn get_or_insert_builds_exactly_once() {
        let pool: SessionPool<u32> = SessionPool::new();
        let a = pool.get_or_insert_with("acme", || Ok(tenant_session(1, 1.0))).unwrap();
        let b =
            pool.get_or_insert_with("acme", || panic!("must not rebuild a live session")).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // A failed build registers nothing.
        let err: Result<_> =
            pool.get_or_insert_with("bad", || Err(OsdpError::InvalidInput("boom".into())));
        assert!(err.is_err());
        assert!(pool.get("bad").is_none());
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn tenant_dir_encoding_is_injective_and_reversible() {
        for tenant in ["acme", "acme corp", "a/b", "ü-tenant", "100%", "tenant-x", ".."] {
            let dir = encode_tenant_dir(tenant);
            assert!(dir.starts_with(TENANT_DIR_PREFIX));
            assert!(
                dir[TENANT_DIR_PREFIX.len()..]
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-' | b'%')),
                "unsafe byte survived encoding: {dir}"
            );
            assert_eq!(decode_tenant_dir(&dir).as_deref(), Some(tenant));
        }
        // Distinct keys that differ only in encoded bytes stay distinct.
        assert_ne!(encode_tenant_dir("a/b"), encode_tenant_dir("a%2Fb"));
        // Non-tenant directories are ignored wholesale.
        assert_eq!(decode_tenant_dir("snapshots"), None);
        assert_eq!(decode_tenant_dir("tenant-%zz"), None);
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!("osdp-pool-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable_builder() -> SessionBuilder<u32> {
        let db: Database<u32> = (0..100u32).collect();
        SessionBuilder::new(db)
            .policy(ClosurePolicy::new("upper-half", |&v: &u32| v >= 50), "P50")
            .budget(10.0)
            .seed(7)
    }

    /// A breaker that never cools down on its own: quarantine stays sticky
    /// until an explicit heal, so tests observe no half-open races.
    fn sticky_policy() -> HealthPolicy {
        HealthPolicy { quarantine_after: 3, probe_cooldown: Duration::from_secs(3600) }
    }

    fn transient() -> PersistError {
        PersistError::new(PersistOp::Write, "wal.log", FaultClass::Transient, "EINTR")
    }

    fn permanent() -> PersistError {
        PersistError::new(PersistOp::Write, "wal.log", FaultClass::Permanent, "ENOSPC")
    }

    #[test]
    fn transient_failures_degrade_then_quarantine_and_success_heals() {
        let pool: SessionPool<u32> = SessionPool::new().with_health_policy(sticky_policy());
        assert_eq!(pool.health("acme"), TenantHealth::Healthy);
        pool.record_failure("acme", &transient());
        assert_eq!(pool.health("acme"), TenantHealth::Degraded);
        pool.record_failure("acme", &transient());
        assert_eq!(pool.health("acme"), TenantHealth::Degraded);
        assert!(pool.admit("acme").is_ok(), "degraded tenants still serve");
        pool.record_failure("acme", &transient());
        assert_eq!(pool.health("acme"), TenantHealth::Quarantined);
        // The breaker is open and the cooldown is far away: refuse fast,
        // with the typed error.
        match pool.admit("acme") {
            Err(OsdpError::TenantQuarantined { tenant }) => assert_eq!(tenant, "acme"),
            other => panic!("expected TenantQuarantined, got {other:?}"),
        }
        // Other tenants are untouched.
        assert_eq!(pool.health("globex"), TenantHealth::Healthy);
        assert!(pool.admit("globex").is_ok());
        // A success closes the breaker; a permanent fault reopens it in one
        // strike.
        pool.record_success("acme");
        assert_eq!(pool.health("acme"), TenantHealth::Healthy);
        assert!(pool.admit("acme").is_ok());
        pool.record_failure("acme", &permanent());
        assert_eq!(pool.health("acme"), TenantHealth::Quarantined);
    }

    #[test]
    fn half_open_probe_admits_exactly_one() {
        let pool: SessionPool<u32> = SessionPool::new().with_health_policy(HealthPolicy {
            quarantine_after: 1,
            probe_cooldown: Duration::ZERO,
        });
        pool.record_failure("acme", &permanent());
        assert_eq!(pool.health("acme"), TenantHealth::Quarantined);
        // Cooldown elapsed: one probe goes through; a second caller is
        // refused while the probe is in flight.
        assert!(pool.admit("acme").is_ok());
        assert!(matches!(pool.admit("acme"), Err(OsdpError::TenantQuarantined { .. })));
        // A failed probe re-opens the breaker (and releases the slot).
        pool.record_failure("acme", &transient());
        assert_eq!(pool.health("acme"), TenantHealth::Quarantined);
        assert!(pool.admit("acme").is_ok(), "zero cooldown: next probe is allowed");
        // A non-persistence outcome (a budget refusal, say) is no verdict
        // on the disk: health is unchanged but the probe slot frees up.
        let _: Result<()> =
            pool.observe("acme", Err(OsdpError::InvalidInput("budget refused".into())));
        assert_eq!(pool.health("acme"), TenantHealth::Quarantined);
        assert!(pool.admit("acme").is_ok());
        // A successful probe closes the breaker.
        let _: Result<()> = pool.observe("acme", Ok(()));
        assert_eq!(pool.health("acme"), TenantHealth::Healthy);
    }

    #[test]
    fn the_unhealthy_count_returns_to_zero_and_reopens_the_fast_path() {
        let dir = tmp_dir("fast-path");
        let pool: SessionPool<u32> =
            SessionPool::open(dir.clone(), SyncPolicy::Always).unwrap().with_health_policy(
                HealthPolicy { quarantine_after: 2, probe_cooldown: Duration::ZERO },
            );
        pool.open_tenant("acme", durable_builder).unwrap();
        pool.open_tenant("globex", durable_builder).unwrap();
        let m = OsdpLaplaceL1::new(0.25).unwrap();
        let unhealthy = || pool.unhealthy.load(Ordering::Acquire);
        assert_eq!(unhealthy(), 0);

        // Degraded, then a served release closes the breaker: the count is
        // back to zero, though the tenant's cell stays in the map.
        pool.record_failure("acme", &transient());
        assert_eq!((pool.health("acme"), unhealthy()), (TenantHealth::Degraded, 1));
        pool.release("acme", &mod8_query(), &m).unwrap();
        assert_eq!((pool.health("acme"), unhealthy()), (TenantHealth::Healthy, 0));

        // Quarantined: one tenant counts once however often it fails.
        pool.record_failure("acme", &transient());
        pool.record_failure("acme", &transient());
        pool.record_failure("acme", &permanent());
        assert_eq!((pool.health("acme"), unhealthy()), (TenantHealth::Quarantined, 1));
        // The cooldown is zero: exactly one half-open probe is admitted,
        // the next release is refused fast, and another tenant is served
        // without touching the open breaker.
        assert!(pool.admit("acme").is_ok());
        assert!(matches!(
            pool.release("acme", &mod8_query(), &m),
            Err(OsdpError::TenantQuarantined { .. })
        ));
        pool.release("globex", &mod8_query(), &m).unwrap();
        assert_eq!((pool.health("globex"), unhealthy()), (TenantHealth::Healthy, 1));
        assert_eq!(pool.health("acme"), TenantHealth::Quarantined);
        // The probe fails; the breaker re-opens, still counted once.
        pool.record_failure("acme", &permanent());
        assert_eq!((pool.health("acme"), unhealthy()), (TenantHealth::Quarantined, 1));

        // A heal restores the tenant and the count: releases are back on
        // the path that reads no health cell.
        pool.try_heal("acme", durable_builder).unwrap();
        assert_eq!((pool.health("acme"), unhealthy()), (TenantHealth::Healthy, 0));
        pool.release("acme", &mod8_query(), &m).unwrap();
        pool.release("globex", &mod8_query(), &m).unwrap();
        assert_eq!(unhealthy(), 0);
        assert_eq!(pool.get("acme").unwrap().total_spent(), 0.5);
        assert!(pool.verify_all_ledgers().all_upheld());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crashed_tenant_quarantines_with_typed_error_and_heals_bit_for_bit() {
        let dir = tmp_dir("heal");
        let pool: SessionPool<u32> = SessionPool::open(dir.clone(), SyncPolicy::Always)
            .unwrap()
            .with_health_policy(sticky_policy());
        pool.open_tenant("acme", durable_builder).unwrap();
        let m = OsdpLaplaceL1::new(0.75).unwrap();
        pool.release("acme", &mod8_query(), &m).unwrap();
        assert_eq!(pool.health("acme"), TenantHealth::Healthy);

        // The shard's writer dies mid-service (simulated): the maintenance
        // sweep surfaces the typed permanent failure and trips the breaker.
        pool.get("acme").unwrap().persistence().unwrap().crash(1.0).unwrap();
        let err = pool.sync_all().unwrap_err();
        assert_eq!(err.operation, "sync_all");
        assert_eq!(err.failures.len(), 1);
        assert_eq!(err.failures[0].0.as_ref(), "acme");
        assert_eq!(err.failures[0].1.class, FaultClass::Permanent);
        assert_eq!(pool.health("acme"), TenantHealth::Quarantined);

        // Releases now refuse fast without touching the dead shard.
        match pool.release("acme", &mod8_query(), &m) {
            Err(OsdpError::TenantQuarantined { tenant }) => assert_eq!(tenant, "acme"),
            other => panic!("expected fast quarantine refusal, got {other:?}"),
        }

        // Heal: evict + drain, clear the leftover LOCK, reopen through
        // snapshot + replay. The acknowledged grant survives and the
        // accountant == audit == an independent ledger peek, bit for bit.
        let healed = pool.try_heal("acme", durable_builder).unwrap();
        assert_eq!(pool.health("acme"), TenantHealth::Healthy);
        let peek = osdp_persist::TenantLedger::peek(dir.join(encode_tenant_dir("acme"))).unwrap();
        assert_eq!(healed.audit_total_epsilon_units(), peek.spent_units());
        assert_eq!(healed.total_spent(), 0.75);
        // And the tenant serves again.
        pool.release("acme", &mod8_query(), &m).unwrap();
        assert!(pool.verify_all_ledgers().all_upheld());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_disk_full_fails_closed_and_heals() {
        use osdp_persist::{FaultKind, FaultPlan, FaultVfs};
        let dir = tmp_dir("faultvfs");
        // Write ops #0–#1 on wal.log are the open-time header rewrite
        // (set_len + write); op #2 is the first grant frame — that one
        // hits ENOSPC.
        let plan = FaultPlan::new().fail_nth(PersistOp::Write, "wal.log", 2, FaultKind::DiskFull);
        let pool: SessionPool<u32> = SessionPool::open_with(
            dir.clone(),
            SyncPolicy::Always,
            LedgerOptions::default(),
            FaultVfs::new(plan),
        )
        .unwrap()
        .with_health_policy(sticky_policy());
        pool.open_tenant("acme", durable_builder).unwrap();

        let m = OsdpLaplaceL1::new(0.75).unwrap();
        let err = pool.release("acme", &mod8_query(), &m).unwrap_err();
        assert!(
            matches!(err, OsdpError::Persist(ref p) if p.class == FaultClass::Permanent),
            "expected a typed permanent persistence failure, got {err:?}"
        );
        // Fail-closed: the caller was refused, but the admitted debit is
        // conservatively kept — budget is never resurrected by an IO fault.
        assert_eq!(pool.get("acme").unwrap().total_spent(), 0.75);
        assert_eq!(pool.health("acme"), TenantHealth::Quarantined);

        // Heal. The one-shot fault is spent; the shard reopens cleanly and
        // the recovered state matches an independent peek bit for bit.
        let healed = pool.try_heal("acme", durable_builder).unwrap();
        assert_eq!(pool.health("acme"), TenantHealth::Healthy);
        let peek = osdp_persist::TenantLedger::peek(dir.join(encode_tenant_dir("acme"))).unwrap();
        assert_eq!(healed.audit_total_epsilon_units(), peek.spent_units());
        // The tenant serves again and the pool-wide audit still balances.
        pool.release("acme", &mod8_query(), &m).unwrap();
        assert!(pool.verify_all_ledgers().all_upheld());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn try_heal_refuses_in_memory_pools() {
        let pool: SessionPool<u32> = SessionPool::new();
        assert!(pool.try_heal("acme", durable_builder).is_err());
    }

    #[test]
    fn health_snapshot_reports_every_known_tenant_with_its_last_error() {
        let pool: SessionPool<u32> = SessionPool::new().with_health_policy(sticky_policy());
        pool.insert("acme", tenant_session(1, 1.0)).unwrap();
        pool.insert("globex", tenant_session(2, 1.0)).unwrap();
        // A tenant with health state but no registered session (the shape
        // of a quarantined tenant mid-heal) still shows up.
        pool.record_failure("initech", &permanent());
        pool.record_failure("globex", &transient());
        let snapshot = pool.health_snapshot();
        assert_eq!(
            snapshot.iter().map(|r| r.tenant.as_ref()).collect::<Vec<_>>(),
            vec!["acme", "globex", "initech"],
            "sorted union of registered and health-tracked tenants"
        );
        assert_eq!(snapshot[0].health, TenantHealth::Healthy);
        assert_eq!(snapshot[0].consecutive_failures, 0);
        assert!(snapshot[0].last_error.is_none());
        assert_eq!(snapshot[1].health, TenantHealth::Degraded);
        assert_eq!(snapshot[1].consecutive_failures, 1);
        assert_eq!(snapshot[1].last_error.as_ref().unwrap().class, FaultClass::Transient);
        assert_eq!(snapshot[2].health, TenantHealth::Quarantined);
        let last = snapshot[2].last_error.as_ref().unwrap();
        assert!(last.is_device_signature(), "permanent write fault carries the storm shape");
        // Success wipes the error and the counter.
        pool.record_success("globex");
        let snapshot = pool.health_snapshot();
        assert_eq!(snapshot[1].health, TenantHealth::Healthy);
        assert!(snapshot[1].last_error.is_none());
    }

    #[test]
    fn scrub_finds_cold_bit_rot_and_quarantines_before_recovery_reads_it() {
        let dir = tmp_dir("scrub");
        let pool: SessionPool<u32> = SessionPool::open(dir.clone(), SyncPolicy::Always)
            .unwrap()
            .with_health_policy(sticky_policy());
        pool.open_tenant("acme", durable_builder).unwrap();
        let m = OsdpLaplaceL1::new(0.75).unwrap();
        pool.release("acme", &mod8_query(), &m).unwrap();
        let report = pool.scrub_tenant("acme").unwrap();
        assert!(report.is_clean());
        assert_eq!(report.wal_frames, 1);
        assert_eq!(pool.health("acme"), TenantHealth::Healthy);

        // Cold bit rot lands in the shard while the tenant idles. The scrub
        // discovers it and trips the breaker *before* any recovery path
        // reads the corrupt frame.
        let wal = dir.join(encode_tenant_dir("acme")).join("wal.log");
        let mut bytes = std::fs::read(&wal).unwrap();
        let frame_at = bytes.len() - 4;
        bytes[frame_at] ^= 0x10;
        std::fs::write(&wal, &bytes).unwrap();
        let report = pool.scrub_tenant("acme").unwrap();
        assert!(!report.is_clean());
        assert_eq!(pool.health("acme"), TenantHealth::Quarantined);
        let snapshot = pool.health_snapshot();
        let acme = snapshot.iter().find(|r| r.tenant.as_ref() == "acme").unwrap();
        assert_eq!(acme.last_error.as_ref().unwrap().op, PersistOp::Read);

        // scrub_all sees the same shard-level truth pool-wide.
        let sweep = pool.scrub_all().unwrap();
        assert!(!sweep.all_clean());
        assert_eq!(sweep.tenants_with_findings(), vec![Arc::from("acme")]);

        // In-memory pools have nothing to scrub.
        let mem: SessionPool<u32> = SessionPool::new();
        assert!(mem.scrub_tenant("acme").is_err());
        assert!(mem.scrub_all().is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pdp_tenants_fail_pool_verification() {
        let pool: SessionPool<u32> = SessionPool::new();
        pool.insert("acme", tenant_session(1, 1.0)).unwrap();
        pool.insert("shady", tenant_session(2, 200.0)).unwrap();
        pool.release("acme", &mod8_query(), &OsdpLaplaceL1::new(0.5).unwrap()).unwrap();
        pool.release("shady", &mod8_query(), &Suppress::new(10.0).unwrap()).unwrap();
        let verdict = pool.verify_all_ledgers();
        assert!(!verdict.all_upheld());
        assert_eq!(verdict.violating_tenants(), vec![Arc::from("shady")]);
        assert_eq!(verdict.parallel_epsilon, 10.0);
    }
}
