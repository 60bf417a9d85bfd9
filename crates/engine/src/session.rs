//! [`OsdpSession`]: the budget-enforced, policy-aware release path.

use crate::audit::{AuditKeyRef, AuditLog, AuditRecord};
use crate::backend::{Backend, ColumnarBackend, HistogramPair, QueryPlan, RowBackend};
use crate::cache::{TaskCache, TaskIdentity};
use crate::intern::Interner;
use crate::persist::{GrantEvent, SessionPersistence, SessionWal};
use osdp_attack::{EpochTransition, ReleaseStamp};
use osdp_core::budget::epsilon_to_units;
use osdp_core::error::{validate_epsilon, OsdpError, Result};
use osdp_core::frame::{BinSpec, ColumnarFrame, PAIR_BIN_FIELD, PAIR_FLAG_FIELD};
use osdp_core::policy::{
    AttributePolicy, EpochDirection, MinimumRelaxation, Policy, VersionedPolicy,
};
use osdp_core::{BudgetAccountant, Database, Guarantee, Histogram, Record};
use osdp_mechanisms::{HistogramMechanism, HistogramTask, OsdpRr};
use osdp_noise::SeedSequence;
use osdp_persist::EpochRecord;
use parking_lot::{Mutex, RwLock};
use rayon::prelude::*;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

/// The labelled policies a session's record-level releases have used, in
/// first-use order.
type UsedPolicies<R> = Vec<(String, Arc<dyn Policy<R>>)>;

/// One installed policy epoch: the policy object, its audit label, and the
/// version the packed audit counter stamps while it is current.
struct EpochState<R> {
    policy: Arc<dyn Policy<R>>,
    label: Arc<str>,
    version: u64,
}

/// Everything the transition slow path guards: the pinned epoch states, the
/// core lifecycle registry, and the transition metadata audits consume.
struct EpochHistory<R> {
    /// Pinned epoch states, indexed by `version - base_version`. **Never
    /// popped**: a pointer loaded from [`EpochCell::current`] stays valid
    /// for the cell's lifetime (the same no-ABA argument as the task and
    /// partition caches).
    states: Vec<Arc<EpochState<R>>>,
    /// The core registry: tighten/relax ordering, permissiveness levels and
    /// cross-version minimum relaxation (Definitions 3.5/3.6 over time).
    registry: VersionedPolicy<R>,
    /// Applied + recovered transition metadata in version order — exactly
    /// what [`osdp_attack::verify_epoch_stamps`] consumes.
    transitions: Vec<EpochTransition>,
    /// The engine version of registry index 0. Non-zero after recovery:
    /// pre-crash epochs exist as durable metadata in `transitions`, but
    /// policies are code, not data, so the rebuilt session serves under its
    /// builder-bound policy as the current epoch and resumes version
    /// numbering from here.
    base_version: u64,
}

/// The session's policy lifecycle cell.
///
/// The release path reads the current epoch through **one atomic pointer
/// load** — no lock, no reference-count traffic — so static-policy sessions
/// pay nothing for the lifecycle machinery. Transitions are the slow path:
/// they serialize on the history mutex, install the new state, swap the
/// pointer, and only then bump the packed audit version counter. Because
/// the swap happens *before* the bump, the epoch for any version the
/// counter ever hands out is already installed, which is what makes the
/// stamped-version re-derivation in the release path total.
struct EpochCell<R> {
    current: AtomicPtr<EpochState<R>>,
    history: Mutex<EpochHistory<R>>,
}

impl<R> EpochCell<R> {
    fn new(
        policy: Arc<dyn Policy<R>>,
        label: Arc<str>,
        base_version: u64,
        recovered: Vec<EpochTransition>,
    ) -> Self {
        let state = Arc::new(EpochState {
            policy: Arc::clone(&policy),
            label: Arc::clone(&label),
            version: base_version,
        });
        let current = AtomicPtr::new(Arc::as_ptr(&state) as *mut EpochState<R>);
        Self {
            current,
            history: Mutex::new(EpochHistory {
                states: vec![state],
                registry: VersionedPolicy::new(policy, label),
                transitions: recovered,
                base_version,
            }),
        }
    }

    /// The epoch currently in force — one atomic load.
    fn current(&self) -> &EpochState<R> {
        // SAFETY: the pointer always targets an `Arc` pinned by
        // `history.states`, which never pops while `self` is alive.
        unsafe { &*self.current.load(Ordering::Acquire) }
    }

    /// The epoch installed for `version`, if this process installed one
    /// (recovered pre-crash versions have metadata only). Slow path: takes
    /// the history lock.
    fn state(&self, version: u64) -> Option<Arc<EpochState<R>>> {
        let history = self.history.lock();
        version
            .checked_sub(history.base_version)
            .and_then(|i| history.states.get(i as usize))
            .map(Arc::clone)
    }
}

/// What a session releases against: a record-level [`Backend`] whose policy
/// lifecycle lives in an [`EpochCell`], or a pre-aggregated histogram pair
/// (the shape the DPBench-style experiment harness produces with sampled
/// policies — fixed policy, no transitions).
enum Source<R> {
    Records { backend: Arc<dyn Backend<R>>, epoch: EpochCell<R> },
    Bound { task: Arc<HistogramTask> },
}

/// How a grant derives what its sampler reads.
enum Derive<'a, R, T> {
    /// Derived under the epoch in force at capture (`None` for
    /// histogram-backed sessions) and re-derived under the stamped epoch
    /// when a transition races the grant.
    Epoch(&'a dyn Fn(Option<&EpochState<R>>) -> Result<T>),
    /// Fixed before the grant and stamped under `label` whatever epoch is
    /// in force. `policy` is an override policy that joins the composed
    /// minimum relaxation once its debit is admitted.
    Fixed { input: T, label: Arc<str>, policy: Option<Arc<dyn Policy<R>>> },
}

/// What a granted release samples from; its bin count goes into the audit
/// record and the WAL frame.
trait GrantInput: Clone {
    fn bins(&self) -> usize;
}

impl GrantInput for Arc<HistogramTask> {
    fn bins(&self) -> usize {
        HistogramTask::bins(self)
    }
}

impl GrantInput for &HistogramTask {
    fn bins(&self) -> usize {
        HistogramTask::bins(self)
    }
}

/// Record samples: the input is the policy to sample under, and no
/// histogram bins are released.
impl<R> GrantInput for Arc<dyn Policy<R>> {
    fn bins(&self) -> usize {
        0
    }
}

/// The fixed-point debit of `trials` trials under each of `guarantees`,
/// and the float ε it stands for: `Σ epsilon_to_units(ε × trials)`,
/// converted **per debit**. The ceiling conversion is subadditive, so
/// converting the float sum once would record fewer units than the grant
/// admits. The grant path admits this sum, and the streaming plane charges
/// its sliding frame with it, so the two can never disagree.
pub(crate) fn debit_units(
    guarantees: impl IntoIterator<Item = Guarantee>,
    trials: usize,
) -> Result<(u64, f64)> {
    let mut units = 0u64;
    let mut requested = 0.0;
    for guarantee in guarantees {
        let epsilon = validate_epsilon(guarantee.epsilon() * trials as f64)?;
        units = units.saturating_add(epsilon_to_units(epsilon));
        requested += epsilon;
    }
    Ok((units, requested))
}

/// A histogram query answered by a session.
///
/// Record-backed sessions evaluate [`SessionQuery::CountBy`] queries by
/// binning every record; histogram-backed sessions answer the single
/// [`SessionQuery::Bound`] query (the histogram fixed at construction).
pub enum SessionQuery<R: ?Sized = Record> {
    /// The histogram pair bound at construction
    /// ([`SessionBuilder::from_histograms`] sessions).
    Bound,
    /// `SELECT bin, COUNT(*) GROUP BY bin` over the bound database: every
    /// record is assigned a bin by the closure (records mapping to `None` or
    /// out of range are ignored). Queries built from a [`BinSpec`]
    /// additionally carry the compiled assignment, which columnar backends
    /// evaluate vectorized instead of calling the closure per record.
    CountBy {
        /// Label used in the audit log.
        label: String,
        /// Number of bins.
        bins: usize,
        /// Bin assignment (the row-at-a-time reference semantics).
        #[allow(clippy::type_complexity)]
        bin_of: Arc<dyn Fn(&R) -> Option<usize> + Send + Sync>,
        /// The compiled bin assignment, when the query was built from one.
        spec: Option<BinSpec>,
    },
}

impl<R: ?Sized> SessionQuery<R> {
    /// The bound-histogram query.
    pub fn bound() -> Self {
        SessionQuery::Bound
    }

    /// A grouping query: count records per bin of `bin_of`. The closure is
    /// opaque, so columnar backends answer it from their retained rows; use
    /// [`SessionQuery::count_by_categorical`] /
    /// [`SessionQuery::count_by_int_linear`] for queries that push down.
    pub fn count_by(
        label: impl Into<String>,
        bins: usize,
        bin_of: impl Fn(&R) -> Option<usize> + Send + Sync + 'static,
    ) -> Self {
        SessionQuery::CountBy { label: label.into(), bins, bin_of: Arc::new(bin_of), spec: None }
    }

    /// The audit-log label of this query.
    pub fn label(&self) -> &str {
        match self {
            SessionQuery::Bound => "bound",
            SessionQuery::CountBy { label, .. } => label,
        }
    }
}

impl SessionQuery<Record> {
    /// A grouping query over a categorical field: the bin is the field's
    /// categorical code. Carries both the compiled [`BinSpec`] (vectorized on
    /// columnar backends) and the equivalent row closure (derived from the
    /// same spec, so the two paths cannot drift).
    pub fn count_by_categorical(
        label: impl Into<String>,
        field: impl Into<String>,
        bins: usize,
    ) -> Self {
        Self::from_spec(label, bins, BinSpec::Categorical { field: field.into() })
    }

    /// A grouping query over an integer field: the bin is
    /// `(value − origin) / width`. See
    /// [`SessionQuery::count_by_categorical`] for the pushdown semantics.
    pub fn count_by_int_linear(
        label: impl Into<String>,
        field: impl Into<String>,
        origin: i64,
        width: i64,
        bins: usize,
    ) -> Self {
        Self::from_spec(label, bins, BinSpec::IntLinear { field: field.into(), origin, width })
    }

    /// Builds the query from a compiled spec, deriving the row closure from
    /// the same spec.
    pub fn from_spec(label: impl Into<String>, bins: usize, spec: BinSpec) -> Self {
        let closure_spec = spec.clone();
        SessionQuery::CountBy {
            label: label.into(),
            bins,
            bin_of: Arc::new(move |r: &Record| closure_spec.bin_of_record(r)),
            spec: Some(spec),
        }
    }
}

impl<R: ?Sized> Clone for SessionQuery<R> {
    fn clone(&self) -> Self {
        match self {
            SessionQuery::Bound => SessionQuery::Bound,
            SessionQuery::CountBy { label, bins, bin_of, spec } => SessionQuery::CountBy {
                label: label.clone(),
                bins: *bins,
                bin_of: Arc::clone(bin_of),
                spec: spec.clone(),
            },
        }
    }
}

impl<R: ?Sized> std::fmt::Debug for SessionQuery<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionQuery::Bound => f.write_str("SessionQuery::Bound"),
            SessionQuery::CountBy { label, bins, spec, .. } => f
                .debug_struct("SessionQuery::CountBy")
                .field("label", label)
                .field("bins", bins)
                .field("spec", spec)
                .finish(),
        }
    }
}

/// The outcome of one audited histogram release.
#[derive(Debug, Clone, PartialEq)]
pub struct Release {
    /// The noisy estimate.
    pub estimate: Histogram,
    /// Mechanism display name.
    pub mechanism: String,
    /// Label of the policy the release was evaluated under.
    pub policy: String,
    /// The guarantee of this single release.
    pub guarantee: Guarantee,
    /// The session release index (audit-log key).
    pub index: u64,
}

/// One mechanism's slice of an [`OsdpSession::release_pool`] batch.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolRelease {
    /// Mechanism display name.
    pub mechanism: String,
    /// The audit-log release index of this mechanism's trial batch.
    pub index: u64,
    /// The guarantee of **one** trial (the batch cost `trials × ε`).
    pub guarantee: Guarantee,
    /// The per-trial estimates, identical to what
    /// [`OsdpSession::release_trials`] would have produced for this
    /// mechanism.
    pub estimates: Vec<Histogram>,
}

/// Starts a histogram-backed session (see
/// [`SessionBuilder::from_histograms`]) with the record type pinned to
/// [`Record`] — histogram-backed sessions never touch records, so the
/// parameter is irrelevant and this saves callers a turbofish.
pub fn histogram_session(full: Histogram, non_sensitive: Histogram) -> SessionBuilder<Record> {
    SessionBuilder::from_histograms(full, non_sensitive)
}

/// Builder for [`OsdpSession`].
///
/// ```
/// use osdp_core::policy::NoneSensitive;
/// use osdp_core::Database;
/// use osdp_engine::SessionBuilder;
///
/// let db: Database<u32> = (0..100u32).collect();
/// let session = SessionBuilder::new(db)
///     .policy(NoneSensitive, "Pnone")
///     .budget(1.0)
///     .seed(42)
///     .build()
///     .unwrap();
/// assert_eq!(session.remaining_budget(), Some(1.0));
/// ```
pub struct SessionBuilder<R = Record> {
    db: Option<Database<R>>,
    backend: Option<Arc<dyn Backend<R>>>,
    bound: Option<(Histogram, Histogram)>,
    policy: Option<Arc<dyn Policy<R>>>,
    policy_label: Option<String>,
    budget: Option<f64>,
    seed: u64,
    persistence: Option<SessionPersistence>,
    /// Set once [`SessionBuilder::columnar`] has converted the database, so
    /// repeated calls stay no-ops.
    columnar_applied: bool,
    /// Set when [`SessionBuilder::columnar`] is called on a builder with no
    /// database to convert; surfaced as an error by `build` instead of
    /// silently keeping the original source.
    columnar_misuse: bool,
}

impl<R> SessionBuilder<R> {
    /// Starts a session over a record-level database, scanned by the
    /// row-at-a-time [`RowBackend`] (see [`SessionBuilder::columnar`] and
    /// [`SessionBuilder::with_backend`] for the alternatives). A policy **must**
    /// be bound with [`SessionBuilder::policy`] before
    /// [`SessionBuilder::build`].
    pub fn new(db: Database<R>) -> Self {
        Self::with_source(Some(db), None, None)
    }

    /// Starts a session over an explicit scan [`Backend`] — the extension
    /// point for external stores (sharded, streaming, SQL). A policy must
    /// still be bound.
    pub fn with_backend(backend: Arc<dyn Backend<R>>) -> Self {
        Self::with_source(None, Some(backend), None)
    }

    /// Starts a session over a pre-aggregated histogram pair: the full
    /// histogram and its non-sensitive sub-histogram (as produced by a policy
    /// sampler). Validated at build time: the two must have the same domain
    /// and `x_ns` must be dominated by `x`.
    pub fn from_histograms(full: Histogram, non_sensitive: Histogram) -> Self {
        Self::with_source(None, None, Some((full, non_sensitive)))
    }

    fn with_source(
        db: Option<Database<R>>,
        backend: Option<Arc<dyn Backend<R>>>,
        bound: Option<(Histogram, Histogram)>,
    ) -> Self {
        Self {
            db,
            backend,
            bound,
            policy: None,
            policy_label: None,
            budget: None,
            seed: 0,
            persistence: None,
            columnar_applied: false,
            columnar_misuse: false,
        }
    }

    /// Binds the policy function and its report label.
    pub fn policy(mut self, policy: impl Policy<R> + 'static, label: impl Into<String>) -> Self {
        self.policy = Some(Arc::new(policy));
        self.policy_label = Some(label.into());
        self
    }

    /// Binds an already-shared policy function.
    pub fn policy_arc(mut self, policy: Arc<dyn Policy<R>>, label: impl Into<String>) -> Self {
        self.policy = Some(policy);
        self.policy_label = Some(label.into());
        self
    }

    /// Overrides the policy label without changing the policy (useful for
    /// histogram-backed sessions, whose policy only exists as the sampled
    /// `x_ns`).
    pub fn policy_label(mut self, label: impl Into<String>) -> Self {
        self.policy_label = Some(label.into());
        self
    }

    /// Caps the total privacy budget of the session. Without a cap the
    /// session only records what is spent (the evaluation-harness mode).
    pub fn budget(mut self, epsilon: f64) -> Self {
        self.budget = Some(epsilon);
        self
    }

    /// Sets the root seed of the session's deterministic RNG streams.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Backs the session with a durable budget plane: the accountant and
    /// audit log are **seeded from the recovered state** of the tenant WAL
    /// shard behind `persistence` (fresh shards seed zeros), and every
    /// grant is thereafter logged to the WAL — after the accountant's CAS
    /// admits it, before any noise is sampled. See the crate docs'
    /// "Durability model" section for the sync-policy trade-offs.
    pub fn durable(mut self, persistence: SessionPersistence) -> Self {
        self.persistence = Some(persistence);
        self
    }

    /// Builds the session, validating the source.
    pub fn build(self) -> Result<OsdpSession<R>>
    where
        R: Send + Sync + 'static,
    {
        if self.columnar_misuse {
            return Err(OsdpError::InvalidInput(
                "SessionBuilder::columnar only applies to record-backed builders \
                 (SessionBuilder::new); histogram-backed and explicit-backend \
                 sessions have no database to convert"
                    .into(),
            ));
        }
        // A durable builder seeds the accountant and audit log from the
        // recovered ledger — raw integer counters (including the packed
        // policy-version bits), so a restart resumes the exact pre-crash
        // state — and keeps the WAL hooked into the grant path. A plain
        // builder starts both from zero with no WAL.
        let (audit, wal, spent_units, version, transitions) = match self.persistence {
            Some(SessionPersistence { wal, recovered }) => {
                let audit = AuditLog::recovered(
                    recovered.base_seq,
                    recovered.policy_version,
                    recovered.base_units,
                    recovered.base_entries,
                );
                for (record, units) in recovered.tail {
                    audit.restore(record, units);
                }
                let version = recovered.policy_version;
                (audit, Some(wal), recovered.spent_units, version, recovered.transitions)
            }
            None => (AuditLog::new(), None, 0, 0, Vec::new()),
        };
        let accountant = BudgetAccountant::recovered(self.budget, spent_units)?;
        let policy_label = self.policy_label.unwrap_or_else(|| "P".to_string());
        let backend = match (self.db, self.backend) {
            (Some(db), None) => Some(Arc::new(RowBackend::new(db)) as Arc<dyn Backend<R>>),
            (None, Some(backend)) => Some(backend),
            _ => None,
        };
        let label_arc: Arc<str> = Arc::from(policy_label.as_str());
        let (source, policies) = match (backend, self.bound) {
            (Some(backend), None) => {
                let policy = self.policy.ok_or_else(|| {
                    OsdpError::InvalidInput(
                        "a record-backed session needs a policy: call SessionBuilder::policy"
                            .into(),
                    )
                })?;
                let policies = vec![(policy_label.clone(), Arc::clone(&policy))];
                // Recovered pre-crash epochs carry over as durable metadata
                // (`transitions`); the builder-bound policy is installed as
                // the current epoch at the recovered version number, so the
                // audit counter resumes stamping exactly where the crashed
                // process stopped.
                let epoch = EpochCell::new(
                    policy,
                    Arc::clone(&label_arc),
                    version,
                    transitions
                        .iter()
                        .map(|t| EpochTransition {
                            version: t.version,
                            boundary_seq: t.boundary_seq,
                            relaxes: t.relaxes,
                            label: t.label.clone(),
                        })
                        .collect(),
                );
                (Source::Records { backend, epoch }, policies)
            }
            (None, Some((full, non_sensitive))) => {
                if self.policy.is_some() {
                    return Err(OsdpError::InvalidInput(
                        "histogram-backed sessions carry their policy as the sampled x_ns; \
                         use policy_label to name it instead of binding a policy function"
                            .into(),
                    ));
                }
                let task = Arc::new(HistogramTask::new(full, non_sensitive)?);
                (Source::Bound { task }, Vec::new())
            }
            _ => unreachable!("builder constructors set exactly one source"),
        };
        Ok(OsdpSession {
            source,
            policy_label: label_arc,
            accountant,
            seeds: SeedSequence::new(self.seed),
            audit,
            wal,
            policies: RwLock::new(policies),
            tasks: TaskCache::new(),
            labels: Interner::new(),
            stream_labels: Interner::new(),
        })
    }
}

impl SessionBuilder<Record> {
    /// Switches a record-backed session onto the vectorized
    /// [`ColumnarBackend`]: the database is snapshotted into a
    /// [`ColumnarFrame`] (rows retained for opaque policies/queries) and
    /// every scan evaluates column-at-a-time with the policy partition
    /// cached per policy. Output is bit-for-bit identical to the row
    /// backend's.
    pub fn columnar(mut self) -> Self {
        match self.db.take() {
            Some(db) => {
                self.backend = Some(Arc::new(ColumnarBackend::from_database(db)));
                self.columnar_applied = true;
            }
            // Already converted: a repeated call is a harmless no-op.
            None if self.columnar_applied => {}
            // Nothing to convert (histogram-backed or explicit-backend
            // builder): flag it so `build` errors instead of silently
            // running on the original source.
            None => self.columnar_misuse = true,
        }
        self
    }

    /// Starts a session over a pre-built (possibly weighted) columnar frame.
    /// No rows are retained: the bound policy must compile
    /// ([`Policy::compiled`]) and queries must carry a
    /// [`BinSpec`].
    pub fn from_frame(frame: ColumnarFrame) -> Self {
        Self::with_backend(Arc::new(ColumnarBackend::from_frame(frame)))
    }
}

/// Opens a columnar session over a pre-aggregated `(x, x_ns)` histogram pair
/// by expanding it into a weighted two-column frame
/// ([`ColumnarFrame::from_histogram_pair`]): one row per (bin, sensitivity
/// flag) with the count as its weight. Scanning the frame with
/// [`pair_query`] reproduces the pair exactly, so histogram-level workloads
/// (DPBench, sampled policies) ride the same [`Backend`] pipeline as
/// record-level databases — same audit, budget and cache machinery.
///
/// The bound policy is *sensitive when the flag is false*
/// (vectorized); override the report label with
/// [`SessionBuilder::policy_label`].
pub fn pair_session(full: &Histogram, non_sensitive: &Histogram) -> Result<SessionBuilder<Record>> {
    let frame = ColumnarFrame::from_histogram_pair(full, non_sensitive)?;
    Ok(SessionBuilder::from_frame(frame).policy(AttributePolicy::opt_in(PAIR_FLAG_FIELD), "P-pair"))
}

/// The query matching [`pair_session`] frames: `GROUP BY bin` over the
/// expansion's categorical bin column, with `bins` equal to the original
/// histogram domain.
pub fn pair_query(bins: usize) -> SessionQuery<Record> {
    SessionQuery::count_by_categorical("pair", PAIR_BIN_FIELD, bins)
}

/// A release session: the single audited path from data + policy + budget to
/// noisy histograms. See the crate docs for the full contract.
pub struct OsdpSession<R = Record> {
    source: Source<R>,
    policy_label: Arc<str>,
    accountant: BudgetAccountant,
    seeds: SeedSequence,
    audit: AuditLog,
    /// The durable write-ahead ledger hook, when the session was built with
    /// [`SessionBuilder::durable`]. Grants are logged after the
    /// accountant's CAS admits them and before sampling.
    wal: Option<SessionWal>,
    /// Distinct (label, policy) pairs used by record-level releases, in first
    /// use order — the components of the composed minimum relaxation. Reads
    /// (the common case) share the lock; only a release under a *new*
    /// override policy writes.
    policies: RwLock<UsedPolicies<R>>,
    /// Derived-task cache: one backend scan per distinct (query, policy,
    /// backend) identity, shared by every release path. Hash-sharded, so
    /// concurrent derivations of distinct queries never serialize.
    tasks: TaskCache<R>,
    /// Interned policy labels of override releases and epoch transitions.
    labels: Interner,
    /// Interned RNG stream labels (`release/<mechanism>`), so single
    /// releases stop paying a `format!` each.
    stream_labels: Interner,
}

impl<R> std::fmt::Debug for OsdpSession<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OsdpSession")
            .field("policy_label", &self.policy_label)
            .field("spent", &self.accountant.total_spent())
            .field("limit", &self.accountant.limit())
            .field("releases", &self.audit.len())
            .finish()
    }
}

impl<R> OsdpSession<R> {
    /// Shorthand for [`SessionBuilder::new`].
    pub fn builder(db: Database<R>) -> SessionBuilder<R> {
        SessionBuilder::new(db)
    }

    /// The label of the bound policy.
    pub fn policy_label(&self) -> &str {
        &self.policy_label
    }

    /// The session's budget accountant.
    pub fn accountant(&self) -> &BudgetAccountant {
        &self.accountant
    }

    /// The session's audit log — shard-length probes
    /// ([`AuditLog::shard_lens`]) and allocation-reusing snapshots
    /// ([`AuditLog::records_into`], [`AuditLog::ledger_with`]) for sweeps
    /// over many sessions.
    pub fn audit_log(&self) -> &AuditLog {
        &self.audit
    }

    /// The durable WAL handle, when the session was built with
    /// [`SessionBuilder::durable`] (sync, snapshot rotation, crash
    /// simulation); `None` for a purely in-memory session.
    pub fn persistence(&self) -> Option<&SessionWal> {
        self.wal.as_ref()
    }

    /// Total ε spent so far.
    pub fn total_spent(&self) -> f64 {
        self.accountant.total_spent()
    }

    /// Remaining budget, or `None` for an uncapped session.
    pub fn remaining_budget(&self) -> Option<f64> {
        self.accountant.remaining()
    }

    /// The composed guarantee of everything released so far (Theorem 3.3):
    /// total ε and the labels of the policies whose minimum relaxation the
    /// guarantee refers to. The labels come from the audit log — the ledger
    /// of record — in first-use order ([`AuditLog::policy_labels`]), so a
    /// recovered durable session lists its pre-crash policies too.
    pub fn composed_guarantee(&self) -> (f64, Vec<String>) {
        (self.accountant.total_spent(), self.audit.policy_labels())
    }

    /// The minimum relaxation of every policy used by record-level releases
    /// in this session (Definition 3.6) — the policy the composed guarantee
    /// of Theorem 3.3 refers to. Empty (all-sensitive) for histogram-backed
    /// sessions, whose policies exist only as sampled sub-histograms.
    pub fn composed_policy(&self) -> MinimumRelaxation<R> {
        MinimumRelaxation::new(self.policies.read().iter().map(|(_, p)| Arc::clone(p)).collect())
    }

    /// A snapshot of the audit log. O(n) — merged from the log's shard
    /// buffers into release order; use [`OsdpSession::audit_len`] /
    /// [`OsdpSession::audit_total_epsilon`] for hot-path probes.
    pub fn audit_records(&self) -> Vec<AuditRecord> {
        self.audit.records()
    }

    /// Number of audited releases — one atomic load, never contends with
    /// concurrent appenders.
    pub fn audit_len(&self) -> usize {
        self.audit.len()
    }

    /// Total ε across every audited release — one atomic load (the
    /// iteration-free ledger total, see [`AuditLog::total_epsilon`]).
    /// Accumulated in the accountant's fixed-point units, so for any session
    /// it equals [`OsdpSession::total_spent`] **bit for bit** — every grant
    /// is audited and both sides convert the same f64 ε with the same
    /// ceiling rounding.
    pub fn audit_total_epsilon(&self) -> f64 {
        self.audit.total_epsilon()
    }

    /// The audit ε total in raw fixed-point units, comparable integer-for-
    /// integer with `self.accountant().total_spent_units()`.
    pub fn audit_total_epsilon_units(&self) -> u64 {
        self.audit.total_epsilon_units()
    }

    /// The audit log's ledger view, consumable by
    /// `osdp_attack::verify_ledger`.
    pub fn audit_ledger(&self) -> Vec<osdp_core::budget::LedgerEntry> {
        self.audit.ledger()
    }

    /// The audit log as JSON.
    pub fn audit_json(&self) -> String {
        self.audit.to_json()
    }

    /// Drops every cached derived task. The cache assumes the data behind
    /// the backend is immutable; a source that *does* change (the streaming
    /// plane swaps the current window behind its backend) must invalidate
    /// at the mutation point, or a reused query value could be served a
    /// task derived from the previous data.
    pub(crate) fn invalidate_task_cache(&self) {
        self.tasks.clear();
    }

    /// Derives the [`HistogramTask`] for `query` under the bound policy: the
    /// full histogram and the sub-histogram of records the policy classifies
    /// as non-sensitive, computed by the bound [`Backend`]. This is the
    /// **only** place outside mechanism tests where tasks are constructed,
    /// which is what keeps `x_ns` consistent with `P` across the workspace.
    ///
    /// Served through the session's task cache: repeated derivations of the
    /// same query under the bound policy run **one** backend scan.
    pub fn derive_task(&self, query: &SessionQuery<R>) -> Result<HistogramTask> {
        Ok((*self.task_under(query, self.current_epoch())?).clone())
    }

    /// The epoch currently in force for a record-backed session — one
    /// atomic load, no lock. `None` for histogram-backed sessions (fixed
    /// sampled policy, no lifecycle).
    fn current_epoch(&self) -> Option<&EpochState<R>> {
        match &self.source {
            Source::Records { epoch, .. } => Some(epoch.current()),
            Source::Bound { .. } => None,
        }
    }

    /// The cache-aware task derivation behind every query release, pinned
    /// to an **explicit** epoch (`None` for histogram-backed sessions), so
    /// a transition racing the release can never tear the (policy, version)
    /// pair. Keyed by the identities that determine the scan result (query
    /// closure, policy, backend) **plus the epoch version**, so a
    /// transition can never serve a pre-transition task to a
    /// post-transition release; mismatched source/query combinations fall
    /// through to the scan path, which reports the precise error.
    fn task_under(
        &self,
        query: &SessionQuery<R>,
        epoch: Option<&EpochState<R>>,
    ) -> Result<Arc<HistogramTask>> {
        match (&self.source, query, epoch) {
            (Source::Bound { task }, SessionQuery::Bound, _) => Ok(Arc::clone(task)),
            (
                Source::Records { backend, .. },
                SessionQuery::CountBy { bins, bin_of, spec, .. },
                Some(e),
            ) => self.tasks.get_or_derive(
                TaskIdentity {
                    bins: *bins,
                    bin_of,
                    spec: spec.as_ref(),
                    policy: &e.policy,
                    policy_version: e.version,
                    backend,
                },
                || self.scan_under(query, Some(&e.policy), &e.label, e.version)?.into_task(),
            ),
            _ => self.scan_under(query, None, &self.policy_label, 0)?.into_task().map(Arc::new),
        }
    }

    /// Runs the backend scan for `query` under the current-epoch policy,
    /// returning the raw [`HistogramPair`] — including the weight of records
    /// the query dropped, which [`OsdpSession::derive_task`] discards.
    pub fn scan(&self, query: &SessionQuery<R>) -> Result<HistogramPair> {
        match self.current_epoch() {
            Some(e) => self.scan_under(query, Some(&e.policy), &e.label, e.version),
            None => self.scan_under(query, None, &self.policy_label, 0),
        }
    }

    fn scan_under(
        &self,
        query: &SessionQuery<R>,
        policy_override: Option<&Arc<dyn Policy<R>>>,
        policy_label: &str,
        policy_version: u64,
    ) -> Result<HistogramPair> {
        match (&self.source, query) {
            (Source::Bound { task }, SessionQuery::Bound) => Ok(HistogramPair {
                full: task.full().clone(),
                non_sensitive: task.non_sensitive().clone(),
                dropped: 0.0,
            }),
            (Source::Bound { .. }, SessionQuery::CountBy { .. }) => Err(OsdpError::InvalidInput(
                "histogram-backed sessions only answer SessionQuery::Bound".into(),
            )),
            (Source::Records { .. }, SessionQuery::Bound) => Err(OsdpError::InvalidInput(
                "record-backed sessions need a SessionQuery::CountBy query".into(),
            )),
            (
                Source::Records { backend, epoch },
                SessionQuery::CountBy { label, bins, bin_of, spec },
            ) => {
                let policy = policy_override.unwrap_or_else(|| &epoch.current().policy);
                let plan = QueryPlan {
                    label: label.clone(),
                    bins: *bins,
                    bin_of: Arc::clone(bin_of),
                    bin_spec: spec.clone(),
                    policy: Arc::clone(policy),
                    policy_label: policy_label.to_string(),
                    policy_version,
                };
                backend.scan(&plan)
            }
        }
    }

    /// Releases one noisy histogram through `mechanism`.
    ///
    /// The accountant is debited **before** sampling; on
    /// [`OsdpError::BudgetExhausted`] nothing is sampled, nothing is logged,
    /// and nothing may be published.
    pub fn release(
        &self,
        query: &SessionQuery<R>,
        mechanism: &dyn HistogramMechanism,
    ) -> Result<Release> {
        self.release_one(query.label(), Derive::Epoch(&|e| self.task_under(query, e)), mechanism)
    }

    /// Releases under a *different* policy than the one bound at
    /// construction. The session tracks the minimum relaxation of every
    /// policy used (Theorem 3.3); see [`OsdpSession::composed_policy`].
    /// Record-backed sessions only.
    ///
    /// Override releases bypass both the task cache and the epoch protocol:
    /// their records stamp whatever version is in force, but are never
    /// relabelled or re-derived.
    pub fn release_with_policy(
        &self,
        query: &SessionQuery<R>,
        mechanism: &dyn HistogramMechanism,
        policy: Arc<dyn Policy<R>>,
        label: impl Into<String>,
    ) -> Result<Release> {
        if matches!(self.source, Source::Bound { .. }) {
            return Err(OsdpError::InvalidInput(
                "histogram-backed sessions have a fixed sampled policy".into(),
            ));
        }
        let label = self.labels.get(&label.into());
        let version = self.audit.current_version();
        let task = self.scan_under(query, Some(&policy), &label, version)?.into_task()?;
        let fixed = Derive::Fixed { input: &task, label, policy: Some(policy) };
        self.release_one(query.label(), fixed, mechanism)
    }

    /// Releases an **externally derived** task through the session's full
    /// accounting machinery: the accountant is debited before sampling
    /// (refusals sample nothing and log nothing), the release is appended to
    /// the audit log under `label`, and the noise stream is the same
    /// `(seed, "release/<mechanism>", release index)` stream
    /// [`OsdpSession::release`] uses — so a task equal to what a backend
    /// scan would have derived produces a bitwise-identical estimate.
    ///
    /// This is the continual-observation extension point: the streaming
    /// plane ([`crate::stream::StreamSession`]) aggregates policy-derived
    /// per-window tasks into binary-tree nodes and releases them here.
    /// **The caller owns the task's provenance** — it must have been derived
    /// under this session's policy regime (summing per-window `(x, x_ns)`
    /// pairs preserves the domination invariant, which
    /// [`HistogramTask::new`] re-validates on construction). An epoch race
    /// cannot re-derive an external task, so the record is stamped with the
    /// version in force at its index under the current epoch's label; the
    /// streaming plane meets its provenance obligation across transitions
    /// by invalidating window tasks at the transition point.
    pub fn release_task(
        &self,
        label: &str,
        task: &HistogramTask,
        mechanism: &dyn HistogramMechanism,
    ) -> Result<Release> {
        let fixed = Derive::Fixed { input: task, label: self.current_policy_label(), policy: None };
        self.release_one(label, fixed, mechanism)
    }

    /// The sampling tail shared by every single release — one-shot,
    /// override and task-level alike: grant, then sample on the `(seed,
    /// "release/<mechanism>", index)` stream. Keeping them on one function
    /// is what keeps the stream plane's bitwise-parity contract with the
    /// one-shot oracle honest.
    fn release_one<T: GrantInput + std::ops::Deref<Target = HistogramTask>>(
        &self,
        query: &str,
        derive: Derive<'_, R, T>,
        mechanism: &dyn HistogramMechanism,
    ) -> Result<Release> {
        let guarantee = mechanism.guarantee();
        let (index, policy, task) = self.grant(
            query,
            derive,
            &[(mechanism.name(), guarantee)],
            1,
            |index, label, task| (index, label.to_string(), task),
        )?;
        // Interned stream label: same content as the historical
        // `format!("release/{name}")`, built once per mechanism name.
        let stream =
            self.stream_labels.get_with(mechanism.name(), |name| format!("release/{name}"));
        let mut rng = self.seeds.rng_for(&stream, index);
        let mut estimate = Histogram::zeros(0);
        mechanism.release_into(&task, &mut rng, &mut estimate);
        Ok(Release { estimate, mechanism: mechanism.name().to_string(), policy, guarantee, index })
    }

    /// The one grant path every release takes before sampling. Sequential
    /// composition (Theorem 3.3) requires the debit to precede the sample,
    /// and the guarantee refers to the policies actually spent under:
    ///
    /// 1. capture the epoch once (one atomic load, no lock) and derive the
    ///    input under it;
    /// 2. admit every debit (`ε × trials` each) with **one** CAS on the
    ///    accountant's fixed-point units — the sum of per-debit
    ///    conversions, the same integer the audit log and the WAL
    ///    accumulate. A refusal is logged to the WAL (best-effort: it
    ///    spends nothing) and nothing is stamped or sampled;
    /// 3. per debit, in order: stamp the release (index and version from
    ///    one atomic add); if a transition raced in since the capture,
    ///    relabel it to the stamped epoch — installed before the counter
    ///    bump, so always resolvable; append its audit row (the thread's
    ///    own shard mutex, no `Arc` clone on a warm key); re-derive under
    ///    the stamped epoch when relabelled (shared through the
    ///    version-keyed cache); then log the grant to the WAL. A WAL
    ///    failure refuses the release with the ε still spent and audited —
    ///    a sample must never outrun its durable record.
    ///
    /// `granted` receives each debit's `(index, policy label, input)` for
    /// the caller to sample from; the grant returns what it returned for
    /// the last debit.
    fn grant<T: GrantInput, G>(
        &self,
        query: &str,
        derive: Derive<'_, R, T>,
        debits: &[(&str, Guarantee)],
        trials: usize,
        mut granted: impl FnMut(u64, &Arc<str>, T) -> G,
    ) -> Result<G> {
        if trials == 0 || debits.is_empty() {
            return Err(OsdpError::InvalidInput(
                "a release needs at least one mechanism and trials >= 1".into(),
            ));
        }
        let captured = self.current_epoch();
        let (input, label, rederive, new_policy) = match derive {
            Derive::Epoch(derive) => {
                let label = captured.map_or(&self.policy_label, |e| &e.label);
                let rederive = captured.map(|e| (derive, e.version));
                (derive(captured)?, Arc::clone(label), rederive, None)
            }
            Derive::Fixed { input, label, policy } => (input, label, None, policy),
        };
        let (units, requested) = debit_units(debits.iter().map(|&(_, g)| g), trials)?;
        if let Err(err) = self.accountant.spend_units(units, requested) {
            if let Some(wal) = &self.wal {
                let _ = match debits {
                    [(mechanism, _)] => wal.log_refusal(mechanism, requested),
                    _ => wal.log_refusal(&format!("pool[{}]", debits.len()), requested),
                };
            }
            return Err(err);
        }
        if let Some(policy) = new_policy {
            self.remember_policy(&label, policy);
        }
        let mut last = None;
        for &(mechanism, guarantee) in debits {
            let (index, version) = self.audit.next_stamp();
            let mut stamped = None;
            if let (Some((_, captured)), Source::Records { epoch, .. }) = (rederive, &self.source) {
                if version != captured {
                    stamped = epoch.state(version);
                }
            }
            let policy = stamped.as_ref().map_or(&label, |state| &state.label);
            let key =
                AuditKeyRef { mechanism, policy, query, bins: input.bins(), trials, guarantee };
            self.audit.push_row(index, version, key, key.units());
            let input = match (&stamped, rederive) {
                (Some(state), Some((derive, _))) => derive(Some(state))?,
                _ => input.clone(),
            };
            if let Some(wal) = &self.wal {
                wal.log_grant(GrantEvent {
                    index,
                    mechanism,
                    policy,
                    query,
                    bins: input.bins(),
                    trials,
                    guarantee,
                    policy_version: version,
                })?;
            }
            last = Some(granted(index, policy, input));
        }
        Ok(last.expect("debits checked non-empty"))
    }

    /// Releases `trials` independent estimates of the same query, one trial
    /// per core (rayon). The batch costs `trials × ε` under sequential
    /// composition (Theorem 3.3) and is debited **up front**: either the
    /// whole batch is granted or none of it is.
    ///
    /// Per-trial RNG streams are derived from `(session seed, release index,
    /// trial index)`, so the output is identical to
    /// [`OsdpSession::release_trials_serial`] regardless of thread schedule.
    pub fn release_trials(
        &self,
        query: &SessionQuery<R>,
        mechanism: &dyn HistogramMechanism,
        trials: usize,
    ) -> Result<Vec<Histogram>> {
        let pool = self.release_pool(query, &[mechanism], trials)?;
        Ok(pool.into_iter().next().map(|release| release.estimates).unwrap_or_default())
    }

    /// The sequential reference path for [`OsdpSession::release_trials`]:
    /// identical accounting, audit record and output, one trial at a time
    /// through the scalar [`HistogramMechanism::release`] oracle. Kept for
    /// benchmarking and as the bitwise-parity baseline of the buffer-reuse
    /// batch path.
    pub fn release_trials_serial(
        &self,
        query: &SessionQuery<R>,
        mechanism: &dyn HistogramMechanism,
        trials: usize,
    ) -> Result<Vec<Histogram>> {
        let debit = [(mechanism.name(), mechanism.guarantee())];
        let derive = Derive::Epoch(&|e| self.task_under(query, e));
        let (index, task) =
            self.grant(query.label(), derive, &debit, trials, |index, _, task| (index, task))?;
        let stream = format!("trials/{index}/{}", mechanism.name());
        Ok((0..trials as u64)
            .map(|trial| {
                let mut rng = self.seeds.rng_for(&stream, trial);
                mechanism.release(&task, &mut rng)
            })
            .collect())
    }

    /// Releases `trials` estimates of the same query through **every**
    /// mechanism of a pool, amortizing the per-mechanism fixed costs across
    /// the whole pool:
    ///
    /// * **one backend scan** — the task is derived once (served by the task
    ///   cache) and shared by all `pool.len() × trials` releases;
    /// * **one atomic grant** — a single CAS on the accountant debits every
    ///   mechanism, all-or-nothing: if the remaining budget cannot cover the
    ///   entire pool batch, nothing is spent, logged or sampled;
    /// * one rayon fan-out over all `(mechanism, trial)` pairs, writing into
    ///   a preallocated arena.
    ///
    /// Accounting, audit records and estimates are identical (bitwise, for
    /// the estimates) to calling [`OsdpSession::release_trials`] once per
    /// mechanism in pool order — this is the batch form pool experiments
    /// (Section 6.3.3.2's regret analysis) should use.
    pub fn release_pool(
        &self,
        query: &SessionQuery<R>,
        pool: &[&dyn HistogramMechanism],
        trials: usize,
    ) -> Result<Vec<PoolRelease>> {
        let debits: Vec<(&str, Guarantee)> =
            pool.iter().map(|m| (m.name(), m.guarantee())).collect();
        // Per-mechanism tasks: identical Arcs in the steady state; a
        // transition racing the batch re-derives the affected suffix of the
        // pool under its stamped epoch.
        let mut granted = Vec::with_capacity(pool.len());
        let derive = Derive::Epoch(&|e| self.task_under(query, e));
        self.grant(query.label(), derive, &debits, trials, |index, _, task| {
            granted.push((index, task))
        })?;

        // Streams are keyed by `(release index, mechanism)`, so the pool
        // batch reproduces the sequential per-mechanism loop bitwise.
        let streams: Vec<String> = pool
            .iter()
            .zip(&granted)
            .map(|(mechanism, (index, _))| format!("trials/{index}/{}", mechanism.name()))
            .collect();
        // Preallocated output arena: every estimate's buffer exists before
        // the first worker runs, and each worker fills its slot through the
        // buffer-reuse path (per-thread mechanism scratch included).
        let mut arenas: Vec<Vec<Histogram>> =
            granted.iter().map(|(_, task)| vec![Histogram::zeros(task.bins()); trials]).collect();
        let slots: Vec<(usize, u64, &mut Histogram)> = arenas
            .iter_mut()
            .enumerate()
            .flat_map(|(mech, arena)| {
                arena.iter_mut().enumerate().map(move |(trial, slot)| (mech, trial as u64, slot))
            })
            .collect();
        let seeds = &self.seeds;
        slots.into_par_iter().for_each(|(mech, trial, slot)| {
            let mut rng = seeds.rng_for(&streams[mech], trial);
            pool[mech].release_into(&granted[mech].1, &mut rng, slot);
        });

        Ok(pool
            .iter()
            .zip(debits)
            .zip(granted)
            .zip(arenas)
            .map(|(((mechanism, (_, guarantee)), (index, _)), estimates)| PoolRelease {
                mechanism: mechanism.name().to_string(),
                index,
                guarantee,
                estimates,
            })
            .collect())
    }

    /// Transitions the session to a new policy epoch — the **slow path** of
    /// the policy lifecycle (releases never take it).
    ///
    /// The transition is registered in the core lifecycle registry
    /// ([`VersionedPolicy`]) with its declared [`EpochDirection`] (opt-out
    /// and decay **tighten**; consent **relaxes**), the new epoch is
    /// installed and the packed audit counter bumped — in that order, so the
    /// epoch for any version a release ever observes is already resolvable —
    /// then the derived-task and backend partition caches are atomically
    /// invalidated and the transition is logged to the WAL (when durable) as
    /// an epoch record. Returns the transition's audit metadata: its version
    /// and its **boundary sequence number** (releases with index ≥ boundary
    /// are stamped with the new version; earlier ones are not).
    ///
    /// Record-backed sessions only: histogram-backed sessions carry their
    /// policy as the sampled `x_ns`, which has no lifecycle.
    ///
    /// # Errors
    ///
    /// Fails without side effects when the session is histogram-backed or
    /// the 16-bit version space (65 535 transitions) is exhausted. A WAL
    /// write failure is reported **after** the in-memory transition is live:
    /// the new epoch is in force but not yet durable — harmless for
    /// tightenings (recovery under-claims), surfaced so callers of a
    /// relaxation can refuse to serve until the log heals.
    pub fn set_policy_epoch(
        &self,
        policy: Arc<dyn Policy<R>>,
        label: impl Into<String>,
        direction: EpochDirection,
    ) -> Result<EpochTransition> {
        let Source::Records { backend, epoch } = &self.source else {
            return Err(OsdpError::InvalidInput(
                "histogram-backed sessions have a fixed sampled policy; epoch \
                 transitions need a record-backed session"
                    .into(),
            ));
        };
        let label = self.labels.get(&label.into());
        // Transitions serialize on the history lock, so the capacity check
        // cannot race another bump.
        let mut history = epoch.history.lock();
        if self.audit.current_version() >= AuditLog::MAX_VERSION {
            return Err(OsdpError::InvalidInput(
                "policy epoch version space exhausted (65535 transitions)".into(),
            ));
        }
        // 1. Register in the core lifecycle: tighten/relax ordering and the
        //    cross-version minimum relaxation.
        let registry_index =
            history.registry.transition(Arc::clone(&policy), Arc::clone(&label), direction);
        let version = history.base_version + registry_index;
        // 2. Install the new state and swap the pointer BEFORE bumping the
        //    counter: any (index, version) the counter hands out afterwards
        //    can already resolve its epoch.
        let state = Arc::new(EpochState {
            policy: Arc::clone(&policy),
            label: Arc::clone(&label),
            version,
        });
        let ptr = Arc::as_ptr(&state) as *mut EpochState<R>;
        history.states.push(state);
        epoch.current.store(ptr, Ordering::Release);
        // 3. Bump the packed counter: the boundary index is exact — stamps
        //    split at it with no torn window.
        let (bumped, boundary_seq) = self.audit.bump_version()?;
        debug_assert_eq!(bumped, version, "registry and audit version numbering agree");
        // 4. Atomically invalidate everything derived under earlier epochs:
        //    the version-keyed task cache and the backend's policy-partition
        //    cache. In-flight scans finish with the Arcs they hold (pure
        //    caches — entries are recomputed, never wrong).
        self.tasks.clear();
        backend.invalidate_partitions();
        // 5. The new policy joins the composed minimum relaxation
        //    (Theorem 3.3 spans every policy the session released under).
        self.remember_policy(&label, policy);
        let transition = EpochTransition {
            version,
            boundary_seq,
            relaxes: matches!(direction, EpochDirection::Relax),
            label: label.to_string(),
        };
        history.transitions.push(transition.clone());
        drop(history);
        // 6. Durable hook: recovery replays epoch records into the exact
        //    version history (bit-for-bit, including boundaries).
        if let Some(wal) = &self.wal {
            wal.log_epoch_transition(&EpochRecord {
                version,
                boundary_seq,
                relaxes: transition.relaxes,
                label: transition.label.clone(),
            })?;
        }
        Ok(transition)
    }

    /// The policy version currently in force — the high bits of the packed
    /// audit counter. `0` for sessions that never transitioned.
    pub fn policy_version(&self) -> u64 {
        self.audit.current_version()
    }

    /// The label of the policy epoch currently in force (the bound label
    /// until the first [`OsdpSession::set_policy_epoch`]).
    pub fn current_policy_label(&self) -> Arc<str> {
        match self.current_epoch() {
            Some(e) => Arc::clone(&e.label),
            None => Arc::clone(&self.policy_label),
        }
    }

    /// Every epoch transition this session has performed **or recovered**,
    /// in version order — the history half of the stale-policy audit
    /// ([`osdp_attack::verify_epoch_stamps`]). Empty for histogram-backed
    /// and never-transitioned sessions.
    pub fn epoch_transitions(&self) -> Vec<EpochTransition> {
        match &self.source {
            Source::Records { epoch, .. } => epoch.history.lock().transitions.clone(),
            Source::Bound { .. } => Vec::new(),
        }
    }

    /// The `(sequence number, stamped policy version)` pair of every audited
    /// release — the stamp half of the stale-policy audit.
    pub fn release_stamps(&self) -> Vec<ReleaseStamp> {
        self.audit.release_stamps()
    }

    /// Runs the full versioned ledger audit over this session's own records:
    /// budget conservation ([`osdp_attack::verify_ledger`]) plus the
    /// stale-policy and stamp-monotonicity checks. A session whose verdict
    /// fails [`osdp_attack::LedgerVerdict::upholds_osdp`] served a release
    /// it should not have.
    pub fn verify_policy_lifecycle(&self, limit: Option<f64>) -> osdp_attack::LedgerVerdict {
        let (ledger, stamps) = self.audit.ledger_and_stamps_with(&mut Vec::new());
        osdp_attack::verify_ledger_versioned(&ledger, limit, &stamps, &self.epoch_transitions())
    }

    /// The minimum relaxation across the session's **epoch history**
    /// (Definition 3.6 applied over time): the policy a guarantee composed
    /// across transitions refers to. All-sensitive (empty) for
    /// histogram-backed sessions.
    pub fn lifecycle_minimum_relaxation(&self) -> MinimumRelaxation<R> {
        match &self.source {
            Source::Records { epoch, .. } => epoch.history.lock().registry.minimum_relaxation(),
            Source::Bound { .. } => MinimumRelaxation::new(Vec::new()),
        }
    }

    fn remember_policy(&self, label: &str, policy: Arc<dyn Policy<R>>) {
        let mut policies = self.policies.write();
        // Dedup by policy *identity*: two distinct policies registered under
        // one label must both enter the composed minimum relaxation
        // (dropping either would over-claim protection).
        if !policies.iter().any(|(_, p)| Arc::ptr_eq(p, &policy)) {
            policies.push((label.to_string(), policy));
        }
    }
}

impl<R: Clone> OsdpSession<R> {
    /// Releases a **true sample** of the non-sensitive records through
    /// `OsdpRR` (Algorithm 1) — the record-level front door. Debits ε and
    /// audits like every other release. Record-backed sessions only.
    pub fn release_records(&self, mechanism: &OsdpRr) -> Result<Database<R>> {
        let Source::Records { backend, epoch } = &self.source else {
            return Err(OsdpError::InvalidInput(
                "release_records needs a record-backed session".into(),
            ));
        };
        let Some(db) = backend.database() else {
            return Err(OsdpError::InvalidInput(
                "this backend retains no records (frame-backed sessions answer \
                 histogram queries only)"
                    .into(),
            ));
        };
        // The sample is drawn under the stamped epoch's policy, so a
        // transition racing the grant swaps the policy, matching the stamp.
        let derive =
            Derive::Epoch(&|e| Ok(Arc::clone(&e.unwrap_or_else(|| epoch.current()).policy)));
        let debit = [("OsdpRR (records)", Guarantee::Osdp { eps: mechanism.epsilon() })];
        let (index, policy) =
            self.grant("record-sample", derive, &debit, 1, |index, _, policy| (index, policy))?;
        let mut rng = self.seeds.rng_for("release-records/OsdpRR", index);
        Ok(mechanism.release(db, policy.as_ref(), &mut rng))
    }

    /// Number of records in a record-backed session's backend.
    pub fn database_len(&self) -> Option<usize> {
        match &self.source {
            Source::Records { backend, .. } => Some(backend.len()),
            Source::Bound { .. } => None,
        }
    }

    /// The name of the bound scan backend (`"row"`, `"columnar"`, …), or
    /// `None` for histogram-backed sessions.
    pub fn backend_name(&self) -> Option<&'static str> {
        match &self.source {
            Source::Records { backend, .. } => Some(backend.name()),
            Source::Bound { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osdp_core::policy::ClosurePolicy;
    use osdp_core::OsdpError;
    use osdp_mechanisms::{DpLaplaceHistogram, OsdpLaplace, OsdpLaplaceL1, Suppress};

    fn codes_db(n: u32) -> Database<u32> {
        (0..n).collect()
    }

    /// Values >= 50 are sensitive.
    fn upper_half() -> ClosurePolicy<u32> {
        ClosurePolicy::new("upper-half", |&v: &u32| v >= 50)
    }

    fn mod8_query() -> SessionQuery<u32> {
        SessionQuery::count_by("mod8", 8, |&v: &u32| Some((v % 8) as usize))
    }

    fn records_session(budget: Option<f64>) -> OsdpSession<u32> {
        let mut b = SessionBuilder::new(codes_db(100)).policy(upper_half(), "P50").seed(7);
        if let Some(eps) = budget {
            b = b.budget(eps);
        }
        b.build().unwrap()
    }

    #[test]
    fn builder_requires_a_policy_for_record_sessions() {
        let err = SessionBuilder::new(codes_db(10)).build().unwrap_err();
        assert!(matches!(err, OsdpError::InvalidInput(_)));
    }

    #[test]
    fn builder_validates_bound_histograms() {
        let full = Histogram::from_counts(vec![1.0, 2.0]);
        let bad_ns = Histogram::from_counts(vec![5.0, 0.0]);
        assert!(SessionBuilder::<Record>::from_histograms(full.clone(), bad_ns).build().is_err());
        let short = Histogram::zeros(1);
        assert!(SessionBuilder::<Record>::from_histograms(full, short).build().is_err());
    }

    #[test]
    fn task_derivation_matches_the_bound_policy() {
        let session = records_session(None);
        let task = session.derive_task(&mod8_query()).unwrap();
        // 100 codes over 8 bins; values < 50 are non-sensitive.
        assert_eq!(task.full().total(), 100.0);
        assert_eq!(task.non_sensitive().total(), 50.0);
        assert!(task.non_sensitive().dominated_by(task.full()).unwrap());
    }

    #[test]
    fn release_debits_before_sampling_and_audits() {
        let session = records_session(Some(1.0));
        let mechanism = OsdpLaplaceL1::new(0.75).unwrap();
        let release = session.release(&mod8_query(), &mechanism).unwrap();
        assert_eq!(release.estimate.len(), 8);
        assert_eq!(release.policy, "P50");
        assert!((session.total_spent() - 0.75).abs() < 1e-12);
        assert_eq!(session.audit_records().len(), 1);
        assert_eq!(&*session.audit_records()[0].query, "mod8");

        // The second release would need 0.75 > 0.25 remaining: refused, not
        // sampled, not logged.
        let err = session.release(&mod8_query(), &mechanism).unwrap_err();
        assert!(matches!(err, OsdpError::BudgetExhausted { .. }));
        assert_eq!(session.audit_records().len(), 1);
        assert!((session.total_spent() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn trials_are_debited_up_front_and_deterministic_across_schedules() {
        let session = records_session(None);
        let mechanism = OsdpLaplace::new(0.5).unwrap();
        let par = session.release_trials(&mod8_query(), &mechanism, 8).unwrap();
        // A fresh session with the same seed: the serial path must reproduce
        // the parallel output exactly (streams keyed by trial index).
        let session2 = records_session(None);
        let serial = session2.release_trials_serial(&mod8_query(), &mechanism, 8).unwrap();
        assert_eq!(par, serial);
        assert!((session.total_spent() - 8.0 * 0.5).abs() < 1e-12);
        let audit = session.audit_records();
        assert_eq!(audit.len(), 1);
        assert_eq!(audit[0].trials, 8);
        assert!((audit[0].total_epsilon() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn release_pool_matches_the_sequential_trials_loop() {
        let pool_mechs: Vec<Box<dyn HistogramMechanism>> = vec![
            Box::new(OsdpLaplace::new(0.5).unwrap()),
            Box::new(OsdpLaplaceL1::new(1.0).unwrap()),
            Box::new(DpLaplaceHistogram::new(0.25).unwrap()),
        ];
        let pool: Vec<&dyn HistogramMechanism> = pool_mechs.iter().map(|b| b.as_ref()).collect();

        let batched = records_session(None);
        let releases = batched.release_pool(&mod8_query(), &pool, 4).unwrap();

        let sequential = records_session(None);
        for (mechanism, release) in pool.iter().zip(&releases) {
            let expected = sequential.release_trials(&mod8_query(), mechanism, 4).unwrap();
            assert_eq!(release.estimates, expected, "{}", release.mechanism);
            assert_eq!(release.mechanism, mechanism.name());
        }
        // Same accounting: identical spend, identical ledger and audit shape.
        assert_eq!(batched.total_spent(), sequential.total_spent());
        assert_eq!(batched.audit_ledger(), sequential.audit_ledger());
        assert_eq!(batched.audit_records(), sequential.audit_records());
        assert_eq!(releases[2].index, 2);
        assert_eq!(releases[1].guarantee.epsilon(), 1.0);
    }

    #[test]
    fn release_pool_is_all_or_nothing() {
        // Pool batch cost: (0.3 + 0.2) * 2 = 1.0 > 0.9 -> refused whole.
        let session = records_session(Some(0.9));
        let a = OsdpLaplace::new(0.3).unwrap();
        let b = OsdpLaplaceL1::new(0.2).unwrap();
        let pool: Vec<&dyn HistogramMechanism> = vec![&a, &b];
        let err = session.release_pool(&mod8_query(), &pool, 2).unwrap_err();
        assert!(matches!(err, OsdpError::BudgetExhausted { .. }));
        assert_eq!(session.total_spent(), 0.0, "nothing debited");
        assert!(session.audit_records().is_empty(), "nothing logged");
        // A fitting batch is granted in full. (0.2 quantizes one ceiling
        // unit above its decimal, so the debit may over-state the batch by
        // a unit or two — never under-state it.)
        assert!(session.release_pool(&mod8_query(), &pool, 1).is_ok());
        assert!(session.total_spent() >= 0.5);
        assert!(session.total_spent() < 0.5 + 1e-11);
        // Degenerate arguments are rejected.
        assert!(session.release_pool(&mod8_query(), &pool, 0).is_err());
        assert!(session.release_pool(&mod8_query(), &[], 1).is_err());
    }

    #[test]
    fn task_cache_derives_each_query_once() {
        let session = records_session(None);
        let query = mod8_query();
        let first = session.derive_task(&query).unwrap();
        assert_eq!(session.tasks.len(), 1);
        // Same query value (shared closure Arc): served from cache.
        assert_eq!(session.derive_task(&query.clone()).unwrap(), first);
        assert_eq!(session.tasks.len(), 1);
        // A release through the same query reuses the entry too.
        session.release(&query, &OsdpLaplaceL1::new(1.0).unwrap()).unwrap();
        assert_eq!(session.tasks.len(), 1);
        // A distinct closure allocation is a distinct identity.
        let other = mod8_query();
        assert_eq!(session.derive_task(&other).unwrap(), first);
        assert_eq!(session.tasks.len(), 2);
    }

    #[test]
    fn task_cache_distinguishes_spec_divergent_queries() {
        // A hand-built query can pair an existing bin closure Arc with a
        // *different* compiled spec; columnar backends scan through the spec,
        // so the cache must not serve one query the other's task.
        use osdp_core::frame::BinSpec;
        use osdp_core::policy::AttributePolicy;
        use osdp_core::Value;
        let db: Database<Record> =
            (0..100).map(|i| Record::builder().field("v", Value::Int(i)).build()).collect();
        let session = SessionBuilder::new(db)
            .columnar()
            .policy(AttributePolicy::int_at_most("v", 49), "lower")
            .seed(1)
            .build()
            .unwrap();
        let narrow = SessionQuery::count_by_int_linear("q", "v", 0, 50, 2);
        let SessionQuery::CountBy { label, bins, bin_of, .. } = narrow.clone() else {
            unreachable!()
        };
        // Same closure allocation, different spec: bins 0..99 all land in
        // bin 0 under width 100 instead of splitting 50/50.
        let divergent = SessionQuery::CountBy {
            label,
            bins,
            bin_of,
            spec: Some(BinSpec::IntLinear { field: "v".into(), origin: 0, width: 100 }),
        };
        let a = session.derive_task(&narrow).unwrap();
        let b = session.derive_task(&divergent).unwrap();
        assert_eq!(a.full().counts(), &[50.0, 50.0]);
        assert_eq!(b.full().counts(), &[100.0, 0.0]);
        assert_eq!(session.tasks.len(), 2, "one entry per spec identity");
    }

    #[test]
    fn exhausted_budget_refuses_the_whole_batch() {
        let session = records_session(Some(1.0));
        let mechanism = OsdpLaplace::new(0.3).unwrap();
        let err = session.release_trials(&mod8_query(), &mechanism, 4).unwrap_err();
        assert!(matches!(err, OsdpError::BudgetExhausted { .. }));
        assert_eq!(session.total_spent(), 0.0, "all-or-nothing batches");
        assert!(session.audit_records().is_empty());
        assert!(session.release_trials(&mod8_query(), &mechanism, 3).is_ok());
        assert!(session.release_trials(&mod8_query(), &mechanism, 0).is_err());
    }

    #[test]
    fn bound_sessions_answer_only_the_bound_query() {
        let full = Histogram::from_counts(vec![10.0, 20.0, 30.0]);
        let ns = Histogram::from_counts(vec![10.0, 10.0, 0.0]);
        let session = SessionBuilder::<u32>::from_histograms(full, ns)
            .policy_label("P-sampled")
            .seed(3)
            .build()
            .unwrap();
        let mechanism = OsdpLaplaceL1::new(1.0).unwrap();
        let release = session.release(&SessionQuery::bound(), &mechanism).unwrap();
        assert_eq!(release.estimate.len(), 3);
        assert!(session.release(&mod8_query(), &mechanism).is_err());
        assert_eq!(&*session.audit_records()[0].policy, "P-sampled");
    }

    #[test]
    fn record_sessions_reject_the_bound_query() {
        let session = records_session(None);
        let mechanism = OsdpLaplaceL1::new(1.0).unwrap();
        assert!(session.release(&SessionQuery::bound(), &mechanism).is_err());
    }

    #[test]
    fn composed_guarantee_tracks_policies_and_minimum_relaxation() {
        let session = records_session(None);
        let l1 = OsdpLaplaceL1::new(0.5).unwrap();
        let dp = DpLaplaceHistogram::new(0.25).unwrap();
        session.release(&mod8_query(), &l1).unwrap();
        // A second release under a relaxed policy: only values >= 80 stay
        // sensitive.
        let relaxed: Arc<dyn Policy<u32>> =
            Arc::new(ClosurePolicy::new("upper-fifth", |&v: &u32| v >= 80));
        session.release_with_policy(&mod8_query(), &dp, Arc::clone(&relaxed), "P80").unwrap();

        let (eps, policies) = session.composed_guarantee();
        assert!((eps - 0.75).abs() < 1e-12);
        assert_eq!(policies, vec!["P50".to_string(), "P80".to_string()]);

        // The composed (minimum-relaxation) policy classifies a record as
        // sensitive only when *every* component does (Definition 3.6).
        let composed = session.composed_policy();
        assert_eq!(composed.len(), 2);
        assert!(composed.is_non_sensitive(&60), "non-sensitive under P80");
        assert!(composed.is_sensitive(&90), "sensitive under both");
        assert!(composed.is_non_sensitive(&10));
    }

    #[test]
    fn pdp_releases_are_flagged_in_the_ledger() {
        let session = records_session(None);
        let suppress = Suppress::new(10.0).unwrap();
        session.release(&mod8_query(), &suppress).unwrap();
        let ledger = session.audit_ledger();
        assert_eq!(ledger.len(), 1);
        assert_eq!(ledger[0].guarantee, osdp_core::PrivacyGuarantee::Personalized);
        assert_eq!(ledger[0].epsilon, 10.0);
    }

    #[test]
    fn release_records_samples_only_non_sensitive_records() {
        let session = records_session(Some(2.0));
        let rr = OsdpRr::new(1.0).unwrap();
        let sample = session.release_records(&rr).unwrap();
        assert!(sample.iter().all(|&v| v < 50), "sensitive codes never leave");
        assert!(!sample.is_empty(), "at ~63% keep rate, 50 candidates");
        assert!((session.total_spent() - 1.0).abs() < 1e-12);
        assert_eq!(session.database_len(), Some(100));

        // Histogram-backed sessions cannot release records.
        let bound = SessionBuilder::<u32>::from_histograms(
            Histogram::from_counts(vec![5.0]),
            Histogram::from_counts(vec![5.0]),
        )
        .build()
        .unwrap();
        assert!(bound.release_records(&rr).is_err());
        assert_eq!(bound.database_len(), None);
    }

    #[test]
    fn columnar_sessions_match_row_sessions_exactly() {
        use osdp_core::policy::AttributePolicy;
        use osdp_core::Value;
        let db: Database<Record> =
            (0..500).map(|i| Record::builder().field("age", Value::Int(i % 90)).build()).collect();
        let query = SessionQuery::count_by_int_linear("age-decades", "age", 0, 10, 9);
        let build = |columnar: bool| {
            let mut b = SessionBuilder::new(db.clone());
            if columnar {
                b = b.columnar();
            }
            b.policy(AttributePolicy::int_at_most("age", 17), "minors").seed(99).build().unwrap()
        };
        let row = build(false);
        let col = build(true);
        assert_eq!(row.backend_name(), Some("row"));
        assert_eq!(col.backend_name(), Some("columnar"));
        assert_eq!(row.derive_task(&query).unwrap(), col.derive_task(&query).unwrap());
        let mechanism = OsdpLaplaceL1::new(1.0).unwrap();
        let a = row.release(&query, &mechanism).unwrap();
        let b = col.release(&query, &mechanism).unwrap();
        assert_eq!(a.estimate, b.estimate, "same seed, same backend-independent stream");
        assert_eq!(
            row.release_trials(&query, &mechanism, 4).unwrap(),
            col.release_trials(&query, &mechanism, 4).unwrap()
        );
    }

    #[test]
    fn pair_sessions_reproduce_histogram_sessions() {
        let full = Histogram::from_counts(vec![10.0, 0.0, 25.0, 7.0]);
        let ns = Histogram::from_counts(vec![10.0, 0.0, 5.0, 0.0]);
        let mechanism = OsdpLaplaceL1::new(1.0).unwrap();

        let bound = histogram_session(full.clone(), ns.clone())
            .policy_label("P-sampled")
            .seed(5)
            .build()
            .unwrap();
        let pair =
            pair_session(&full, &ns).unwrap().policy_label("P-sampled").seed(5).build().unwrap();
        assert_eq!(pair.backend_name(), Some("columnar"));

        let query = pair_query(full.len());
        // The derived task is the exact pair...
        let task = pair.derive_task(&query).unwrap();
        assert_eq!(task.full(), &full);
        assert_eq!(task.non_sensitive(), &ns);
        assert_eq!(pair.scan(&query).unwrap().dropped, 0.0);
        // ...so same seed + label -> identical estimates to the bound path.
        let a = bound.release(&SessionQuery::bound(), &mechanism).unwrap();
        let b = pair.release(&query, &mechanism).unwrap();
        assert_eq!(a.estimate, b.estimate);
        // Frame-backed sessions cannot release records; their "length" is
        // the number of weighted frame rows (two bins split, two pure).
        assert!(pair.release_records(&OsdpRr::new(1.0).unwrap()).is_err());
        assert_eq!(pair.database_len(), Some(4));
    }

    #[test]
    fn columnar_on_a_histogram_backed_builder_is_an_error() {
        let full = Histogram::from_counts(vec![1.0, 2.0]);
        let err = histogram_session(full.clone(), full).columnar().build().unwrap_err();
        assert!(matches!(err, OsdpError::InvalidInput(_)));
        // ...but repeating it on a record-backed builder is a no-op.
        let db: Database<Record> = (0..4i64)
            .map(|i| Record::builder().field("v", osdp_core::Value::Int(i)).build())
            .collect();
        let session = SessionBuilder::new(db)
            .columnar()
            .columnar()
            .policy(osdp_core::policy::NoneSensitive, "Pnone")
            .build()
            .unwrap();
        assert_eq!(session.backend_name(), Some("columnar"));
    }

    #[test]
    fn scan_surfaces_dropped_records() {
        let session = records_session(None);
        // Only 4 bins: codes with v % 8 >= 4 drop out of range.
        let narrow = SessionQuery::count_by("narrow", 4, |&v: &u32| Some((v % 8) as usize));
        let pair = session.scan(&narrow).unwrap();
        assert_eq!(pair.full.total() + pair.dropped, 100.0);
        assert_eq!(pair.dropped, 48.0, "codes with v % 8 >= 4 fall outside the 4 bins");
    }

    #[test]
    fn same_seed_reproduces_same_estimates() {
        let a = records_session(None);
        let b = records_session(None);
        let mechanism = OsdpLaplaceL1::new(1.0).unwrap();
        let ra = a.release(&mod8_query(), &mechanism).unwrap();
        let rb = b.release(&mod8_query(), &mechanism).unwrap();
        assert_eq!(ra.estimate, rb.estimate);
    }

    /// Values >= 25 are sensitive — strictly tighter than [`upper_half`].
    fn upper_three_quarters() -> Arc<dyn Policy<u32>> {
        Arc::new(ClosurePolicy::new("upper-3q", |&v: &u32| v >= 25))
    }

    #[test]
    fn epoch_transition_invalidates_the_task_cache_and_stamps_releases() {
        use osdp_core::policy::EpochDirection;
        let session = records_session(None);
        let mechanism = OsdpLaplaceL1::new(0.5).unwrap();
        // Epoch 0: 50 of 100 codes are non-sensitive, and the derived task
        // is cached.
        session.release(&mod8_query(), &mechanism).unwrap();
        assert_eq!(session.derive_task(&mod8_query()).unwrap().non_sensitive().total(), 50.0);
        assert_eq!(session.policy_version(), 0);

        let transition = session
            .set_policy_epoch(upper_three_quarters(), "P25", EpochDirection::Tighten)
            .unwrap();
        assert_eq!(transition.version, 1);
        assert_eq!(session.policy_version(), 1);
        assert_eq!(&*session.current_policy_label(), "P25");

        // The cached epoch-0 task must NOT survive the transition: the same
        // query now derives under the tightened policy.
        assert_eq!(session.derive_task(&mod8_query()).unwrap().non_sensitive().total(), 25.0);
        session.release(&mod8_query(), &mechanism).unwrap();

        let audit = session.audit_records();
        let stamps: Vec<(u64, u64, String)> =
            audit.iter().map(|r| (r.index, r.policy_version, r.policy.to_string())).collect();
        assert_eq!(stamps, vec![(0, 0, "P50".into()), (1, 1, "P25".into())]);
        assert!(session.verify_policy_lifecycle(None).upholds_osdp());
        assert_eq!(session.epoch_transitions().len(), 1);
    }

    #[test]
    fn relaxing_epochs_accumulate_minimum_relaxation_and_verify_clean() {
        use osdp_core::policy::EpochDirection;
        let session = records_session(None);
        let mechanism = OsdpLaplaceL1::new(0.5).unwrap();
        session.release(&mod8_query(), &mechanism).unwrap();
        // Consent arrives: values >= 75 stay sensitive (strictly more
        // permissive than the bound P50).
        session
            .set_policy_epoch(
                Arc::new(ClosurePolicy::new("upper-q", |&v: &u32| v >= 75)),
                "P75",
                EpochDirection::Relax,
            )
            .unwrap();
        session.release(&mod8_query(), &mechanism).unwrap();
        // Releases under both epochs compose under the minimum relaxation of
        // the epoch history: sensitive only where EVERY epoch agreed. 60 was
        // freed by the consent epoch; 80 stayed sensitive under both.
        let relaxation = session.lifecycle_minimum_relaxation();
        assert_eq!(relaxation.len(), 2, "two epochs in the history");
        assert!(relaxation.is_non_sensitive(&60));
        assert!(!relaxation.is_non_sensitive(&80));
        // An honest relax history passes the stale-policy check: release 0
        // is stamped v0, and v0 was in force at seq 0.
        assert!(session.verify_policy_lifecycle(None).upholds_osdp());
    }

    #[test]
    fn bound_sessions_refuse_epoch_transitions() {
        use osdp_core::policy::EpochDirection;
        let full = Histogram::from_counts(vec![4.0, 2.0]);
        let session =
            histogram_session(full.clone(), full).policy_label("P-sampled").build().unwrap();
        let err = session
            .set_policy_epoch(
                Arc::new(osdp_core::policy::NoneSensitive),
                "later",
                EpochDirection::Relax,
            )
            .unwrap_err();
        assert!(matches!(err, OsdpError::InvalidInput(_)));
        assert_eq!(session.policy_version(), 0);
        assert!(session.epoch_transitions().is_empty());
    }
}
