//! The streaming release plane: continual observation over windowed event
//! streams.
//!
//! The one-shot [`OsdpSession`] answers a histogram query over a database
//! fixed at construction. The paper's flagship workload — TIPPERS occupancy
//! over trajectory streams — is naturally *continual*: counts arrive per
//! time window (one day of trajectories, one batch of events) and each
//! released window debits budget. [`StreamSession`] is the incremental
//! path:
//!
//! * a [`WindowSource`] yields [`Window`]s of records (any iterator of
//!   windows is a source — the TIPPERS adapter in `osdp-data` yields
//!   per-day occupancy databases; [`SyntheticWindows`] generates seeded
//!   synthetic traffic);
//! * every ingested window is scanned through the **existing backend scan
//!   path** (a [`RowBackend`] over the window's rows behind the session's
//!   bound [`Backend`]), so the policy-derived `(x, x_ns)` pair can never
//!   drift from the one-shot plane's;
//! * releases flow through the wrapped session's lock-free
//!   `BudgetAccountant`, sharded `AuditLog` (the window index is stamped
//!   into the release label, `"<query>@w<index>"`), `TaskCache` and
//!   deterministic RNG streams — which is what makes the serial one-shot
//!   path a **bitwise oracle**: streaming `T` windows produces exactly the
//!   estimates, ledger and audit totals that releasing the same `T` window
//!   tasks one-shot through an `OsdpSession` produces (property-tested in
//!   `tests/stream_parity.rs`);
//! * per-window ε debits are governed by a
//!   [`StreamBudget`] policy: fixed-per-window
//!   (sequential composition), sliding-window-of-`W` (w-event continual
//!   observation), or binary-tree aggregation
//!   ([`StreamSession::range_query`]) where a range over `T` windows
//!   debits `O(log T)` node releases instead of `O(T)` window releases.
//!
//! # One epoch per window
//!
//! When the wrapped session carries a **versioned policy lifecycle**
//! ([`OsdpSession::set_policy_epoch`]), each window release uses exactly
//! one well-defined epoch: the release path captures the current epoch
//! once, derives the window's task under it, and the audit stamp
//! re-derives under the stamped version if a transition raced the grant —
//! so a window released mid-transition is attributed entirely to the epoch
//! in force at its audit sequence number, never a blend of two. The two
//! planes differ only in *retention*:
//!
//! * **Fixed / sliding budgets** hold no policy-derived state across
//!   windows — every `ingest` scans fresh (the window swap invalidates the
//!   task cache anyway), so a transition between windows simply means the
//!   next window derives and stamps under the new epoch.
//! * **Hierarchical budgets** retain per-window leaf tasks for later
//!   dyadic node aggregation. A leaf is derived under the epoch current at
//!   *ingestion* time; a later [`StreamSession::range_query`] releases
//!   node aggregates through [`OsdpSession::release_task`], which stamps
//!   the epoch in force at release time. The stamp is honest about *when*
//!   the release happened; the ledger's stale-policy check
//!   ([`OsdpSession::verify_policy_lifecycle`]) therefore holds, but
//!   callers who tighten a policy mid-stream and need retained leaves
//!   re-derived under the tightened epoch must re-ingest those windows —
//!   the tree does not retro-actively re-scan history it has already
//!   buffered.

use crate::backend::{Backend, HistogramPair, QueryPlan, RowBackend};
use crate::session::{
    debit_units, OsdpSession, PoolRelease, Release, SessionBuilder, SessionQuery,
};
use osdp_core::budget::{dyadic_decomposition, StreamBudget, StreamBudgetState};
use osdp_core::error::{OsdpError, Result};
use osdp_core::policy::Policy;
use osdp_core::{Database, Histogram, Record, Value};
use osdp_mechanisms::{HistogramMechanism, HistogramTask};
use parking_lot::RwLock;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::collections::HashMap;
use std::sync::Arc;

/// One window of a record stream: a dense, strictly increasing index and
/// the records observed in that window.
#[derive(Debug, Clone)]
pub struct Window<R = Record> {
    /// The window's position in the stream (0-based; [`StreamSession`]
    /// requires windows to arrive in order, densely).
    pub index: u64,
    /// The records observed during the window.
    pub rows: Database<R>,
}

/// A source of stream windows. Any iterator of [`Window`]s is a source, so
/// adapters only need to yield windows — see
/// [`windows_from_databases`] for wrapping per-window databases (the shape
/// the TIPPERS trajectory adapter in `osdp-data` produces).
pub trait WindowSource<R = Record> {
    /// The next window, or `None` when the stream is (currently) exhausted.
    fn next_window(&mut self) -> Option<Window<R>>;
}

impl<R, I> WindowSource<R> for I
where
    I: Iterator<Item = Window<R>>,
{
    fn next_window(&mut self) -> Option<Window<R>> {
        self.next()
    }
}

/// Wraps an ordered sequence of per-window databases into a
/// [`WindowSource`], assigning dense indices from 0 — the adapter for
/// loaders that split a dataset by time (e.g.
/// `TrajectoryDataset::occupancy_day_windows` in `osdp-data`).
pub fn windows_from_databases<R>(
    databases: impl IntoIterator<Item = Database<R>>,
) -> impl WindowSource<R> {
    databases.into_iter().enumerate().map(|(index, rows)| Window { index: index as u64, rows })
}

/// Field name of the synthetic stream's single integer attribute.
pub const SYNTHETIC_FIELD: &str = "v";

/// A deterministic synthetic window generator: each window carries
/// `rows_per_window` records whose [`SYNTHETIC_FIELD`] value is drawn from
/// `0..domain` with a slowly drifting bias, so consecutive windows are
/// correlated the way real occupancy streams are. Seeded — the same
/// configuration always yields the same stream (bench + test harness
/// traffic).
#[derive(Debug)]
pub struct SyntheticWindows {
    remaining: u64,
    next_index: u64,
    rows_per_window: usize,
    domain: i64,
    rng: ChaCha12Rng,
}

impl SyntheticWindows {
    /// A stream of `windows` windows of `rows_per_window` records over
    /// values `0..domain`.
    pub fn new(seed: u64, windows: u64, rows_per_window: usize, domain: i64) -> Self {
        Self {
            remaining: windows,
            next_index: 0,
            rows_per_window,
            domain: domain.max(1),
            rng: ChaCha12Rng::seed_from_u64(seed),
        }
    }
}

impl WindowSource<Record> for SyntheticWindows {
    fn next_window(&mut self) -> Option<Window<Record>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let index = self.next_index;
        self.next_index += 1;
        // A per-window bias anchor makes neighbouring windows correlated.
        let anchor = self.rng.gen_range(0..self.domain);
        let rows: Database<Record> = (0..self.rows_per_window)
            .map(|_| {
                let v = if self.rng.gen::<f64>() < 0.5 {
                    anchor
                } else {
                    self.rng.gen_range(0..self.domain)
                };
                Record::builder().field(SYNTHETIC_FIELD, Value::Int(v)).build()
            })
            .collect();
        Some(Window { index, rows })
    }
}

/// The swappable scan target behind a [`StreamSession`]: a [`Backend`]
/// holding only the **current** window's rows. Ingesting a window swaps a
/// fresh `RowBackend` in; the wrapped session scans through this backend
/// like any other, so the windowed plane reuses the one-shot scan path
/// verbatim.
struct StreamBackend<R> {
    current: RwLock<Arc<RowBackend<R>>>,
}

impl<R> StreamBackend<R> {
    fn empty() -> Self {
        Self { current: RwLock::new(Arc::new(RowBackend::new(Database::new()))) }
    }

    fn set_window(&self, rows: Database<R>) {
        *self.current.write() = Arc::new(RowBackend::new(rows));
    }
}

impl<R: Send + Sync> Backend<R> for StreamBackend<R> {
    fn name(&self) -> &'static str {
        "stream-window"
    }

    fn len(&self) -> usize {
        let current = self.current.read();
        Backend::len(&**current)
    }

    fn scan(&self, plan: &QueryPlan<R>) -> Result<HistogramPair> {
        let current = Arc::clone(&self.current.read());
        current.scan(plan)
    }
}

/// The outcome of ingesting one window.
#[derive(Debug, Clone)]
pub enum WindowOutcome {
    /// The window's histogram was released (fixed-per-window and
    /// sliding-window budgets).
    Released(Release),
    /// The window was buffered into the dyadic tree without debiting
    /// (hierarchical budgets release lazily through
    /// [`StreamSession::range_query`]).
    Buffered {
        /// The buffered window's index.
        window: u64,
    },
    /// The sliding-window frame could not cover the release: the window
    /// passed unreleased (and the frame slid by one), keeping the stream
    /// continual instead of aborting it.
    Refused {
        /// The refused window's index.
        window: u64,
        /// The ε the release would have debited.
        requested: f64,
    },
}

impl WindowOutcome {
    /// The released estimate, if this window produced one.
    pub fn release(&self) -> Option<&Release> {
        match self {
            WindowOutcome::Released(release) => Some(release),
            _ => None,
        }
    }
}

/// The outcome of ingesting one window through a mechanism pool
/// ([`StreamSession::ingest_pool`]).
#[derive(Debug, Clone)]
pub enum PoolWindowOutcome {
    /// The whole pool batch was released for this window.
    Released(Vec<PoolRelease>),
    /// The sliding-window frame could not cover the pool batch: the window
    /// passed unreleased and the frame slid by one.
    Refused {
        /// The refused window's index.
        window: u64,
        /// The pool batch's total ε (`Σ εᵢ × trials`).
        requested: f64,
    },
}

impl PoolWindowOutcome {
    /// The released pool batch, if this window produced one.
    pub fn releases(&self) -> Option<&[PoolRelease]> {
        match self {
            PoolWindowOutcome::Released(releases) => Some(releases),
            PoolWindowOutcome::Refused { .. } => None,
        }
    }
}

/// Builder for [`StreamSession`] — mirrors [`SessionBuilder`], plus the
/// windowed query and the [`StreamBudget`] policy.
pub struct StreamSessionBuilder<R = Record> {
    label: String,
    bins: usize,
    #[allow(clippy::type_complexity)]
    bin_of: Arc<dyn Fn(&R) -> Option<usize> + Send + Sync>,
    policy: Option<Arc<dyn Policy<R>>>,
    policy_label: Option<String>,
    budget: Option<f64>,
    seed: u64,
    stream_budget: StreamBudget,
}

impl<R> StreamSessionBuilder<R> {
    /// Starts a stream whose windows are released as `bins`-bin histograms
    /// of `bin_of` (the per-record bin assignment applied inside each
    /// window), audited under `label`.
    pub fn new(
        label: impl Into<String>,
        bins: usize,
        bin_of: impl Fn(&R) -> Option<usize> + Send + Sync + 'static,
    ) -> Self {
        Self {
            label: label.into(),
            bins,
            bin_of: Arc::new(bin_of),
            policy: None,
            policy_label: None,
            budget: None,
            seed: 0,
            stream_budget: StreamBudget::PerWindow,
        }
    }

    /// Binds the policy function and its report label (required).
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

    /// Caps the wrapped session's total budget (every stream debit counts
    /// against it, whatever the stream budget policy).
    pub fn budget(mut self, epsilon: f64) -> Self {
        self.budget = Some(epsilon);
        self
    }

    /// Sets the root seed of the deterministic RNG streams.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the continual-observation budgeting policy (default:
    /// [`StreamBudget::PerWindow`]).
    pub fn stream_budget(mut self, budget: StreamBudget) -> Self {
        self.stream_budget = budget;
        self
    }

    /// Builds the stream session.
    pub fn build(self) -> Result<StreamSession<R>>
    where
        R: Send + Sync + 'static,
    {
        if self.bins == 0 {
            return Err(OsdpError::InvalidInput("a stream query needs bins >= 1".into()));
        }
        let policy = self.policy.ok_or_else(|| {
            OsdpError::InvalidInput(
                "a stream session needs a policy: call StreamSessionBuilder::policy".into(),
            )
        })?;
        let state = StreamBudgetState::new(self.stream_budget)?;
        let backend = Arc::new(StreamBackend::empty());
        let mut builder = SessionBuilder::with_backend(Arc::clone(&backend) as Arc<dyn Backend<R>>)
            .policy_arc(policy, self.policy_label.unwrap_or_else(|| "P".to_string()))
            .seed(self.seed);
        if let Some(limit) = self.budget {
            builder = builder.budget(limit);
        }
        Ok(StreamSession {
            session: builder.build()?,
            backend,
            label: self.label,
            bins: self.bins,
            bin_of: self.bin_of,
            state,
            next_index: 0,
            leaves: Vec::new(),
            nodes: HashMap::new(),
            node_mechanism: None,
        })
    }
}

/// An incremental release session over a windowed record stream (see the
/// module docs for the model). Wraps an [`OsdpSession`] — accountant, audit
/// log, task cache and RNG streams are the one-shot plane's, shared across
/// every window.
pub struct StreamSession<R = Record> {
    session: OsdpSession<R>,
    backend: Arc<StreamBackend<R>>,
    label: String,
    bins: usize,
    #[allow(clippy::type_complexity)]
    bin_of: Arc<dyn Fn(&R) -> Option<usize> + Send + Sync>,
    state: StreamBudgetState,
    next_index: u64,
    /// Per-window policy-derived tasks, retained for hierarchical node
    /// aggregation (empty under the other budgets). `O(T · bins)` memory —
    /// the price of answering arbitrary past ranges lazily.
    leaves: Vec<Arc<HistogramTask>>,
    /// Released dyadic nodes: `(level, position) → estimate`. A node is
    /// debited at most once; repeated range queries reuse the estimate at
    /// zero marginal ε (post-processing).
    nodes: HashMap<(u32, u64), Arc<Histogram>>,
    /// The mechanism name the dyadic tree is bound to, set by the first
    /// node release. Cached node estimates were sampled under this
    /// mechanism, so a range query with a *different* mechanism is refused
    /// instead of silently served another mechanism's noise.
    node_mechanism: Option<String>,
}

impl<R> std::fmt::Debug for StreamSession<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSession")
            .field("label", &self.label)
            .field("windows", &self.next_index)
            .field("budget", self.state.budget())
            .field("spent", &self.session.total_spent())
            .finish()
    }
}

impl<R: Send + Sync + 'static> StreamSession<R> {
    /// Shorthand for [`StreamSessionBuilder::new`].
    pub fn builder(
        label: impl Into<String>,
        bins: usize,
        bin_of: impl Fn(&R) -> Option<usize> + Send + Sync + 'static,
    ) -> StreamSessionBuilder<R> {
        StreamSessionBuilder::new(label, bins, bin_of)
    }

    /// The wrapped one-shot session: audit log, accountant, composed
    /// guarantee — everything the serving plane exposes.
    pub fn session(&self) -> &OsdpSession<R> {
        &self.session
    }

    /// Number of windows ingested so far (the next expected index).
    pub fn windows_ingested(&self) -> u64 {
        self.next_index
    }

    /// The stream budget policy.
    pub fn stream_budget(&self) -> &StreamBudget {
        self.state.budget()
    }

    /// ε debited across the retained sliding frame (0 for other budgets).
    /// The frame is kept in memory only, beside the session's accountant
    /// ([`StreamBudgetState`]): it is not durable.
    pub fn frame_spent(&self) -> f64 {
        self.state.frame_spent()
    }

    /// The windowed query of window `index`: the stream's bin assignment
    /// under a window-stamped audit label. The bin closure `Arc` is shared
    /// across windows — safe because every window swap invalidates the
    /// session's task cache (see `begin_window`), so a cache entry never
    /// outlives the window it was derived from, while repeated releases
    /// *within* a window still scan once.
    fn windowed_query(&self, index: u64) -> SessionQuery<R> {
        SessionQuery::CountBy {
            label: format!("{}@w{index}", self.label),
            bins: self.bins,
            bin_of: Arc::clone(&self.bin_of),
            spec: None,
        }
    }

    /// Ingests the next window and (for fixed-per-window and sliding-window
    /// budgets) releases its histogram through `mechanism`; hierarchical
    /// budgets buffer the window's policy-derived task and debit lazily in
    /// [`StreamSession::range_query`].
    ///
    /// Windows must arrive densely in index order. A sliding-window refusal
    /// is returned as [`WindowOutcome::Refused`] — the window passes
    /// unreleased and the stream continues; a wrapped-session budget
    /// refusal (`OsdpError::BudgetExhausted`) is an error, like the
    /// one-shot plane's.
    pub fn ingest(
        &mut self,
        window: Window<R>,
        mechanism: &dyn HistogramMechanism,
    ) -> Result<WindowOutcome> {
        let index = window.index;
        self.begin_window(window)?;
        if matches!(self.state.budget(), StreamBudget::Hierarchical { .. }) {
            let query = self.windowed_query(index);
            let task = Arc::new(self.session.scan(&query)?.into_task()?);
            self.leaves.push(task);
            self.next_index += 1;
            return Ok(WindowOutcome::Buffered { window: index });
        }
        let cost = mechanism.guarantee().epsilon();
        if !self.state.would_admit(cost) {
            self.state.advance(0.0);
            self.next_index += 1;
            return Ok(WindowOutcome::Refused { window: index, requested: cost });
        }
        let query = self.windowed_query(index);
        match self.session.release(&query, mechanism) {
            Ok(release) => {
                self.state.advance(cost);
                self.next_index += 1;
                Ok(WindowOutcome::Released(release))
            }
            Err(err) => {
                // The wrapped session refused (or the scan failed): the
                // window still passes so the stream index stays dense.
                self.state.advance(0.0);
                self.next_index += 1;
                Err(err)
            }
        }
    }

    /// Ingests the next window and releases it through a whole **mechanism
    /// pool** ([`OsdpSession::release_pool`]: one scan, one all-or-nothing
    /// grant, one fan-out — the streaming form of the pool experiments).
    /// The window's stream-budget cost is the pool total
    /// `Σ εᵢ × trials`. Not available under hierarchical budgets.
    ///
    /// Sliding-frame refusals mirror [`StreamSession::ingest`]: the window
    /// passes unreleased as [`PoolWindowOutcome::Refused`] (the stream
    /// continues; a later frame may admit the pool again), while a wrapped
    /// accountant-cap refusal is an error like the one-shot plane's.
    pub fn ingest_pool(
        &mut self,
        window: Window<R>,
        pool: &[&dyn HistogramMechanism],
        trials: usize,
    ) -> Result<PoolWindowOutcome> {
        if matches!(self.state.budget(), StreamBudget::Hierarchical { .. }) {
            return Err(OsdpError::InvalidInput(
                "hierarchical stream budgets release through range_query, not per-window pools"
                    .into(),
            ));
        }
        let index = window.index;
        self.begin_window(window)?;
        // Frame accounting in the units the session's grant will debit. A
        // debit the grant would reject (no trials, invalid ε) charges the
        // frame nothing: the grant below refuses it with its own error.
        let (cost_units, cost) =
            debit_units(pool.iter().map(|m| m.guarantee()), trials).unwrap_or((0, 0.0));
        if !self.state.would_admit_units(cost_units) {
            self.state.advance(0.0);
            self.next_index += 1;
            return Ok(PoolWindowOutcome::Refused { window: index, requested: cost });
        }
        let query = self.windowed_query(index);
        match self.session.release_pool(&query, pool, trials) {
            Ok(releases) => {
                self.state.advance_units(cost_units);
                self.next_index += 1;
                Ok(PoolWindowOutcome::Released(releases))
            }
            Err(err) => {
                self.state.advance(0.0);
                self.next_index += 1;
                Err(err)
            }
        }
    }

    /// Drains `source`, ingesting every window through `mechanism`.
    /// Sliding-window refusals land in the outcome list; other errors
    /// abort.
    pub fn ingest_from(
        &mut self,
        source: &mut dyn WindowSource<R>,
        mechanism: &dyn HistogramMechanism,
    ) -> Result<Vec<WindowOutcome>> {
        let mut outcomes = Vec::new();
        while let Some(window) = source.next_window() {
            outcomes.push(self.ingest(window, mechanism)?);
        }
        Ok(outcomes)
    }

    /// Answers a **range-over-time** query under a hierarchical stream
    /// budget: the total histogram of windows `[range.start, range.end)`,
    /// assembled from dyadic node releases. Nodes are released lazily at
    /// most once — a range over `T` windows touches `O(log T)` nodes
    /// ([`dyadic_decomposition`]), so it debits `O(log T) · ε` instead of
    /// the `O(T) · ε` that summing per-window releases would cost, and a
    /// repeated query reuses every node at zero marginal ε
    /// (post-processing). The tree binds to the mechanism of its first
    /// node release: later range queries must pass the same mechanism
    /// (cached nodes carry its noise), or they are refused.
    pub fn range_query(
        &mut self,
        range: std::ops::Range<u64>,
        mechanism: &dyn HistogramMechanism,
    ) -> Result<Histogram> {
        let StreamBudget::Hierarchical { levels } = *self.state.budget() else {
            return Err(OsdpError::InvalidInput(
                "range_query needs a StreamBudget::Hierarchical stream session".into(),
            ));
        };
        if range.start >= range.end || range.end > self.next_index {
            return Err(OsdpError::InvalidInput(format!(
                "range {}..{} out of bounds for {} ingested windows",
                range.start, range.end, self.next_index
            )));
        }
        // The tree is bound to one mechanism: cached node estimates were
        // sampled under it, and a different mechanism must not be served
        // another mechanism's noise (nor silently skip its own debit).
        match &self.node_mechanism {
            None => self.node_mechanism = Some(mechanism.name().to_string()),
            Some(bound) if bound != mechanism.name() => {
                return Err(OsdpError::InvalidInput(format!(
                    "this stream's dyadic tree is bound to mechanism '{bound}' by its first                      node release; range_query with '{}' would reuse node estimates sampled                      under the wrong mechanism",
                    mechanism.name()
                )));
            }
            Some(_) => {}
        }
        let mut total = Histogram::zeros(self.bins);
        for (level, position) in dyadic_decomposition(range, levels) {
            let estimate = self.node_estimate(level, position, mechanism)?;
            total = total.add(&estimate)?;
        }
        Ok(total)
    }

    /// Number of dyadic nodes released so far (hierarchical budgets).
    pub fn released_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The cached-or-released estimate of node `(level, position)`.
    fn node_estimate(
        &mut self,
        level: u32,
        position: u64,
        mechanism: &dyn HistogramMechanism,
    ) -> Result<Arc<Histogram>> {
        if let Some(estimate) = self.nodes.get(&(level, position)) {
            return Ok(Arc::clone(estimate));
        }
        // Aggregate the node's leaf tasks: summing (x, x_ns) pairs
        // preserves bin-wise domination, which HistogramTask::new
        // re-validates.
        let start = (position << level) as usize;
        let end = start + (1usize << level);
        let mut full = Histogram::zeros(self.bins);
        let mut non_sensitive = Histogram::zeros(self.bins);
        for leaf in &self.leaves[start..end] {
            full = full.add(leaf.full())?;
            non_sensitive = non_sensitive.add(leaf.non_sensitive())?;
        }
        let task = HistogramTask::new(full, non_sensitive)?;
        let label = format!("{}@L{level}#{position}", self.label);
        let release = self.session.release_task(&label, &task, mechanism)?;
        let estimate = Arc::new(release.estimate);
        self.nodes.insert((level, position), Arc::clone(&estimate));
        Ok(estimate)
    }

    /// Validates the window's index and swaps its rows into the scan
    /// backend.
    fn begin_window(&mut self, window: Window<R>) -> Result<()> {
        if window.index != self.next_index {
            return Err(OsdpError::InvalidInput(format!(
                "stream windows must arrive densely in order: expected window {}, got {}",
                self.next_index, window.index
            )));
        }
        self.backend.set_window(window.rows);
        // The task cache assumes backend data is immutable; the swap above
        // is exactly the mutation that assumption forbids, so invalidate at
        // the swap point. Without this, a caller reusing one query value
        // across [`StreamSession::session`] releases would be served the
        // previous window's task.
        self.session.invalidate_task_cache();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osdp_core::policy::AttributePolicy;
    use osdp_mechanisms::OsdpLaplaceL1;

    fn record(v: i64) -> Record {
        Record::builder().field(SYNTHETIC_FIELD, Value::Int(v)).build()
    }

    fn window(index: u64, values: &[i64]) -> Window<Record> {
        Window { index, rows: values.iter().map(|&v| record(v)).collect() }
    }

    fn stream_builder() -> StreamSessionBuilder<Record> {
        StreamSession::builder("occ", 4, |r: &Record| {
            r.int(SYNTHETIC_FIELD).ok().map(|v| (v as usize).min(3))
        })
        .policy(AttributePolicy::int_at_most(SYNTHETIC_FIELD, 1), "low-sensitive")
        .seed(7)
    }

    #[test]
    fn per_window_streaming_debits_sequentially_and_stamps_labels() {
        let mut stream = stream_builder().build().unwrap();
        let mechanism = OsdpLaplaceL1::new(0.5).unwrap();
        for i in 0..3u64 {
            let outcome = stream.ingest(window(i, &[0, 1, 2, 3, 2]), &mechanism).unwrap();
            let release = outcome.release().expect("per-window budgets release every window");
            assert_eq!(release.index, i);
            assert_eq!(release.estimate.len(), 4);
        }
        assert_eq!(stream.windows_ingested(), 3);
        let session = stream.session();
        assert!((session.total_spent() - 1.5).abs() < 1e-12);
        let audit = session.audit_records();
        assert_eq!(audit.len(), 3);
        for (i, record) in audit.iter().enumerate() {
            assert_eq!(&*record.query, &format!("occ@w{i}"), "window index stamped");
        }
        // Bit-for-bit: audited total == accountant total.
        assert_eq!(session.audit_total_epsilon(), session.total_spent());
    }

    #[test]
    fn window_swaps_never_serve_stale_cached_tasks() {
        // A caller reusing ONE query value directly on the wrapped session
        // across ingests must see each window's own data: the swap point
        // invalidates the task cache, so the cache can never serve window
        // 0's task for window 1.
        let mut stream = stream_builder().build().unwrap();
        let mechanism = OsdpLaplaceL1::new(0.5).unwrap();
        let reused = SessionQuery::count_by("probe", 4, |r: &Record| {
            r.int(SYNTHETIC_FIELD).ok().map(|v| (v as usize).min(3))
        });
        stream.ingest(window(0, &[0, 0, 0]), &mechanism).unwrap();
        let first = stream.session().derive_task(&reused).unwrap();
        assert_eq!(first.full().counts(), &[3.0, 0.0, 0.0, 0.0]);
        stream.ingest(window(1, &[3, 3]), &mechanism).unwrap();
        let second = stream.session().derive_task(&reused).unwrap();
        assert_eq!(
            second.full().counts(),
            &[0.0, 0.0, 0.0, 2.0],
            "the reused query must re-derive against the new window, not hit a stale entry"
        );
    }

    #[test]
    fn sliding_pool_refusals_pass_windows_through() {
        // Pool batches under a sliding frame behave like single releases:
        // a refusal is an outcome, not an error, and the stream recovers
        // once the frame slides.
        let mut stream = stream_builder()
            .stream_budget(StreamBudget::SlidingWindow { epsilon: 0.5, window: 2 })
            .build()
            .unwrap();
        let a = OsdpLaplaceL1::new(0.125).unwrap();
        let b = OsdpLaplaceL1::new(0.125).unwrap();
        let pool: Vec<&dyn HistogramMechanism> = vec![&a, &b];
        // Cost per window: (0.125 + 0.125) x 2 trials = 0.5 = the frame cap.
        let mut pattern = Vec::new();
        for i in 0..4u64 {
            match stream.ingest_pool(window(i, &[0, 3]), &pool, 2).unwrap() {
                PoolWindowOutcome::Released(releases) => {
                    assert_eq!(releases.len(), 2);
                    pattern.push(true);
                }
                PoolWindowOutcome::Refused { requested, .. } => {
                    assert!((requested - 0.5).abs() < 1e-12);
                    pattern.push(false);
                }
            }
        }
        assert_eq!(pattern, vec![true, false, true, false]);
        assert_eq!(stream.windows_ingested(), 4);
        assert!((stream.session().total_spent() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn epoch_transition_between_windows_restamps_subsequent_releases() {
        use osdp_core::policy::EpochDirection;
        // A policy transition between windows means every later window is
        // derived and stamped under the new epoch — each window release
        // uses exactly one epoch, and the versioned ledger check accepts
        // the whole history.
        let mut stream = stream_builder().build().unwrap();
        let mechanism = OsdpLaplaceL1::new(0.5).unwrap();
        stream.ingest(window(0, &[0, 1, 2, 3]), &mechanism).unwrap();
        let transition = stream
            .session()
            .set_policy_epoch(
                Arc::new(AttributePolicy::int_at_most(SYNTHETIC_FIELD, 0)),
                "tightened",
                EpochDirection::Tighten,
            )
            .unwrap();
        assert_eq!(transition.version, 1);
        stream.ingest(window(1, &[0, 1, 2, 3]), &mechanism).unwrap();
        stream.ingest(window(2, &[0, 1, 2, 3]), &mechanism).unwrap();
        let audit = stream.session().audit_records();
        let stamps: Vec<(u64, u64, String)> =
            audit.iter().map(|r| (r.index, r.policy_version, r.policy.to_string())).collect();
        assert_eq!(
            stamps,
            vec![
                (0, 0, "low-sensitive".into()),
                (1, 1, "tightened".into()),
                (2, 1, "tightened".into()),
            ],
            "windows before the transition carry epoch 0, windows after carry epoch 1"
        );
        let verdict = stream.session().verify_policy_lifecycle(None);
        assert!(verdict.upholds_osdp(), "honest mid-stream transition must verify clean");
    }

    #[test]
    fn hierarchical_node_releases_stamp_the_epoch_in_force_at_release_time() {
        use osdp_core::policy::EpochDirection;
        // Leaves buffered under epoch 0, tree nodes released after a
        // tighten: the node release is an event under the *new* epoch and
        // must be stamped as such (the stamp records when the release
        // happened, not when the leaves were ingested).
        let mut stream = stream_builder()
            .stream_budget(StreamBudget::Hierarchical { levels: 2 })
            .build()
            .unwrap();
        let mechanism = OsdpLaplaceL1::new(0.25).unwrap();
        for i in 0..4u64 {
            stream.ingest(window(i, &[0, 1, 2, 3]), &mechanism).unwrap();
        }
        stream
            .session()
            .set_policy_epoch(
                Arc::new(AttributePolicy::int_at_most(SYNTHETIC_FIELD, 0)),
                "tightened",
                EpochDirection::Tighten,
            )
            .unwrap();
        stream.range_query(0..4, &mechanism).unwrap();
        let audit = stream.session().audit_records();
        assert_eq!(audit.len(), 1, "aligned range 0..4 is a single node release");
        assert_eq!(audit[0].policy_version, 1);
        assert_eq!(&*audit[0].policy, "tightened");
        assert!(stream.session().verify_policy_lifecycle(None).upholds_osdp());
    }

    #[test]
    fn windows_must_arrive_densely_in_order() {
        let mut stream = stream_builder().build().unwrap();
        let mechanism = OsdpLaplaceL1::new(0.5).unwrap();
        stream.ingest(window(0, &[1]), &mechanism).unwrap();
        assert!(stream.ingest(window(2, &[1]), &mechanism).is_err());
        assert!(stream.ingest(window(0, &[1]), &mechanism).is_err());
        stream.ingest(window(1, &[1]), &mechanism).unwrap();
    }

    #[test]
    fn sliding_window_budget_refuses_then_recovers() {
        // Frame of 2 windows, cap 0.5: every other window is refused at
        // ε = 0.5 per release... actually each frame of 2 admits exactly
        // one 0.5-release, so grants alternate with refusals.
        let mut stream = stream_builder()
            .stream_budget(StreamBudget::SlidingWindow { epsilon: 0.5, window: 2 })
            .build()
            .unwrap();
        let mechanism = OsdpLaplaceL1::new(0.5).unwrap();
        let mut pattern = Vec::new();
        for i in 0..6u64 {
            match stream.ingest(window(i, &[0, 3]), &mechanism).unwrap() {
                WindowOutcome::Released(_) => pattern.push(true),
                WindowOutcome::Refused { requested, .. } => {
                    assert_eq!(requested, 0.5);
                    pattern.push(false);
                }
                WindowOutcome::Buffered { .. } => unreachable!("not hierarchical"),
            }
        }
        assert_eq!(pattern, vec![true, false, true, false, true, false]);
        // Only the granted windows debited the accountant and audit log.
        assert!((stream.session().total_spent() - 1.5).abs() < 1e-12);
        assert_eq!(stream.session().audit_len(), 3);
    }

    #[test]
    fn hierarchical_ranges_debit_log_many_nodes_and_cache_releases() {
        let mut stream = stream_builder()
            .stream_budget(StreamBudget::Hierarchical { levels: 3 })
            .build()
            .unwrap();
        let mechanism = OsdpLaplaceL1::new(0.25).unwrap();
        for i in 0..8u64 {
            let outcome = stream.ingest(window(i, &[0, 1, 2, 3]), &mechanism).unwrap();
            assert!(matches!(outcome, WindowOutcome::Buffered { window } if window == i));
        }
        // Buffering debits nothing.
        assert_eq!(stream.session().total_spent(), 0.0);
        assert_eq!(stream.session().audit_len(), 0);

        // The aligned full range is a single node: one ε debit for 8
        // windows.
        let all = stream.range_query(0..8, &mechanism).unwrap();
        assert_eq!(all.len(), 4);
        assert_eq!(stream.released_nodes(), 1);
        assert!((stream.session().total_spent() - 0.25).abs() < 1e-12);

        // A mis-aligned range costs O(log T) nodes, not O(T).
        stream.range_query(1..8, &mechanism).unwrap();
        assert_eq!(stream.released_nodes(), 1 + 3, "[1,2) [2,4) [4,8)");
        // Re-asking either range is pure post-processing: no new debits.
        let spent = stream.session().total_spent();
        stream.range_query(0..8, &mechanism).unwrap();
        stream.range_query(1..8, &mechanism).unwrap();
        assert_eq!(stream.session().total_spent(), spent);

        // Out-of-range and empty ranges are refused.
        assert!(stream.range_query(0..9, &mechanism).is_err());
        assert!(stream.range_query(3..3, &mechanism).is_err());
        // Per-window APIs reject hierarchical pools.
        let pool_mech = OsdpLaplaceL1::new(0.1).unwrap();
        let pool: Vec<&dyn HistogramMechanism> = vec![&pool_mech];
        assert!(stream.ingest_pool(window(8, &[0]), &pool, 1).is_err());
    }

    #[test]
    fn hierarchical_trees_bind_to_their_first_mechanism() {
        let mut stream = stream_builder()
            .stream_budget(StreamBudget::Hierarchical { levels: 2 })
            .build()
            .unwrap();
        let first = OsdpLaplaceL1::new(0.25).unwrap();
        for i in 0..4u64 {
            stream.ingest(window(i, &[0, 1, 2, 3]), &first).unwrap();
        }
        stream.range_query(0..4, &first).unwrap();
        let spent = stream.session().total_spent();
        // A different mechanism must not be served the cached eps=0.25
        // nodes (wrong noise) nor silently skip its own debit.
        let other = osdp_mechanisms::DpLaplaceHistogram::new(1.0).unwrap();
        let err = stream.range_query(0..4, &other).unwrap_err();
        assert!(matches!(err, OsdpError::InvalidInput(_)));
        assert_eq!(stream.session().total_spent(), spent, "nothing debited");
        // The bound mechanism keeps working.
        stream.range_query(1..4, &first).unwrap();
    }

    #[test]
    fn pool_frame_accounting_sums_units_like_the_accountant() {
        // Two eps=0.1 debits cost epsilon_to_units(0.1) x 2 =
        // 200_000_000_002 units on the grant path (ceiling per entry); a
        // frame cap of 0.2 eps is only 200_000_000_001 units, so the pool
        // must be refused — converting the float sum (0.2) once would have
        // under-recorded the frame by one unit and admitted it.
        let mut stream = stream_builder()
            .stream_budget(StreamBudget::SlidingWindow { epsilon: 0.2, window: 1 })
            .build()
            .unwrap();
        let a = OsdpLaplaceL1::new(0.1).unwrap();
        let b = OsdpLaplaceL1::new(0.1).unwrap();
        let pool: Vec<&dyn HistogramMechanism> = vec![&a, &b];
        match stream.ingest_pool(window(0, &[0, 3]), &pool, 1).unwrap() {
            PoolWindowOutcome::Refused { requested, .. } => {
                assert!((requested - 0.2).abs() < 1e-12);
            }
            PoolWindowOutcome::Released(_) => {
                panic!("frame must track the accountant's per-entry unit sum")
            }
        }
        assert_eq!(stream.session().total_spent(), 0.0);
    }

    #[test]
    fn hierarchical_node_release_matches_the_one_shot_task_oracle() {
        // The root node over 4 windows must equal releasing the summed
        // task through a plain session: same seed, same release index (0 —
        // the stream's first release), same RNG stream family.
        let windows: Vec<Window<Record>> =
            (0..4).map(|i| window(i, &[0, 1, 2, 3, (i as i64) % 4])).collect();
        let mechanism = OsdpLaplaceL1::new(0.5).unwrap();

        let mut stream = stream_builder()
            .stream_budget(StreamBudget::Hierarchical { levels: 2 })
            .build()
            .unwrap();
        for w in windows.clone() {
            stream.ingest(w, &mechanism).unwrap();
        }
        let streamed = stream.range_query(0..4, &mechanism).unwrap();

        // Oracle: scan all rows through a one-shot session with the same
        // policy and seed, release once.
        let all_rows: Database<Record> =
            windows.into_iter().flat_map(|w| w.rows.into_iter()).collect();
        let oracle_session = SessionBuilder::new(all_rows)
            .policy(AttributePolicy::int_at_most(SYNTHETIC_FIELD, 1), "low-sensitive")
            .seed(7)
            .build()
            .unwrap();
        let query = SessionQuery::count_by("occ", 4, |r: &Record| {
            r.int(SYNTHETIC_FIELD).ok().map(|v| (v as usize).min(3))
        });
        let oracle = oracle_session.release(&query, &mechanism).unwrap();
        assert_eq!(streamed, oracle.estimate, "bitwise node/one-shot parity");
    }

    #[test]
    fn synthetic_windows_are_deterministic() {
        let collect = |seed| {
            let mut source = SyntheticWindows::new(seed, 3, 16, 8);
            let mut windows = Vec::new();
            while let Some(w) = source.next_window() {
                windows.push(w);
            }
            windows
        };
        let a = collect(5);
        let b = collect(5);
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.index, y.index);
            assert_eq!(x.rows.len(), y.rows.len());
            for (rx, ry) in x.rows.iter().zip(y.rows.iter()) {
                assert_eq!(rx.int(SYNTHETIC_FIELD).unwrap(), ry.int(SYNTHETIC_FIELD).unwrap());
            }
        }
        let c = collect(6);
        assert!(
            a.iter().zip(&c).any(|(x, y)| {
                x.rows.iter().zip(y.rows.iter()).any(|(rx, ry)| {
                    rx.int(SYNTHETIC_FIELD).unwrap() != ry.int(SYNTHETIC_FIELD).unwrap()
                })
            }),
            "different seeds diverge"
        );
    }

    #[test]
    fn windows_from_databases_assigns_dense_indices() {
        let dbs: Vec<Database<Record>> =
            (0..3).map(|i| (0..=i).map(|v| record(v as i64)).collect()).collect();
        let mut source = windows_from_databases(dbs);
        let mut seen = Vec::new();
        while let Some(w) = source.next_window() {
            seen.push((w.index, w.rows.len()));
        }
        assert_eq!(seen, vec![(0, 1), (1, 2), (2, 3)]);
    }
}
