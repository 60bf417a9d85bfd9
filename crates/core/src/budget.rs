//! Privacy-budget accounting and composition.
//!
//! OSDP composes like differential privacy: running a `(P1, ε1)`-OSDP
//! mechanism followed by a `(P2, ε2)`-OSDP mechanism yields a
//! `(P_mr, ε1 + ε2)`-OSDP mechanism, where `P_mr` is the *minimum relaxation*
//! of the two policies (Theorem 3.3). The appendix additionally proves a
//! parallel composition theorem for the extended definition (Theorem 10.2):
//! mechanisms run on disjoint partitions of the data compose with `max(εᵢ)`.
//!
//! [`BudgetAccountant`] is a small, lock-free counter that mechanisms and
//! experiment harnesses use to enforce a total budget. It records no
//! per-spend entries: a session's audit log is its ledger of record, and
//! composing the actual policy objects is done with
//! [`crate::policy::MinimumRelaxation`].

use crate::error::{validate_epsilon, OsdpError, Result};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// The privacy parameter of a single mechanism invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivacyBudget {
    epsilon: f64,
}

impl PrivacyBudget {
    /// Creates a budget, validating that epsilon is finite and positive.
    pub fn new(epsilon: f64) -> Result<Self> {
        Ok(Self { epsilon: validate_epsilon(epsilon)? })
    }

    /// The epsilon value.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Splits the budget into `(rho * ε, (1 - rho) * ε)`, the split used by the
    /// OSDP recipe / `DAWAz` (Algorithm 3).
    pub fn split(&self, rho: f64) -> Result<(PrivacyBudget, PrivacyBudget)> {
        crate::error::validate_fraction("rho", rho)?;
        Ok((
            PrivacyBudget { epsilon: self.epsilon * rho },
            PrivacyBudget { epsilon: self.epsilon * (1.0 - rho) },
        ))
    }
}

/// The kind of guarantee a mechanism invocation provides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrivacyGuarantee {
    /// Plain ε-differential privacy — also `(P, ε)`-OSDP for every policy `P`
    /// (Lemma 3.1).
    DifferentialPrivacy,
    /// `(P, ε)`-one-sided differential privacy for the labelled policy.
    OneSided,
    /// `(P, ε)`-extended OSDP (appendix definition); implies `(P, 2ε)`-OSDP
    /// (Theorem 10.1).
    ExtendedOneSided,
    /// Personalized differential privacy (the `Suppress` baseline of
    /// Section 3.4): per-record budgets, **not** OSDP, and only τ-freedom from
    /// exclusion attacks (Theorem 3.4).
    Personalized,
}

/// The quantified privacy guarantee of a single mechanism, replacing the old
/// `is_differentially_private() -> bool` flag: the kind of definition *and*
/// its budget travel together through sessions, ledgers and reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Guarantee {
    /// ε-differential privacy (Definition 2.4).
    Dp {
        /// The privacy budget ε.
        eps: f64,
    },
    /// `(P, ε)`-one-sided differential privacy (Definition 3.3) for the
    /// policy the release is evaluated under.
    Osdp {
        /// The privacy budget ε.
        eps: f64,
    },
    /// Personalized DP with threshold budget τ (recorded as `eps`). Satisfies
    /// PDP but **not** OSDP; exclusion-attack protection is only φ = τ.
    Pdp {
        /// The threshold budget τ.
        eps: f64,
    },
}

impl Guarantee {
    /// The budget (ε, or τ for [`Guarantee::Pdp`]).
    pub fn epsilon(&self) -> f64 {
        match self {
            Guarantee::Dp { eps } | Guarantee::Osdp { eps } | Guarantee::Pdp { eps } => *eps,
        }
    }

    /// Whether the mechanism satisfies plain ε-differential privacy.
    pub fn is_differentially_private(&self) -> bool {
        matches!(self, Guarantee::Dp { .. })
    }

    /// The matching ledger [`PrivacyGuarantee`] kind.
    pub fn kind(&self) -> PrivacyGuarantee {
        match self {
            Guarantee::Dp { .. } => PrivacyGuarantee::DifferentialPrivacy,
            Guarantee::Osdp { .. } => PrivacyGuarantee::OneSided,
            Guarantee::Pdp { .. } => PrivacyGuarantee::Personalized,
        }
    }

    /// Short label used in reports (`"DP"`, `"OSDP"`, `"PDP"`).
    pub fn label(&self) -> &'static str {
        match self {
            Guarantee::Dp { .. } => "DP",
            Guarantee::Osdp { .. } => "OSDP",
            Guarantee::Pdp { .. } => "PDP",
        }
    }

    /// The exclusion-attack exponent φ this guarantee implies: φ = ε for DP
    /// and OSDP mechanisms (Theorem 3.2), φ = τ for PDP (Theorem 3.4).
    pub fn exclusion_attack_phi(&self) -> f64 {
        self.epsilon()
    }
}

impl fmt::Display for Guarantee {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Guarantee::Dp { eps } => write!(f, "{eps}-DP"),
            Guarantee::Osdp { eps } => write!(f, "(P, {eps})-OSDP"),
            Guarantee::Pdp { eps } => write!(f, "PDP(tau = {eps})"),
        }
    }
}

/// One entry of the composition ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// Human-readable mechanism label (e.g. `"OsdpRR"`, `"DAWA stage 1"`).
    pub label: String,
    /// Policy label the guarantee refers to (e.g. `"P99"`, `"Pall"`).
    pub policy: String,
    /// Epsilon spent by this invocation.
    pub epsilon: f64,
    /// Kind of guarantee.
    pub guarantee: PrivacyGuarantee,
}

/// Fixed-point ε units of the atomic spend counter: one unit is `1e-12` ε.
/// Every grant decision is made on integers, so the admitted total is
/// independent of the order in which concurrent spenders arrive — integer
/// addition commutes, floating-point addition does not.
const EPS_UNIT: f64 = 1e-12;

/// Converts a validated epsilon to fixed-point units, rounding **up** (and
/// never below one unit).
///
/// Ceiling rounding is what makes the fixed-point debit sound: rounding to
/// the *nearest* unit let a spend round **down** and under-charge the
/// accountant by up to `RESOLUTION / 2` per release — unbounded drift across
/// millions of releases. With the ceiling, `units × RESOLUTION ≥ ε` for
/// every valid spend, so the recorded total can only over-state the true
/// privacy loss (the safe direction). The "never below one unit" floor is
/// still needed for exact sub-unit spends: a loop of sub-resolution spends
/// must exhaust a capped accountant eventually, not pass forever at zero
/// recorded cost.
///
/// The ceiling is computed **exactly** from the float's binary
/// representation (no rounding error from dividing by the inexact `1e-12`),
/// and a final guard bumps the count if the `f64` view of the debit would
/// still read below `epsilon`. Conversions saturate at `u64::MAX` units
/// (~1.8e7 ε) — far beyond any composed budget.
pub fn epsilon_to_units(epsilon: f64) -> u64 {
    /// `1 / RESOLUTION`, exactly representable as an integer.
    const SCALE: u128 = 1_000_000_000_000;
    let bits = epsilon.to_bits();
    let biased_exp = ((bits >> 52) & 0x7FF) as i64;
    let fraction = bits & ((1u64 << 52) - 1);
    // epsilon = mantissa × 2^exp (finite and positive: validated upstream).
    let (mantissa, exp) = if biased_exp == 0 {
        (fraction, -1074i64)
    } else {
        (fraction | (1 << 52), biased_exp - 1075)
    };
    // mantissa × SCALE < 2^53 × 2^40 = 2^93: exact in u128.
    let scaled = u128::from(mantissa) * SCALE;
    let exact_ceiling: u128 = if exp >= 0 {
        // epsilon ≥ 2^52 ε: far past the saturation point either way.
        u128::from(u64::MAX)
    } else {
        let shift = (-exp) as u32;
        if shift >= 128 {
            u128::from(scaled != 0)
        } else {
            (scaled >> shift) + u128::from(scaled & ((1u128 << shift) - 1) != 0)
        }
    };
    let mut units = exact_ceiling.min(u128::from(u64::MAX)) as u64;
    units = units.max(1);
    // Defensive: the f64 view of the debit must never read below epsilon
    // (`units_to_eps` multiplies by the *inexact* 1e-12).
    while units < u64::MAX && units_to_epsilon(units) < epsilon {
        units += 1;
    }
    units
}

/// The epsilon a unit count represents ([`BudgetAccountant::RESOLUTION`] ε
/// per unit).
pub fn units_to_epsilon(units: u64) -> f64 {
    units as f64 * EPS_UNIT
}

/// A thread-safe sequential-composition accountant with an optional cap.
///
/// The accountant holds only its cap and one atomic counter. A spend
/// converts ε to fixed-point units ([`BudgetAccountant::RESOLUTION`]) and
/// admits the debit with one CAS loop: all-or-nothing, order-independent,
/// and lock-free for concurrent spenders. It keeps no per-spend record —
/// the label arguments of [`BudgetAccountant::spend`] and friends are not
/// stored. A session's ledger of record is its audit log (plus the WAL,
/// for durable sessions), which is also where the composed guarantee's
/// policy labels come from.
///
/// ```
/// use osdp_core::{BudgetAccountant, PrivacyGuarantee};
/// let acc = BudgetAccountant::with_limit(1.0).unwrap();
/// acc.spend("OsdpRR", "P99", 0.375, PrivacyGuarantee::OneSided).unwrap();
/// acc.spend("DAWA", "Pall", 0.625, PrivacyGuarantee::DifferentialPrivacy).unwrap();
/// assert!(acc.spend("extra", "P99", 0.1, PrivacyGuarantee::OneSided).is_err());
/// assert_eq!(acc.total_spent(), 1.0);
/// ```
#[derive(Debug)]
pub struct BudgetAccountant {
    limit: Option<f64>,
    /// The cap in fixed-point units (`None` for unlimited accountants).
    limit_units: Option<u64>,
    /// Total admitted spend in fixed-point units — the single source of
    /// truth for enforcement, `total_spent` and `remaining`.
    spent_units: AtomicU64,
}

impl BudgetAccountant {
    /// The ε granularity of the atomic spend counter. Spends are rounded
    /// **up** to the next multiple ([`epsilon_to_units`]), so the recorded
    /// fixed-point total never undercounts the true ε: the accountant may
    /// over-charge a spend by strictly less than one `RESOLUTION`, never
    /// under-charge it. Budgets meant to be spent down to zero should
    /// therefore be phrased in ε values exact at this resolution (decimal
    /// multiples of `1e-12`, e.g. dyadic fractions like `0.125`); a spend
    /// whose f64 value lies just *above* such a multiple costs one extra
    /// unit.
    pub const RESOLUTION: f64 = EPS_UNIT;

    /// An accountant with no cap: it only records what is spent.
    pub fn unlimited() -> Self {
        Self { limit: None, limit_units: None, spent_units: AtomicU64::new(0) }
    }

    /// An accountant that refuses to exceed `limit` total epsilon under
    /// sequential composition.
    pub fn with_limit(limit: f64) -> Result<Self> {
        Self::recovered(Some(limit), 0)
    }

    /// An accountant **seeded from recovered state**: `spent_units` is the
    /// fixed-point total a durable ledger reconstructed (see the
    /// `osdp-persist` crate), restored as the raw integer — no float
    /// round-trip, so a restart reproduces the pre-crash counter bit for
    /// bit. Recovered history lives in the audit log's base.
    ///
    /// The recovered spend may legitimately *exceed* a (lowered) cap: the
    /// accountant then simply refuses every further grant — `remaining`
    /// saturates at zero and the CAS path admits nothing.
    pub fn recovered(limit: Option<f64>, spent_units: u64) -> Result<Self> {
        let limit_units = match limit {
            Some(limit) => Some(epsilon_to_units(validate_epsilon(limit)?)),
            None => None,
        };
        Ok(Self { limit, limit_units, spent_units: AtomicU64::new(spent_units) })
    }

    /// The configured cap, if any.
    pub fn limit(&self) -> Option<f64> {
        self.limit
    }

    /// The atomic grant: admits `units` (a debit already converted with
    /// [`epsilon_to_units`], or a sum of such conversions for a batch)
    /// against the cap with one CAS loop, all-or-nothing. On refusal
    /// nothing is spent and the error reports `requested` ε against the
    /// remaining budget. This is the only decision point: no lock is ever
    /// taken to enforce the cap.
    pub fn spend_units(&self, units: u64, requested: f64) -> Result<()> {
        let mut spent = self.spent_units.load(Ordering::Acquire);
        loop {
            if let Some(limit_units) = self.limit_units {
                let remaining = limit_units.saturating_sub(spent);
                if units > remaining {
                    return Err(OsdpError::BudgetExhausted {
                        requested,
                        remaining: units_to_epsilon(remaining),
                    });
                }
            }
            match self.spent_units.compare_exchange_weak(
                spent,
                spent.saturating_add(units),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Ok(()),
                Err(actual) => spent = actual,
            }
        }
    }

    /// Admits an ε expenditure under sequential composition, or fails
    /// without spending anything if the cap would be exceeded. The label
    /// and policy describe the spend to the caller's own ledger; the
    /// accountant does not store them.
    pub fn spend(
        &self,
        _label: impl Into<String>,
        _policy: impl Into<String>,
        epsilon: f64,
        _guarantee: PrivacyGuarantee,
    ) -> Result<()> {
        self.spend_units(epsilon_to_units(validate_epsilon(epsilon)?), epsilon)
    }

    /// Admits a batch of sequential-composition expenditures
    /// **atomically**: either the whole batch is spent or — when the cap
    /// cannot cover the batch total — none of it is.
    ///
    /// The batch total is the integer sum of the per-entry fixed-point
    /// debits, so a granted batch spends *exactly* what the same entries
    /// granted one by one would have: all-or-nothing at a single CAS.
    ///
    /// `entries` is a list of `(label, policy, epsilon, guarantee)` tuples;
    /// only the epsilons are used.
    pub fn spend_batch(&self, entries: &[(String, String, f64, PrivacyGuarantee)]) -> Result<()> {
        let mut total_units = 0u64;
        let mut total = 0.0;
        for &(_, _, epsilon, _) in entries {
            total_units = total_units.saturating_add(epsilon_to_units(validate_epsilon(epsilon)?));
            total += epsilon;
        }
        self.spend_units(total_units, total)
    }

    /// Admits a **parallel** block: mechanisms applied to disjoint
    /// partitions of the data. Under Theorem 10.2 the block costs `max(εᵢ)`
    /// rather than the sum.
    ///
    /// `parts` is a list of `(label, policy, epsilon)` triples; only the
    /// epsilons are used.
    pub fn spend_parallel(
        &self,
        _block_label: impl Into<String>,
        _guarantee: PrivacyGuarantee,
        parts: &[(&str, &str, f64)],
    ) -> Result<()> {
        if parts.is_empty() {
            return Err(OsdpError::InvalidInput("parallel block with no parts".into()));
        }
        let mut max_eps: f64 = 0.0;
        for &(_, _, eps) in parts {
            max_eps = max_eps.max(validate_epsilon(eps)?);
        }
        self.spend_units(epsilon_to_units(max_eps), max_eps)
    }

    /// Total epsilon spent so far (sequential composition). Lock-free: one
    /// atomic load, exact for the admitted fixed-point total.
    pub fn total_spent(&self) -> f64 {
        units_to_epsilon(self.spent_units.load(Ordering::Acquire))
    }

    /// Total spend in fixed-point units ([`BudgetAccountant::RESOLUTION`] ε
    /// each) — the raw integer the grant path maintains. Because integer
    /// addition commutes, this value is identical across every interleaving
    /// of the same granted spends (property-tested in
    /// `tests/concurrent_sessions.rs`).
    pub fn total_spent_units(&self) -> u64 {
        self.spent_units.load(Ordering::Acquire)
    }

    /// Remaining budget, or `None` for an unlimited accountant. Lock-free.
    pub fn remaining(&self) -> Option<f64> {
        let spent = self.spent_units.load(Ordering::Acquire);
        self.limit_units.map(|limit| units_to_epsilon(limit.saturating_sub(spent)))
    }
}

/// The continual-observation budgeting policy of a windowed release stream.
///
/// A streaming deployment releases one histogram per time window, and each
/// released window debits budget. How those per-window debits compose into a
/// stream-level guarantee depends on the observation model:
///
/// * [`StreamBudget::PerWindow`] — plain sequential composition
///   (Theorem 3.3): every window debits its mechanism's full ε, so `T`
///   windows cost `T·ε`. The conservative default when one user's records
///   may appear in every window.
/// * [`StreamBudget::SlidingWindow`] — *w-event* continual observation: the
///   ε-sum over **any** `window` consecutive windows must stay within
///   `epsilon`. Appropriate when a user's contribution spans at most
///   `window` consecutive windows (e.g. one building visit), so the
///   adversary's view inside any sliding frame is bounded by `epsilon`
///   while the stream itself runs forever.
/// * [`StreamBudget::Hierarchical`] — binary-tree aggregation for
///   range-over-time queries: windows aggregate into dyadic nodes (node
///   `(l, j)` covers windows `[j·2^l, (j+1)·2^l)`), released lazily and at
///   most once each. A range over `T` windows decomposes into
///   `O(log T)` nodes ([`dyadic_decomposition`]), so answering it debits
///   `O(log T)·ε` instead of the `O(T)·ε` that summing per-window releases
///   would cost; and because same-level nodes cover **disjoint** windows,
///   the per-level cost composes in parallel (Theorem 10.2) — a user
///   appearing in one window is exposed to at most `levels + 1` node
///   releases.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamBudget {
    /// Sequential composition: each window debits its mechanism's full ε.
    PerWindow,
    /// w-event continual observation: the ε spent across any `window`
    /// consecutive windows must stay within `epsilon`.
    SlidingWindow {
        /// The per-frame budget cap.
        epsilon: f64,
        /// The frame width `w` in windows.
        window: usize,
    },
    /// Binary-tree aggregation over dyadic window ranges, with nodes up to
    /// level `levels` (a node at level `l` aggregates `2^l` windows).
    Hierarchical {
        /// The maximum node level (tree height); `levels ≥ ⌈log2 T⌉` keeps
        /// any range over `T` windows at `O(log T)` nodes.
        levels: u32,
    },
}

impl StreamBudget {
    /// Validates the parameters (finite positive ε, non-zero frame/levels).
    pub fn validate(&self) -> Result<()> {
        match self {
            StreamBudget::PerWindow => Ok(()),
            StreamBudget::SlidingWindow { epsilon, window } => {
                validate_epsilon(*epsilon)?;
                if *window == 0 {
                    return Err(OsdpError::InvalidInput(
                        "sliding-window stream budget needs window >= 1".into(),
                    ));
                }
                Ok(())
            }
            StreamBudget::Hierarchical { levels } => {
                if *levels == 0 || *levels > 62 {
                    return Err(OsdpError::InvalidInput(
                        "hierarchical stream budget needs 1 <= levels <= 62".into(),
                    ));
                }
                Ok(())
            }
        }
    }
}

/// The mutable enforcement state of a [`StreamBudget`]: tracks the debits of
/// the most recent frame of windows so sliding-window caps can be enforced
/// **in fixed-point units** — the same [`BudgetAccountant::RESOLUTION`]
/// arithmetic as the accountant, so frame sums never drift from the grant
/// path's integers no matter how many windows stream past.
///
/// The frame is a second budget, kept in memory only beside the session's
/// accountant: it is never written to a WAL, so it is not durable, and a
/// stream built again after a restart starts with an empty frame.
#[derive(Debug)]
pub struct StreamBudgetState {
    budget: StreamBudget,
    /// Per-window debits (units) of the last `window - 1` windows; the
    /// incoming window makes the frame whole.
    frame: VecDeque<u64>,
    /// Running sum of `frame` in units.
    frame_units: u64,
    /// The frame cap in units (sliding-window only).
    cap_units: u64,
}

impl StreamBudgetState {
    /// Validates the budget and creates its empty state.
    pub fn new(budget: StreamBudget) -> Result<Self> {
        budget.validate()?;
        let cap_units = match &budget {
            StreamBudget::SlidingWindow { epsilon, .. } => epsilon_to_units(*epsilon),
            _ => 0,
        };
        Ok(Self { budget, frame: VecDeque::new(), frame_units: 0, cap_units })
    }

    /// The policy this state enforces.
    pub fn budget(&self) -> &StreamBudget {
        &self.budget
    }

    /// Whether a release costing `cost` ε in the **incoming** window fits
    /// the stream budget. Always true for [`StreamBudget::PerWindow`] and
    /// [`StreamBudget::Hierarchical`] (their enforcement lives elsewhere:
    /// the accountant cap and the node-release path respectively).
    pub fn would_admit(&self, cost: f64) -> bool {
        self.would_admit_units(epsilon_to_units(cost))
    }

    /// Unit-denominated [`StreamBudgetState::would_admit`], for callers
    /// whose debit is a **sum of conversions** (a pool batch debits
    /// `Σ epsilon_to_units(εᵢ)`, and the ceiling is subadditive — summing
    /// in ε first and converting once can under-state the grant path's
    /// integer by up to one unit per summand).
    pub fn would_admit_units(&self, cost_units: u64) -> bool {
        match self.budget {
            StreamBudget::SlidingWindow { .. } => {
                self.frame_units.saturating_add(cost_units) <= self.cap_units
            }
            _ => true,
        }
    }

    /// Slides the frame by one window that debited `cost` ε (`0.0` for a
    /// refused or silent window). Call exactly once per window, after the
    /// admit decision.
    pub fn advance(&mut self, cost: f64) {
        let units = if cost == 0.0 { 0 } else { epsilon_to_units(cost) };
        self.advance_units(units);
    }

    /// Unit-denominated [`StreamBudgetState::advance`] — see
    /// [`StreamBudgetState::would_admit_units`] for when the caller must
    /// sum units itself.
    pub fn advance_units(&mut self, cost_units: u64) {
        let StreamBudget::SlidingWindow { window, .. } = self.budget else {
            return;
        };
        self.frame.push_back(cost_units);
        self.frame_units = self.frame_units.saturating_add(cost_units);
        // Keep the last `window - 1` debits: together with the next
        // incoming window they form one full frame.
        while self.frame.len() >= window.max(1) {
            let expired = self.frame.pop_front().expect("len checked");
            self.frame_units -= expired;
        }
    }

    /// ε debited across the retained frame (the last `window − 1` windows),
    /// as this process has seen it: the frame is not durable.
    pub fn frame_spent(&self) -> f64 {
        units_to_epsilon(self.frame_units)
    }

    /// Remaining frame budget for the incoming window, or `None` when the
    /// stream budget imposes no frame cap.
    pub fn frame_remaining(&self) -> Option<f64> {
        match self.budget {
            StreamBudget::SlidingWindow { .. } => {
                Some(units_to_epsilon(self.cap_units.saturating_sub(self.frame_units)))
            }
            _ => None,
        }
    }
}

/// Decomposes the window range `[range.start, range.end)` into maximal
/// dyadic nodes `(level, position)` with `level ≤ max_level`, where node
/// `(l, j)` covers windows `[j·2^l, (j+1)·2^l)`. Greedy by alignment: the
/// classic binary-tree range decomposition, touching at most
/// `2·max_level + ⌈(range length) / 2^max_level⌉` nodes — `O(log T)` for a
/// range of `T` windows when `max_level ≥ ⌈log2 T⌉`.
pub fn dyadic_decomposition(range: std::ops::Range<u64>, max_level: u32) -> Vec<(u32, u64)> {
    let max_level = max_level.min(62);
    let mut nodes = Vec::new();
    let (mut at, end) = (range.start, range.end);
    while at < end {
        let alignment = if at == 0 { 62 } else { at.trailing_zeros().min(62) };
        let mut level = alignment.min(max_level);
        while (1u64 << level) > end - at {
            level -= 1;
        }
        nodes.push((level, at >> level));
        at += 1u64 << level;
    }
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_spend_is_atomic() {
        let acc = BudgetAccountant::with_limit(1.0).unwrap();
        let entry = |label: &str, eps: f64| {
            (label.to_string(), "P".to_string(), eps, PrivacyGuarantee::OneSided)
        };
        // A batch exceeding the cap is refused whole: nothing spent.
        let too_big = [entry("a", 0.6), entry("b", 0.6)];
        assert!(matches!(acc.spend_batch(&too_big), Err(OsdpError::BudgetExhausted { .. })));
        assert_eq!(acc.total_spent(), 0.0);
        // A fitting batch is admitted whole (dyadic epsilons are exact at
        // the fixed-point resolution, so they cover the cap exactly even
        // under ceiling rounding).
        let fits = [entry("a", 0.625), entry("b", 0.375)];
        acc.spend_batch(&fits).unwrap();
        assert!((acc.total_spent() - 1.0).abs() < 1e-12);
        // The accountant is now exhausted for any further batch.
        assert!(acc.spend_batch(&[entry("c", 0.1)]).is_err());
        // Invalid epsilons are rejected before anything is admitted.
        let invalid = [entry("ok", 0.1), entry("bad", -1.0)];
        let fresh = BudgetAccountant::with_limit(1.0).unwrap();
        assert!(fresh.spend_batch(&invalid).is_err());
        assert_eq!(fresh.total_spent(), 0.0);
    }

    #[test]
    fn privacy_budget_validates_and_splits() {
        let b = PrivacyBudget::new(1.0).unwrap();
        assert_eq!(b.epsilon(), 1.0);
        assert!(PrivacyBudget::new(0.0).is_err());
        assert!(PrivacyBudget::new(f64::NAN).is_err());

        let (a, rest) = b.split(0.1).unwrap();
        assert!((a.epsilon() - 0.1).abs() < 1e-12);
        assert!((rest.epsilon() - 0.9).abs() < 1e-12);
        assert!(b.split(0.0).is_err());
        assert!(b.split(1.0).is_err());
    }

    #[test]
    fn sequential_composition_adds_up() {
        let acc = BudgetAccountant::unlimited();
        acc.spend("m1", "P99", 0.3, PrivacyGuarantee::OneSided).unwrap();
        acc.spend("m2", "P90", 0.7, PrivacyGuarantee::OneSided).unwrap();
        assert!((acc.total_spent() - 1.0).abs() < 1e-12);
        assert_eq!(acc.remaining(), None);
    }

    #[test]
    fn limit_is_enforced() {
        let acc = BudgetAccountant::with_limit(1.0).unwrap();
        assert_eq!(acc.limit(), Some(1.0));
        acc.spend("a", "P", 0.75, PrivacyGuarantee::DifferentialPrivacy).unwrap();
        assert!((acc.remaining().unwrap() - 0.25).abs() < 1e-12);
        let err = acc.spend("b", "P", 0.5, PrivacyGuarantee::DifferentialPrivacy).unwrap_err();
        assert!(matches!(err, OsdpError::BudgetExhausted { .. }));
        // Failed spends must not be recorded.
        assert!((acc.remaining().unwrap() - 0.25).abs() < 1e-12);
        // Spending exactly the remainder (exact at the fixed-point
        // resolution) is fine.
        acc.spend("c", "P", 0.25, PrivacyGuarantee::DifferentialPrivacy).unwrap();
        assert!(acc.remaining().unwrap().abs() < 1e-9);
    }

    #[test]
    fn invalid_epsilons_are_rejected() {
        let acc = BudgetAccountant::unlimited();
        assert!(acc.spend("a", "P", -1.0, PrivacyGuarantee::OneSided).is_err());
        assert!(acc.spend("a", "P", f64::INFINITY, PrivacyGuarantee::OneSided).is_err());
        assert!(BudgetAccountant::with_limit(-3.0).is_err());
    }

    #[test]
    fn parallel_composition_costs_the_max() {
        let acc = BudgetAccountant::unlimited();
        acc.spend_parallel(
            "per-partition release",
            PrivacyGuarantee::ExtendedOneSided,
            &[("p0", "P1", 0.2), ("p1", "P2", 0.5), ("p2", "P1", 0.3)],
        )
        .unwrap();
        assert!((acc.total_spent() - 0.5).abs() < 1e-12);

        assert!(acc.spend_parallel("empty", PrivacyGuarantee::OneSided, &[]).is_err());
        assert!(acc
            .spend_parallel("bad", PrivacyGuarantee::OneSided, &[("x", "P", -0.1)])
            .is_err());
    }

    #[test]
    fn fixed_point_grants_are_exact_and_order_independent() {
        // The admitted total is an integer sum of fixed-point units, so any
        // permutation of the same granted spends lands on the same counter.
        let forward = BudgetAccountant::unlimited();
        let reverse = BudgetAccountant::unlimited();
        let epsilons = [0.3, 0.1, 0.25, 0.07, 1.4];
        for &eps in &epsilons {
            forward.spend("m", "P", eps, PrivacyGuarantee::OneSided).unwrap();
        }
        for &eps in epsilons.iter().rev() {
            reverse.spend("m", "P", eps, PrivacyGuarantee::OneSided).unwrap();
        }
        assert_eq!(forward.total_spent_units(), reverse.total_spent_units());
        assert_eq!(forward.total_spent(), reverse.total_spent());
        // Ceiling rounding: 0.1 and 0.07 sit just above their decimals in
        // binary, so each costs one extra 1e-12 unit; the admitted total can
        // only over-state the real sum, never under-state it.
        assert_eq!(forward.total_spent_units(), 2_120_000_000_002);
        assert!(forward.total_spent() >= 2.12);
        assert!(forward.total_spent() < 2.12 + 5.0 * BudgetAccountant::RESOLUTION);
    }

    #[test]
    fn sub_resolution_spends_still_accrue() {
        // A spend below RESOLUTION/2 must not round to zero units: a capped
        // accountant has to refuse an unbounded stream of tiny spends
        // eventually, not grant them forever at zero recorded cost.
        let acc = BudgetAccountant::with_limit(1e-9).unwrap();
        let mut granted = 0usize;
        while acc.spend("tiny", "P", 4.9e-13, PrivacyGuarantee::OneSided).is_ok() {
            granted += 1;
            assert!(granted <= 2000, "tiny spends must exhaust the cap");
        }
        // Each tiny spend costs at least one 1e-12 unit. The f64 nearest to
        // 1e-9 sits just above the decimal, so the ceiling-rounded cap is
        // 1001 units, not 1000.
        assert_eq!(granted, 1001);
        assert!(acc.total_spent() > 0.0);
    }

    #[test]
    fn concurrent_spenders_never_exceed_the_cap() {
        use std::sync::Arc;
        // 16 threads race 0.125-ε grants against a 1.0 cap: exactly 8 can
        // win, and grants + refusals account for every attempt.
        let acc = Arc::new(BudgetAccountant::with_limit(1.0).unwrap());
        let handles: Vec<_> = (0..16)
            .map(|_| {
                let acc = Arc::clone(&acc);
                std::thread::spawn(move || {
                    acc.spend("m", "P", 0.125, PrivacyGuarantee::OneSided).is_ok()
                })
            })
            .collect();
        let granted = handles.into_iter().map(|h| h.join().unwrap()).filter(|&ok| ok).count();
        assert_eq!(granted, 8);
        assert_eq!(acc.total_spent(), 1.0);
        assert_eq!(acc.remaining(), Some(0.0));
    }

    #[test]
    fn epsilon_to_units_rounds_up_and_never_undercounts() {
        // Exact at the resolution: no rounding either way.
        assert_eq!(epsilon_to_units(1.0), 1_000_000_000_000);
        assert_eq!(epsilon_to_units(0.125), 125_000_000_000);
        assert_eq!(epsilon_to_units(1e-12), 1);
        // The f64 nearest to 0.1 lies just above the decimal: the ceiling
        // charges the extra unit the old round-to-nearest dropped.
        assert_eq!(epsilon_to_units(0.1), 100_000_000_001);
        assert_eq!(epsilon_to_units(0.2), 200_000_000_001);
        // ...while 0.3 lies just below and lands on the decimal exactly.
        assert_eq!(epsilon_to_units(0.3), 300_000_000_000);
        // Sub-resolution spends still cost one unit.
        assert_eq!(epsilon_to_units(4.9e-13), 1);
        assert_eq!(epsilon_to_units(f64::MIN_POSITIVE), 1);
        // Huge epsilons saturate instead of wrapping.
        assert_eq!(epsilon_to_units(1e30), u64::MAX);
        // The defining invariant: the debit's f64 view never reads below
        // the spend.
        for eps in [0.1, 0.2, 0.3, 0.07, 1.4, 2.12, 1e-9, 4.9e-13, 3.7, 1e6] {
            let units = epsilon_to_units(eps);
            assert!(units_to_epsilon(units) >= eps, "undercount at {eps}");
            assert!(
                units == 1
                    || units_to_epsilon(units - 1)
                        < eps * (1.0 + 1e-15) + BudgetAccountant::RESOLUTION,
                "gross overcount at {eps}"
            );
        }
        assert_eq!(units_to_epsilon(750_000_000_000), 0.75);
    }

    #[test]
    fn sliding_window_state_enforces_the_frame_cap() {
        // Frame of 3 windows, cap 0.25: two 0.125 grants fill a frame.
        let budget = StreamBudget::SlidingWindow { epsilon: 0.25, window: 3 };
        let mut state = StreamBudgetState::new(budget).unwrap();
        assert!(state.would_admit(0.125));
        state.advance(0.125);
        assert!(state.would_admit(0.125));
        state.advance(0.125);
        // Third window of the frame: refused, slides through empty.
        assert!(!state.would_admit(0.125));
        assert_eq!(state.frame_remaining(), Some(0.0));
        state.advance(0.0);
        // The first grant has now expired from the frame: admitted again.
        assert!(state.would_admit(0.125));
        assert!((state.frame_spent() - 0.125).abs() < 1e-12);
        state.advance(0.125);
        // A cost above the whole frame cap never fits.
        assert!(!state.would_admit(0.5));

        // Parameter validation.
        assert!(StreamBudget::SlidingWindow { epsilon: 0.0, window: 3 }.validate().is_err());
        assert!(StreamBudget::SlidingWindow { epsilon: 1.0, window: 0 }.validate().is_err());
        assert!(StreamBudget::Hierarchical { levels: 0 }.validate().is_err());
        assert!(StreamBudget::Hierarchical { levels: 63 }.validate().is_err());
        assert!(StreamBudget::PerWindow.validate().is_ok());

        // PerWindow / Hierarchical states admit everything (enforcement
        // lives in the accountant cap and the node-release path).
        let mut free = StreamBudgetState::new(StreamBudget::PerWindow).unwrap();
        assert!(free.would_admit(1e6));
        free.advance(1e6);
        assert_eq!(free.frame_remaining(), None);
    }

    #[test]
    fn dyadic_decomposition_covers_ranges_with_log_many_nodes() {
        // Every decomposition covers the range exactly, in order, with
        // disjoint nodes.
        let check = |range: std::ops::Range<u64>, max_level: u32| {
            let nodes = dyadic_decomposition(range.clone(), max_level);
            let mut at = range.start;
            for &(level, pos) in &nodes {
                assert!(level <= max_level);
                assert_eq!(pos << level, at, "nodes tile the range in order");
                at += 1u64 << level;
            }
            assert_eq!(at, range.end, "range covered exactly");
            nodes
        };
        // An aligned power-of-two range is one node.
        assert_eq!(check(0..16, 4), vec![(4, 0)]);
        // A mis-aligned range climbs then descends: O(log T) nodes.
        assert_eq!(check(1..16, 4), vec![(0, 1), (1, 1), (2, 1), (3, 1)]);
        assert_eq!(check(3..13, 4).len(), 4); // [3,4) [4,8) [8,12) [12,13)
        for (range, bound) in [(0..1000, 2 * 10), (7..777, 2 * 10), (5..6, 1)] {
            let len = (range.end - range.start) as f64;
            let nodes = check(range, 10);
            assert!(
                nodes.len() <= bound,
                "{} nodes for a {}-window range (bound {bound})",
                nodes.len(),
                len
            );
        }
        // Levels cap: with max_level 0 every window is its own node.
        assert_eq!(check(0..5, 0).len(), 5);
        assert!(dyadic_decomposition(4..4, 3).is_empty());
    }

    #[test]
    fn recovered_accountants_resume_the_exact_counter() {
        // Restoring the raw unit count reproduces the pre-crash state bit
        // for bit: remaining budget continues from where the ledger stopped.
        let acc = BudgetAccountant::recovered(Some(1.0), 750_000_000_000).unwrap();
        assert_eq!(acc.total_spent_units(), 750_000_000_000);
        assert_eq!(acc.total_spent(), 0.75);
        assert!((acc.remaining().unwrap() - 0.25).abs() < 1e-12);
        acc.spend("post-recovery", "P", 0.25, PrivacyGuarantee::OneSided).unwrap();
        assert!(acc
            .spend("over", "P", BudgetAccountant::RESOLUTION, PrivacyGuarantee::OneSided)
            .is_err());
        // A recovered spend above a lowered cap refuses everything but is
        // not an error in itself.
        let over = BudgetAccountant::recovered(Some(0.5), 750_000_000_000).unwrap();
        assert_eq!(over.remaining(), Some(0.0));
        assert!(over.spend("x", "P", 1e-6, PrivacyGuarantee::OneSided).is_err());
        // Unlimited recovery records without enforcing.
        let free = BudgetAccountant::recovered(None, 42).unwrap();
        assert_eq!(free.total_spent_units(), 42);
        assert!(BudgetAccountant::recovered(Some(-1.0), 0).is_err());
    }

    #[test]
    fn accountant_is_shareable_across_threads() {
        use std::sync::Arc;
        let acc = Arc::new(BudgetAccountant::unlimited());
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let acc = Arc::clone(&acc);
                std::thread::spawn(move || {
                    acc.spend(format!("m{i}"), "P", 0.125, PrivacyGuarantee::OneSided).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!((acc.total_spent() - 1.0).abs() < 1e-9);
    }
}
