//! # osdp — One-sided Differential Privacy
//!
//! A from-scratch Rust implementation of **one-sided differential privacy**
//! (OSDP) as introduced by Doudalis, Kotsogiannis, Haney, Machanavajjhala and
//! Mehrotra in *"One-sided Differential Privacy"*, together with every
//! mechanism, baseline, data substrate and experiment needed to reproduce the
//! paper's evaluation.
//!
//! OSDP targets data sharing when only *part* of the data is sensitive, as
//! declared by an explicit **policy function**. It gives the sensitive
//! records a differential-privacy-style guarantee while still protecting the
//! *fact* that a record is sensitive — ruling out the *exclusion attacks*
//! that plague access control and personalized DP — and it lets mechanisms
//! exploit the non-sensitive records for large accuracy gains, including the
//! release of exact, true records.
//!
//! ## Crate map
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! * [`core`] — policies, records, databases, neighbors,
//!   histograms, budget accounting.
//! * [`engine`] — **the audited front door**: `OsdpSession`
//!   binds database + policy + budget, derives every histogram task from the
//!   bound policy, debits the accountant *before* sampling, logs every
//!   release, and batch-releases trials one-per-core.
//! * [`noise`] — Laplace, one-sided Laplace, exponential,
//!   geometric samplers.
//! * [`mechanisms`] — `OsdpRR`, `OsdpLaplace`,
//!   `OsdpLaplaceL1`, `DAWAz`, the DP Laplace/DAWA baselines and the PDP
//!   `Suppress` baseline.
//! * [`dawa`] — the DAWA two-phase DP histogram algorithm.
//! * [`data`] — DPBench-style benchmark histograms, opt-in/opt-out
//!   samplers, and the TIPPERS-like smart-building trajectory simulator.
//! * [`ml`] — logistic regression, ε-DP objective perturbation,
//!   ROC/AUC, cross-validation.
//! * [`metrics`] — MRE, per-bin relative error percentiles,
//!   regret.
//! * [`attack`] — the exclusion-attack adversary and OSDP
//!   verification tools.
//! * [`persist`] — the durable budget plane: per-tenant
//!   write-ahead ledgers with group-commit batching, snapshot/replay
//!   recovery (std-only, no dependencies beyond `osdp-core`).
//! * [`experiments`] — one runner per table/figure of the
//!   paper.
//!
//! ## Quickstart
//!
//! Everything is released through an [`OsdpSession`](osdp_engine::OsdpSession)
//! — the audited path that binds database, policy and budget, derives `x_ns`
//! from the bound policy, debits the accountant **before** sampling, and
//! refuses releases the budget cannot cover:
//!
//! ```
//! use osdp::prelude::*;
//!
//! // A database in which records of minors are sensitive.
//! let db: Database = (0..1000)
//!     .map(|i| Record::builder().field("age", Value::Int(10 + (i % 60))).build())
//!     .collect();
//! let policy = AttributePolicy::sensitive_when("age", |v| v.as_int().unwrap_or(0) <= 17);
//!
//! let session = SessionBuilder::new(db)
//!     .policy(policy, "minors")
//!     .budget(2.0)
//!     .seed(7)
//!     .build()
//!     .unwrap();
//!
//! // Release a true sample of the non-sensitive records under (P, 1.0)-OSDP.
//! let sample = session.release_records(&OsdpRr::new(1.0).unwrap()).unwrap();
//! assert!(sample.iter().all(|r| r.int("age").unwrap() > 17));
//! assert!(!sample.is_empty());
//!
//! // Answer a histogram query with one-sided noise; the session derives the
//! // task from the bound policy.
//! let ages = SessionQuery::count_by("age-decades", 6, |r: &Record| {
//!     r.int("age").ok().map(|a| ((a - 10) / 10) as usize)
//! });
//! let release = session.release(&ages, &OsdpLaplaceL1::new(1.0).unwrap()).unwrap();
//! assert_eq!(release.estimate.len(), 6);
//!
//! // The 2.0 budget is now spent: further releases are refused up front.
//! assert!(matches!(
//!     session.release(&ages, &OsdpLaplaceL1::new(1.0).unwrap()),
//!     Err(OsdpError::BudgetExhausted { .. })
//! ));
//!
//! // ...and the audit ledger verifies against the composition theorems.
//! let verdict = session.verify_policy_lifecycle(Some(2.0));
//! assert!(verdict.upholds_osdp());
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub use osdp_attack as attack;
pub use osdp_core as core;
pub use osdp_data as data;
pub use osdp_dawa as dawa;
pub use osdp_engine as engine;
pub use osdp_experiments as experiments;
pub use osdp_mechanisms as mechanisms;
pub use osdp_metrics as metrics;
pub use osdp_ml as ml;
pub use osdp_noise as noise;
pub use osdp_persist as persist;

/// The most commonly used items, re-exported flat for convenience.
pub mod prelude {
    pub use osdp_core::{
        budget::{
            dyadic_decomposition, epsilon_to_units, units_to_epsilon, BudgetAccountant, Guarantee,
            PrivacyBudget, PrivacyGuarantee, StreamBudget, StreamBudgetState,
        },
        policy::{
            AllSensitive, AttributePolicy, ClosurePolicy, EpochDirection, MinimumRelaxation,
            NoneSensitive, Policy, PolicyEpoch, Sensitivity, VersionedPolicy,
        },
        BinSpec, ColumnarFrame, Database, FaultClass, Histogram, Histogram2D, OsdpError,
        PersistError, PersistOp, PolicyMask, Record, SparseHistogram, Value,
    };
    pub use osdp_engine::{
        histogram_session, pair_query, pair_session, pool_from_names, pool_from_specs,
        windows_from_databases, AuditLog, AuditRecord, Backend, ColumnarBackend, DeviceIncident,
        EpochTransition, EpochVerdict, GroupCommitStats, HealOutcome, HealthPolicy, HistogramPair,
        LedgerOptions, LedgerVerdict, ManualClock, MechanismSpec, OsdpSession,
        PoolMaintenanceError, PoolRelease, PoolScrubReport, PoolSupervisor, PoolVerdict,
        PoolWindowOutcome, QueryPlan, RecoveryReport, Release, ReleaseStamp, RetryPolicy,
        RowBackend, SessionBuilder, SessionPersistence, SessionPool, SessionQuery, SessionWal,
        StreamSession, StreamSessionBuilder, SupervisorClock, SupervisorConfig, SupervisorEvent,
        SupervisorHandle, SyncPolicy, SyntheticWindows, SystemClock, TenantHealth,
        TenantHealthReport, TenantVerdict, TickReport, Window, WindowOutcome, WindowSource,
    };
    pub use osdp_mechanisms::{
        DawaHistogram, Dawaz, DpLaplaceHistogram, HistogramMechanism, HistogramTask, HybridLaplace,
        OsdpLaplace, OsdpLaplaceL1, OsdpRr, OsdpRrHistogram, Suppress, TruncatedNgramLaplace,
    };
    pub use osdp_metrics::{
        l1_error, mean_relative_error, relative_error_percentile, RegretTable, ResultRow,
        ResultTable, REL50, REL95,
    };
    pub use osdp_noise::{Laplace, OneSidedLaplace, SeedSequence};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_are_usable_together() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(1);
        let task = HistogramTask::all_non_sensitive(Histogram::from_counts(vec![50.0; 16]));
        let mechanism = OsdpLaplaceL1::new(1.0).unwrap();
        let estimate = mechanism.release(&task, &mut rng);
        let mre = mean_relative_error(task.full(), &estimate).unwrap();
        assert!(mre < 1.0);
        let budget = PrivacyBudget::new(1.0).unwrap();
        assert_eq!(budget.epsilon(), 1.0);
    }
}
