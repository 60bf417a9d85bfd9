//! # osdp-attack
//!
//! The exclusion-attack machinery of Section 3.2 of the paper, made
//! executable.
//!
//! An **exclusion attack** happens when an adversary, observing that a record
//! was excluded from (or under-represented in) a release, sharpens their
//! belief about whether that record is *sensitive* — which, because
//! sensitivity is value-correlated, reveals something about the record's
//! value (the "Bob is in the smoker's lounge" story of the introduction).
//!
//! Definition 3.4 formalises protection as a bound on the posterior odds
//! ratio: a mechanism is `φ`-free from exclusion attacks if for every
//! sensitive value `x`, every other value `y`, and every output, the
//! adversary's odds of `x` vs `y` grow by at most `e^φ`.
//!
//! This crate computes that quantity **exactly** for per-record release
//! models with finite output spaces:
//!
//! * [`release_models::OsdpRrModel`] — `OsdpRR`, which achieves `φ = ε`
//!   (Theorem 3.1);
//! * [`release_models::SuppressModel`] — the PDP `Suppress` algorithm, which
//!   only achieves `φ = τ` (Theorem 3.4);
//! * [`release_models::TruthfulModel`] — truthful release of non-sensitive
//!   records (the Truman / "All NS" baseline), which is unboundedly exposed;
//! * [`release_models::DpGeometricModel`] — a plain DP mechanism, which also
//!   achieves `φ = ε` for every policy.
//!
//! [`adversary`] computes the worst-case and prior-specific posterior odds,
//! and [`verify`] checks the OSDP definition itself by enumerating one-sided
//! neighbors of small databases.
//!
//! Verifying a serving session's ledger against the composition theorems
//! is the engine's job (`osdp_engine::OsdpSession::verify_policy_lifecycle`),
//! not this crate's.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod adversary;
pub mod prior;
pub mod release_models;
pub mod verify;

pub use adversary::{exclusion_attack_phi, posterior_odds_ratio};
pub use prior::ProductPrior;
pub use release_models::{
    DpGeometricModel, OsdpRrModel, ReleaseModel, SuppressModel, TruthfulModel,
};
pub use verify::{verify_osdp_on_singletons, OsdpCheckOutcome};
