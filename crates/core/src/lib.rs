//! # osdp-core
//!
//! Core abstractions for **one-sided differential privacy** (OSDP), the
//! privacy definition introduced by Doudalis, Kotsogiannis, Haney,
//! Machanavajjhala and Mehrotra in *"One-sided Differential Privacy"*.
//!
//! OSDP targets data sharing scenarios in which only a *subset* of the records
//! in a database are sensitive, as dictated by an explicit **policy function**
//! `P : T -> {sensitive, non-sensitive}`. The definition provides a
//! differential-privacy-style indistinguishability guarantee for the sensitive
//! records while allowing mechanisms to exploit — and even truthfully release
//! parts of — the non-sensitive records, *without* revealing which records are
//! sensitive (freedom from *exclusion attacks*).
//!
//! This crate contains the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`Value`], [`Record`] and [`Database`] — a schema-light relational data
//!   model (a database is a multiset of records).
//! * [`Policy`] and its combinators — policy functions, policy relaxation
//!   (Definition 3.5 of the paper) and minimum relaxations (Definition 3.6).
//! * [`neighbors`] — neighboring-database relations: the symmetric DP relation
//!   (Definition 2.1), the asymmetric one-sided `P`-neighbor relation
//!   (Definition 3.2), and the extended relation of the appendix
//!   (Definition 10.1).
//! * [`Histogram`] / [`Histogram2D`] — dense count vectors over categorical
//!   domains, the main query class studied in Section 5 of the paper.
//! * [`budget`] — a lock-free privacy-budget accountant implementing
//!   sequential composition (Theorem 3.3) and parallel composition
//!   (Theorem 10.2).
//! * [`frame`] — the columnar data plane: [`ColumnarFrame`] snapshots of
//!   record databases (typed columns, optional row weights), [`PolicyMask`]
//!   bitmasks, and the compiled, vectorized forms of policies
//!   ([`CompiledPolicy`]) and bin assignments ([`BinSpec`]) that the
//!   `osdp-engine` backends evaluate in one pass per column instead of one
//!   virtual call per record.
//!
//! Mechanisms themselves live in the `osdp-mechanisms` crate; this crate is
//! deliberately free of randomness so that its invariants can be tested
//! exhaustively and deterministically.
//!
//! ## Quick example
//!
//! ```
//! use osdp_core::{Database, Record, Value, policy::{AttributePolicy, Policy}};
//!
//! // A tiny database of ages.
//! let db: Database = (0..10)
//!     .map(|age| Record::builder().field("age", Value::Int(20 + age)).build())
//!     .collect();
//!
//! // Records of minors are sensitive (none here), everyone else is not.
//! let policy = AttributePolicy::sensitive_when("age", |v| v.as_int().unwrap_or(0) <= 17);
//! assert_eq!(db.count_sensitive(&policy), 0);
//! assert_eq!(db.count_non_sensitive(&policy), 10);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod budget;
pub mod database;
pub mod domain;
pub mod error;
pub mod frame;
pub mod histogram;
pub mod json;
pub mod neighbors;
pub mod policy;
pub mod record;
pub mod sparse;
pub mod value;

pub use budget::{
    dyadic_decomposition, epsilon_to_units, units_to_epsilon, BudgetAccountant, Guarantee,
    PrivacyBudget, PrivacyGuarantee, StreamBudget, StreamBudgetState,
};
pub use database::Database;
pub use domain::{CategoricalDomain, GridDomain};
pub use error::{FaultClass, OsdpError, PersistError, PersistOp, Result};
pub use frame::{
    BinSpec, Column, ColumnarFrame, CompiledPolicy, FrameBuilder, FrameColumn, PolicyMask,
};
pub use histogram::{Histogram, Histogram2D};
pub use json::{json_number, json_string};
pub use neighbors::{dp_neighbors, extended_one_sided_neighbors, one_sided_neighbors};
pub use policy::{
    AllSensitive, AttributePolicy, ClosurePolicy, EpochDirection, MinimumRelaxation, NoneSensitive,
    Policy, PolicyEpoch, Sensitivity, VersionedPolicy,
};
pub use record::{Record, RecordBuilder, RecordId};
pub use sparse::SparseHistogram;
pub use value::Value;
