//! # osdp-metrics
//!
//! Error measures and result aggregation for the OSDP evaluation (Section 6 of
//! the paper):
//!
//! * [`mre`] — mean relative error, the paper's headline histogram metric.
//! * [`relative`] — per-bin relative error and its percentiles (Rel50, Rel95).
//! * [`lp`] — L1 / L2 / scale-normalised error.
//! * [`mod@regret`] — the regret of an algorithm against the per-input optimum of
//!   an algorithm pool, used throughout Section 6.3.3.2.
//! * [`auc_summary`] — classification error summaries (1 − AUC) for Figure 1.
//! * [`table`] — a small labelled result table used by the experiment
//!   harness to aggregate and render paper-style rows.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod auc_summary;
pub mod lp;
pub mod mre;
pub mod regret;
pub mod relative;
pub mod table;

pub use auc_summary::AucSummary;
pub use lp::{l1_error, l2_error, scaled_l1_error};
pub use mre::{mean_relative_error, mean_relative_error_with_delta, sparse_mre_with_background};
pub use osdp_core::{json_number, json_string};
pub use regret::{regret, RegretTable};
pub use relative::{per_bin_relative_error, relative_error_percentile, REL50, REL95};
pub use table::{ResultRow, ResultTable};
