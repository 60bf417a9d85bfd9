//! The shared interface of all histogram-release mechanisms.
//!
//! DP mechanisms only look at the full histogram `x`; OSDP mechanisms also
//! (or only) look at the non-sensitive sub-histogram `x_ns`. Packaging both in
//! a [`HistogramTask`] lets the evaluation harness run the whole algorithm
//! pool over identical inputs, which is what the regret analysis of
//! Section 6.3.3.2 requires.
//!
//! Outside of mechanism-internal tests, [`HistogramTask`]s are derived by
//! `osdp_engine::OsdpSession` (which binds the database and policy and debits
//! the budget) rather than constructed by hand — the session is the audited
//! front door of the workspace.

use osdp_core::error::{OsdpError, Result};
use osdp_core::{Guarantee, Histogram};

/// A histogram-release task: the true histogram and its non-sensitive part.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramTask {
    full: Histogram,
    non_sensitive: Histogram,
}

impl HistogramTask {
    /// Creates a task, checking that the two histograms have the same domain
    /// and that the non-sensitive counts never exceed the full counts.
    pub fn new(full: Histogram, non_sensitive: Histogram) -> Result<Self> {
        if full.len() != non_sensitive.len() {
            return Err(OsdpError::DimensionMismatch {
                expected: full.len(),
                actual: non_sensitive.len(),
            });
        }
        if !non_sensitive.dominated_by(&full)? {
            return Err(OsdpError::InvalidInput(
                "non-sensitive histogram exceeds the full histogram in some bin".into(),
            ));
        }
        Ok(Self { full, non_sensitive })
    }

    /// A task in which every record is non-sensitive (`x_ns = x`).
    pub fn all_non_sensitive(full: Histogram) -> Self {
        let non_sensitive = full.clone();
        Self { full, non_sensitive }
    }

    /// A task in which every record is sensitive (`x_ns = 0`).
    pub fn all_sensitive(full: Histogram) -> Self {
        let non_sensitive = Histogram::zeros(full.len());
        Self { full, non_sensitive }
    }

    /// The full histogram `x`.
    pub fn full(&self) -> &Histogram {
        &self.full
    }

    /// The non-sensitive sub-histogram `x_ns`.
    pub fn non_sensitive(&self) -> &Histogram {
        &self.non_sensitive
    }

    /// The sensitive part `x − x_ns` (non-negative by construction).
    ///
    /// Returns an error instead of panicking if the task invariant was
    /// violated (e.g. a task deserialised from untrusted data whose histogram
    /// lengths disagree).
    pub fn sensitive(&self) -> Result<Histogram> {
        self.full.sub(&self.non_sensitive)
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.full.len()
    }

    /// Fraction of records that are non-sensitive (`ρx` in the paper).
    ///
    /// For an **empty task** (total count 0) the ratio is undefined; this
    /// convenience accessor returns `0.0` for it — the conservative reading
    /// ("nothing is known to be non-sensitive"). Use
    /// [`HistogramTask::checked_non_sensitive_ratio`] to distinguish the
    /// empty case explicitly.
    pub fn non_sensitive_ratio(&self) -> f64 {
        self.checked_non_sensitive_ratio().unwrap_or(0.0)
    }

    /// Fraction of records that are non-sensitive, or `None` when the task is
    /// empty (total count 0) and the ratio is undefined.
    pub fn checked_non_sensitive_ratio(&self) -> Option<f64> {
        let total = self.full.total();
        if total > 0.0 {
            Some(self.non_sensitive.total() / total)
        } else {
            None
        }
    }
}

/// A mechanism that releases an estimate of a histogram.
pub trait HistogramMechanism: Send + Sync {
    /// A short, stable display name (used as the algorithm label in figures).
    fn name(&self) -> &str;

    /// Writes an estimate of the task's full histogram into `out`, drawing
    /// noise over a concrete ChaCha RNG (block fill kernels, no per-sample
    /// virtual dispatch). This is the one sampling implementation of every
    /// mechanism; golden hashes of seeded releases pin its bits
    /// (`tests/release_parity.rs`).
    ///
    /// `out` is owned by the caller and fully overwritten: it is resized to
    /// the task's bin count and every bin is written, so stale contents can
    /// never leak into a release. Callers reuse one `out` (and, for
    /// mechanisms with internal scratch, one thread) across releases to
    /// amortize allocation; `osdp_engine`'s batch paths do exactly that.
    fn release_into(
        &self,
        task: &HistogramTask,
        rng: &mut rand_chacha::ChaCha12Rng,
        out: &mut Histogram,
    );

    /// Releases an estimate into a fresh histogram: [`release_into`] on an
    /// empty buffer, for callers that do not reuse one.
    ///
    /// [`release_into`]: HistogramMechanism::release_into
    fn release(&self, task: &HistogramTask, rng: &mut rand_chacha::ChaCha12Rng) -> Histogram {
        let mut out = Histogram::zeros(0);
        self.release_into(task, rng, &mut out);
        out
    }

    /// The quantified privacy guarantee one invocation provides: the kind of
    /// definition (DP / OSDP / PDP) together with its budget. Sessions debit
    /// [`Guarantee::epsilon`] from the bound accountant *before* sampling,
    /// and reports thread [`Guarantee::label`] through their rows.
    fn guarantee(&self) -> Guarantee;
}

/// Blanket impl so `&M`, `Box<M>` and `Arc<M>` can be used in mechanism pools.
impl<M: HistogramMechanism + ?Sized> HistogramMechanism for &M {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn release_into(
        &self,
        task: &HistogramTask,
        rng: &mut rand_chacha::ChaCha12Rng,
        out: &mut Histogram,
    ) {
        (**self).release_into(task, rng, out)
    }
    fn guarantee(&self) -> Guarantee {
        (**self).guarantee()
    }
}

impl<M: HistogramMechanism + ?Sized> HistogramMechanism for Box<M> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn release_into(
        &self,
        task: &HistogramTask,
        rng: &mut rand_chacha::ChaCha12Rng,
        out: &mut Histogram,
    ) {
        (**self).release_into(task, rng, out)
    }
    fn guarantee(&self) -> Guarantee {
        (**self).guarantee()
    }
}

impl<M: HistogramMechanism + ?Sized> HistogramMechanism for std::sync::Arc<M> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn release_into(
        &self,
        task: &HistogramTask,
        rng: &mut rand_chacha::ChaCha12Rng,
        out: &mut Histogram,
    ) {
        (**self).release_into(task, rng, out)
    }
    fn guarantee(&self) -> Guarantee {
        (**self).guarantee()
    }
}

/// Convenience for tests and experiments: builds a task from raw count slices.
pub fn task_from_counts(full: &[f64], non_sensitive: &[f64]) -> Result<HistogramTask> {
    HistogramTask::new(
        Histogram::from_counts(full.to_vec()),
        Histogram::from_counts(non_sensitive.to_vec()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_construction_validates_inputs() {
        let ok = task_from_counts(&[5.0, 3.0, 0.0], &[2.0, 3.0, 0.0]).unwrap();
        assert_eq!(ok.bins(), 3);
        assert_eq!(ok.full().total(), 8.0);
        assert_eq!(ok.non_sensitive().total(), 5.0);
        assert_eq!(ok.sensitive().unwrap().counts(), &[3.0, 0.0, 0.0]);
        assert!((ok.non_sensitive_ratio() - 5.0 / 8.0).abs() < 1e-12);
        assert!((ok.checked_non_sensitive_ratio().unwrap() - 5.0 / 8.0).abs() < 1e-12);

        assert!(task_from_counts(&[1.0, 2.0], &[1.0]).is_err(), "length mismatch");
        assert!(task_from_counts(&[1.0, 2.0], &[1.0, 3.0]).is_err(), "x_ns exceeds x");
    }

    #[test]
    fn degenerate_tasks() {
        let full = Histogram::from_counts(vec![4.0, 2.0]);
        let all_ns = HistogramTask::all_non_sensitive(full.clone());
        assert_eq!(all_ns.non_sensitive_ratio(), 1.0);
        assert_eq!(all_ns.sensitive().unwrap().total(), 0.0);
        let all_s = HistogramTask::all_sensitive(full);
        assert_eq!(all_s.non_sensitive_ratio(), 0.0);
        assert_eq!(all_s.sensitive().unwrap().total(), 6.0);

        // An empty task has no defined ratio: the unchecked accessor reports
        // the conservative 0.0, the checked accessor reports None.
        let empty = HistogramTask::all_sensitive(Histogram::zeros(3));
        assert_eq!(empty.non_sensitive_ratio(), 0.0);
        assert_eq!(empty.checked_non_sensitive_ratio(), None);
        let empty_ns = HistogramTask::all_non_sensitive(Histogram::zeros(3));
        assert_eq!(empty_ns.checked_non_sensitive_ratio(), None);
    }

    struct Echo;
    impl HistogramMechanism for Echo {
        fn name(&self) -> &str {
            "Echo"
        }
        fn release_into(
            &self,
            task: &HistogramTask,
            _rng: &mut rand_chacha::ChaCha12Rng,
            out: &mut Histogram,
        ) {
            out.assign(task.full().counts());
        }
        fn guarantee(&self) -> Guarantee {
            Guarantee::Osdp { eps: 1.0 }
        }
    }

    #[test]
    fn trait_objects_and_smart_pointers_work() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(0);
        let task = task_from_counts(&[1.0, 2.0], &[1.0, 1.0]).unwrap();

        let echo = Echo;
        assert_eq!(echo.name(), "Echo");
        assert!(!echo.guarantee().is_differentially_private());
        assert_eq!(echo.release(&task, &mut rng).counts(), &[1.0, 2.0]);

        let boxed: Box<dyn HistogramMechanism> = Box::new(Echo);
        assert_eq!(boxed.name(), "Echo");
        assert_eq!(boxed.release(&task, &mut rng).counts(), &[1.0, 2.0]);
        assert_eq!(boxed.guarantee().epsilon(), 1.0);

        let arced: std::sync::Arc<dyn HistogramMechanism> = std::sync::Arc::new(Echo);
        assert_eq!(arced.name(), "Echo");
        assert!(!arced.guarantee().is_differentially_private());
        assert_eq!(arced.guarantee().label(), "OSDP");
    }
}
