//! Per-thread scratch buffers of the release path.
//!
//! The two-phase mechanisms (`DAWA`, `DAWAz` and the recipe family) need
//! working memory per release: merge-tree arenas, the chosen partition, the
//! zero-bin flags. [`HistogramMechanism::release_into`]'s signature
//! deliberately stays minimal (`task`, `rng`, `out`), so that memory is
//! carried in a thread-local [`ReleaseScratch`] pool instead of being
//! threaded through every caller: each OS thread pays for the buffers once
//! and every release it runs afterwards — the engine's rayon trial batches
//! run many releases per worker thread — reuses them.
//!
//! [`HistogramMechanism::release_into`]: crate::HistogramMechanism::release_into

use osdp_dawa::DawaScratch;
use std::cell::RefCell;

/// Reusable per-thread working memory for `release_into` implementations.
#[derive(Debug, Default)]
pub struct ReleaseScratch {
    /// DAWA's partitioning arena, partition and bucket totals.
    pub dawa: DawaScratch,
    /// Per-bin flags (the recipe's detected zero set).
    pub flags: Vec<bool>,
}

thread_local! {
    static SCRATCH: RefCell<ReleaseScratch> = RefCell::new(ReleaseScratch::default());
}

/// Runs `f` with this thread's [`ReleaseScratch`].
///
/// Top-level use only: a `release_into` implementation that delegates to
/// another mechanism's `release_into` must pass scratch pieces down
/// explicitly rather than re-entering this function (the thread-local is a
/// `RefCell`, so nested borrows panic — which is exactly the loud failure
/// wanted if the discipline is violated).
pub fn with_scratch<T>(f: impl FnOnce(&mut ReleaseScratch) -> T) -> T {
    SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_is_reused_within_a_thread() {
        let first = with_scratch(|s| {
            s.flags.clear();
            s.flags.resize(64, false);
            s.flags.as_ptr() as usize
        });
        let second = with_scratch(|s| {
            assert_eq!(s.flags.len(), 64, "state persists across top-level uses");
            s.flags.as_ptr() as usize
        });
        assert_eq!(first, second, "same thread, same buffer");
    }

    #[test]
    fn threads_get_independent_scratch() {
        with_scratch(|s| s.flags.resize(8, true));
        std::thread::spawn(|| {
            with_scratch(|s| assert!(s.flags.is_empty(), "fresh thread, fresh scratch"));
        })
        .join()
        .unwrap();
    }
}
