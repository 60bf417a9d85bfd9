//! Allocation budget of the grant path.
//!
//! A counting global allocator tallies heap allocations **per thread**, so
//! the libtest harness and concurrently running tests never pollute the
//! count. After warm-up (the interned stream label, the thread's audit
//! shard and its key for the release's tuple, the mechanism's per-thread
//! scratch), one `release` on an in-memory
//! histogram session may allocate only what its output needs: the
//! estimate buffer and the two `String`s of the returned `Release`. The
//! budget debit, audit stamp and RNG stream set-up allocate nothing.
//!
//! Run it on the optimised build, where the claim is made:
//! `cargo test --release --test grant_alloc`.

use osdp::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting every allocation event (`alloc`,
/// `alloc_zeroed`, `realloc`) of the calling thread.
struct PerThreadCounter;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot may already be gone while a thread tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over. The counter is a
// const-initialised thread-local `Cell<u64>` with no destructor: bumping it
// never allocates and never re-enters the allocator.
unsafe impl GlobalAlloc for PerThreadCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: PerThreadCounter = PerThreadCounter;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The estimate buffer plus `Release::mechanism` and `Release::policy`.
const OUTPUT_ALLOCATIONS: u64 = 3;

#[test]
fn a_warm_release_allocates_only_its_output() {
    let bins = 32;
    let full = Histogram::from_counts((0..bins).map(|i| 100.0 + i as f64).collect());
    let non_sensitive = Histogram::from_counts((0..bins).map(|i| (i % 7) as f64).collect());
    let session =
        histogram_session(full, non_sensitive).policy_label("P-inmem").seed(11).build().unwrap();
    let mechanism = OsdpLaplaceL1::new(0.01).unwrap();
    let query = SessionQuery::bound();

    // 100 warm-up releases leave the audit shard's row vector at length 100
    // of capacity 128, so the measured append does not grow it, and put
    // the release's tuple in the shard's key table.
    for _ in 0..100 {
        session.release(&query, &mechanism).unwrap();
    }
    let before = allocations();
    let release = session.release(&query, &mechanism).unwrap();
    let spent = allocations() - before;
    drop(release);

    assert_eq!(
        spent, OUTPUT_ALLOCATIONS,
        "a warm release should allocate only its estimate and its two label strings"
    );
    assert_eq!(session.audit_len(), 101);
}
