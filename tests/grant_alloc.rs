//! Allocation budget of the grant path, of recovering a durable session's
//! WAL tail, and of verifying a ledger.
//!
//! A counting global allocator tallies heap allocations **per thread**, so
//! the libtest harness and concurrently running tests never pollute the
//! count. After warm-up (the thread's audit shard and its key for the
//! release's tuple, the mechanism's per-thread scratch), one `release` on
//! an in-memory histogram session may allocate only what its output needs:
//! the estimate buffer and the two `String`s of the returned `Release`. The
//! budget debit, audit stamp and RNG stream set-up allocate nothing. A
//! durable session keeps that budget under every sync policy: the grant
//! frame is encoded and mirrored from borrowed labels into buffers the
//! ledger reuses.
//!
//! Recovering a tail decodes, mirrors and audits every frame, but frames
//! that repeat the previous frame's labels share them, so the allocations
//! of a recovery grow only with the logarithm of the tail (vector growth),
//! not with its length.
//!
//! Verifying a tenant's ledger folds its audit rows in place, so it
//! allocates per distinct key and policy, not per release.
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

/// Allocations of the 101st release of a warm durable session whose WAL
/// runs under `sync`.
fn warm_durable_release_allocations(sync: SyncPolicy, name: &str) -> u64 {
    let dir = std::env::temp_dir().join(format!("osdp-grant-alloc-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let bins = 32;
    let full = Histogram::from_counts((0..bins).map(|i| 100.0 + i as f64).collect());
    let non_sensitive = Histogram::from_counts((0..bins).map(|i| (i % 7) as f64).collect());
    let persistence = SessionPersistence::open(&dir, sync).unwrap();
    let session = histogram_session(full, non_sensitive)
        .policy_label("P-durable")
        .seed(11)
        .durable(persistence)
        .build()
        .unwrap();
    let mechanism = OsdpLaplaceL1::new(0.01).unwrap();
    let query = SessionQuery::bound();

    for _ in 0..100 {
        session.release(&query, &mechanism).unwrap();
    }
    let before = allocations();
    let release = session.release(&query, &mechanism).unwrap();
    let spent = allocations() - before;
    drop(release);

    assert_eq!(session.persistence().unwrap().counters().grants, 101);
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
    spent
}

#[test]
fn a_warm_buffered_durable_release_allocates_only_its_output() {
    // EveryN(8) buffers the measured (101st) grant into a queue whose
    // capacity the warm-up has settled; Always (which `group_commit()`
    // names) writes and fsyncs it from reused buffers.
    for (name, sync) in [
        ("every-8", SyncPolicy::EveryN(8)),
        ("always", SyncPolicy::Always),
        ("group-commit", SyncPolicy::group_commit()),
    ] {
        assert_eq!(
            warm_durable_release_allocations(sync, name),
            OUTPUT_ALLOCATIONS,
            "{name}: a warm durable release should allocate only its estimate and its two \
             label strings"
        );
    }
}

/// Writes a clean shard at `dir` whose WAL holds `frames` grants that all
/// share one label tuple.
fn single_key_tail(dir: &std::path::Path, frames: u64) {
    use osdp::persist::{GrantRecord, GuaranteeTag, TenantLedger};
    let (ledger, _) = TenantLedger::open(dir, SyncPolicy::EveryN(u32::MAX)).unwrap();
    for index in 0..frames {
        ledger
            .append_grant(&GrantRecord {
                index,
                units: 10_000_000_000,
                epsilon: 0.01,
                trials: 1,
                bins: 32,
                guarantee: GuaranteeTag::Osdp,
                mechanism: "OsdpLaplaceL1".into(),
                policy: "P-tail".into(),
                query: "bound".into(),
                policy_version: 0,
            })
            .unwrap();
    }
}

/// Allocations of recovering the shard at `dir` into a durable session.
fn recovery_allocations(dir: &std::path::Path) -> u64 {
    let full = Histogram::from_counts(vec![10.0; 32]);
    let non_sensitive = Histogram::from_counts(vec![1.0; 32]);
    let builder = histogram_session(full, non_sensitive).policy_label("P-tail").seed(3);
    let before = allocations();
    let persistence = SessionPersistence::open(dir, SyncPolicy::EveryN(u32::MAX)).unwrap();
    let session = builder.durable(persistence).build().unwrap();
    let spent = allocations() - before;
    assert_eq!(
        session.audit_len() as u64,
        session.accountant().total_spent_units() / 10_000_000_000
    );
    spent
}

#[test]
fn recovering_a_single_key_tail_allocates_per_growth_not_per_frame() {
    let root = std::env::temp_dir().join(format!("osdp-recovery-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    for (name, frames) in [("warm", 16), ("small", 1_024), ("large", 4_096)] {
        single_key_tail(&root.join(name), frames);
    }
    recovery_allocations(&root.join("warm"));
    let small = recovery_allocations(&root.join("small"));
    let large = recovery_allocations(&root.join("large"));
    let _ = std::fs::remove_dir_all(&root);
    assert!(
        large.abs_diff(small) < 64,
        "recovering 4,096 frames made {large} allocations and 1,024 frames {small}: \
         the difference must not grow with the tail"
    );
}

/// Allocations of one `verify_policy_lifecycle` call on `session`.
fn verify_allocations(session: &OsdpSession) -> u64 {
    let before = allocations();
    let verdict = session.verify_policy_lifecycle(None);
    let spent = allocations() - before;
    assert!(verdict.upholds_osdp());
    assert_eq!(verdict.policies, ["P-verify"]);
    spent
}

#[test]
fn verifying_a_one_key_ledger_allocates_per_key_not_per_release() {
    let bins = 32;
    let full = Histogram::from_counts((0..bins).map(|i| 100.0 + i as f64).collect());
    let non_sensitive = Histogram::from_counts((0..bins).map(|i| (i % 7) as f64).collect());
    let session =
        histogram_session(full, non_sensitive).policy_label("P-verify").seed(5).build().unwrap();
    let mechanism = OsdpLaplaceL1::new(0.01).unwrap();
    let query = SessionQuery::bound();
    let mut counts = Vec::new();
    for releases in [10_000, 100_000] {
        while session.audit_len() < releases {
            session.release(&query, &mechanism).unwrap();
        }
        counts.push(verify_allocations(&session));
    }
    assert!(
        counts[0].abs_diff(counts[1]) < 16,
        "verifying 10,000 releases made {} allocations and 100,000 made {}: the \
         difference must not grow with the release count",
        counts[0],
        counts[1]
    );
}
