//! Crash-recovery tests for the durable budget plane.
//!
//! Every test drives a real on-disk WAL shard (under the OS temp dir) and
//! checks the recovery contract end to end:
//!
//! * **bit-for-bit counters** — a recovered accountant's fixed-point spent
//!   total equals an *independent* read of the durable ledger
//!   (`TenantLedger::peek`), and equals the recovered audit log's ε-unit
//!   total, so `verify_policy_lifecycle` balances over the recovered state;
//! * **prefix-closed loss** — crashing a writer (torn tail, unflushed
//!   buffer) loses at most the un-synced suffix, and only in the safe
//!   direction: the recovered total never exceeds what was admitted, and a
//!   rehammered session still stops at **exactly** the cap;
//! * **fast-path parity** — a durable session with the same seed produces
//!   bitwise-identical estimates to a plain in-memory session, and a
//!   restarted durable session resumes the exact release-index sequence of
//!   an uninterrupted one.

use osdp::core::budget::epsilon_to_units;
use osdp::persist::{
    force_unlock, EpochRecord, GrantRecord, GuaranteeTag, RefusalRecord, TenantLedger,
};
use osdp::prelude::*;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

/// Serving threads for the crash-hammer tests — above the dev container's
/// core count so schedules interleave even on one core.
const THREADS: usize = 8;

/// A fresh, empty scratch directory under the OS temp dir.
fn temp_root(name: &str) -> PathBuf {
    static UNIQUE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "osdp-recovery-{}-{}-{name}",
        std::process::id(),
        UNIQUE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A histogram-backed session builder; ε debits of 1/8 divide the caps used
/// below exactly, so full exhaustion hits the fixed-point cap bit for bit.
fn builder(budget: f64, seed: u64) -> SessionBuilder<Record> {
    let full = Histogram::from_counts(vec![40.0, 10.0, 25.0, 25.0]);
    let ns = Histogram::from_counts(vec![30.0, 10.0, 0.0, 20.0]);
    let mut b = histogram_session(full, ns).policy_label("P-durable").seed(seed);
    if budget > 0.0 {
        b = b.budget(budget);
    }
    b
}

/// Releases until the budget refuses, returning (grants, refusals).
fn drain(session: &OsdpSession, eps: f64, attempts: usize) -> (usize, usize) {
    let mechanism = OsdpLaplaceL1::new(eps).unwrap();
    let mut grants = 0;
    let mut refusals = 0;
    for _ in 0..attempts {
        match session.release(&SessionQuery::bound(), &mechanism) {
            Ok(_) => grants += 1,
            Err(OsdpError::BudgetExhausted { .. }) => refusals += 1,
            Err(other) => panic!("unexpected release error: {other}"),
        }
    }
    (grants, refusals)
}

/// Hammers one session from [`THREADS`] threads, all starting together.
fn hammer(session: &Arc<OsdpSession>, eps: f64, per_thread: usize) -> (usize, usize) {
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let session = Arc::clone(session);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                drain(&session, eps, per_thread)
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).fold((0, 0), |(g, r), (tg, tr)| (g + tg, r + tr))
}

#[test]
fn durable_sessions_resume_exactly_after_clean_shutdown() {
    let root = temp_root("clean");
    let dir = root.join("tenant");
    let m = OsdpLaplaceL1::new(0.25).unwrap();

    // Uninterrupted oracle: four releases on one long-lived session.
    let oracle = builder(2.0, 7).build().unwrap();
    let oracle_estimates: Vec<_> =
        (0..4).map(|_| oracle.release(&SessionQuery::bound(), &m).unwrap().estimate).collect();

    // Durable run: two releases, clean drop (flush-on-drop), restart.
    let first = builder(2.0, 7)
        .durable(SessionPersistence::open(&dir, SyncPolicy::Always).unwrap())
        .build()
        .unwrap();
    let mut estimates: Vec<_> =
        (0..2).map(|_| first.release(&SessionQuery::bound(), &m).unwrap().estimate).collect();
    let spent_units = first.accountant().total_spent_units();
    drop(first);

    let persistence = SessionPersistence::open(&dir, SyncPolicy::Always).unwrap();
    let recovered = persistence.recovered();
    assert!(!recovered.is_fresh());
    assert_eq!(recovered.spent_units, spent_units);
    assert_eq!(recovered.grants, 2);
    assert_eq!(recovered.truncated_bytes, 0);
    assert!(!recovered.degraded);

    let second = builder(2.0, 7).durable(persistence).build().unwrap();
    assert_eq!(second.accountant().total_spent_units(), spent_units);
    assert_eq!(second.total_spent(), 0.5);
    assert_eq!(second.remaining_budget(), Some(1.5));
    estimates.extend((0..2).map(|_| second.release(&SessionQuery::bound(), &m).unwrap().estimate));

    // Recovery resumed the release-index sequence, so the post-restart
    // samples are bitwise the uninterrupted session's third and fourth.
    assert_eq!(estimates, oracle_estimates);
    assert_eq!(second.audit_log().total_epsilon_units(), second.accountant().total_spent_units());
    assert!(second.verify_policy_lifecycle(Some(2.0)).upholds_osdp());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn plain_and_durable_sessions_are_bitwise_identical() {
    let root = temp_root("parity");
    let plain = builder(2.0, 41).build().unwrap();
    let durable = builder(2.0, 41)
        .durable(SessionPersistence::open(root.join("tenant"), SyncPolicy::Always).unwrap())
        .build()
        .unwrap();

    for eps in [0.25, 0.125, 0.5] {
        let m = OsdpLaplaceL1::new(eps).unwrap();
        let a = plain.release(&SessionQuery::bound(), &m).unwrap();
        let b = durable.release(&SessionQuery::bound(), &m).unwrap();
        assert_eq!(a.estimate, b.estimate, "durable overlay must not perturb sampling");
        assert_eq!(a.index, b.index);
    }
    assert_eq!(plain.total_spent(), durable.total_spent());
    assert_eq!(plain.audit_log().records(), durable.audit_log().records());
    assert_eq!(plain.audit_ledger(), durable.audit_ledger());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn refusals_and_snapshots_survive_restart() {
    let root = temp_root("snapshot");
    let dir = root.join("tenant");
    let session = builder(0.5, 3)
        .durable(SessionPersistence::open(&dir, SyncPolicy::Always).unwrap())
        .build()
        .unwrap();
    let (grants, refusals) = drain(&session, 0.25, 4);
    assert_eq!((grants, refusals), (2, 2));
    let spent_units = session.accountant().total_spent_units();

    // Collapse the history into a snapshot generation, then drop.
    session.persistence().unwrap().snapshot().unwrap();
    drop(session);

    let persistence = SessionPersistence::open(&dir, SyncPolicy::Always).unwrap();
    let recovered = persistence.recovered();
    assert_eq!(recovered.spent_units, spent_units);
    assert_eq!(recovered.grants, 2);
    assert_eq!(recovered.refusals, 2);
    // The tail was collapsed into the snapshot: recovery is O(rows), and the
    // base surfaces as aggregate "[recovered]" ledger entries.
    assert!(recovered.tail.is_empty());
    assert!(recovered.base_entries.iter().all(|e| e.label.contains("[recovered")));

    let session = builder(0.5, 3).durable(persistence).build().unwrap();
    assert_eq!(session.accountant().total_spent_units(), spent_units);
    assert_eq!(session.remaining_budget(), Some(0.0));
    // Still exhausted after recovery: the cap holds across restarts.
    assert!(matches!(
        session.release(&SessionQuery::bound(), &OsdpLaplaceL1::new(0.25).unwrap()),
        Err(OsdpError::BudgetExhausted { .. })
    ));
    assert!(session.verify_policy_lifecycle(Some(0.5)).upholds_osdp());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn composed_guarantee_lists_pre_crash_policies_after_recovery() {
    let root = temp_root("composed");
    let dir = root.join("tenant");
    let db: Database = (0..60i64).map(|i| Record::builder().field("age", i).build()).collect();
    let session_over = |persistence| {
        SessionBuilder::new(db.clone())
            .policy(AttributePolicy::int_at_most("age", 17), "P-minors")
            .budget(2.0)
            .seed(13)
            .durable(persistence)
            .build()
            .unwrap()
    };
    let query = SessionQuery::count_by_int_linear("age-decades", "age", 0, 10, 6);
    let m = OsdpLaplaceL1::new(0.25).unwrap();

    let first = session_over(SessionPersistence::open(&dir, SyncPolicy::Always).unwrap());
    let seniors: Arc<dyn Policy<Record>> = Arc::new(AttributePolicy::int_at_most("age", 49));
    let teens: Arc<dyn Policy<Record>> = Arc::new(AttributePolicy::int_at_most("age", 19));
    first.release_with_policy(&query, &m, seniors, "P-under-50").unwrap();
    first.release_with_policy(&query, &m, teens, "P-under-20").unwrap();
    let spent_units = first.accountant().total_spent_units();
    let expected = vec!["P-under-50".to_string(), "P-under-20".to_string()];
    assert_eq!(first.composed_guarantee().1, expected);

    // Crash (the LOCK file is left behind), clear the lock, reopen.
    first.persistence().unwrap().crash(0.0).unwrap();
    drop(first);
    assert!(force_unlock(&dir).unwrap());
    let second = session_over(SessionPersistence::open(&dir, SyncPolicy::Always).unwrap());

    // The recovered session reports the pre-crash ε *and* the policies it
    // was spent under, in first-use order.
    assert_eq!(second.accountant().total_spent_units(), spent_units);
    let (eps, policies) = second.composed_guarantee();
    assert_eq!(eps, 0.5);
    assert_eq!(policies, expected);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_second_writer_is_refused_until_force_unlock() {
    let root = temp_root("lock");
    let dir = root.join("tenant");
    let first = SessionPersistence::open(&dir, SyncPolicy::EveryN(u32::MAX)).unwrap();
    assert!(SessionPersistence::open(&dir, SyncPolicy::EveryN(u32::MAX)).is_err());
    drop(first); // clean drop releases the lock
    let again = SessionPersistence::open(&dir, SyncPolicy::EveryN(u32::MAX)).unwrap();
    // A crashed writer leaks the lock by design; force_unlock clears it.
    again.wal().crash(0.0).unwrap();
    drop(again);
    assert!(SessionPersistence::open(&dir, SyncPolicy::EveryN(u32::MAX)).is_err());
    assert!(force_unlock(&dir).unwrap());
    SessionPersistence::open(&dir, SyncPolicy::EveryN(u32::MAX)).unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

/// The restart-mid-hammer ground truth: 8 threads hammer a durable pool,
/// every writer is crashed without flushing (varying torn-tail fractions),
/// the pool is reopened, and the recovered ledgers must balance — with the
/// recovered spend exactly equal to an independent read of the durable log,
/// and a re-hammer stopping at exactly the cap.
#[test]
fn crashed_pool_recovers_balanced_and_rehammers_to_the_exact_cap() {
    let root = temp_root("crash-hammer");
    let tenants = ["acme", "globex", "initech"];
    let crash_fractions = [0.0, 0.3, 0.7];
    let cap = 1.0;
    let eps = 0.125; // exactly representable: 8 grants hit the cap bit-for-bit

    let pool: SessionPool<Record> = SessionPool::open(&root, SyncPolicy::EveryN(3)).unwrap();
    for (tenant, seed) in tenants.iter().zip(1u64..) {
        let session = pool.open_tenant(tenant, || builder(cap, seed)).unwrap();
        let (grants, refusals) = hammer(&session, eps, 4);
        assert_eq!(grants, 8, "{tenant}: 8 × 0.125 fills the 1.0 cap");
        assert_eq!(refusals, THREADS * 4 - 8);
    }
    // Crash every writer mid-flight: pending frames die (a fraction survives
    // as a torn tail), nothing further is flushed, locks leak.
    for (tenant, fraction) in tenants.iter().zip(crash_fractions) {
        pool.get(tenant).unwrap().persistence().unwrap().crash(fraction).unwrap();
    }
    drop(pool);

    for tenant in tenants {
        assert!(force_unlock(root.join(format!("tenant-{tenant}"))).unwrap());
    }
    let recovered: SessionPool<Record> =
        SessionPool::recover(&root, SyncPolicy::EveryN(3), |_| builder(cap, 99)).unwrap();
    assert_eq!(
        recovered.tenants(),
        tenants.iter().map(|t| Arc::from(*t)).collect::<Vec<Arc<str>>>()
    );
    assert_eq!(
        recovered.persisted_tenants().unwrap(),
        tenants.iter().map(|t| t.to_string()).collect::<Vec<_>>()
    );

    let cap_units = epsilon_to_units(cap);
    for tenant in tenants {
        let session = recovered.get(tenant).unwrap();
        // Bit-for-bit: the live accountant equals an independent read of the
        // durable log, and the audit log agrees with both.
        let peek = TenantLedger::peek(root.join(format!("tenant-{tenant}"))).unwrap();
        assert_eq!(
            session.accountant().total_spent_units(),
            peek.spent_units(),
            "{tenant}: recovered accountant must equal the durable log"
        );
        assert_eq!(
            session.audit_log().total_epsilon_units(),
            session.accountant().total_spent_units(),
            "{tenant}: audit and accountant must agree after recovery"
        );
        // Crash loss is prefix-closed and one-sided: never more than was
        // admitted, always a multiple of the per-grant debit.
        let spent = session.accountant().total_spent_units();
        assert!(spent <= cap_units, "{tenant}: recovery must never overspend");
        assert_eq!(spent % epsilon_to_units(eps), 0);

        // Rehammer: the recovered session must stop at exactly the cap.
        hammer(&session, eps, 4);
        assert_eq!(
            session.accountant().total_spent_units(),
            cap_units,
            "{tenant}: grants must sum to the cap exactly after re-hammering"
        );
        assert_eq!(session.remaining_budget(), Some(0.0));
    }
    let verdict = recovered.verify_all_ledgers();
    assert!(verdict.all_upheld(), "violations: {:?}", verdict.violating_tenants());
    assert_eq!(verdict.parallel_epsilon, cap);

    // The post-rehammer state is durable too: sync, reopen, same counters.
    recovered.sync_all().unwrap();
    drop(recovered);
    let reopened: SessionPool<Record> =
        SessionPool::recover(&root, SyncPolicy::EveryN(3), |_| builder(cap, 99)).unwrap();
    for tenant in tenants {
        assert_eq!(reopened.get(tenant).unwrap().accountant().total_spent_units(), cap_units);
    }
    assert!(reopened.verify_all_ledgers().all_upheld());
    let _ = std::fs::remove_dir_all(&root);
}

/// Group commit under full concurrency is `Always`-grade: 8 threads hammer
/// a `group_commit()` pool to the exact cap, every writer is crashed with nothing
/// buffered, and recovery is bit-for-bit — accountant == audit == an
/// independent `TenantLedger::peek` of the shard, at exactly the cap.
#[test]
fn group_commit_hammer_recovers_bit_for_bit_at_the_exact_cap() {
    let root = temp_root("group-hammer");
    let tenants = ["acme", "globex"];
    let cap = 1.0;
    let eps = 0.125;

    let pool: SessionPool<Record> = SessionPool::open(&root, SyncPolicy::group_commit()).unwrap();
    for (tenant, seed) in tenants.iter().zip(1u64..) {
        let session = pool.open_tenant(tenant, || builder(cap, seed)).unwrap();
        let (grants, _) = hammer(&session, eps, 4);
        assert_eq!(grants, 8, "{tenant}: 8 × 0.125 fills the 1.0 cap");
        let stats = session.persistence().unwrap().group_commit_stats();
        // Quiescent: every submitted frame is at or below the watermark.
        assert_eq!(stats.durable_frames, stats.submitted_frames);
        assert!(stats.batches >= 1 && stats.largest_batch >= 1);
        // 8 grants + the refusals that were logged.
        assert!(stats.durable_frames >= 8);
    }
    // Crash every writer: under group commit nothing is buffered (every
    // returned append was fsync'd), so zero grants may be lost.
    for tenant in tenants {
        pool.get(tenant).unwrap().persistence().unwrap().crash(0.0).unwrap();
    }
    drop(pool);

    let cap_units = epsilon_to_units(cap);
    for tenant in tenants {
        let shard = root.join(format!("tenant-{tenant}"));
        assert!(force_unlock(&shard).unwrap());
        let peek = TenantLedger::peek(&shard).unwrap();
        assert_eq!(peek.spent_units(), cap_units, "{tenant}: no returned grant may be lost");
        assert_eq!(peek.truncated_bytes, 0);
    }
    let recovered: SessionPool<Record> =
        SessionPool::recover(&root, SyncPolicy::group_commit(), |_| builder(cap, 99)).unwrap();
    for tenant in tenants {
        let session = recovered.get(tenant).unwrap();
        assert_eq!(session.accountant().total_spent_units(), cap_units);
        assert_eq!(session.audit_log().total_epsilon_units(), cap_units);
        assert_eq!(session.remaining_budget(), Some(0.0));
    }
    assert!(recovered.verify_all_ledgers().all_upheld());
    let _ = std::fs::remove_dir_all(&root);
}

/// Crashing a group-commit writer **mid-batch**, with appends in flight on
/// 8 threads: every grant whose release call returned must be durable, the
/// torn batch tail truncates to whole frames, and recovery never exceeds
/// what the accountant admitted.
#[test]
fn group_commit_crash_mid_batch_loses_only_unacknowledged_grants() {
    let root = temp_root("group-midbatch");
    let dir = root.join("tenant");
    let cap = 16.0; // roomy: the crash interrupts the hammer, not the cap
    let eps = 0.125;
    let sync = SyncPolicy::group_commit();

    let session = Arc::new(
        builder(cap, 21).durable(SessionPersistence::open(&dir, sync).unwrap()).build().unwrap(),
    );
    let barrier = Arc::new(Barrier::new(THREADS + 1));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let session = Arc::clone(&session);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let mechanism = OsdpLaplaceL1::new(eps).unwrap();
                barrier.wait();
                let mut ok = 0u64;
                loop {
                    match session.release(&SessionQuery::bound(), &mechanism) {
                        Ok(_) => ok += 1,
                        // The crash severed the batch under this append
                        // (typed persistence error, or the legacy string
                        // form from layers above the WAL).
                        Err(OsdpError::Persist(_)) | Err(OsdpError::Persistence(_)) => break,
                        Err(OsdpError::BudgetExhausted { .. }) => break,
                        Err(other) => panic!("unexpected release error: {other}"),
                    }
                }
                ok
            })
        })
        .collect();
    barrier.wait();
    // Let the hammer run mid-flight, then sever the writer mid-batch:
    // queued-but-unacknowledged frames become a torn tail (60% of bytes).
    thread::sleep(std::time::Duration::from_millis(30));
    session.persistence().unwrap().crash(0.6).unwrap();
    let acknowledged: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let admitted_units = session.accountant().total_spent_units();
    drop(session);

    let grant_units = epsilon_to_units(eps);
    assert!(force_unlock(&dir).unwrap());
    let peek = TenantLedger::peek(&dir).unwrap();
    // Always-grade floor: every acknowledged grant survived the crash.
    assert!(
        peek.spent_units() >= acknowledged * grant_units,
        "durable {} < acknowledged {}",
        peek.spent_units(),
        acknowledged * grant_units
    );
    // Conservative ceiling: recovery never invents spend beyond what the
    // accountant admitted (in-flight debits included).
    assert!(peek.spent_units() <= admitted_units);
    // The torn batch tail truncated to whole frames: the durable total is
    // an exact multiple of the per-grant debit.
    assert_eq!(peek.spent_units() % grant_units, 0);

    // The recovered session still stops at exactly the cap.
    let recovered = SessionPersistence::open(&dir, sync).unwrap();
    assert_eq!(recovered.recovered().spent_units, peek.spent_units());
    let session = Arc::new(builder(cap, 21).durable(recovered).build().unwrap());
    assert_eq!(session.audit_log().total_epsilon_units(), peek.spent_units());
    hammer(&session, eps, 24);
    assert_eq!(session.accountant().total_spent_units(), epsilon_to_units(cap));
    assert!(session.verify_policy_lifecycle(Some(cap)).upholds_osdp());
    let _ = std::fs::remove_dir_all(&root);
}

/// One failing shard must not shadow the rest of a pool maintenance sweep:
/// `sync_all` / `snapshot_all` visit every tenant and report the failures
/// by key.
#[test]
fn pool_maintenance_sweeps_report_per_tenant_failures() {
    let root = temp_root("maintenance");
    let tenants = ["acme", "globex", "initech"];
    let pool: SessionPool<Record> = SessionPool::open(&root, SyncPolicy::Always).unwrap();
    for (tenant, seed) in tenants.iter().zip(1u64..) {
        let session = pool.open_tenant(tenant, || builder(1.0, seed)).unwrap();
        drain(&session, 0.25, 2);
    }
    pool.sync_all().unwrap();
    pool.snapshot_all().unwrap();

    // Crash one shard; the sweeps still run the other two and name the
    // failing tenant precisely.
    pool.get("globex").unwrap().persistence().unwrap().crash(0.0).unwrap();
    let err = pool.sync_all().unwrap_err();
    assert_eq!(err.operation, "sync_all");
    assert_eq!(err.tenants(), vec![Arc::<str>::from("globex")]);
    assert!(err.to_string().contains("globex"), "display names the tenant: {err}");
    let err = pool.snapshot_all().unwrap_err();
    assert_eq!(err.operation, "snapshot_all");
    assert_eq!(err.tenants(), vec![Arc::<str>::from("globex")]);
    // The healthy tenants were synced despite the failure: their shards
    // reopen with the full history after an unclean stop.
    drop(pool);
    for tenant in ["acme", "initech"] {
        let peek = TenantLedger::peek(root.join(format!("tenant-{tenant}"))).unwrap();
        assert_eq!(peek.spent_units(), epsilon_to_units(0.5), "{tenant} survived the sweep");
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn recovery_is_idempotent_without_new_writes() {
    let root = temp_root("idempotent");
    let dir = root.join("tenant");
    let session = builder(2.0, 11)
        .durable(SessionPersistence::open(&dir, SyncPolicy::Always).unwrap())
        .build()
        .unwrap();
    drain(&session, 0.25, 3);
    let spent_units = session.accountant().total_spent_units();
    drop(session);

    for _ in 0..3 {
        let persistence = SessionPersistence::open(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(persistence.recovered().spent_units, spent_units);
        let session = builder(2.0, 11).durable(persistence).build().unwrap();
        assert_eq!(session.accountant().total_spent_units(), spent_units);
        assert_eq!(
            session.audit_log().total_epsilon_units(),
            spent_units,
            "recovering with zero new writes must be a fixed point"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any grant sequence, under **any of four sync configurations**, crashed
    /// at any point, recovers to a state where the audit total equals the
    /// accountant total (both in exact ε units), never exceeds the cap, and
    /// recovering again without writes changes nothing.
    #[test]
    fn recovery_is_prefix_closed_and_never_overspends(
        epsilons in prop::collection::vec(0.001f64..3.0, 1..24),
        keep in 0.0f64..1.0,
        policy_idx in 0usize..4,
    ) {
        let policy = [
            SyncPolicy::EveryN(u32::MAX),
            SyncPolicy::EveryN(2),
            SyncPolicy::Always,
            SyncPolicy::group_commit(),
        ][policy_idx];
        let root = temp_root("prop");
        let dir = root.join("tenant");
        let cap = 4.0;

        let session = builder(cap, 5)
            .durable(SessionPersistence::open(&dir, policy).unwrap())
            .build()
            .unwrap();
        for &eps in &epsilons {
            let mechanism = OsdpLaplaceL1::new(eps).unwrap();
            match session.release(&SessionQuery::bound(), &mechanism) {
                Ok(_) | Err(OsdpError::BudgetExhausted { .. }) => {}
                Err(other) => panic!("unexpected release error: {other}"),
            }
        }
        let live_units = session.accountant().total_spent_units();
        session.persistence().unwrap().crash(keep).unwrap();
        drop(session);

        prop_assert!(force_unlock(&dir).unwrap());
        let persistence = SessionPersistence::open(&dir, policy).unwrap();
        let recovered_units = persistence.recovered().spent_units;
        // Loss is one-sided: recovery never invents spend.
        prop_assert!(recovered_units <= live_units);
        prop_assert!(recovered_units <= epsilon_to_units(cap));
        let session = builder(cap, 5).durable(persistence).build().unwrap();
        prop_assert_eq!(session.accountant().total_spent_units(), recovered_units);
        prop_assert_eq!(session.audit_log().total_epsilon_units(), recovered_units);
        prop_assert!(session.verify_policy_lifecycle(Some(cap)).upholds_osdp());
        drop(session);

        // Idempotent: a second recovery with no writes is a fixed point.
        let again = SessionPersistence::open(&dir, policy).unwrap();
        prop_assert_eq!(again.recovered().spent_units, recovered_units);
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// FNV-1a over `bytes`: the digest the pinned recovery outputs below are
/// compared by.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The label tuples the pinned history cycles through, one per frame, so
/// no two consecutive grant frames share their labels.
const PIN_TUPLES: [(&str, &str, &str, GuaranteeTag); 3] = [
    ("OsdpLaplaceL1", "P-a", "bound", GuaranteeTag::Osdp),
    ("DAWA", "P-b", "range", GuaranteeTag::Dp),
    ("OsdpRR", "P-a", "count", GuaranteeTag::Osdp),
];

/// Grant `index` of the pinned history.
fn pin_grant(index: u64, policy_version: u64) -> GrantRecord {
    let (mechanism, policy, query, guarantee) = PIN_TUPLES[index as usize % 3];
    let epsilon = 1e-3 * (1 + index % 4) as f64;
    let trials = 1 + index % 2;
    GrantRecord {
        index,
        units: epsilon_to_units(epsilon * trials as f64),
        epsilon,
        trials,
        bins: 16 << (index % 3),
        guarantee,
        mechanism: mechanism.into(),
        policy: policy.into(),
        query: query.into(),
        policy_version,
    }
}

/// Writes the pinned history to `dir`: 12 grants and 2 refusals collapsed
/// into a snapshot, then a tail of 18 grants, 3 refusals and two policy
/// epoch transitions, whose last buffered frames tear when the writer
/// crashes.
fn write_pinned_history(dir: &std::path::Path) {
    let (ledger, recovered) = TenantLedger::open(dir, SyncPolicy::EveryN(4)).unwrap();
    assert!(recovered.is_fresh());
    let refusal = |i: u64| RefusalRecord {
        units: epsilon_to_units(0.5 + i as f64),
        epsilon: 0.5 + i as f64,
        mechanism: PIN_TUPLES[i as usize % 3].0.into(),
    };
    for i in 0..12 {
        ledger.append_grant(&pin_grant(i, 0)).unwrap();
        if i % 5 == 4 {
            ledger.append_refusal(&refusal(i)).unwrap();
        }
    }
    ledger.rotate_snapshot().unwrap();
    let transition = |version: u64, boundary_seq: u64, relaxes: bool| EpochRecord {
        version,
        boundary_seq,
        relaxes,
        label: format!("P-v{version}"),
    };
    ledger.append_epoch_transition(&transition(1, 12, false)).unwrap();
    for i in 12..30 {
        if i == 20 {
            ledger.append_epoch_transition(&transition(2, 20, true)).unwrap();
        }
        ledger.append_grant(&pin_grant(i, if i < 20 { 1 } else { 2 })).unwrap();
        if i % 6 == 5 {
            ledger.append_refusal(&refusal(i)).unwrap();
        }
    }
    ledger.crash(0.5).unwrap();
}

/// The counters of an independent read of a shard.
fn peek_counters(dir: &std::path::Path) -> (u64, u64, u64, u64, usize, usize, usize, u64) {
    let peek = TenantLedger::peek(dir).unwrap();
    (
        peek.spent_units(),
        peek.audit_units(),
        peek.audit_seq(),
        peek.grant_count(),
        peek.grants.len(),
        peek.refusals.len(),
        peek.transitions.len(),
        peek.truncated_bytes,
    )
}

/// What recovery reports for a torn tail whose frames alternate between
/// three label tuples, with refusals and two epoch transitions, pinned to
/// the values the recovery path produced before it became one streaming
/// pass. The on-disk bytes are pinned too: the writer's format must not
/// move.
#[test]
fn pinned_torn_tail_recovers_to_the_recorded_state() {
    let root = temp_root("pinned-torn");
    let dir = root.join("tenant");
    write_pinned_history(&dir);
    let wal = std::fs::read(dir.join("wal.log")).unwrap();
    let snapshot = std::fs::read(dir.join("snapshot.bin")).unwrap();
    assert_eq!((wal.len(), fnv1a(&wal)), (1576, 0x6ab4_4d70_9826_c7a8), "wal.log bytes moved");
    assert_eq!((snapshot.len(), fnv1a(&snapshot)), (167, 0x4e3c_1860_7280_178a));
    // 29 grants (12 in the snapshot, 17 of 18 in the tail), the torn
    // 17 bytes of the last refusal's frame discarded.
    let spent = 113_000_000_029;
    assert_eq!(peek_counters(&dir), (spent, spent, 29, 29, 17, 2, 2, 17));

    assert!(force_unlock(&dir).unwrap());
    let persistence = SessionPersistence::open(&dir, SyncPolicy::Always).unwrap();
    assert!(persistence.recovered().report.is_clean());
    let session = builder(0.0, 9).durable(persistence).build().unwrap();
    assert_eq!(session.accountant().total_spent_units(), spent);
    assert_eq!(session.audit_total_epsilon_units(), spent);
    let records = session.audit_records();
    assert_eq!(records.len(), 17);
    assert_eq!(
        records[0].to_json(),
        "{\"index\": 12, \"mechanism\": \"OsdpLaplaceL1\", \"policy\": \"P-a\", \
         \"policy_version\": 1, \"query\": \"bound\", \"bins\": 16, \"trials\": 1, \
         \"guarantee\": \"OSDP\", \"epsilon\": 0.001}"
    );
    assert_eq!(
        records[16].to_json(),
        "{\"index\": 28, \"mechanism\": \"DAWA\", \"policy\": \"P-b\", \"policy_version\": 2, \
         \"query\": \"range\", \"bins\": 32, \"trials\": 1, \"guarantee\": \"DP\", \
         \"epsilon\": 0.001}"
    );
    assert_eq!(fnv1a(format!("{records:?}").as_bytes()), 0x9ccf_1b2d_05c0_bbb3);
    assert_eq!(fnv1a(format!("{:?}", session.audit_ledger()).as_bytes()), 0x80ee_0cf6_1a14_f829);
    assert_eq!(fnv1a(session.audit_json().as_bytes()), 0x3d06_80d1_ac5e_3539);
    drop(session);

    // Recovery repaired the tail: the same history, nothing left to cut.
    assert_eq!(peek_counters(&dir), (spent, spent, 29, 29, 17, 2, 2, 0));
    let transitions: Vec<_> = TenantLedger::peek(&dir)
        .unwrap()
        .transitions
        .iter()
        .map(|t| (t.version, t.boundary_seq, t.relaxes, t.label.clone()))
        .collect();
    assert_eq!(
        transitions,
        vec![(1, 12, false, "P-v1".to_string()), (2, 20, true, "P-v2".to_string())]
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// The note recovery leaves for a frame that rotted mid-file, pinned: its
/// byte offset, its defect and the count of frames before it. In the
/// second case the frame before the rotten one passes its checksum but
/// does not decode, so replay stops earlier than the checksum walk does,
/// and the note still counts every checksummed frame before the rot.
#[test]
fn pinned_mid_file_corruption_note() {
    let root = temp_root("pinned-corrupt");
    let dir = root.join("tenant");
    {
        let (ledger, _) = TenantLedger::open(&dir, SyncPolicy::Always).unwrap();
        for i in 0..9 {
            ledger.append_grant(&pin_grant(i, 0)).unwrap();
        }
    }
    let clean = std::fs::read(dir.join("wal.log")).unwrap();
    // Frame boundaries of the clean log (after the 16-byte header).
    let mut starts = Vec::new();
    let mut at = 16;
    while at < clean.len() {
        starts.push(at);
        at += 8 + u32::from_le_bytes(clean[at..at + 4].try_into().unwrap()) as usize;
    }
    assert_eq!(starts.len(), 9);

    // Rot one payload bit of frame 6: the checksum walk flags it.
    let mut rotten = clean.clone();
    rotten[starts[6] + 8 + 3] ^= 0x10;
    std::fs::write(dir.join("wal.log"), &rotten).unwrap();
    let peek = TenantLedger::peek(&dir).unwrap();
    assert_eq!(
        peek.report.notes,
        vec!["wal.log holds a corrupt frame at byte 494 (crc mismatch (stored 0xa1ce73b5, actual \
             0x0eb8540d)); the 6 frames before it are the recoverable prefix"
            .to_string()]
    );
    assert_eq!((peek.grants.len(), peek.truncated_bytes), (6, 239));

    // Splice a checksummed but undecodable frame in at frame 3, before the
    // rot: replay stops there, the checksum walk goes on to the rot.
    let mut spliced = rotten[..starts[3]].to_vec();
    let payload = [99u8, 1, 2, 3];
    spliced.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    spliced.extend_from_slice(&osdp::persist::crc32(&payload).to_le_bytes());
    spliced.extend_from_slice(&payload);
    spliced.extend_from_slice(&rotten[starts[3]..]);
    std::fs::write(dir.join("wal.log"), &spliced).unwrap();
    let note = "wal.log holds a corrupt frame at byte 506 (crc mismatch (stored 0xa1ce73b5, \
                actual 0x0eb8540d)); the 7 frames before it are the recoverable prefix";
    let peek = TenantLedger::peek(&dir).unwrap();
    assert_eq!(peek.report.notes, vec![note.to_string()]);
    assert_eq!((peek.grants.len(), peek.truncated_bytes), (3, 490));

    let persistence = SessionPersistence::open(&dir, SyncPolicy::Always).unwrap();
    assert_eq!(persistence.recovered().report.notes, vec![note.to_string()]);
    assert_eq!(persistence.recovered().spent_units, 8_000_000_003);
    drop(persistence);
    assert_eq!(peek_counters(&dir), (8_000_000_003, 8_000_000_003, 3, 3, 3, 0, 0, 0));
    let _ = std::fs::remove_dir_all(&root);
}
