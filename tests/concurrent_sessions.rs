//! Stress tests for the concurrent serving plane.
//!
//! N threads hammer one session (and one multi-tenant pool) through the
//! lock-free grant path. The invariants under test are the paper's
//! composition contract, which must survive any interleaving:
//!
//! * the accountant never overspends its cap (Theorem 3.3, enforced on the
//!   atomic fixed-point counter), and grants + refusals account for every
//!   attempt;
//! * the merged, sequence-stamped audit ledger contains exactly one record
//!   per grant, with dense release indices, and passes
//!   `verify_policy_lifecycle`;
//! * per-tenant budgets in a `SessionPool` are enforced independently
//!   (parallel composition across disjoint tenants, Theorem 10.2);
//! * the sharded task cache derives each task exactly once, no matter how
//!   many threads race the same query.
//!
//! A proptest additionally pins the fixed-point property the whole design
//! rests on: spend totals are independent of interleaving order.

use osdp::prelude::*;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

/// Serving threads per stress test — deliberately above the dev container's
/// core count so the schedules interleave even on one core.
const THREADS: usize = 8;

fn bound_session(budget: Option<f64>) -> OsdpSession {
    let full = Histogram::from_counts(vec![40.0, 10.0, 25.0, 25.0]);
    let ns = Histogram::from_counts(vec![30.0, 10.0, 0.0, 20.0]);
    let mut b = histogram_session(full, ns).policy_label("P-stress").seed(41);
    if let Some(eps) = budget {
        b = b.budget(eps);
    }
    b.build().expect("valid bound session")
}

/// Runs `per_thread` release attempts on each of [`THREADS`] threads, all
/// starting together, and returns (grants, refusals).
fn hammer(session: &Arc<OsdpSession>, eps: f64, per_thread: usize) -> (usize, usize) {
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let session = Arc::clone(session);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let mechanism = OsdpLaplaceL1::new(eps).unwrap();
                barrier.wait();
                let mut grants = 0usize;
                for _ in 0..per_thread {
                    match session.release(&SessionQuery::bound(), &mechanism) {
                        Ok(_) => grants += 1,
                        Err(OsdpError::BudgetExhausted { .. }) => {}
                        Err(other) => panic!("unexpected release error: {other}"),
                    }
                }
                grants
            })
        })
        .collect();
    let grants: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    (grants, THREADS * per_thread - grants)
}

#[test]
fn concurrent_releases_never_overspend_a_tight_budget() {
    // 40 attempts of 0.125 ε race a 2.0 cap: exactly 16 can win.
    let limit = 2.0;
    let eps = 0.125;
    let session = Arc::new(bound_session(Some(limit)));
    let (grants, refusals) = hammer(&session, eps, 5);

    assert_eq!(grants + refusals, THREADS * 5, "every attempt accounted for");
    assert_eq!(grants, 16, "grants + refusals sum exactly to the cap");
    assert!(session.total_spent() <= limit, "the cap is never overshot");
    assert!((session.total_spent() - grants as f64 * eps).abs() < 1e-9);
    assert_eq!(session.remaining_budget(), Some(0.0));

    // The merged audit log: one record per grant, dense release indices.
    let records = session.audit_records();
    assert_eq!(records.len(), grants);
    let mut indices: Vec<u64> = records.iter().map(|r| r.index).collect();
    indices.sort_unstable();
    assert_eq!(indices, (0..grants as u64).collect::<Vec<_>>());

    // The ledger verifies against the cap, and the audit log's atomic
    // length agrees on the number of grants.
    let verdict = session.verify_policy_lifecycle(Some(limit));
    assert!(verdict.upholds_osdp());
    assert!((verdict.total_epsilon - session.total_spent()).abs() < 1e-9);
    assert_eq!(session.audit_len(), grants);
}

#[test]
fn mixed_single_and_pool_traffic_keeps_ledger_and_audit_in_agreement() {
    let session = Arc::new(bound_session(None));
    let mechanisms = pool_from_names(&["OsdpLaplaceL1", "DAWAz", "Laplace"], 0.5).unwrap();
    let mechanisms = Arc::new(mechanisms);
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let session = Arc::clone(&session);
            let mechanisms = Arc::clone(&mechanisms);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                for round in 0..3 {
                    if (t + round) % 2 == 0 {
                        let single = OsdpLaplaceL1::new(0.5).unwrap();
                        session.release(&SessionQuery::bound(), &single).unwrap();
                    } else {
                        let pool: Vec<&dyn HistogramMechanism> =
                            mechanisms.iter().map(|m| m.as_ref()).collect();
                        session.release_pool(&SessionQuery::bound(), &pool, 2).unwrap();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // Merged audit: dense indices, totals agreeing with the accountant to
    // the fixed-point resolution, and a clean verify_policy_lifecycle verdict.
    let records = session.audit_records();
    assert_eq!(records.len(), session.audit_len());
    let mut indices: Vec<u64> = records.iter().map(|r| r.index).collect();
    indices.sort_unstable();
    assert_eq!(indices, (0..records.len() as u64).collect::<Vec<_>>());
    let audit_total: f64 = records.iter().map(|r| r.total_epsilon()).sum();
    assert!((audit_total - session.total_spent()).abs() < 1e-9);
    let verdict = session.verify_policy_lifecycle(None);
    assert!(verdict.upholds_osdp());
    assert!((verdict.total_epsilon - session.total_spent()).abs() < 1e-9);
}

#[test]
fn audit_total_matches_accountant_bit_for_bit_after_a_hammer() {
    // The audit log accumulates ε in the same fixed-point units as the
    // accountant's grant path, so after ANY interleaving of single, trial
    // and pool releases the two totals are the same integer — not merely
    // within a float tolerance. (The historical float accumulator drifted
    // with shard interleaving order.)
    let session = Arc::new(bound_session(None));
    let mechanisms = pool_from_names(&["OsdpLaplaceL1", "DAWAz"], 0.3).unwrap();
    let mechanisms = Arc::new(mechanisms);
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let session = Arc::clone(&session);
            let mechanisms = Arc::clone(&mechanisms);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                // Deliberately awkward epsilons (0.3, 0.07·k) that quantize
                // above their decimals: exactly where float accumulation
                // order used to matter.
                for round in 1..=4 {
                    match (t + round) % 3 {
                        0 => {
                            let m = OsdpLaplaceL1::new(0.07 * round as f64).unwrap();
                            session.release(&SessionQuery::bound(), &m).unwrap();
                        }
                        1 => {
                            let m = OsdpLaplaceL1::new(0.3).unwrap();
                            session.release_trials(&SessionQuery::bound(), &m, round).unwrap();
                        }
                        _ => {
                            let pool: Vec<&dyn HistogramMechanism> =
                                mechanisms.iter().map(|m| m.as_ref()).collect();
                            session.release_pool(&SessionQuery::bound(), &pool, 2).unwrap();
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // Bit for bit: same integer, same f64 view.
    assert_eq!(
        session.audit_total_epsilon_units(),
        session.accountant().total_spent_units(),
        "audit and accountant fixed-point totals must be the same integer"
    );
    assert_eq!(session.audit_total_epsilon(), session.total_spent());
    // And the iteration-free total agrees with the (ceiling-quantized)
    // per-record sum to within one unit per record.
    let records = session.audit_records();
    let float_sum: f64 = records.iter().map(|r| r.total_epsilon()).sum();
    assert!(session.audit_total_epsilon() >= float_sum - 1e-9, "never undercounts");
    assert!(
        session.audit_total_epsilon()
            < float_sum + (records.len() + 1) as f64 * BudgetAccountant::RESOLUTION + 1e-9
    );
}

/// Hammers a capped session until its cap refuses, then checks the audit
/// log's total (the recovered base plus every shard's units) against the
/// accountant's integer and verifies the ledger against the cap.
fn hammer_to_the_cap_and_check_totals(session: &Arc<OsdpSession>, limit: f64) {
    let eps = 0.07;
    let (grants, refusals) = hammer(session, eps, 40);
    assert!(grants > 0 && refusals > 0, "the hammer must reach the cap");
    assert!(session.remaining_budget().is_some_and(|left| left < eps));
    assert_eq!(
        session.audit_total_epsilon_units(),
        session.accountant().total_spent_units(),
        "audit and accountant fixed-point totals must be the same integer"
    );
    assert_eq!(session.audit_total_epsilon(), session.total_spent());
    let verdict = session.verify_policy_lifecycle(Some(limit));
    assert!(verdict.upholds_osdp());
}

#[test]
fn audit_shard_totals_match_the_accountant_on_fresh_and_recovered_sessions() {
    let limit = 3.0;
    hammer_to_the_cap_and_check_totals(&Arc::new(bound_session(Some(limit))), limit);

    // A recovered durable session: a snapshot base plus a WAL tail, whose
    // units the audit total must still count after the hammer.
    let dir = std::env::temp_dir().join(format!("osdp-audit-totals-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = || {
        let full = Histogram::from_counts(vec![40.0, 10.0, 25.0, 25.0]);
        let ns = Histogram::from_counts(vec![30.0, 10.0, 0.0, 20.0]);
        let persistence = SessionPersistence::open(&dir, SyncPolicy::EveryN(16)).unwrap();
        histogram_session(full, ns)
            .policy_label("P-stress")
            .seed(41)
            .budget(limit)
            .durable(persistence)
            .build()
            .unwrap()
    };
    let mechanism = OsdpLaplaceL1::new(0.25).unwrap();
    let before_restart = {
        let session = durable();
        let wal = session.persistence().unwrap();
        for _ in 0..4 {
            session.release(&SessionQuery::bound(), &mechanism).unwrap();
        }
        wal.snapshot().unwrap();
        for _ in 0..2 {
            session.release(&SessionQuery::bound(), &mechanism).unwrap();
        }
        wal.sync().unwrap();
        session.accountant().total_spent_units()
    };
    let session = Arc::new(durable());
    assert_eq!(session.accountant().total_spent_units(), before_restart);
    assert_eq!(session.audit_total_epsilon_units(), before_restart, "base and tail both count");
    hammer_to_the_cap_and_check_totals(&session, limit);
    assert!(session.audit_len() > 6);
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn removed_tenants_keep_absorbing_in_flight_releases() {
    // SessionPool::remove while releases are in flight: the stragglers
    // land in the *returned* session's audit log, and remove_quiesced
    // waits for them so a final verify counts every grant.
    let pool: Arc<SessionPool> = Arc::new(SessionPool::new());
    pool.insert("acme", bound_session(None)).unwrap();
    let barrier = Arc::new(Barrier::new(THREADS + 1));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let pool = Arc::clone(&pool);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let mechanism = OsdpLaplaceL1::new(0.125).unwrap();
                barrier.wait();
                let mut grants = 0usize;
                // Release until the tenant disappears from the map; any
                // release already routed keeps running on its own Arc.
                while pool.release("acme", &SessionQuery::bound(), &mechanism).is_ok() {
                    grants += 1;
                    if pool.get("acme").is_none() {
                        break;
                    }
                }
                grants
            })
        })
        .collect();
    barrier.wait();
    // Let traffic start, then evict mid-flight and wait for quiescence.
    thread::yield_now();
    let evicted = pool.remove_quiesced("acme").expect("tenant was registered");
    let grants: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();

    // The pool no longer verifies the tenant...
    assert!(pool.get("acme").is_none());
    assert!(pool.verify_all_ledgers().tenants.is_empty());
    // ...but nothing vanished: every grant is in the returned session's
    // ledger, which passes a final verify, and the audit accumulator
    // agrees with the accountant bit for bit.
    assert_eq!(evicted.audit_len(), grants, "every in-flight release landed");
    assert_eq!(evicted.audit_total_epsilon(), evicted.total_spent());
    let verdict = evicted.verify_policy_lifecycle(None);
    assert!(verdict.upholds_osdp());
    assert!((verdict.total_epsilon - 0.125 * grants as f64).abs() < 1e-9);
    // Quiesced: we hold the only Arc.
    assert_eq!(Arc::strong_count(&evicted), 1);
}

#[test]
fn pool_isolates_tenant_budgets_under_contention() {
    let pool: Arc<SessionPool> = Arc::new(SessionPool::new());
    let tenants = ["acme", "globex", "initech", "umbrella"];
    for (i, tenant) in tenants.iter().enumerate() {
        // Tenant i can afford exactly 4 + i grants of 0.25 ε.
        let full = Histogram::from_counts(vec![40.0, 10.0, 25.0, 25.0]);
        let ns = Histogram::from_counts(vec![30.0, 10.0, 0.0, 20.0]);
        let session = histogram_session(full, ns)
            .policy_label("P-tenant")
            .budget(0.25 * (4 + i) as f64)
            .seed(100 + i as u64)
            .build()
            .unwrap();
        pool.insert(*tenant, session).unwrap();
    }

    // Two threads per tenant race 6 attempts each (12 > any tenant's cap).
    let barrier = Arc::new(Barrier::new(2 * tenants.len()));
    let handles: Vec<_> = (0..2 * tenants.len())
        .map(|slot| {
            let pool = Arc::clone(&pool);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let tenant = ["acme", "globex", "initech", "umbrella"][slot / 2];
                let mechanism = OsdpLaplaceL1::new(0.25).unwrap();
                barrier.wait();
                let mut grants = 0usize;
                for _ in 0..6 {
                    if pool.release(tenant, &SessionQuery::bound(), &mechanism).is_ok() {
                        grants += 1;
                    }
                }
                (tenant, grants)
            })
        })
        .collect();
    let mut grants_by_tenant = std::collections::HashMap::new();
    for h in handles {
        let (tenant, grants) = h.join().unwrap();
        *grants_by_tenant.entry(tenant).or_insert(0usize) += grants;
    }

    // Each tenant lands exactly on its own cap — neighbours' traffic never
    // bleeds into another tenant's budget.
    for (i, tenant) in tenants.iter().enumerate() {
        assert_eq!(grants_by_tenant[tenant], 4 + i, "tenant {tenant}");
        let session = pool.get(tenant).unwrap();
        assert!((session.total_spent() - 0.25 * (4 + i) as f64).abs() < 1e-9);
        assert_eq!(session.remaining_budget(), Some(0.0));
    }
    let verdict = pool.verify_all_ledgers();
    assert!(verdict.all_upheld());
    assert!((verdict.parallel_epsilon - 0.25 * 7.0).abs() < 1e-9, "max tenant, not the sum");
    assert!((pool.parallel_composed_epsilon() - 0.25 * 7.0).abs() < 1e-9);
    assert!((pool.total_spent() - 0.25 * (4 + 5 + 6 + 7) as f64).abs() < 1e-9);
}

/// A backend wrapper counting every scan (the exactly-once probe).
struct CountingBackend {
    inner: RowBackend<Record>,
    scans: AtomicUsize,
}

impl Backend<Record> for CountingBackend {
    fn name(&self) -> &'static str {
        "counting"
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn scan(&self, plan: &QueryPlan<Record>) -> Result<HistogramPair, OsdpError> {
        self.scans.fetch_add(1, Ordering::SeqCst);
        self.inner.scan(plan)
    }
    fn database(&self) -> Option<&Database<Record>> {
        self.inner.database()
    }
}

#[test]
fn racing_task_derivations_scan_exactly_once() {
    let db: Database<Record> =
        (0..500).map(|i| Record::builder().field("v", Value::Int(i % 100)).build()).collect();
    let backend =
        Arc::new(CountingBackend { inner: RowBackend::new(db), scans: AtomicUsize::new(0) });
    let session = Arc::new(
        SessionBuilder::with_backend(Arc::clone(&backend) as Arc<dyn Backend<Record>>)
            .policy(AttributePolicy::int_at_most("v", 49), "lower-half")
            .seed(17)
            .build()
            .unwrap(),
    );
    // One shared query value (one closure identity): every thread asks the
    // same question at the same time.
    let query = Arc::new(SessionQuery::count_by_int_linear("deciles", "v", 0, 10, 10));
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let session = Arc::clone(&session);
            let query = Arc::clone(&query);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                session.derive_task(&query).unwrap()
            })
        })
        .collect();
    let tasks: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(tasks.windows(2).all(|w| w[0] == w[1]), "all threads see one task");
    assert_eq!(
        backend.scans.load(Ordering::SeqCst),
        1,
        "the sharded cache must derive a racing key exactly once"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The fixed-point invariant under the whole design: the admitted spend
    /// total is a sum of integers, so it is identical whether the same
    /// grants land serially, in reverse, or race from [`THREADS`] threads.
    #[test]
    fn spend_totals_are_independent_of_interleaving_order(
        epsilons in prop::collection::vec(0.001f64..3.0, 1..24),
    ) {
        let spend_all = |acc: &BudgetAccountant, eps: &[f64]| {
            for &e in eps {
                acc.spend("m", "P", e, PrivacyGuarantee::OneSided).unwrap();
            }
        };
        let forward = BudgetAccountant::unlimited();
        spend_all(&forward, &epsilons);
        let reversed: Vec<f64> = epsilons.iter().rev().copied().collect();
        let backward = BudgetAccountant::unlimited();
        spend_all(&backward, &reversed);

        let racing = Arc::new(BudgetAccountant::unlimited());
        let chunks: Vec<Vec<f64>> =
            epsilons.chunks(epsilons.len().div_ceil(THREADS)).map(<[f64]>::to_vec).collect();
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                let racing = Arc::clone(&racing);
                thread::spawn(move || {
                    for &e in &chunk {
                        racing.spend("m", "P", e, PrivacyGuarantee::OneSided).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        prop_assert_eq!(forward.total_spent_units(), backward.total_spent_units());
        prop_assert_eq!(forward.total_spent_units(), racing.total_spent_units());
        // The f64 views agree bit-for-bit too, because they are derived
        // from the same integer.
        prop_assert_eq!(forward.total_spent(), racing.total_spent());
    }
}
