//! Pinned verdicts of the ledger verifier.
//!
//! Each test builds a ledger through the public session and pool API and
//! pins what `verify_policy_lifecycle`, `verify_all_ledgers` and
//! `verify_epoch_stamps` say about it: a ledger within and over its cap, a
//! PDP (`Suppress`) release, forged stale and backdated epoch stamps, a
//! recovered durable session with collapsed base rows, and a spend 500
//! fixed-point units above the limit.

use osdp::engine::verify_epoch_stamps;
use osdp::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn temp_root(name: &str) -> PathBuf {
    static UNIQUE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "osdp-verdicts-{}-{}-{name}",
        std::process::id(),
        UNIQUE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn ages() -> Database {
    (0..60i64).map(|i| Record::builder().field("age", i).build()).collect()
}

fn builder(budget: Option<f64>) -> SessionBuilder<Record> {
    let b = SessionBuilder::new(ages())
        .policy(AttributePolicy::int_at_most("age", 17), "P-minors")
        .seed(5);
    match budget {
        Some(cap) => b.budget(cap),
        None => b,
    }
}

fn query() -> SessionQuery<Record> {
    SessionQuery::count_by_int_linear("age-decades", "age", 0, 10, 6)
}

fn under_50() -> Arc<dyn Policy<Record>> {
    Arc::new(AttributePolicy::int_at_most("age", 49))
}

fn l1(eps: f64) -> OsdpLaplaceL1 {
    OsdpLaplaceL1::new(eps).unwrap()
}

/// Spends exactly 1.0 ε: 0.25 under the bound policy, 0.25 under
/// `P-under-50`, a batch of 3 × 0.125 trials and a 0.125 DP release.
fn spend_one_epsilon(session: &OsdpSession) {
    session.release(&query(), &l1(0.25)).unwrap();
    session.release_with_policy(&query(), &l1(0.25), under_50(), "P-under-50").unwrap();
    session.release_trials(&query(), &l1(0.125), 3).unwrap();
    session.release(&query(), &DpLaplaceHistogram::new(0.125).unwrap()).unwrap();
}

#[test]
fn a_ledger_within_its_cap_upholds_osdp() {
    let session = builder(Some(1.0)).build().unwrap();
    spend_one_epsilon(&session);
    let verdict = session.verify_policy_lifecycle(Some(1.0));
    assert!((verdict.total_epsilon - 1.0).abs() < 1e-9);
    assert_eq!(verdict.policies, ["P-minors", "P-under-50"]);
    assert!(!verdict.is_pure_dp);
    assert!(verdict.within_limit);
    assert_eq!(verdict.worst_exclusion_phi, 0.375, "the 3-trial batch");
    assert!(verdict.pdp_entries.is_empty());
    assert!(verdict.upholds_osdp());
    assert!(session.verify_policy_lifecycle(None).upholds_osdp());
}

#[test]
fn a_ledger_over_the_limit_fails() {
    let session = builder(Some(1.0)).build().unwrap();
    spend_one_epsilon(&session);
    let verdict = session.verify_policy_lifecycle(Some(0.75));
    assert!((verdict.total_epsilon - 1.0).abs() < 1e-9);
    assert!(!verdict.within_limit);
    assert!(verdict.pdp_entries.is_empty());
    assert!(!verdict.upholds_osdp());
}

#[test]
fn empty_and_pure_dp_ledgers() {
    let session = builder(None).build().unwrap();
    let empty = session.verify_policy_lifecycle(None);
    assert_eq!(empty.total_epsilon, 0.0);
    assert!(empty.policies.is_empty());
    assert!(!empty.is_pure_dp, "an empty ledger proves nothing");
    assert_eq!(empty.worst_exclusion_phi, 0.0);
    assert!(empty.upholds_osdp());

    session.release(&query(), &DpLaplaceHistogram::new(0.5).unwrap()).unwrap();
    session.release_trials(&query(), &DpLaplaceHistogram::new(0.125).unwrap(), 2).unwrap();
    let verdict = session.verify_policy_lifecycle(Some(0.75));
    assert!((verdict.total_epsilon - 0.75).abs() < 1e-9);
    assert_eq!(verdict.policies, ["P-minors"]);
    assert!(verdict.is_pure_dp);
    assert!(verdict.within_limit);
    assert_eq!(verdict.worst_exclusion_phi, 0.5);
    assert!(verdict.upholds_osdp());
}

#[test]
fn a_pdp_release_is_the_exclusion_attack_surface() {
    let session = builder(None).build().unwrap();
    session.release(&query(), &l1(0.5)).unwrap();
    session.release(&query(), &Suppress::new(100.0).unwrap()).unwrap();
    let verdict = session.verify_policy_lifecycle(None);
    assert!((verdict.total_epsilon - 100.5).abs() < 1e-9);
    assert_eq!(verdict.pdp_entries, ["Suppress100"]);
    assert!(verdict.within_limit);
    assert!(!verdict.is_pure_dp);
    assert_eq!(verdict.worst_exclusion_phi, 100.0);
    assert!(!verdict.upholds_osdp());

    // A pool reports the PDP tenant, and only it.
    let pool: SessionPool = SessionPool::new();
    pool.insert("clean", builder(Some(1.0)).build().unwrap()).unwrap();
    pool.insert("pdp", builder(None).build().unwrap()).unwrap();
    spend_one_epsilon(&pool.get("clean").unwrap());
    pool.get("pdp").unwrap().release(&query(), &Suppress::new(100.0).unwrap()).unwrap();
    let pooled = pool.verify_all_ledgers();
    assert!(!pooled.all_upheld());
    assert_eq!(pooled.violating_tenants(), [Arc::<str>::from("pdp")]);
    assert_eq!(pooled.tenants.len(), 2);
    assert_eq!(&*pooled.tenants[0].tenant, "clean");
    assert!(pooled.tenants[0].verdict.upholds_osdp());
    assert!((pooled.parallel_epsilon - 100.0).abs() < 1e-9);
}

#[test]
fn forged_stale_and_backdated_stamps_are_rejected() {
    // An honest session: consent relaxes the policy after two releases.
    let session = builder(None).build().unwrap();
    session.release(&query(), &l1(0.25)).unwrap();
    session.release(&query(), &l1(0.25)).unwrap();
    let consent: Arc<dyn Policy<Record>> = Arc::new(AttributePolicy::int_at_most("age", 9));
    session.set_policy_epoch(consent, "P-consent", EpochDirection::Relax).unwrap();
    session.release(&query(), &l1(0.25)).unwrap();
    assert!(session.verify_policy_lifecycle(None).upholds_osdp());

    let honest = session.release_stamps();
    let transitions = session.epoch_transitions();
    assert_eq!(transitions.len(), 1);
    assert_eq!(transitions[0].boundary_seq, 2);
    let clean = EpochVerdict {
        versions: 2,
        stale_releases: Vec::new(),
        monotone: true,
        history_dense: true,
    };
    assert_eq!(verify_epoch_stamps(&honest, &transitions), clean);

    // Release 0 claims the relaxed epoch, which was not yet in force.
    let mut stale = honest.clone();
    stale[0] = ReleaseStamp { seq: 0, version: 1 };
    let verdict = verify_epoch_stamps(&stale, &transitions);
    assert_eq!(verdict, EpochVerdict { stale_releases: vec![0], monotone: false, ..clean.clone() });
    assert!(!verdict.consistent());

    // Backdating the boundary excuses the stamp but not the order.
    let mut backdated = transitions.clone();
    backdated[0].boundary_seq = 0;
    let verdict = verify_epoch_stamps(&stale, &backdated);
    assert_eq!(verdict, EpochVerdict { monotone: false, ..clean.clone() });
    assert!(!verdict.consistent());

    // A stamp tighter than the epoch in force is allowed.
    let mut tighter = honest.clone();
    tighter[2].version = 0;
    assert_eq!(verify_epoch_stamps(&tighter, &transitions), clean);

    // A version the history never issued, and a gapped history, fail closed.
    let unknown = [ReleaseStamp { seq: 1, version: 9 }];
    assert_eq!(
        verify_epoch_stamps(&unknown, &transitions),
        EpochVerdict { stale_releases: vec![1], ..clean.clone() }
    );
    let mut gapped = transitions.clone();
    gapped[0].version = 2;
    assert_eq!(
        verify_epoch_stamps(&honest, &gapped),
        EpochVerdict { versions: 1, stale_releases: vec![2], monotone: true, history_dense: false }
    );
}

#[test]
fn a_recovered_session_verifies_over_its_base_rows() {
    let root = temp_root("recovered");
    let dir = root.join("tenant");
    let first = builder(None)
        .durable(SessionPersistence::open(&dir, SyncPolicy::Always).unwrap())
        .build()
        .unwrap();
    first.release_with_policy(&query(), &l1(0.25), under_50(), "P-under-50").unwrap();
    first.release(&query(), &l1(0.25)).unwrap();
    first.release(&query(), &Suppress::new(2.0).unwrap()).unwrap();
    first.persistence().unwrap().snapshot().unwrap();
    first.release(&query(), &l1(0.125)).unwrap();
    drop(first);

    let persistence = SessionPersistence::open(&dir, SyncPolicy::Always).unwrap();
    assert_eq!(persistence.recovered().base_entries.len(), 3);
    assert_eq!(persistence.recovered().tail.len(), 1);
    let second = builder(None).durable(persistence).build().unwrap();
    second.release(&query(), &l1(0.125)).unwrap();

    let verdict = second.verify_policy_lifecycle(Some(2.75));
    assert!((verdict.total_epsilon - 2.75).abs() < 1e-9);
    // Base rows come in snapshot order, not first-use order.
    assert_eq!(verdict.policies, ["P-minors", "P-under-50"]);
    assert!(!verdict.is_pure_dp);
    assert!(verdict.within_limit);
    assert_eq!(verdict.worst_exclusion_phi, 2.0);
    assert_eq!(verdict.pdp_entries, ["Suppress2 [recovered]"]);
    assert!(!verdict.upholds_osdp());
    assert!(!second.verify_policy_lifecycle(Some(2.5)).within_limit);
    let stamps = second.release_stamps();
    assert_eq!(stamps.len(), 2, "the base rows carry no stamps");
    assert!(verify_epoch_stamps(&stamps, &second.epoch_transitions()).consistent());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_spend_500_units_above_the_limit() {
    let session = builder(Some(1.0)).build().unwrap();
    spend_one_epsilon(&session);
    let spent = session.accountant().total_spent_units();
    assert_eq!(spent, epsilon_to_units(1.0));
    let limit = units_to_epsilon(spent - 500);
    let verdict = session.verify_policy_lifecycle(Some(limit));
    // The boundary verdict: 500 units (5e-10 ε) over the limit are over it.
    assert!(!verdict.within_limit);
}
