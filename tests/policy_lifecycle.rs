//! Versioned policy lifecycle tests: epoch transitions under racing
//! traffic, durable version-history recovery, and stale-policy replay
//! rejection.
//!
//! The invariants under test are the lifecycle contract end to end:
//!
//! * **No stale tasks, ever.** While [`THREADS`] threads hammer `release`
//!   and `release_pool`, a transition thread tightens the policy epoch.
//!   Every release the racing session served is then replayed on a
//!   **serial oracle** session driven purely by the `(index, version)`
//!   audit stamps: the oracle transitions to each release's stamped epoch
//!   *before* replaying it, so its estimates are bitwise what an
//!   un-raced session would have produced under that epoch. If any racing
//!   release had been served a task derived under a stale epoch, its
//!   estimate could not match the oracle's.
//! * **Stamps are monotone** in audit-index order (the packed counter
//!   allocates index and version in one atomic), and every honest
//!   multi-epoch history passes `verify_policy_lifecycle`.
//! * **Recovery reconstructs the version history bit for bit** — a
//!   restarted durable session resumes at the pre-crash version with the
//!   identical transition list.
//! * **A seeded stale-policy replay is rejected**: re-stamping one real
//!   release with a more permissive epoch than the one in force at its
//!   sequence number flips the verdict.

use osdp::engine::verify_epoch_stamps;
use osdp::prelude::*;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

/// Serving threads per stress test — above the dev container's core count
/// so the schedules interleave even on one core.
const THREADS: usize = 8;

fn temp_root(name: &str) -> PathBuf {
    static UNIQUE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "osdp-lifecycle-{}-{}-{name}",
        std::process::id(),
        UNIQUE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn codes_db(n: u32) -> Database<u32> {
    (0..n).collect()
}

/// The decay schedule under test: epoch `v` marks values `>= 60 - 10·v`
/// sensitive, so each version is strictly tighter than the one before.
fn epoch_policy(v: u64) -> Arc<dyn Policy<u32>> {
    let threshold = 60u32.saturating_sub(10 * v as u32);
    Arc::new(ClosurePolicy::new(format!("decay-{v}"), move |&x: &u32| x >= threshold))
}

fn epoch_label(v: u64) -> String {
    format!("P-v{v}")
}

fn mod8_query() -> SessionQuery<u32> {
    SessionQuery::count_by("mod8", 8, |&v: &u32| Some((v % 8) as usize))
}

fn lifecycle_session(seed: u64) -> OsdpSession<u32> {
    SessionBuilder::new(codes_db(96))
        .policy_arc(epoch_policy(0), epoch_label(0))
        .seed(seed)
        .build()
        .unwrap()
}

/// One racing release, as collected by the hammer threads: everything the
/// serial oracle needs to replay it bitwise.
enum Replay {
    Single { index: u64, estimate: Histogram },
    Trials { index: u64, mechanism: String, trials: usize, estimates: Vec<Histogram> },
}

impl Replay {
    fn index(&self) -> u64 {
        match self {
            Replay::Single { index, .. } | Replay::Trials { index, .. } => *index,
        }
    }
}

/// Races `transitions` tighten steps against [`THREADS`] threads of mixed
/// single/pool traffic, then proves via serial-oracle replay that no
/// release was served a task derived under a stale epoch.
fn race_and_replay(seed: u64, per_thread: usize, transitions: u64) {
    let session = Arc::new(lifecycle_session(seed));
    let query = Arc::new(mod8_query());
    let pool_mechs = Arc::new(pool_from_names(&["OsdpLaplaceL1", "DAWAz"], 0.25).unwrap());

    let barrier = Arc::new(Barrier::new(THREADS + 1));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let session = Arc::clone(&session);
            let query = Arc::clone(&query);
            let pool_mechs = Arc::clone(&pool_mechs);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                let mut events = Vec::new();
                if t % 2 == 0 {
                    let mechanism = OsdpLaplaceL1::new(0.5).unwrap();
                    for _ in 0..per_thread {
                        let r = session.release(&query, &mechanism).unwrap();
                        events.push(Replay::Single { index: r.index, estimate: r.estimate });
                    }
                } else {
                    let pool: Vec<&dyn HistogramMechanism> =
                        pool_mechs.iter().map(|m| m.as_ref()).collect();
                    for _ in 0..per_thread.div_ceil(2) {
                        for r in session.release_pool(&query, &pool, 2).unwrap() {
                            events.push(Replay::Trials {
                                index: r.index,
                                mechanism: r.mechanism,
                                trials: 2,
                                estimates: r.estimates,
                            });
                        }
                    }
                }
                events
            })
        })
        .collect();

    // The transition thread: tighten while the hammer runs.
    barrier.wait();
    for v in 1..=transitions {
        session.set_policy_epoch(epoch_policy(v), epoch_label(v), EpochDirection::Tighten).unwrap();
        thread::yield_now();
    }
    let mut events: Vec<Replay> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
    events.sort_by_key(Replay::index);

    // Structural invariants: dense indices, monotone stamps, clean verdict.
    let mut records = session.audit_records();
    records.sort_by_key(|r| r.index);
    assert_eq!(records.len(), events.len());
    for (i, r) in records.iter().enumerate() {
        assert_eq!(r.index, i as u64, "audit indices are dense");
    }
    assert!(
        records.windows(2).all(|w| w[0].policy_version <= w[1].policy_version),
        "version stamps must be monotone in index order"
    );
    assert_eq!(session.policy_version(), transitions);
    assert_eq!(session.epoch_transitions().len() as u64, transitions);
    let verdict = session.verify_policy_lifecycle(None);
    assert!(verdict.upholds_osdp(), "honest racing history must verify: {:?}", verdict.epochs);

    // Serial-oracle replay: drive a fresh same-seed session through the
    // SAME (index, version) schedule the stamps recorded — transitioning
    // *between* releases, never racing them — and demand bitwise-equal
    // estimates. The RNG stream of release `i` is keyed by `i` on both
    // sessions, so the only degree of freedom left is the task: a racing
    // release that used a stale epoch's task cannot match the oracle.
    let oracle = lifecycle_session(seed);
    let mut oracle_version = 0u64;
    for (event, record) in events.iter().zip(&records) {
        assert_eq!(event.index(), record.index);
        while oracle_version < record.policy_version {
            oracle_version += 1;
            oracle
                .set_policy_epoch(
                    epoch_policy(oracle_version),
                    epoch_label(oracle_version),
                    EpochDirection::Tighten,
                )
                .unwrap();
        }
        match event {
            Replay::Single { index, estimate } => {
                let expected = oracle.release(&query, &OsdpLaplaceL1::new(0.5).unwrap()).unwrap();
                assert_eq!(expected.index, *index, "oracle replays in index lockstep");
                assert_eq!(
                    estimate, &expected.estimate,
                    "release {} (stamped v{}) must carry its stamped epoch's task",
                    index, record.policy_version
                );
            }
            Replay::Trials { index, mechanism, trials, estimates } => {
                let mech = pool_mechs
                    .iter()
                    .find(|m| m.name() == mechanism)
                    .expect("pool mechanism by name");
                let expected = oracle.release_trials(&query, mech.as_ref(), *trials).unwrap();
                assert_eq!(
                    estimates, &expected,
                    "pool slice {} ({}) must carry its stamped epoch's task",
                    index, mechanism
                );
            }
        }
    }
    // The replay itself is an honest serial history: it verifies too, and
    // lands on the same final version.
    assert_eq!(oracle.policy_version(), records.last().map_or(0, |r| r.policy_version));
    assert!(oracle.verify_policy_lifecycle(None).upholds_osdp());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole invariant under racing traffic: no release is ever
    /// served a task derived from a stale epoch, and stamps stay monotone.
    #[test]
    fn racing_epoch_transitions_never_serve_stale_tasks(
        seed in 0u64..1_000,
        per_thread in 2usize..5,
        transitions in 1u64..4,
    ) {
        race_and_replay(seed, per_thread, transitions);
    }
}

#[test]
fn honest_multi_epoch_histories_verify_clean_per_tenant() {
    // A pool of tenants, each walking its own tighten/relax schedule: the
    // versioned sweep accepts every honest history.
    let pool: SessionPool<u32> = SessionPool::new();
    for (i, tenant) in ["acme", "globex"].iter().enumerate() {
        pool.insert(*tenant, lifecycle_session(50 + i as u64)).unwrap();
    }
    let mechanism = OsdpLaplaceL1::new(0.25).unwrap();
    let query = mod8_query();
    for tenant in ["acme", "globex"] {
        pool.release(tenant, &query, &mechanism).unwrap();
    }
    // acme decays (tighten); globex gains consent (relax).
    pool.set_policy_epoch("acme", epoch_policy(1), "acme-decay", EpochDirection::Tighten).unwrap();
    pool.set_policy_epoch(
        "globex",
        Arc::new(ClosurePolicy::new("consented", |&x: &u32| x >= 80)),
        "globex-consent",
        EpochDirection::Relax,
    )
    .unwrap();
    for tenant in ["acme", "globex"] {
        pool.release(tenant, &query, &mechanism).unwrap();
    }
    let verdict = pool.verify_all_ledgers();
    assert!(verdict.all_upheld(), "every honest tenant lifecycle verifies");
    for tenant in ["acme", "globex"] {
        let session = pool.get(tenant).unwrap();
        assert_eq!(session.policy_version(), 1);
        let stamps: Vec<u64> = session.audit_records().iter().map(|r| r.policy_version).collect();
        assert_eq!(stamps, vec![0, 1]);
    }
}

#[test]
fn durable_recovery_reconstructs_the_version_history_bit_for_bit() {
    let root = temp_root("recover");
    let dir = root.join("tenant");

    let first = SessionBuilder::new(codes_db(96))
        .policy_arc(epoch_policy(0), epoch_label(0))
        .seed(11)
        .durable(SessionPersistence::open(&dir, SyncPolicy::Always).unwrap())
        .build()
        .unwrap();
    let mechanism = OsdpLaplaceL1::new(0.5).unwrap();
    let query = mod8_query();
    first.release(&query, &mechanism).unwrap();
    for v in 1..=2u64 {
        first.set_policy_epoch(epoch_policy(v), epoch_label(v), EpochDirection::Tighten).unwrap();
        first.release(&query, &mechanism).unwrap();
    }
    let transitions_before = first.epoch_transitions();
    let stamps_before: Vec<u64> = first.audit_records().iter().map(|r| r.policy_version).collect();
    assert_eq!(stamps_before, vec![0, 1, 2]);
    drop(first);

    // Reopen: the WAL's epoch records reconstruct the exact history.
    let persistence = SessionPersistence::open(&dir, SyncPolicy::Always).unwrap();
    let recovered = persistence.recovered();
    assert_eq!(recovered.policy_version, 2);
    assert_eq!(recovered.transitions.len(), 2);
    for (r, t) in recovered.transitions.iter().zip(&transitions_before) {
        assert_eq!(r.version, t.version);
        assert_eq!(r.boundary_seq, t.boundary_seq);
        assert_eq!(r.relaxes, t.relaxes);
        assert_eq!(r.label, t.label);
    }

    // A restarted session resumes at the recovered version, remembers the
    // full transition list, keeps stamping from there, and verifies clean.
    let second = SessionBuilder::new(codes_db(96))
        .policy_arc(epoch_policy(2), epoch_label(2))
        .seed(11)
        .durable(persistence)
        .build()
        .unwrap();
    assert_eq!(second.policy_version(), 2);
    assert_eq!(second.epoch_transitions(), transitions_before);
    let release = second.release(&query, &mechanism).unwrap();
    assert_eq!(release.index, 3, "release indices resume after the recovered history");
    assert_eq!(second.audit_records().last().unwrap().policy_version, 2);
    assert!(second.verify_policy_lifecycle(None).upholds_osdp());

    // The lifecycle continues across the restart: the next transition is
    // version 3, and it is durably logged in turn.
    second.set_policy_epoch(epoch_policy(3), epoch_label(3), EpochDirection::Tighten).unwrap();
    assert_eq!(second.policy_version(), 3);
    drop(second);
    let reopened = SessionPersistence::open(&dir, SyncPolicy::Always).unwrap();
    assert_eq!(reopened.recovered().policy_version, 3);
    assert_eq!(reopened.recovered().transitions.len(), 3);
}

#[test]
fn seeded_stale_policy_replay_is_rejected_end_to_end() {
    // An honest session: consent relaxes the policy at a known boundary.
    let session = lifecycle_session(23);
    let mechanism = OsdpLaplaceL1::new(0.5).unwrap();
    let query = mod8_query();
    session.release(&query, &mechanism).unwrap();
    session.release(&query, &mechanism).unwrap();
    session
        .set_policy_epoch(
            Arc::new(ClosurePolicy::new("consented", |&x: &u32| x >= 80)),
            "P-consent",
            EpochDirection::Relax,
        )
        .unwrap();
    session.release(&query, &mechanism).unwrap();

    let transitions = session.epoch_transitions();
    let honest = session.release_stamps();
    assert!(session.verify_policy_lifecycle(None).upholds_osdp());
    assert!(verify_epoch_stamps(&honest, &transitions).consistent());

    // The seeded replay: claim release 0 — served BEFORE the consent
    // boundary — ran under the relaxed epoch. That is exactly a release
    // served under a more permissive policy than the one in force at its
    // sequence number, and the verifier must reject it.
    let mut replayed = honest.clone();
    replayed[0] = ReleaseStamp { seq: 0, version: 1 };
    let epochs = verify_epoch_stamps(&replayed, &transitions);
    assert!(!epochs.consistent());
    assert_eq!(epochs.stale_releases, vec![0]);

    // Tampering with the history instead — backdating the consent boundary
    // to excuse the replay — breaks the monotone structural check instead:
    // the stamps 1, 0, 1 cannot come from the packed audit counter.
    let mut backdated = transitions.clone();
    backdated[0].boundary_seq = 0;
    let verdict = verify_epoch_stamps(&replayed, &backdated);
    assert!(!verdict.monotone, "a backdated boundary cannot explain non-monotone stamps");
}
