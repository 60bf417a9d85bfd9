//! Parity suite for the zero-allocation release plane.
//!
//! `HistogramMechanism::release_into` is the one sampling implementation of
//! every mechanism. Golden hashes of seeded releases pin its bits; the
//! property tests check that a dirty, reused output buffer is fully
//! overwritten and that the parallel trial batches and
//! `OsdpSession::release_pool` reproduce a serial loop bitwise across all 8
//! mechanisms of the paper's pool; a counting backend probes the one-scan
//! guarantee of `release_pool`.

use osdp::mechanisms::recipe::{
    HierarchicalTwoPhase, IdentityTwoPhase, ZeroBinRecipe, ZeroDetector, DEFAULT_RHO,
};
use osdp::prelude::*;
use proptest::prelude::*;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The full 8-mechanism pool: 5 OSDP mechanisms, 2 DP baselines, 1 PDP
/// baseline — every registered `HistogramMechanism` of the workspace.
fn full_pool(eps: f64) -> Vec<Box<dyn HistogramMechanism>> {
    pool_from_names(
        &[
            "OsdpRR",
            "OsdpLaplace",
            "OsdpLaplaceL1",
            "Hybrid",
            "DAWAz",
            "Laplace",
            "DAWA",
            "Suppress100",
        ],
        eps,
    )
    .expect("registry pool")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `release_into` == `release` bitwise, for every mechanism, across
    /// random tasks, seeds and budgets — including identical RNG stream
    /// consumption (checked through the residual RNG state).
    #[test]
    fn release_into_matches_release_bitwise_for_all_mechanisms(
        spec in prop::collection::vec((0u32..400, 0.0f64..=1.0), 1..24),
        seed in 0u64..1_000_000_000,
        eps in 0.05f64..2.0,
    ) {
        let full: Vec<f64> = spec.iter().map(|&(c, _)| c as f64).collect();
        let ns: Vec<f64> = spec.iter().map(|&(c, f)| (c as f64 * f).floor()).collect();
        let task = HistogramTask::new(
            Histogram::from_counts(full),
            Histogram::from_counts(ns),
        ).expect("ns dominated by full by construction");

        // One output buffer reused across every mechanism: release_into must
        // resize and fully overwrite it each time.
        let mut out = Histogram::zeros(0);
        for mechanism in full_pool(eps) {
            let mut reference_rng = ChaCha12Rng::seed_from_u64(seed);
            let reference = mechanism.release(&task, &mut reference_rng);
            let mut reuse_rng = ChaCha12Rng::seed_from_u64(seed);
            mechanism.release_into(&task, &mut reuse_rng, &mut out);

            prop_assert_eq!(reference.len(), out.len(), "{}", mechanism.name());
            for (bin, (a, b)) in reference.counts().iter().zip(out.counts()).enumerate() {
                prop_assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{} drifted at bin {}: {} vs {}",
                    mechanism.name(), bin, a, b
                );
            }
            prop_assert_eq!(
                reference_rng.next_u64(),
                reuse_rng.next_u64(),
                "{} consumed a different number of draws",
                mechanism.name()
            );
        }
    }

    /// The arena-based parallel trial batch of a fresh session reproduces a
    /// serial loop of `release` over its per-trial streams, bitwise, for
    /// every mechanism.
    #[test]
    fn parallel_trials_match_the_serial_oracle(
        seed in 0u64..1_000_000_000,
        trials in 1usize..5,
    ) {
        let full = Histogram::from_counts(vec![120.0, 0.0, 37.0, 4.0, 880.0, 55.0, 0.0, 9.0]);
        let ns = Histogram::from_counts(vec![100.0, 0.0, 30.0, 0.0, 600.0, 55.0, 0.0, 3.0]);
        let session = |s: u64| {
            histogram_session(full.clone(), ns.clone()).seed(s).build().expect("valid pair")
        };
        for mechanism in full_pool(1.0) {
            let parallel = session(seed)
                .release_trials(&SessionQuery::bound(), &mechanism, trials)
                .expect("uncapped");
            let task = HistogramTask::new(full.clone(), ns.clone()).expect("valid pair");
            let stream = format!("trials/0/{}", mechanism.name());
            let serial: Vec<Histogram> = (0..trials as u64)
                .map(|t| mechanism.release(&task, &mut SeedSequence::new(seed).rng_for(&stream, t)))
                .collect();
            prop_assert_eq!(&parallel, &serial, "{} parallel != serial", mechanism.name());
        }
    }
}

/// A backend wrapper counting every scan — the probe behind the
/// one-scan-per-pool guarantee.
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

fn counted_session(backend: &Arc<CountingBackend>) -> OsdpSession<Record> {
    SessionBuilder::with_backend(Arc::clone(backend) as Arc<dyn Backend<Record>>)
        .policy(AttributePolicy::int_at_most("v", 49), "lower-half")
        .seed(11)
        .build()
        .expect("valid session")
}

#[test]
fn release_pool_performs_exactly_one_backend_scan() {
    let db: Database<Record> =
        (0..200).map(|i| Record::builder().field("v", Value::Int(i % 100)).build()).collect();
    let backend =
        Arc::new(CountingBackend { inner: RowBackend::new(db), scans: AtomicUsize::new(0) });
    let session = counted_session(&backend);
    let query = SessionQuery::count_by_int_linear("deciles", "v", 0, 10, 10);

    let mechanisms = full_pool(1.0);
    let pool: Vec<&dyn HistogramMechanism> = mechanisms.iter().map(|m| m.as_ref()).collect();
    let releases = session.release_pool(&query, &pool, 3).expect("uncapped");
    assert_eq!(releases.len(), 8);
    assert!(releases.iter().all(|r| r.estimates.len() == 3));
    assert_eq!(
        backend.scans.load(Ordering::SeqCst),
        1,
        "an 8-mechanism pool batch must scan exactly once"
    );

    // A second pool batch over the same query: served from the task cache.
    session.release_pool(&query, &pool, 2).expect("uncapped");
    assert_eq!(backend.scans.load(Ordering::SeqCst), 1, "cache hit, no re-scan");

    // A different query identity does scan again.
    let narrower = SessionQuery::count_by_int_linear("halves", "v", 0, 50, 2);
    session.release_pool(&narrower, &pool, 1).expect("uncapped");
    assert_eq!(backend.scans.load(Ordering::SeqCst), 2);
}

#[test]
fn release_pool_matches_sequential_trials_on_histogram_sessions() {
    let full = Histogram::from_counts(vec![300.0, 12.0, 0.0, 77.0, 4096.0]);
    let ns = Histogram::from_counts(vec![290.0, 0.0, 0.0, 60.0, 4000.0]);
    let mechanisms = full_pool(0.5);
    let pool: Vec<&dyn HistogramMechanism> = mechanisms.iter().map(|m| m.as_ref()).collect();

    let batched = histogram_session(full.clone(), ns.clone()).seed(5).build().unwrap();
    let releases = batched.release_pool(&SessionQuery::bound(), &pool, 4).unwrap();

    let sequential = histogram_session(full, ns).seed(5).build().unwrap();
    for (mechanism, release) in pool.iter().zip(&releases) {
        let expected = sequential.release_trials(&SessionQuery::bound(), mechanism, 4).unwrap();
        assert_eq!(release.estimates, expected, "{}", release.mechanism);
    }
    assert_eq!(batched.total_spent(), sequential.total_spent());
    assert_eq!(batched.audit_ledger(), sequential.audit_ledger());
    assert_eq!(batched.audit_records(), sequential.audit_records());
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xCBF2_9CE4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3))
}

/// A `len`-bin task that cycles through four kinds of bin: a non-sensitive
/// count above 1,024 (binomial variance ≥ 25 at ε = 1, so `OsdpRR`'s
/// normal branch; every third one purely non-sensitive, the rest mixed),
/// an empty bin, a small purely non-sensitive bin and a small bin that mixes
/// in sensitive records (both of `Hybrid`'s branches).
fn golden_task(len: usize) -> HistogramTask {
    let (full, ns): (Vec<f64>, Vec<f64>) = (0..len)
        .map(|i| match i % 4 {
            0 => {
                let ns = (1_100 + i * 613 % 4_000) as f64;
                (ns + (i % 3) as f64, ns)
            }
            1 => (0.0, 0.0),
            2 => {
                let count = (1 + i * 37 % 200) as f64;
                (count, count)
            }
            _ => {
                let ns = (i * 11 % 60) as f64;
                (ns + (1 + i % 5) as f64, ns)
            }
        })
        .unzip();
    HistogramTask::new(Histogram::from_counts(full), Histogram::from_counts(ns))
        .expect("ns dominated by full by construction")
}

/// FNV-1a over the bits of ten releases drawn from one seeded generator and
/// of the generator's next word.
fn stream_hash(seed: u64, mut release: impl FnMut(&mut ChaCha12Rng) -> Histogram) -> u64 {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let mut words = Vec::new();
    for _ in 0..10 {
        words.extend(release(&mut rng).counts().iter().map(|x| x.to_bits()));
    }
    words.push(rng.next_u64());
    fnv1a(words)
}

/// The registry mechanism called `name`, at ε = 1.
fn registry(name: &str) -> Box<dyn HistogramMechanism> {
    pool_from_names(&[name], 1.0).expect("registry name").remove(0)
}

/// Task lengths of the golden table, in column order.
const GOLDEN_LENGTHS: [usize; 3] = [1, 257, 1024];

/// Every mechanism at ε = 1 — the 8 registry mechanisms and the variants the
/// registry does not build — with the hashes of its releases of
/// `golden_task(len)` for each of [`GOLDEN_LENGTHS`], seeded by the length.
/// The one bin of `golden_task(1)` is purely non-sensitive and far from zero,
/// so there `Hybrid` hashes like `OsdpLaplaceL1` and clamping never fires.
fn golden_cases() -> Vec<(&'static str, Box<dyn HistogramMechanism>, [u64; 3])> {
    vec![
        (
            "OsdpRR",
            registry("OsdpRR"),
            [0x2F0B_4167_FF44_0B73, 0x5C47_B99D_31ED_71D5, 0xEDC5_5B40_4885_BFBD],
        ),
        (
            "OsdpLaplace",
            registry("OsdpLaplace"),
            [0x9947_531C_2849_C74E, 0x206A_2A45_AB2C_F74B, 0x81DB_35B8_3151_D4A4],
        ),
        (
            "OsdpLaplaceL1",
            registry("OsdpLaplaceL1"),
            [0xF7E5_3575_FA3E_1438, 0x1306_9D5D_671F_3454, 0xE53D_7028_AC62_B6E8],
        ),
        (
            "Hybrid",
            registry("Hybrid"),
            [0xF7E5_3575_FA3E_1438, 0xBBB0_668C_7434_8C00, 0x8BD4_F0AF_7DAF_F94F],
        ),
        (
            "DAWAz",
            registry("DAWAz"),
            [0xB79A_6CE0_8D7C_0969, 0x2B11_7D40_134F_7BCE, 0x69A3_8493_82FF_6C2A],
        ),
        (
            "Laplace",
            registry("Laplace"),
            [0xA35A_020F_5659_413B, 0x0998_3E36_EAF5_0F9D, 0x37F9_AB67_267D_55AD],
        ),
        (
            "DAWA",
            registry("DAWA"),
            [0x5E3A_9E44_8A91_F208, 0x0E30_4B0F_74ED_ACEE, 0xB62F_0723_7AE3_8AB2],
        ),
        (
            "Suppress100",
            registry("Suppress100"),
            [0x0A67_1070_0E95_B328, 0xCD32_59DB_2999_CA46, 0xCD2C_A373_9DD7_9AB0],
        ),
        (
            "OsdpRR rescaled",
            Box::new(OsdpRrHistogram::new(1.0).unwrap().with_rescaling()),
            [0x8E3A_D70E_991F_5AAD, 0x5B6C_6F79_A4ED_C297, 0xBD0F_4CBF_5347_D478],
        ),
        (
            "Hybrid sequential",
            Box::new(HybridLaplace::new(1.0).unwrap().with_sequential_accounting()),
            [0x71F9_C09F_1BA6_1070, 0x7129_7E1C_7D96_C55D, 0x12A1_9FE3_98CE_699B],
        ),
        (
            "Laplace clamped",
            Box::new(DpLaplaceHistogram::new(1.0).unwrap().with_clamping()),
            [0xA35A_020F_5659_413B, 0xD341_79BC_A9F1_0552, 0xB7FC_AACE_2A27_26C1],
        ),
        (
            "DAWAz Laplace detector",
            Box::new(Dawaz::with_laplace_detector(1.0, DEFAULT_RHO).unwrap()),
            [0x0B5E_7E82_EFCD_6181, 0xA98F_BDD6_FC0E_AE4D, 0xCC07_E2FA_7F16_2B2C],
        ),
        (
            "Identityz",
            Box::new(
                ZeroBinRecipe::new(1.0, DEFAULT_RHO, ZeroDetector::OsdpRr, IdentityTwoPhase)
                    .unwrap(),
            ),
            [0xFDE4_47FC_DFF9_3155, 0x1803_00ED_3529_5811, 0x45D0_EE47_E19C_94B0],
        ),
        (
            "H2z",
            Box::new(
                ZeroBinRecipe::new(
                    1.0,
                    DEFAULT_RHO,
                    ZeroDetector::OsdpLaplaceL1,
                    HierarchicalTwoPhase,
                )
                .unwrap(),
            ),
            [0xCEDF_28B8_4DA2_8EB9, 0x1026_FD25_A421_44E5, 0x92D3_3D8B_7D14_6D77],
        ),
    ]
}

/// Golden hashes pin the bits every mechanism releases and the draws it
/// consumes, through `release_into` (into one dirty, reused buffer) and
/// through `release`.
#[test]
fn releases_match_their_golden_hashes() {
    let mut failures = Vec::new();
    for (label, mechanism, want) in golden_cases() {
        for (len, want) in GOLDEN_LENGTHS.into_iter().zip(want) {
            let task = golden_task(len);
            let seed = 0x601D ^ len as u64;
            let mut out = Histogram::from_counts(vec![f64::NAN; 5]);
            let into = stream_hash(seed, |rng| {
                mechanism.release_into(&task, rng, &mut out);
                out.clone()
            });
            let fresh = stream_hash(seed, |rng| mechanism.release(&task, rng));
            if into != want || fresh != want {
                failures.push(format!(
                    "{label} len {len}: release_into {into:#018X}, release {fresh:#018X}"
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Golden hashes of `release_trials` on a fresh seeded session: each
/// registry mechanism in turn draws 3 trials of `golden_task(257)`, so the
/// hashes also pin the per-trial streams keyed by release index.
#[test]
fn session_trials_match_their_golden_hashes() {
    let want: [(&str, u64); 8] = [
        ("OsdpRR", 0x5484_1C19_171C_8A9C),
        ("OsdpLaplace", 0x99D4_7249_1F4C_975A),
        ("OsdpLaplaceL1", 0xB53B_4862_FC66_06A3),
        ("Hybrid", 0xC38E_1932_BA0F_A870),
        ("DAWAz", 0xBDD9_81D6_37B0_A9FD),
        ("Laplace", 0x7CBF_7287_DAB2_2D64),
        ("DAWA", 0xF954_E18C_F86F_12F6),
        ("Suppress100", 0xA762_861C_DACE_29E1),
    ];
    let task = golden_task(257);
    let session = histogram_session(task.full().clone(), task.non_sensitive().clone())
        .seed(0x601D)
        .build()
        .expect("valid pair");
    let hash = |trials: Vec<Histogram>| {
        fnv1a(trials.iter().flat_map(|h| h.counts().iter().map(|x| x.to_bits())))
    };
    let mut failures = Vec::new();
    for (name, want) in want {
        let mechanism = registry(name);
        let got = hash(session.release_trials(&SessionQuery::bound(), &mechanism, 3).unwrap());
        if got != want {
            failures.push(format!("{name}: {got:#018X}"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
