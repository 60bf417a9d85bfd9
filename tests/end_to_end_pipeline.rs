//! End-to-end integration tests spanning the data substrates, mechanisms,
//! metrics and experiment runners.

use osdp::data::sampling::{sample_policy, PolicyKind};
use osdp::data::tippers::{
    generate_dataset, policy_for_ratio, FeatureExtractor, LabeledDataset, TippersConfig,
};
use osdp::data::BenchmarkDataset;
use osdp::experiments::{table1, ExperimentConfig};
use osdp::ml::{auc, LogisticRegression, Standardizer, TrainConfig};
use osdp::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

#[test]
fn dpbench_policy_mechanism_metric_pipeline() {
    let mut rng = ChaCha12Rng::seed_from_u64(11);
    let full = BenchmarkDataset::Medcost.generate(&mut rng);
    let policy = sample_policy(PolicyKind::Close, &full, 0.9, &mut rng).unwrap();

    let eps = 1.0;
    let session = histogram_session(full.clone(), policy.non_sensitive)
        .policy_label("Close-0.9")
        .seed(11)
        .build()
        .unwrap();
    let task = session.derive_task(&SessionQuery::bound()).unwrap();
    assert!((task.non_sensitive_ratio() - 0.9).abs() < 0.02);

    let pool = pool_from_names(&["OsdpLaplaceL1", "DAWAz", "Laplace", "DAWA"], eps).unwrap();
    let mut regrets = RegretTable::new();
    for mechanism in &pool {
        let estimates = session.release_trials(&SessionQuery::bound(), mechanism, 3).unwrap();
        let mut error = 0.0;
        for estimate in &estimates {
            assert_eq!(estimate.len(), task.bins());
            error += mean_relative_error(&full, estimate).unwrap();
        }
        regrets.record("medcost/close/0.9", mechanism.name(), error / 3.0);
    }
    // The session audited one batch per mechanism, 3 trials each, all OSDP
    // or DP — the ledger verifies under the composition theorems.
    let verdict = session.verify_policy_lifecycle(None);
    assert!((verdict.total_epsilon - 4.0 * 3.0 * eps).abs() < 1e-9);
    assert!(verdict.upholds_osdp());
    // Every algorithm has a regret >= 1 and at least one achieves exactly 1.
    let averages = regrets.average_regrets();
    assert_eq!(averages.len(), 4);
    assert!(averages.iter().all(|(_, r)| *r >= 1.0 - 1e-9));
    assert!(averages.iter().any(|(_, r)| (*r - 1.0).abs() < 1e-9));
    // With 90% non-sensitive records an OSDP algorithm should be the winner.
    let dp_only_regret = regrets.regret_on("medcost/close/0.9", "Laplace").unwrap();
    assert!(dp_only_regret >= 1.0);
    let osdp_regret = regrets.regret_on("medcost/close/0.9", "OsdpLaplaceL1").unwrap();
    assert!(
        osdp_regret <= dp_only_regret,
        "OsdpLaplaceL1 regret {osdp_regret} vs Laplace {dp_only_regret}"
    );
}

#[test]
fn tippers_classification_pipeline_learns_residents() {
    let mut rng = ChaCha12Rng::seed_from_u64(12);
    let dataset = generate_dataset(&TippersConfig::small(), &mut rng);
    let policy = policy_for_ratio(&dataset, 0.75);

    // Release a true sample under OSDP — through an audited session — and
    // train on it.
    let db: Database<_> = dataset.trajectories().to_vec().into_iter().collect();
    let session =
        SessionBuilder::new(db).policy(policy.clone(), policy.label()).seed(12).build().unwrap();
    let released = session.release_records(&OsdpRr::new(1.0).unwrap()).unwrap();
    assert!(!released.is_empty());

    let extractor = FeatureExtractor::fit(dataset.trajectories(), 64, 10);
    let train = LabeledDataset::build(&dataset, released.iter(), &extractor);
    let test = LabeledDataset::build(&dataset, dataset.trajectories(), &extractor);
    assert_eq!(train.dimension(), test.dimension());

    let scaler = Standardizer::fit(&train.features);
    let model = LogisticRegression::train(
        &scaler.transform_all(&train.features),
        &train.labels,
        &TrainConfig::default(),
    )
    .unwrap();
    let scores = model.predict_proba_all(&scaler.transform_all(&test.features));
    let quality = auc(&scores, &test.labels).unwrap();
    assert!(
        quality > 0.8,
        "a classifier trained on the OSDP release should still separate residents, AUC {quality}"
    );
}

#[test]
fn experiment_runner_is_deterministic_for_a_fixed_seed() {
    let config = ExperimentConfig::quick();
    let a = table1::run(&config);
    let b = table1::run(&config);
    assert_eq!(a, b, "same seed, same table");

    let mut other = config.clone();
    other.seed ^= 0xDEAD_BEEF;
    let c = table1::run(&other);
    // The analytic column is identical; the empirical one should differ.
    assert_ne!(a, c, "different seeds should produce different empirical rates");
}

#[test]
fn session_budget_guards_a_full_release_workflow() {
    let mut rng = ChaCha12Rng::seed_from_u64(13);
    let full = BenchmarkDataset::Adult.generate(&mut rng);
    let bins = full.len();
    let policy = sample_policy(PolicyKind::Close, &full, 0.5, &mut rng).unwrap();
    let session = histogram_session(full, policy.non_sensitive)
        .policy_label("Close-0.5")
        .budget(1.0)
        .seed(13)
        .build()
        .unwrap();

    // A DAWAz release with the 0.1/0.9 split spends exactly the budget...
    let dawaz = Dawaz::with_rho(1.0, 0.1).unwrap();
    let release = session.release(&SessionQuery::bound(), &dawaz).unwrap();
    assert_eq!(release.estimate.len(), bins);
    assert!(session.remaining_budget().unwrap() < 1e-9);

    // ...and any further release is refused before sampling.
    let err = session.release(&SessionQuery::bound(), &OsdpLaplaceL1::new(0.05).unwrap());
    assert!(matches!(err, Err(OsdpError::BudgetExhausted { .. })));
    assert_eq!(session.audit_records().len(), 1, "the refused release is not logged");

    // The attack-side verifier agrees the ledger respected its cap.
    let verdict = session.verify_policy_lifecycle(Some(1.0));
    assert!(verdict.upholds_osdp());
}
