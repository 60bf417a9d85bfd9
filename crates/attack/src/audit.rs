//! Verifying session audit logs against the composition theorems.
//!
//! `osdp-engine` sessions append every release to an audit log whose ledger
//! view (`Vec<osdp_core::budget::LedgerEntry>`) this module consumes: it
//! recomputes the composed guarantee under sequential composition
//! (Theorem 3.3), checks a claimed budget cap, and flags the entries whose
//! guarantee kind leaves them exposed to exclusion attacks — PDP entries
//! only enjoy φ = τ freedom (Theorem 3.4), while DP/OSDP entries enjoy
//! φ = ε (Theorems 3.1, 3.2).

use osdp_core::budget::{LedgerEntry, PrivacyGuarantee};

/// One release's policy epoch stamp: the audit sequence number of the
/// release and the epoch version the session stamped it with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReleaseStamp {
    /// The release's audit sequence number (dense, per session).
    pub seq: u64,
    /// The policy epoch version stamped onto the release.
    pub version: u64,
}

/// One epoch transition of the policy lifecycle under audit, as recovered
/// from the engine session or its WAL. The record carries its own ordering
/// (`version`, `boundary_seq`), so the verifier never depends on the order
/// transitions are handed to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochTransition {
    /// The version this transition installed (the initial epoch is 0, so
    /// transitions start at 1).
    pub version: u64,
    /// The first release sequence number stamped with `version`: every
    /// release with `seq < boundary_seq` was allocated under an earlier
    /// version, every release with `seq >= boundary_seq` under this one or
    /// later.
    pub boundary_seq: u64,
    /// Whether the transition relaxed the policy (consent) rather than
    /// tightened it (opt-out, decay).
    pub relaxes: bool,
    /// The label of the installed policy.
    pub label: String,
}

/// The stale-policy half of a versioned ledger verdict: did any release get
/// served under a policy *more permissive* than the one in force at its
/// sequence number?
///
/// Permissiveness is the integer level of
/// `osdp_core::policy::VersionedPolicy`: the initial epoch sits at 0, each
/// relax adds 1, each tighten subtracts 1. The version **in force** at
/// sequence `s` is the highest version whose boundary is `<= s`. A release
/// violates exactly when its stamped level exceeds the in-force level —
/// being stamped with a *tighter* epoch than the one in force is allowed
/// (the release leaked less than it was entitled to).
///
/// The check fails **closed**: a stamp carrying a version the transition
/// history never issued, or a history whose versions are not the dense
/// chain 1..=n, is a violation, never excused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochVerdict {
    /// Number of known epoch versions (transitions forming the dense chain,
    /// plus the initial epoch).
    pub versions: u64,
    /// Sequence numbers of releases served under a more permissive policy
    /// than the one in force (or stamped with an unknown version).
    pub stale_releases: Vec<u64>,
    /// Whether version stamps are monotone non-decreasing in sequence
    /// order — the structural invariant an honest session's packed audit
    /// counter guarantees.
    pub monotone: bool,
    /// Whether the transition history itself was well-formed (dense
    /// versions 1..=n).
    pub history_dense: bool,
}

impl EpochVerdict {
    /// Whether the stamped history is provably free of stale-policy
    /// releases.
    pub fn consistent(&self) -> bool {
        self.stale_releases.is_empty() && self.monotone && self.history_dense
    }
}

/// Verifies a session's epoch stamps against its transition history (see
/// [`EpochVerdict`]). O((stamps + transitions) · log transitions).
pub fn verify_epoch_stamps(
    stamps: &[ReleaseStamp],
    transitions: &[EpochTransition],
) -> EpochVerdict {
    epoch_verdict(stamps, transitions, |mut boundaries| {
        // The version in force at `seq` is max{v : b_v ≤ seq}. Replacing
        // each boundary by the minimum of it and every later one leaves
        // that answer unchanged — b_v ≤ seq implies min_{u≥v} b_u ≤ seq,
        // and min_{u≥v} b_u ≤ seq means some u ≥ v has b_u ≤ seq — even for
        // a dishonest history whose boundaries are not monotone. The
        // suffix minimum is non-decreasing, so a binary search finds it.
        for v in (1..boundaries.len()).rev() {
            boundaries[v - 1] = boundaries[v - 1].min(boundaries[v]);
        }
        move |seq| boundaries.partition_point(|&b| b <= seq).saturating_sub(1)
    })
}

/// The body of [`verify_epoch_stamps`], with the version-in-force lookup
/// built by `in_force_of` from the boundaries of the dense chain
/// (`boundaries[v]` is version `v`'s first sequence number).
fn epoch_verdict<F: Fn(u64) -> usize>(
    stamps: &[ReleaseStamp],
    transitions: &[EpochTransition],
    in_force_of: impl FnOnce(Vec<u64>) -> F,
) -> EpochVerdict {
    let mut sorted: Vec<&EpochTransition> = transitions.iter().collect();
    sorted.sort_by_key(|t| (t.version, t.boundary_seq));
    // Rebuild the permissiveness levels and boundaries for the dense chain
    // 1..=n; anything past a gap or duplicate is unknown (fail closed).
    let mut levels: Vec<i64> = vec![0];
    let mut boundaries: Vec<u64> = vec![0];
    let mut history_dense = true;
    for (i, t) in sorted.iter().enumerate() {
        if t.version != i as u64 + 1 {
            history_dense = false;
            break;
        }
        levels.push(levels[i] + if t.relaxes { 1 } else { -1 });
        boundaries.push(t.boundary_seq);
    }
    let in_force = in_force_of(boundaries);
    let mut stale_releases: Vec<u64> = stamps
        .iter()
        .filter(|s| match levels.get(s.version as usize) {
            Some(&stamped) => stamped > levels[in_force(s.seq)],
            None => true, // unknown version: never excused
        })
        .map(|s| s.seq)
        .collect();
    stale_releases.sort_unstable();
    stale_releases.dedup();
    let mut by_seq: Vec<&ReleaseStamp> = stamps.iter().collect();
    by_seq.sort_by_key(|s| s.seq);
    let monotone = by_seq.windows(2).all(|w| w[0].version <= w[1].version);
    EpochVerdict { versions: levels.len() as u64, stale_releases, monotone, history_dense }
}

/// The outcome of verifying a release ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerVerdict {
    /// Total ε under sequential composition (Theorem 3.3).
    pub total_epsilon: f64,
    /// Labels of the policies the composed guarantee refers to (their
    /// minimum relaxation, Definition 3.6), deduplicated in first-use order.
    pub policies: Vec<String>,
    /// Whether every entry is plain ε-DP (then the composite is ε-DP too).
    pub is_pure_dp: bool,
    /// Whether the total respects the claimed cap (vacuously true without
    /// one).
    pub within_limit: bool,
    /// The worst exclusion-attack exponent φ across entries: for DP/OSDP
    /// entries φ equals their ε; PDP entries pay their full threshold τ.
    pub worst_exclusion_phi: f64,
    /// Labels of the PDP entries — releases that satisfy personalized DP but
    /// **not** OSDP, and are therefore the ledger's exclusion-attack surface.
    pub pdp_entries: Vec<String>,
    /// The stale-policy verdict, when the caller supplied epoch stamps and
    /// a transition history ([`verify_ledger_versioned`]); `None` for
    /// unversioned verification.
    pub epochs: Option<EpochVerdict>,
}

impl LedgerVerdict {
    /// Whether the ledger as a whole upholds the OSDP contract: within its
    /// cap, free of PDP entries, and — when verified against a policy
    /// lifecycle — free of stale-policy releases.
    pub fn upholds_osdp(&self) -> bool {
        self.within_limit
            && self.pdp_entries.is_empty()
            && self.epochs.as_ref().is_none_or(EpochVerdict::consistent)
    }
}

/// Verifies a release ledger (see module docs). `limit` is the budget cap
/// the ledger claims to respect, if any.
pub fn verify_ledger(entries: &[LedgerEntry], limit: Option<f64>) -> LedgerVerdict {
    let total_epsilon: f64 = entries.iter().map(|e| e.epsilon).sum();
    let mut policies: Vec<String> = Vec::new();
    for e in entries {
        if !policies.contains(&e.policy) {
            policies.push(e.policy.clone());
        }
    }
    let is_pure_dp = !entries.is_empty()
        && entries.iter().all(|e| e.guarantee == PrivacyGuarantee::DifferentialPrivacy);
    let within_limit = limit.is_none_or(|l| total_epsilon <= l + 1e-9);
    let worst_exclusion_phi = entries.iter().map(|e| e.epsilon).fold(0.0f64, f64::max);
    let pdp_entries = entries
        .iter()
        .filter(|e| e.guarantee == PrivacyGuarantee::Personalized)
        .map(|e| e.label.clone())
        .collect();
    LedgerVerdict {
        total_epsilon,
        policies,
        is_pure_dp,
        within_limit,
        worst_exclusion_phi,
        pdp_entries,
        epochs: None,
    }
}

/// [`verify_ledger`] plus the stale-policy audit: verifies the ledger's
/// composition and cap as before, then proves (fail-closed) that no release
/// was served under a more permissive policy than the one in force at its
/// sequence number. Static-policy sessions pass an empty transition slice
/// and get the structural checks for free.
pub fn verify_ledger_versioned(
    entries: &[LedgerEntry],
    limit: Option<f64>,
    stamps: &[ReleaseStamp],
    transitions: &[EpochTransition],
) -> LedgerVerdict {
    let mut verdict = verify_ledger(entries, limit);
    verdict.epochs = Some(verify_epoch_stamps(stamps, transitions));
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn entry(label: &str, policy: &str, epsilon: f64, guarantee: PrivacyGuarantee) -> LedgerEntry {
        LedgerEntry { label: label.into(), policy: policy.into(), epsilon, guarantee }
    }

    #[test]
    fn sequential_composition_sums_and_dedups_policies() {
        let ledger = vec![
            entry("OsdpRR", "P99", 0.4, PrivacyGuarantee::OneSided),
            entry("DAWA", "Pall", 0.5, PrivacyGuarantee::DifferentialPrivacy),
            entry("OsdpLaplaceL1", "P99", 0.1, PrivacyGuarantee::OneSided),
        ];
        let verdict = verify_ledger(&ledger, Some(1.0));
        assert!((verdict.total_epsilon - 1.0).abs() < 1e-12);
        assert_eq!(verdict.policies, vec!["P99".to_string(), "Pall".to_string()]);
        assert!(verdict.within_limit);
        assert!(!verdict.is_pure_dp);
        assert!(verdict.upholds_osdp());
        assert!((verdict.worst_exclusion_phi - 0.5).abs() < 1e-12);
    }

    #[test]
    fn over_limit_ledgers_fail() {
        let ledger = vec![entry("m", "P", 1.5, PrivacyGuarantee::OneSided)];
        let verdict = verify_ledger(&ledger, Some(1.0));
        assert!(!verdict.within_limit);
        assert!(!verdict.upholds_osdp());
        assert!(verify_ledger(&ledger, None).within_limit, "no cap, no violation");
    }

    #[test]
    fn pdp_entries_are_the_exclusion_attack_surface() {
        let ledger = vec![
            entry("OsdpLaplaceL1", "P90", 1.0, PrivacyGuarantee::OneSided),
            entry("Suppress100", "P90", 100.0, PrivacyGuarantee::Personalized),
        ];
        let verdict = verify_ledger(&ledger, None);
        assert_eq!(verdict.pdp_entries, vec!["Suppress100".to_string()]);
        assert!(!verdict.upholds_osdp());
        assert!((verdict.worst_exclusion_phi - 100.0).abs() < 1e-9);
    }

    fn tighten(version: u64, boundary_seq: u64) -> EpochTransition {
        EpochTransition { version, boundary_seq, relaxes: false, label: format!("P-v{version}") }
    }

    fn relax(version: u64, boundary_seq: u64) -> EpochTransition {
        EpochTransition { version, boundary_seq, relaxes: true, label: format!("P-v{version}") }
    }

    fn stamps_for(boundaries: &[u64], total: u64) -> Vec<ReleaseStamp> {
        // The honest stamping an engine session produces: each seq carries
        // the highest version whose boundary covers it.
        (0..total)
            .map(|seq| ReleaseStamp {
                seq,
                version: boundaries.iter().filter(|&&b| b <= seq).count() as u64,
            })
            .collect()
    }

    #[test]
    fn honest_multi_epoch_histories_verify_clean() {
        // v1 tightens at seq 3 (decay), v2 relaxes at seq 7 (consent),
        // v3 tightens again at seq 7 (an empty v2 window is legal).
        let transitions = vec![tighten(1, 3), relax(2, 7), tighten(3, 7)];
        let stamps = stamps_for(&[3, 7, 7], 12);
        let verdict = verify_epoch_stamps(&stamps, &transitions);
        assert!(verdict.consistent(), "{verdict:?}");
        assert_eq!(verdict.versions, 4);
        assert!(verdict.monotone);
        // And threaded through the full ledger verdict.
        let ledger = vec![entry("OsdpRR", "P", 0.1, PrivacyGuarantee::OneSided)];
        let full = verify_ledger_versioned(&ledger, Some(1.0), &stamps, &transitions);
        assert!(full.upholds_osdp());
        assert_eq!(full.epochs.as_ref().unwrap(), &verdict);
        // Static-policy sessions: empty history, stamps all zero.
        let static_stamps = stamps_for(&[], 5);
        assert!(verify_epoch_stamps(&static_stamps, &[]).consistent());
    }

    #[test]
    fn stale_policy_replay_is_rejected() {
        // Honest history: a tighten lands at seq 4. Seed a stale-policy
        // replay by serving seq 6 under the pre-tighten epoch (version 0,
        // level 0 > level -1 in force): the verifier must reject it.
        let transitions = vec![tighten(1, 4)];
        let mut stamps = stamps_for(&[4], 8);
        stamps[6].version = 0;
        let verdict = verify_epoch_stamps(&stamps, &transitions);
        assert_eq!(verdict.stale_releases, vec![6]);
        assert!(!verdict.monotone, "the replay also breaks stamp monotonicity");
        assert!(!verdict.consistent());
        let ledger = vec![entry("OsdpRR", "P", 0.1, PrivacyGuarantee::OneSided)];
        assert!(!verify_ledger_versioned(&ledger, None, &stamps, &transitions).upholds_osdp());
    }

    #[test]
    fn tighter_than_in_force_stamps_are_not_violations() {
        // A relax lands at seq 4; a release stamped with the *pre-relax*
        // (tighter) epoch afterwards leaked less than it was entitled to.
        let transitions = vec![relax(1, 4)];
        let mut stamps = stamps_for(&[4], 8);
        stamps[5].version = 0;
        let verdict = verify_epoch_stamps(&stamps, &transitions);
        assert!(verdict.stale_releases.is_empty(), "tighter stamps are allowed");
        assert!(!verdict.monotone, "but the structural invariant still flags it");
    }

    #[test]
    fn unknown_versions_and_gapped_histories_fail_closed() {
        // A stamp the lifecycle never issued is a violation...
        let transitions = vec![tighten(1, 2)];
        let stamps = vec![ReleaseStamp { seq: 3, version: 9 }];
        let verdict = verify_epoch_stamps(&stamps, &transitions);
        assert_eq!(verdict.stale_releases, vec![3]);
        assert!(!verdict.consistent());
        // ...and a history with a version gap is never trusted, even when
        // no stamp lands past the gap.
        let gapped = vec![tighten(1, 2), tighten(3, 5)];
        let verdict = verify_epoch_stamps(&stamps_for(&[2], 4), &gapped);
        assert!(!verdict.history_dense);
        assert!(!verdict.consistent());
    }

    #[test]
    fn pure_dp_ledgers_are_recognised() {
        let ledger = vec![
            entry("Laplace", "Pall", 0.3, PrivacyGuarantee::DifferentialPrivacy),
            entry("DAWA", "Pall", 0.3, PrivacyGuarantee::DifferentialPrivacy),
        ];
        assert!(verify_ledger(&ledger, None).is_pure_dp);
        assert!(!verify_ledger(&[], None).is_pure_dp, "empty ledger proves nothing");
    }

    /// The test oracle: [`verify_epoch_stamps`] with the version in force
    /// found by scanning every boundary for every stamp.
    fn verify_epoch_stamps_linear(
        stamps: &[ReleaseStamp],
        transitions: &[EpochTransition],
    ) -> EpochVerdict {
        epoch_verdict(stamps, transitions, |boundaries| {
            move |seq| {
                boundaries
                    .iter()
                    .enumerate()
                    .filter(|&(_, &b)| b <= seq)
                    .map(|(v, _)| v)
                    .max()
                    .unwrap_or(0)
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The suffix-minimum lookup gives the linear scan's verdict on any
        /// history: gapped or duplicated versions, non-monotone boundaries,
        /// and stamps carrying versions the history never issued.
        #[test]
        fn suffix_minimum_lookup_matches_the_linear_scan(
            history in prop::collection::vec((1u64..9, 0u64..40, 0u8..2), 0..10),
            stamps in prop::collection::vec((0u64..48, 0u64..11), 0..40),
        ) {
            let transitions: Vec<EpochTransition> = history
                .iter()
                .map(|&(version, boundary_seq, relaxes)| EpochTransition {
                    version,
                    boundary_seq,
                    relaxes: relaxes == 1,
                    label: format!("P-v{version}"),
                })
                .collect();
            let stamps: Vec<ReleaseStamp> =
                stamps.iter().map(|&(seq, version)| ReleaseStamp { seq, version }).collect();
            prop_assert_eq!(
                verify_epoch_stamps(&stamps, &transitions),
                verify_epoch_stamps_linear(&stamps, &transitions)
            );
        }

        /// The same on dense histories (versions 1..=n in some order), so
        /// the lookup is exercised past the first version, not only cut
        /// short by a gap.
        #[test]
        fn suffix_minimum_lookup_matches_on_dense_histories(
            boundaries in prop::collection::vec((0u64..40, 0u8..2), 0..12),
            rotate in 0usize..12,
            stamps in prop::collection::vec((0u64..48, 0u64..14), 0..40),
        ) {
            let mut transitions: Vec<EpochTransition> = boundaries
                .iter()
                .enumerate()
                .map(|(i, &(boundary_seq, relaxes))| EpochTransition {
                    version: i as u64 + 1,
                    boundary_seq,
                    relaxes: relaxes == 1,
                    label: format!("P-v{}", i + 1),
                })
                .collect();
            if !transitions.is_empty() {
                let by = rotate % transitions.len();
                transitions.rotate_left(by);
            }
            let stamps: Vec<ReleaseStamp> =
                stamps.iter().map(|&(seq, version)| ReleaseStamp { seq, version }).collect();
            let verdict = verify_epoch_stamps(&stamps, &transitions);
            prop_assert!(verdict.history_dense);
            prop_assert_eq!(verdict, verify_epoch_stamps_linear(&stamps, &transitions));
        }
    }
}
