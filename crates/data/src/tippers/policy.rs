//! Access-point-level privacy policies over trajectories.
//!
//! The paper's TIPPERS policies "assume a sensitive set of access points
//! (e.g., lounge or restroom) and classify as sensitive all trajectories that
//! pass at least once through a sensitive access point". The policy `Pρ` is
//! the policy whose sensitive access-point set leaves a fraction `ρ/100` of
//! the daily trajectories non-sensitive.

use super::trajectory::{Trajectory, TrajectoryDataset};
use osdp_core::policy::{Policy, Sensitivity};

/// The non-sensitive ratios used throughout Section 6 (`P99 … P1`).
pub const STANDARD_RATIOS: [f64; 7] = [0.99, 0.90, 0.75, 0.50, 0.25, 0.10, 0.01];

/// A policy that marks a trajectory sensitive when it passes through any of a
/// set of sensitive access points.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitiveApPolicy {
    label: String,
    sensitive_aps: Vec<u8>,
}

impl SensitiveApPolicy {
    /// Creates a policy from an explicit sensitive access-point set.
    pub fn new(label: impl Into<String>, mut sensitive_aps: Vec<u8>) -> Self {
        sensitive_aps.sort_unstable();
        sensitive_aps.dedup();
        Self { label: label.into(), sensitive_aps }
    }

    /// The policy's label (e.g. `"P99"`).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The sensitive access points.
    pub fn sensitive_aps(&self) -> &[u8] {
        &self.sensitive_aps
    }

    /// The sensitive access-point set as a 64-bit membership mask (the
    /// counterpart of [`super::trajectory::Trajectory::ap_bitmask`]).
    /// Codes outside the building's `0..64` universe are ignored, matching
    /// the bitmask on the trajectory side.
    pub fn sensitive_bitmask(&self) -> u64 {
        self.sensitive_aps.iter().filter(|&&ap| ap < 64).fold(0u64, |mask, &ap| mask | (1u64 << ap))
    }

    /// The record-level projection of this policy over occupancy records
    /// (see [`super::occupancy`]): a trajectory row is sensitive exactly when
    /// its `ap_mask` field intersects the sensitive set. Compiles to a
    /// vectorized bitwise test on the columnar backend, and classifies
    /// occupancy rows identically to how `self` classifies the trajectories
    /// they were derived from — for the building's `0..64` access-point
    /// universe, which is everything the simulator generates (both bitmask
    /// sides drop out-of-range codes rather than aliasing them).
    pub fn record_policy(&self) -> osdp_core::AttributePolicy {
        osdp_core::AttributePolicy::mask_intersects(
            super::occupancy::AP_MASK_FIELD,
            self.sensitive_bitmask(),
        )
    }
}

impl Policy<Trajectory> for SensitiveApPolicy {
    fn classify(&self, record: &Trajectory) -> Sensitivity {
        if record.visits_any(&self.sensitive_aps) {
            Sensitivity::Sensitive
        } else {
            Sensitivity::NonSensitive
        }
    }
}

/// Constructs the policy `Pρ` for a dataset: greedily grows the sensitive
/// access-point set (starting from the least-visited access points, so the
/// sensitive set resembles "special rooms" rather than main corridors) until
/// at most a `ratio` fraction of the trajectories remains non-sensitive.
///
/// The achieved ratio is approximate — exactly as in the paper, where the
/// policies "result in a non-sensitive dataset with ρ/100 share of
/// non-sensitive records".
pub fn policy_for_ratio(dataset: &TrajectoryDataset, ratio: f64) -> SensitiveApPolicy {
    let label = format!("P{}", (ratio * 100.0).round() as u32);
    let n = dataset.len();
    if n == 0 {
        return SensitiveApPolicy::new(label, Vec::new());
    }
    let target_sensitive = ((1.0 - ratio) * n as f64).round() as usize;

    let ap_count = dataset.building().ap_count();
    // Which trajectories pass through each AP.
    let mut visitors_per_ap: Vec<Vec<usize>> = vec![Vec::new(); ap_count];
    for (idx, t) in dataset.trajectories().iter().enumerate() {
        for ap in t.distinct_aps() {
            visitors_per_ap[ap as usize].push(idx);
        }
    }

    // Start with the typically-sensitive zones' least-covered APs first: order
    // all APs by ascending coverage, preferring lounges/restrooms among ties,
    // and add until the sensitive fraction reaches the target.
    let sensitive_zone_aps = dataset.building().typically_sensitive_aps();
    let mut order: Vec<usize> = (0..ap_count).collect();
    order.sort_by_key(|&ap| {
        let preferred = if sensitive_zone_aps.contains(&(ap as u8)) { 0usize } else { 1usize };
        (visitors_per_ap[ap].len(), preferred, ap)
    });
    // Put preferred zones of comparable coverage first: stable sort by the
    // preference flag only, so lounges/restrooms with small coverage lead.
    order.sort_by_key(|&ap| {
        (
            if sensitive_zone_aps.contains(&(ap as u8)) { 0usize } else { 1usize },
            visitors_per_ap[ap].len(),
            ap,
        )
    });

    let mut covered = vec![false; n];
    let mut covered_count = 0usize;
    let mut chosen: Vec<u8> = Vec::new();
    for ap in order {
        if covered_count >= target_sensitive {
            break;
        }
        // Skip APs that would overshoot the target badly when a closer
        // alternative could exist — but never skip if we are still far away.
        let newly = visitors_per_ap[ap].iter().filter(|&&t| !covered[t]).count();
        if newly == 0 {
            continue;
        }
        let overshoot = (covered_count + newly).saturating_sub(target_sensitive);
        let deficit = target_sensitive - covered_count;
        if overshoot > deficit && !chosen.is_empty() {
            // Adding this AP moves us farther from the target than staying put.
            continue;
        }
        chosen.push(ap as u8);
        for &t in &visitors_per_ap[ap] {
            if !covered[t] {
                covered[t] = true;
                covered_count += 1;
            }
        }
    }
    SensitiveApPolicy::new(label, chosen)
}

/// Builds the standard policy family `P99 … P1` for a dataset.
pub fn standard_policies(dataset: &TrajectoryDataset) -> Vec<SensitiveApPolicy> {
    STANDARD_RATIOS.iter().map(|&r| policy_for_ratio(dataset, r)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tippers::{generate_dataset, TippersConfig};
    use osdp_core::Database;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn dataset() -> TrajectoryDataset {
        let mut rng = ChaCha12Rng::seed_from_u64(21);
        generate_dataset(&TippersConfig::small(), &mut rng)
    }

    #[test]
    fn policy_classifies_by_sensitive_ap_visits() {
        let p = SensitiveApPolicy::new("test", vec![61, 62, 61]);
        assert_eq!(p.sensitive_aps(), &[61, 62], "deduplicated and sorted");
        assert_eq!(p.label(), "test");

        let mut slots = vec![None; 20];
        slots[3] = Some(10);
        let benign = Trajectory::new(0, 0, slots.clone());
        slots[4] = Some(61);
        let through_restroom = Trajectory::new(0, 0, slots);
        assert!(p.is_non_sensitive(&benign));
        assert!(p.is_sensitive(&through_restroom));
    }

    #[test]
    fn policy_for_ratio_hits_the_target_fraction() {
        let ds = dataset();
        let db: Database<Trajectory> = ds.trajectories().to_vec().into_iter().collect();
        for &ratio in &[0.99, 0.75, 0.5, 0.25, 0.1] {
            let policy = policy_for_ratio(&ds, ratio);
            let achieved = db.non_sensitive_ratio(&policy);
            assert!(
                (achieved - ratio).abs() < 0.08,
                "target {ratio}, achieved {achieved} with {} sensitive APs",
                policy.sensitive_aps().len()
            );
        }
    }

    #[test]
    fn stricter_policies_have_larger_sensitive_sets() {
        let ds = dataset();
        let p99 = policy_for_ratio(&ds, 0.99);
        let p50 = policy_for_ratio(&ds, 0.50);
        let p10 = policy_for_ratio(&ds, 0.10);
        assert!(p99.sensitive_aps().len() <= p50.sensitive_aps().len());
        assert!(p50.sensitive_aps().len() <= p10.sensitive_aps().len());
    }

    #[test]
    fn standard_policies_have_expected_labels() {
        let ds = dataset();
        let policies = standard_policies(&ds);
        let labels: Vec<&str> = policies.iter().map(|p| p.label()).collect();
        assert_eq!(labels, vec!["P99", "P90", "P75", "P50", "P25", "P10", "P1"]);
    }

    #[test]
    fn high_ratio_policies_prefer_typically_sensitive_zones() {
        let ds = dataset();
        let p99 = policy_for_ratio(&ds, 0.99);
        let sensitive_zone = ds.building().typically_sensitive_aps();
        // At the 99% level, the sensitive set should consist of special rooms
        // (lounges/restrooms), not offices or entrances.
        assert!(
            p99.sensitive_aps().iter().all(|ap| sensitive_zone.contains(ap)),
            "P99 sensitive set {:?} should stay inside lounge/restroom zones {:?}",
            p99.sensitive_aps(),
            sensitive_zone
        );
    }

    #[test]
    fn empty_dataset_gives_empty_policy() {
        let ds = dataset();
        let empty = TrajectoryDataset::from_parts(
            ds.building().clone(),
            ds.population().clone(),
            Vec::new(),
        );
        let p = policy_for_ratio(&empty, 0.5);
        assert!(p.sensitive_aps().is_empty());
    }
}
