//! A TIPPERS-like smart-building trajectory simulator.
//!
//! The paper's TIPPERS dataset is a 9-month Wi-Fi association trace from the
//! Bren Hall building at UC Irvine: 64 access points, ~16K distinct devices,
//! ~585K daily trajectories, discretised to 10-minute slots (Section 6.1.1).
//! The raw trace is not available, so this module implements a generative
//! simulator with the structural properties the experiments depend on:
//!
//! * a building with 64 access points grouped into functional zones
//!   ([`building`]);
//! * a population of **residents** (long, regular, office-anchored stays) and
//!   **visitors** (short, irregular visits) ([`population`]);
//! * per-day trajectory generation over 144 ten-minute slots, including
//!   occasional excursions to lounges/restrooms — the locations that privacy
//!   policies typically mark sensitive ([`trajectory`]);
//! * access-point-level policies `Pρ` that classify a daily trajectory as
//!   sensitive iff it passes through a sensitive access point, with the
//!   sensitive set chosen so that a target fraction ρ of trajectories stays
//!   non-sensitive ([`policy`]);
//! * n-gram (consecutive access-point sequence) counting over the 64ⁿ domain
//!   ([`ngram`]) and the 64 × 24 access-point × hour histogram used in
//!   Section 6.3.3.1;
//! * the classification features of Section 6.2 ([`features`]);
//! * flat per-trajectory **occupancy records/frames** ([`occupancy`]): the
//!   workload in the engine's record and columnar data models, with visited
//!   access points packed into a 64-bit mask so access-point policies
//!   evaluate as one vectorized bitwise test.

pub mod building;
pub mod features;
pub mod ngram;
pub mod occupancy;
pub mod policy;
pub mod population;
pub mod trajectory;

pub use building::{Building, ZoneType};
pub use features::{FeatureExtractor, LabeledDataset};
pub use ngram::{NgramCounts, SparseHistogram};
pub use policy::{policy_for_ratio, SensitiveApPolicy, STANDARD_RATIOS};
pub use population::{Person, Population, Role};
pub use trajectory::{Trajectory, TrajectoryDataset, SLOTS_PER_DAY, SLOT_MINUTES};

use rand::Rng;

/// Configuration of the simulator.
///
/// The defaults produce a dataset that is structurally faithful but small
/// enough for tests; the experiment harness scales `users` and `days` up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TippersConfig {
    /// Number of distinct people (devices).
    pub users: usize,
    /// Fraction of people who are residents of the building.
    pub resident_fraction: f64,
    /// Number of simulated days.
    pub days: usize,
    /// Probability that a visitor shows up on any given day.
    pub visitor_daily_probability: f64,
    /// Probability that a resident shows up on any given day.
    pub resident_daily_probability: f64,
}

impl Default for TippersConfig {
    fn default() -> Self {
        Self {
            users: 400,
            resident_fraction: 0.25,
            days: 10,
            visitor_daily_probability: 0.3,
            resident_daily_probability: 0.9,
        }
    }
}

impl TippersConfig {
    /// A small configuration for unit tests.
    pub fn small() -> Self {
        Self { users: 120, resident_fraction: 0.25, days: 5, ..Self::default() }
    }

    /// A configuration sized for the experiment harness (thousands of daily
    /// trajectories, enough for stable classification and n-gram statistics).
    pub fn experiment() -> Self {
        Self {
            users: 1600,
            resident_fraction: 0.25,
            days: 30,
            visitor_daily_probability: 0.3,
            resident_daily_probability: 0.9,
        }
    }
}

/// Generates a complete simulated dataset: building, population and daily
/// trajectories.
pub fn generate_dataset<R: Rng + ?Sized>(config: &TippersConfig, rng: &mut R) -> TrajectoryDataset {
    let building = Building::standard();
    let population = Population::generate(config, &building, rng);
    TrajectoryDataset::generate(config, building, population, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    #[test]
    fn default_configs_are_sane() {
        let d = TippersConfig::default();
        assert!(d.users > 0 && d.days > 0);
        assert!(d.resident_fraction > 0.0 && d.resident_fraction < 1.0);
        let s = TippersConfig::small();
        assert!(s.users < d.users);
        let e = TippersConfig::experiment();
        assert!(e.users > d.users);
    }

    #[test]
    fn generate_dataset_produces_trajectories_for_both_roles() {
        let mut rng = ChaCha12Rng::seed_from_u64(7);
        let ds = generate_dataset(&TippersConfig::small(), &mut rng);
        assert!(ds.len() > 100, "expected a few hundred daily trajectories, got {}", ds.len());
        let residents = ds.trajectories().iter().filter(|t| ds.is_resident(t.user)).count();
        let visitors = ds.len() - residents;
        assert!(residents > 0 && visitors > 0);
        // Residents produce more trajectories per capita (they show up more often).
        assert!(residents as f64 / ds.len() as f64 > 0.3);
    }
}
