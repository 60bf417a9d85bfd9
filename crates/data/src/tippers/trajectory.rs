//! Daily trajectories and their generation.
//!
//! A daily trajectory records, for each 10-minute slot of a day, the access
//! point a device was (most strongly) associated with, or nothing if the
//! person was not in the building. The daily trajectory is the paper's unit
//! of privacy: neighboring databases differ in one person's trajectory for one
//! day.

use super::building::{Building, ZoneType};
use super::population::{Person, Population, Role};
use super::TippersConfig;
use osdp_core::{CategoricalDomain, GridDomain, Histogram2D};
use rand::Rng;
use std::collections::BTreeSet;

/// Ten-minute discretisation, as in the paper.
pub const SLOT_MINUTES: usize = 10;
/// Number of slots per day (24h × 6 slots/hour).
pub const SLOTS_PER_DAY: usize = 24 * 60 / SLOT_MINUTES;

/// One person's trajectory for one day.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trajectory {
    /// The person this trajectory belongs to.
    pub user: u32,
    /// Simulation day index.
    pub day: u16,
    /// Access point per slot (`None` = not in the building).
    slots: Vec<Option<u8>>,
}

impl Trajectory {
    /// Creates a trajectory from explicit per-slot access points.
    pub fn new(user: u32, day: u16, slots: Vec<Option<u8>>) -> Self {
        Self { user, day, slots }
    }

    /// The per-slot access points.
    pub fn slots(&self) -> &[Option<u8>] {
        &self.slots
    }

    /// Access point at a slot (if present in the building).
    pub fn ap_at(&self, slot: usize) -> Option<u8> {
        self.slots.get(slot).copied().flatten()
    }

    /// Number of slots the person was present — the "duration of stay"
    /// classification feature.
    pub fn present_slots(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// The first slot at which the person was present, if any.
    pub fn first_present_slot(&self) -> Option<usize> {
        self.slots.iter().position(|s| s.is_some())
    }

    /// The last slot at which the person was present, if any.
    pub fn last_present_slot(&self) -> Option<usize> {
        self.slots.iter().rposition(|s| s.is_some())
    }

    /// The visited access points as a 64-bit membership mask (bit `ap` set ⇔
    /// the trajectory passes access point `ap`). The building has exactly 64
    /// access points (codes `0..64`), so the mask is exact for every
    /// simulator-produced trajectory; out-of-range codes are **ignored**
    /// (never folded onto another access point's bit). This is the
    /// vectorizable form of [`Trajectory::visits_any`] used by the occupancy
    /// frame and [`super::policy::SensitiveApPolicy::record_policy`].
    pub fn ap_bitmask(&self) -> u64 {
        self.slots
            .iter()
            .flatten()
            .filter(|&&ap| ap < 64)
            .fold(0u64, |mask, &ap| mask | (1u64 << ap))
    }

    /// Distinct access points visited during the day.
    pub fn distinct_aps(&self) -> BTreeSet<u8> {
        self.slots.iter().flatten().copied().collect()
    }

    /// Number of slots spent at a specific access point.
    pub fn visits_to(&self, ap: u8) -> usize {
        self.slots.iter().filter(|s| **s == Some(ap)).count()
    }

    /// Whether the trajectory passes through any of the given access points —
    /// the predicate access-point-level policies evaluate.
    pub fn visits_any(&self, aps: &[u8]) -> bool {
        self.slots.iter().flatten().any(|ap| aps.contains(ap))
    }

    /// All n-grams: access-point sequences of length `n` observed at
    /// consecutive present slots.
    pub fn ngrams(&self, n: usize) -> Vec<Vec<u8>> {
        if n == 0 || self.slots.len() < n {
            return Vec::new();
        }
        let mut out = Vec::new();
        for window in self.slots.windows(n) {
            if window.iter().all(|s| s.is_some()) {
                out.push(window.iter().map(|s| s.expect("checked")).collect());
            }
        }
        out
    }

    /// Whether the trajectory contains the exact consecutive pattern.
    pub fn contains_pattern(&self, pattern: &[u8]) -> bool {
        if pattern.is_empty() {
            return false;
        }
        self.slots
            .windows(pattern.len())
            .any(|w| w.iter().zip(pattern.iter()).all(|(slot, p)| *slot == Some(*p)))
    }

    /// Number of occurrences of the consecutive pattern — the frequent-pattern
    /// classification feature.
    pub fn pattern_count(&self, pattern: &[u8]) -> usize {
        if pattern.is_empty() {
            return 0;
        }
        self.slots
            .windows(pattern.len())
            .filter(|w| w.iter().zip(pattern.iter()).all(|(slot, p)| *slot == Some(*p)))
            .count()
    }
}

/// The complete simulated trace: building, population and daily trajectories.
#[derive(Debug, Clone)]
pub struct TrajectoryDataset {
    building: Building,
    population: Population,
    trajectories: Vec<Trajectory>,
}

impl TrajectoryDataset {
    /// Simulates `config.days` days of movement for the whole population.
    pub fn generate<R: Rng + ?Sized>(
        config: &TippersConfig,
        building: Building,
        population: Population,
        rng: &mut R,
    ) -> Self {
        let mut trajectories = Vec::new();
        for day in 0..config.days {
            for person in population.people() {
                let show_up_probability = if person.is_resident() {
                    config.resident_daily_probability
                } else {
                    config.visitor_daily_probability
                };
                if rng.gen::<f64>() < show_up_probability {
                    if let Some(t) = simulate_day(person, &building, day as u16, rng) {
                        trajectories.push(t);
                    }
                }
            }
        }
        Self { building, population, trajectories }
    }

    /// Wraps pre-built parts (used by tests).
    pub fn from_parts(
        building: Building,
        population: Population,
        trajectories: Vec<Trajectory>,
    ) -> Self {
        Self { building, population, trajectories }
    }

    /// The building layout.
    pub fn building(&self) -> &Building {
        &self.building
    }

    /// The population.
    pub fn population(&self) -> &Population {
        &self.population
    }

    /// All daily trajectories.
    pub fn trajectories(&self) -> &[Trajectory] {
        &self.trajectories
    }

    /// Number of daily trajectories.
    pub fn len(&self) -> usize {
        self.trajectories.len()
    }

    /// Whether there are no trajectories.
    pub fn is_empty(&self) -> bool {
        self.trajectories.is_empty()
    }

    /// Whether a user is a resident (the classification label).
    pub fn is_resident(&self, user: u32) -> bool {
        self.population.person(user).map(|p| p.is_resident()).unwrap_or(false)
    }

    /// The 64 × 24 access-point × hour histogram of **distinct users**
    /// (Section 6.3.3.1), restricted to the trajectories accepted by `keep`.
    pub fn ap_hour_histogram<F>(&self, mut keep: F) -> Histogram2D
    where
        F: FnMut(&Trajectory) -> bool,
    {
        let ap_count = self.building.ap_count();
        let domain = GridDomain::new(
            CategoricalDomain::new("access_point", ap_count),
            CategoricalDomain::new("hour", 24),
        );
        // distinct-user sets per (ap, hour) cell
        let mut users: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); domain.size()];
        for t in &self.trajectories {
            if !keep(t) {
                continue;
            }
            for (slot, ap) in t.slots().iter().enumerate() {
                if let Some(ap) = ap {
                    let hour = slot * SLOT_MINUTES / 60;
                    if let Some(idx) = domain.flatten(*ap as usize, hour) {
                        users[idx].insert(t.user);
                    }
                }
            }
        }
        let mut hist = Histogram2D::zeros(domain);
        for (idx, set) in users.iter().enumerate() {
            let (row, col) = hist.domain().unflatten(idx).expect("index in range");
            hist.increment(row, col, set.len() as f64);
        }
        hist
    }
}

/// Simulates a single person's day, returning `None` when the person ends up
/// not entering the building (degenerate stay).
pub fn simulate_day<R: Rng + ?Sized>(
    person: &Person,
    building: &Building,
    day: u16,
    rng: &mut R,
) -> Option<Trajectory> {
    let arrival = normal(person.arrival_mean_slot, 3.0, rng)
        .round()
        .clamp(0.0, (SLOTS_PER_DAY - 4) as f64) as usize;
    let mut stay = normal(person.stay_mean_slots, 0.15 * person.stay_mean_slots, rng)
        .round()
        .max(2.0) as usize;

    // Some residents habitually work past 19:00 (slot 114).
    if let Role::Resident { works_late: true, .. } = person.role {
        if rng.gen::<f64>() < 0.5 {
            let late_departure: usize = 115 + rng.gen_range(0..10);
            stay = stay.max(late_departure.saturating_sub(arrival));
        }
    }
    let departure = (arrival + stay).min(SLOTS_PER_DAY);
    if departure <= arrival + 1 {
        return None;
    }

    let entrances = building.aps_of_zone(ZoneType::Entrance);
    let entrance = entrances[rng.gen_range(0..entrances.len())];
    let anchor = match person.role {
        Role::Resident { office_ap, .. } => office_ap,
        Role::Visitor => {
            // Visitors head to a lecture hall (mostly) or someone's office.
            if rng.gen::<f64>() < 0.7 {
                let halls = building.aps_of_zone(ZoneType::LectureHall);
                halls[rng.gen_range(0..halls.len())]
            } else {
                let offices = building.aps_of_zone(ZoneType::Office);
                offices[rng.gen_range(0..offices.len())]
            }
        }
    };

    let mut slots = vec![None; SLOTS_PER_DAY];
    slots[arrival] = Some(entrance);
    let mut excursion: Option<(u8, usize)> = None; // (ap, remaining slots)

    for (slot, entry) in slots.iter_mut().enumerate().take(departure).skip(arrival + 1) {
        let ap = if let Some((ap, remaining)) = excursion {
            if remaining > 1 {
                excursion = Some((ap, remaining - 1));
            } else {
                excursion = None;
            }
            ap
        } else if rng.gen::<f64>() < person.excursion_probability {
            let hour = slot * SLOT_MINUTES / 60;
            let zone = pick_excursion_zone(hour, person.is_resident(), rng);
            let candidates = building.aps_of_zone(zone);
            let ap = pick_skewed(&candidates, rng);
            let duration = 1 + rng.gen_range(0..3);
            if duration > 1 {
                excursion = Some((ap, duration - 1));
            }
            ap
        } else {
            anchor
        };
        *entry = Some(ap);
    }
    // Leave through an entrance.
    if departure < SLOTS_PER_DAY {
        slots[departure - 1] = Some(entrance);
    }

    Some(Trajectory::new(person.id, day, slots))
}

/// Picks the zone of a short excursion, conditioned on the hour of day and on
/// whether the person is a resident.
fn pick_excursion_zone<R: Rng + ?Sized>(hour: usize, is_resident: bool, rng: &mut R) -> ZoneType {
    let lunch = (11..=13).contains(&hour);
    let roll: f64 = rng.gen();
    if lunch && roll < 0.45 {
        ZoneType::Cafe
    } else if roll < 0.60 {
        if is_resident {
            ZoneType::LectureHall
        } else {
            ZoneType::Office
        }
    } else if roll < 0.75 {
        ZoneType::Lab
    } else if roll < 0.88 {
        ZoneType::Lounge
    } else {
        ZoneType::Restroom
    }
}

/// Picks an access point from a zone with geometrically decaying popularity:
/// the first access point of a zone is the busy one, the last is rarely
/// visited (the "smoker's lounge" of the paper's running example). The skew is
/// what allows access-point-level policies to carve out arbitrarily small
/// sensitive fractions.
fn pick_skewed<R: Rng + ?Sized>(candidates: &[u8], rng: &mut R) -> u8 {
    debug_assert!(!candidates.is_empty());
    for &ap in &candidates[..candidates.len() - 1] {
        if rng.gen::<f64>() < 0.72 {
            return ap;
        }
    }
    *candidates.last().expect("non-empty candidate list")
}

/// Samples an approximately normal variate via the Box–Muller transform.
fn normal<R: Rng + ?Sized>(mean: f64, std: f64, rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    mean + std * z
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn dataset() -> TrajectoryDataset {
        let mut rng = ChaCha12Rng::seed_from_u64(5);
        super::super::generate_dataset(&TippersConfig::small(), &mut rng)
    }

    #[test]
    fn trajectory_accessors() {
        let mut slots = vec![None; SLOTS_PER_DAY];
        slots[10] = Some(0);
        slots[11] = Some(5);
        slots[12] = Some(5);
        slots[14] = Some(61);
        let t = Trajectory::new(7, 3, slots);
        assert_eq!(t.user, 7);
        assert_eq!(t.day, 3);
        assert_eq!(t.present_slots(), 4);
        assert_eq!(t.ap_at(11), Some(5));
        assert_eq!(t.ap_at(13), None);
        assert_eq!(t.last_present_slot(), Some(14));
        assert_eq!(t.distinct_aps().len(), 3);
        assert_eq!(t.visits_to(5), 2);
        assert!(t.visits_any(&[61, 62]));
        assert!(!t.visits_any(&[62, 63]));
    }

    #[test]
    fn ngrams_require_consecutive_presence() {
        let mut slots = vec![None; 20];
        slots[1] = Some(1);
        slots[2] = Some(2);
        slots[3] = Some(3);
        slots[5] = Some(4);
        let t = Trajectory::new(0, 0, slots);
        let bigrams = t.ngrams(2);
        assert_eq!(bigrams, vec![vec![1, 2], vec![2, 3]]);
        let trigrams = t.ngrams(3);
        assert_eq!(trigrams, vec![vec![1, 2, 3]]);
        assert!(t.ngrams(0).is_empty());
        assert!(t.ngrams(5).is_empty());
        assert!(t.contains_pattern(&[1, 2, 3]));
        assert!(!t.contains_pattern(&[2, 4]));
        assert!(!t.contains_pattern(&[]));
        assert_eq!(t.pattern_count(&[1, 2]), 1);
        assert_eq!(t.pattern_count(&[]), 0);
    }

    #[test]
    fn simulated_days_look_like_office_days() {
        let ds = dataset();
        let building = ds.building();
        let mut resident_durations = Vec::new();
        let mut visitor_durations = Vec::new();
        for t in ds.trajectories() {
            assert!(t.present_slots() >= 2);
            assert!(t.slots().len() == SLOTS_PER_DAY);
            // Every visited AP is a valid AP.
            for ap in t.distinct_aps() {
                assert!((ap as usize) < building.ap_count());
            }
            if ds.is_resident(t.user) {
                resident_durations.push(t.present_slots() as f64);
            } else {
                visitor_durations.push(t.present_slots() as f64);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&resident_durations) > 2.0 * mean(&visitor_durations),
            "residents must stay much longer on average"
        );
    }

    #[test]
    fn some_trajectories_visit_sensitive_zones_but_not_all() {
        let ds = dataset();
        let sensitive = ds.building().typically_sensitive_aps();
        let visiting = ds.trajectories().iter().filter(|t| t.visits_any(&sensitive)).count();
        assert!(visiting > 0, "nobody ever visits a lounge/restroom?");
        assert!(visiting < ds.len(), "everyone visits a sensitive AP — policies would be trivial");
    }

    #[test]
    fn ap_hour_histogram_counts_distinct_users() {
        let ds = dataset();
        let hist = ds.ap_hour_histogram(|_| true);
        assert_eq!(hist.domain().size(), ds.building().ap_count() * 24);
        assert!(hist.total() > 0.0);
        // A histogram over a subset is dominated by the full histogram.
        let partial = ds.ap_hour_histogram(|t| t.day == 0);
        assert!(partial.flat().dominated_by(hist.flat()).unwrap());
        // Distinct-user counting: each cell counts a user at most once even
        // if they stay several slots within the hour.
        let max_cell = hist.flat().counts().iter().cloned().fold(0.0, f64::max);
        assert!(max_cell <= ds.population().len() as f64);
    }

    #[test]
    fn late_workers_produce_evening_presence() {
        let ds = dataset();
        let evening_slot = 19 * 60 / SLOT_MINUTES; // 19:00
        let evening = ds
            .trajectories()
            .iter()
            .filter(|t| t.last_present_slot().map(|s| s >= evening_slot).unwrap_or(false))
            .count();
        assert!(evening > 0, "some residents should work past 19:00");
    }

    #[test]
    fn from_parts_roundtrip() {
        let ds = dataset();
        let rebuilt = TrajectoryDataset::from_parts(
            ds.building().clone(),
            ds.population().clone(),
            ds.trajectories().to_vec(),
        );
        assert_eq!(rebuilt.len(), ds.len());
        assert!(!rebuilt.is_empty());
    }
}
