//! The simulated population: residents and visitors.

use super::building::{Building, ZoneType};
use super::TippersConfig;
use rand::Rng;

/// Whether a person is a building resident or an occasional visitor.
///
/// Residents are the positive class of the Section 6.3.1 classification task:
/// they arrive most days, stay long, anchor at a fixed office access point and
/// occasionally work late.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A resident with a home office access point.
    Resident {
        /// The access point of the person's office.
        office_ap: u8,
        /// Whether this resident habitually works past 19:00.
        works_late: bool,
    },
    /// An occasional visitor.
    Visitor,
}

/// A simulated person (one pseudo-anonymised device in the real trace).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Person {
    /// Stable person identifier.
    pub id: u32,
    /// Resident or visitor.
    pub role: Role,
    /// Mean arrival slot (10-minute slots from midnight).
    pub arrival_mean_slot: f64,
    /// Mean stay length in slots.
    pub stay_mean_slots: f64,
    /// Per-slot probability of an excursion away from the anchor location.
    pub excursion_probability: f64,
}

impl Person {
    /// Whether the person is a resident.
    pub fn is_resident(&self) -> bool {
        matches!(self.role, Role::Resident { .. })
    }
}

/// The full population of the simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct Population {
    people: Vec<Person>,
}

impl Population {
    /// Generates a population of `config.users` people, a
    /// `config.resident_fraction` of which are residents.
    pub fn generate<R: Rng + ?Sized>(
        config: &TippersConfig,
        building: &Building,
        rng: &mut R,
    ) -> Self {
        let offices = building.aps_of_zone(ZoneType::Office);
        let resident_count = ((config.users as f64) * config.resident_fraction).round() as usize;
        let mut people = Vec::with_capacity(config.users);
        for id in 0..config.users {
            let person = if id < resident_count {
                let office_ap = offices[rng.gen_range(0..offices.len())];
                Person {
                    id: id as u32,
                    role: Role::Resident { office_ap, works_late: rng.gen::<f64>() < 0.4 },
                    // Residents arrive around 09:00 (slot 54) ± 1h.
                    arrival_mean_slot: 54.0 + rng.gen_range(-6.0..6.0),
                    // …and stay around 8 hours (48 slots) ± 1.5h.
                    stay_mean_slots: 48.0 + rng.gen_range(-9.0..9.0),
                    excursion_probability: 0.06 + rng.gen::<f64>() * 0.06,
                }
            } else {
                Person {
                    id: id as u32,
                    role: Role::Visitor,
                    // Visitors arrive any time between 08:00 and 18:00.
                    arrival_mean_slot: rng.gen_range(48.0..108.0),
                    // …and stay roughly 1–3 hours.
                    stay_mean_slots: rng.gen_range(6.0..18.0),
                    excursion_probability: 0.25 + rng.gen::<f64>() * 0.15,
                }
            };
            people.push(person);
        }
        Self { people }
    }

    /// All people.
    pub fn people(&self) -> &[Person] {
        &self.people
    }

    /// Number of people.
    pub fn len(&self) -> usize {
        self.people.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.people.is_empty()
    }

    /// Number of residents.
    pub fn resident_count(&self) -> usize {
        self.people.iter().filter(|p| p.is_resident()).count()
    }

    /// Looks a person up by id.
    pub fn person(&self, id: u32) -> Option<&Person> {
        self.people.get(id as usize).filter(|p| p.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn generate() -> Population {
        let mut rng = ChaCha12Rng::seed_from_u64(11);
        Population::generate(&TippersConfig::small(), &Building::standard(), &mut rng)
    }

    #[test]
    fn population_has_requested_size_and_mix() {
        let pop = generate();
        let config = TippersConfig::small();
        assert_eq!(pop.len(), config.users);
        assert!(!pop.is_empty());
        let expected_residents = (config.users as f64 * config.resident_fraction).round() as usize;
        assert_eq!(pop.resident_count(), expected_residents);
    }

    #[test]
    fn residents_anchor_to_office_aps_and_stay_longer() {
        let pop = generate();
        let building = Building::standard();
        let mut resident_stay = 0.0;
        let mut visitor_stay = 0.0;
        let mut residents = 0.0;
        let mut visitors = 0.0;
        for p in pop.people() {
            match p.role {
                Role::Resident { office_ap, .. } => {
                    assert_eq!(building.zone_of(office_ap), ZoneType::Office);
                    resident_stay += p.stay_mean_slots;
                    residents += 1.0;
                }
                Role::Visitor => {
                    visitor_stay += p.stay_mean_slots;
                    visitors += 1.0;
                }
            }
        }
        assert!(resident_stay / residents > 2.0 * (visitor_stay / visitors));
    }

    #[test]
    fn person_lookup_by_id() {
        let pop = generate();
        let p = pop.person(3).unwrap();
        assert_eq!(p.id, 3);
        assert!(pop.person(10_000).is_none());
        assert!(pop.people()[0].is_resident());
    }

    #[test]
    fn some_residents_work_late() {
        let pop = generate();
        let late = pop
            .people()
            .iter()
            .filter(|p| matches!(p.role, Role::Resident { works_late: true, .. }))
            .count();
        assert!(late > 0);
        assert!(late < pop.resident_count());
    }
}
