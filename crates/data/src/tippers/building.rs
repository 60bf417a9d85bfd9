//! The simulated building: 64 Wi-Fi access points grouped into zones.

/// Functional zone an access point covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ZoneType {
    /// Building entrances / lobbies — almost everyone passes through one.
    Entrance,
    /// Private or shared offices — residents anchor here.
    Office,
    /// Lecture halls and meeting rooms — visitors concentrate here.
    LectureHall,
    /// Research labs.
    Lab,
    /// Cafeteria / kitchen areas.
    Cafe,
    /// Lounges (including the smoker's lounge of the paper's running example).
    Lounge,
    /// Restrooms — the canonical "do not track here" sensitive location.
    Restroom,
}

impl ZoneType {
    /// Zones that privacy policies typically mark sensitive (the paper's
    /// examples: restrooms, the smoker's lounge).
    pub fn typically_sensitive(&self) -> bool {
        matches!(self, ZoneType::Lounge | ZoneType::Restroom)
    }
}

/// The building layout: which zone each access point belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Building {
    zones: Vec<ZoneType>,
}

/// Number of access points in the standard building, matching the TIPPERS
/// deployment described in the paper.
pub const STANDARD_AP_COUNT: usize = 64;

impl Building {
    /// The standard 64-access-point building used by all experiments.
    ///
    /// Layout (access-point indices):
    /// * 0–3: entrances,
    /// * 4–35: offices,
    /// * 36–47: lecture halls,
    /// * 48–55: labs,
    /// * 56–57: cafés,
    /// * 58–60: lounges,
    /// * 61–63: restrooms.
    pub fn standard() -> Self {
        let mut zones = Vec::with_capacity(STANDARD_AP_COUNT);
        for ap in 0..STANDARD_AP_COUNT {
            let zone = match ap {
                0..=3 => ZoneType::Entrance,
                4..=35 => ZoneType::Office,
                36..=47 => ZoneType::LectureHall,
                48..=55 => ZoneType::Lab,
                56..=57 => ZoneType::Cafe,
                58..=60 => ZoneType::Lounge,
                _ => ZoneType::Restroom,
            };
            zones.push(zone);
        }
        Self { zones }
    }

    /// A custom building from an explicit zone list (used by tests).
    pub fn from_zones(zones: Vec<ZoneType>) -> Self {
        Self { zones }
    }

    /// Number of access points.
    pub fn ap_count(&self) -> usize {
        self.zones.len()
    }

    /// The zone of an access point (panics if out of range).
    pub fn zone_of(&self, ap: u8) -> ZoneType {
        self.zones[ap as usize]
    }

    /// All access points belonging to a zone.
    pub fn aps_of_zone(&self, zone: ZoneType) -> Vec<u8> {
        self.zones
            .iter()
            .enumerate()
            .filter_map(|(i, &z)| if z == zone { Some(i as u8) } else { None })
            .collect()
    }

    /// Access points whose zone is typically marked sensitive by policies.
    pub fn typically_sensitive_aps(&self) -> Vec<u8> {
        self.zones
            .iter()
            .enumerate()
            .filter_map(|(i, z)| if z.typically_sensitive() { Some(i as u8) } else { None })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_building_has_64_aps_with_all_zones() {
        let b = Building::standard();
        assert_eq!(b.ap_count(), 64);
        for zone in [
            ZoneType::Entrance,
            ZoneType::Office,
            ZoneType::LectureHall,
            ZoneType::Lab,
            ZoneType::Cafe,
            ZoneType::Lounge,
            ZoneType::Restroom,
        ] {
            assert!(!b.aps_of_zone(zone).is_empty(), "zone {zone:?} missing");
        }
        // Offices are the most common zone.
        assert!(b.aps_of_zone(ZoneType::Office).len() >= 30);
    }

    #[test]
    fn zone_lookup_is_consistent_with_zone_listing() {
        let b = Building::standard();
        for zone in [ZoneType::Entrance, ZoneType::Lounge, ZoneType::Restroom] {
            for ap in b.aps_of_zone(zone) {
                assert_eq!(b.zone_of(ap), zone);
            }
        }
    }

    #[test]
    fn sensitive_zones_are_lounges_and_restrooms() {
        let b = Building::standard();
        let sensitive = b.typically_sensitive_aps();
        assert_eq!(sensitive.len(), 6); // 3 lounges + 3 restrooms
        for ap in sensitive {
            assert!(b.zone_of(ap).typically_sensitive());
        }
        assert!(!ZoneType::Office.typically_sensitive());
        assert!(ZoneType::Restroom.typically_sensitive());
    }

    #[test]
    fn custom_building_from_zones() {
        let b =
            Building::from_zones(vec![ZoneType::Entrance, ZoneType::Office, ZoneType::Restroom]);
        assert_eq!(b.ap_count(), 3);
        assert_eq!(b.zone_of(2), ZoneType::Restroom);
        assert_eq!(b.typically_sensitive_aps(), vec![2]);
    }
}
