//! [`MechanismSpec`]: the mechanism registry, which builds pools by name.
//!
//! Experiment configurations name their algorithm pools as data
//! (`["OsdpRR", "OsdpLaplaceL1", "DAWA", ...]`); the registry turns those
//! names into boxed [`HistogramMechanism`]s at a given budget. This is the
//! one place where mechanism names are mapped to constructors, so adding a
//! mechanism to the workspace means adding one `match` arm here.

use osdp_core::error::{OsdpError, Result};
use osdp_mechanisms::{
    DawaHistogram, Dawaz, DpLaplaceHistogram, HistogramMechanism, HybridLaplace, OsdpLaplace,
    OsdpLaplaceL1, OsdpRrHistogram, Suppress,
};

/// A buildable mechanism description: mechanism kind plus its parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MechanismSpec {
    /// `OsdpRR` packaged as a histogram mechanism (Algorithm 1).
    OsdpRr {
        /// Privacy budget ε.
        eps: f64,
    },
    /// One-sided Laplace on the non-sensitive histogram (Definition 5.2).
    OsdpLaplace {
        /// Privacy budget ε.
        eps: f64,
    },
    /// The de-biased one-sided Laplace variant (Algorithm 2).
    OsdpLaplaceL1 {
        /// Privacy budget ε.
        eps: f64,
    },
    /// The per-bin hybrid used on value-based policies (Section 6.3.3.1).
    Hybrid {
        /// Privacy budget ε.
        eps: f64,
    },
    /// DAWA upgraded with OSDP zero-bin knowledge (Algorithm 3).
    Dawaz {
        /// Privacy budget ε.
        eps: f64,
    },
    /// The ε-DP Laplace histogram baseline.
    DpLaplace {
        /// Privacy budget ε.
        eps: f64,
    },
    /// The DAWA DP baseline.
    Dawa {
        /// Privacy budget ε.
        eps: f64,
    },
    /// The PDP `Suppress` baseline with threshold τ (Section 3.4).
    Suppress {
        /// Threshold budget τ.
        tau: f64,
    },
}

impl MechanismSpec {
    /// Parses a mechanism name (as used in figures and configs) at budget
    /// `eps`. `Suppress<digits>` carries its own τ (e.g. `"Suppress100"`).
    pub fn parse(name: &str, eps: f64) -> Result<Self> {
        match name {
            "OsdpRR" => Ok(Self::OsdpRr { eps }),
            "OsdpLaplace" => Ok(Self::OsdpLaplace { eps }),
            "OsdpLaplaceL1" => Ok(Self::OsdpLaplaceL1 { eps }),
            "Hybrid" | "HybridLaplace" => Ok(Self::Hybrid { eps }),
            "DAWAz" => Ok(Self::Dawaz { eps }),
            "Laplace" | "DpLaplace" => Ok(Self::DpLaplace { eps }),
            "DAWA" => Ok(Self::Dawa { eps }),
            _ => {
                if let Some(digits) = name.strip_prefix("Suppress") {
                    let tau: f64 = digits.parse().map_err(|_| {
                        OsdpError::InvalidInput(format!(
                            "cannot parse Suppress threshold from `{name}`"
                        ))
                    })?;
                    Ok(Self::Suppress { tau })
                } else {
                    Err(OsdpError::InvalidInput(format!("unknown mechanism name `{name}`")))
                }
            }
        }
    }

    /// The canonical name, round-trippable through [`MechanismSpec::parse`]
    /// (`Suppress` carries its threshold: `"Suppress100"`). Matches each
    /// mechanism's display name, except for the hybrid, which reports under
    /// the `OsdpLaplaceL1` label it instantiates per bin.
    pub fn name(&self) -> String {
        match self {
            Self::OsdpRr { .. } => "OsdpRR".to_string(),
            Self::OsdpLaplace { .. } => "OsdpLaplace".to_string(),
            Self::OsdpLaplaceL1 { .. } => "OsdpLaplaceL1".to_string(),
            Self::Hybrid { .. } => "Hybrid".to_string(),
            Self::Dawaz { .. } => "DAWAz".to_string(),
            Self::DpLaplace { .. } => "Laplace".to_string(),
            Self::Dawa { .. } => "DAWA".to_string(),
            Self::Suppress { tau } => format!("Suppress{tau}"),
        }
    }

    /// Builds the mechanism.
    pub fn build(&self) -> Result<Box<dyn HistogramMechanism>> {
        Ok(match *self {
            Self::OsdpRr { eps } => Box::new(OsdpRrHistogram::new(eps)?),
            Self::OsdpLaplace { eps } => Box::new(OsdpLaplace::new(eps)?),
            Self::OsdpLaplaceL1 { eps } => Box::new(OsdpLaplaceL1::new(eps)?),
            Self::Hybrid { eps } => Box::new(HybridLaplace::new(eps)?),
            Self::Dawaz { eps } => Box::new(Dawaz::new(eps)?),
            Self::DpLaplace { eps } => Box::new(DpLaplaceHistogram::new(eps)?),
            Self::Dawa { eps } => Box::new(DawaHistogram::new(eps)?),
            Self::Suppress { tau } => Box::new(Suppress::new(tau)?),
        })
    }
}

/// Builds a pool from specs.
pub fn pool_from_specs(specs: &[MechanismSpec]) -> Result<Vec<Box<dyn HistogramMechanism>>> {
    specs.iter().map(MechanismSpec::build).collect()
}

/// Builds a pool by name at a shared budget `eps` (the shape experiment
/// configurations use).
pub fn pool_from_names<S: AsRef<str>>(
    names: &[S],
    eps: f64,
) -> Result<Vec<Box<dyn HistogramMechanism>>> {
    names.iter().map(|name| MechanismSpec::parse(name.as_ref(), eps)?.build()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use osdp_core::Guarantee;

    #[test]
    fn every_spec_builds_and_names_round_trip() {
        let eps = 1.0;
        for name in ["OsdpRR", "OsdpLaplace", "OsdpLaplaceL1", "Hybrid", "DAWAz", "Laplace", "DAWA"]
        {
            let spec = MechanismSpec::parse(name, eps).unwrap();
            let mechanism = spec.build().unwrap();
            assert!(!mechanism.name().is_empty());
            assert_eq!(mechanism.guarantee().epsilon(), eps, "{name}");
        }
    }

    #[test]
    fn names_round_trip_through_parse() {
        let eps = 0.5;
        for spec in [
            MechanismSpec::OsdpRr { eps },
            MechanismSpec::OsdpLaplace { eps },
            MechanismSpec::OsdpLaplaceL1 { eps },
            MechanismSpec::Hybrid { eps },
            MechanismSpec::Dawaz { eps },
            MechanismSpec::DpLaplace { eps },
            MechanismSpec::Dawa { eps },
            MechanismSpec::Suppress { tau: 100.0 },
        ] {
            assert_eq!(MechanismSpec::parse(&spec.name(), eps).unwrap(), spec);
        }
    }

    #[test]
    fn suppress_carries_its_own_threshold() {
        let spec = MechanismSpec::parse("Suppress100", 1.0).unwrap();
        assert_eq!(spec, MechanismSpec::Suppress { tau: 100.0 });
        let mechanism = spec.build().unwrap();
        assert_eq!(mechanism.name(), "Suppress100");
        assert!(matches!(mechanism.guarantee(), Guarantee::Pdp { eps } if eps == 100.0));
        assert!(MechanismSpec::parse("Suppressx", 1.0).is_err());
    }

    #[test]
    fn unknown_names_are_rejected() {
        assert!(MechanismSpec::parse("NoSuchMechanism", 1.0).is_err());
    }

    #[test]
    fn pools_build_in_order() {
        let pool = pool_from_names(&["OsdpRR", "DAWA"], 0.5).unwrap();
        assert_eq!(pool.len(), 2);
        assert_eq!(pool[0].name(), "OsdpRR");
        assert_eq!(pool[1].name(), "DAWA");
        assert!(pool_from_names(&["bogus"], 0.5).is_err());
        assert!(pool_from_names(&["OsdpRR"], -1.0).is_err(), "invalid eps propagates");

        let specs = [MechanismSpec::OsdpLaplaceL1 { eps: 1.0 }, MechanismSpec::Dawa { eps: 1.0 }];
        assert_eq!(pool_from_specs(&specs).unwrap().len(), 2);
    }

    #[test]
    fn guarantees_partition_the_pool() {
        let pool = pool_from_names(
            &["OsdpRR", "OsdpLaplace", "OsdpLaplaceL1", "DAWAz", "Laplace", "DAWA"],
            1.0,
        )
        .unwrap();
        let dp: Vec<&str> = pool
            .iter()
            .filter(|m| m.guarantee().is_differentially_private())
            .map(|m| m.name())
            .collect();
        assert_eq!(dp, vec!["Laplace", "DAWA"], "exactly the 2 DP baselines");
    }
}
