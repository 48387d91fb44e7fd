//! The four 2.5D NoI architectures compared in Section II.

use mapper::GreedyConfig;
use serde::Serialize;
use topology::{FloretLayout, SwapConfig, Topology, TopologyError};

/// NoI architecture selector for [`crate::Platform25D`].
#[derive(Clone, Debug, PartialEq, Serialize)]
#[non_exhaustive]
pub enum NoiArch {
    /// Floret SFC NoI with `lambda` petals; dataflow-aware SFC mapping.
    Floret {
        /// Petal count (6 for the paper's 100-chiplet system).
        lambda: u16,
    },
    /// SIAM-style 2D mesh; greedy nearest-hop mapping.
    Siam,
    /// Kite folded-torus family; greedy nearest-hop mapping.
    Kite,
    /// SWAP small-world NoI; greedy nearest-hop mapping.
    Swap {
        /// Generator seed (a fixed seed reproduces one offline-optimized
        /// instance).
        seed: u64,
    },
}

impl NoiArch {
    /// Canonical display name used in the figures.
    pub fn name(&self) -> &'static str {
        match self {
            NoiArch::Floret { .. } => "Floret",
            NoiArch::Siam => "SIAM",
            NoiArch::Kite => "Kite",
            NoiArch::Swap { .. } => "SWAP",
        }
    }

    /// The four architectures of Figs. 2-5 with their paper defaults.
    pub fn all() -> Vec<NoiArch> {
        vec![
            NoiArch::Kite,
            NoiArch::Siam,
            NoiArch::Swap {
                seed: SwapConfig::default().seed,
            },
            NoiArch::Floret { lambda: 6 },
        ]
    }

    /// Builds the topology (and SFC layout for Floret).
    ///
    /// # Errors
    ///
    /// Propagates [`TopologyError`] from the generators.
    pub fn build(&self, w: u16, h: u16) -> Result<(Topology, Option<FloretLayout>), TopologyError> {
        match self {
            NoiArch::Floret { lambda } => {
                let (t, l) = topology::floret(w, h, *lambda)?;
                Ok((t, Some(l)))
            }
            NoiArch::Siam => Ok((topology::mesh2d(w, h)?, None)),
            NoiArch::Kite => Ok((topology::kite(w, h)?, None)),
            NoiArch::Swap { seed } => {
                let cfg = SwapConfig {
                    seed: *seed,
                    ..SwapConfig::default()
                };
                Ok((topology::swap(w, h, &cfg)?, None))
            }
        }
    }

    /// The greedy locality radius used for the baseline architectures.
    pub fn greedy_config(&self) -> GreedyConfig {
        GreedyConfig { radius: 2 }
    }

    /// Parses a case-insensitive architecture name (`floret`, `siam`,
    /// `kite`, `swap`) to its paper-default instance — the inverse of
    /// [`NoiArch::name`], used by scenario specs and the `pim-bench`
    /// `--arch` flag.
    pub fn from_name(name: &str) -> Option<NoiArch> {
        let canonical = name.to_ascii_lowercase();
        NoiArch::all()
            .into_iter()
            .find(|a| a.name().to_ascii_lowercase() == canonical)
    }
}

impl std::str::FromStr for NoiArch {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        NoiArch::from_name(s).ok_or_else(|| {
            format!("unknown architecture `{s}` (expected Floret, SIAM, Kite or SWAP)")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_architectures_build_100_chiplets() {
        for arch in NoiArch::all() {
            let (topo, layout) = arch.build(10, 10).unwrap();
            assert_eq!(topo.node_count(), 100, "{}", arch.name());
            assert_eq!(layout.is_some(), matches!(arch, NoiArch::Floret { .. }));
        }
    }

    #[test]
    fn names_are_stable() {
        let names: Vec<&str> = NoiArch::all().iter().map(|a| a.name()).collect();
        assert_eq!(names, vec!["Kite", "SIAM", "SWAP", "Floret"]);
    }

    #[test]
    fn from_name_round_trips_and_rejects() {
        for arch in NoiArch::all() {
            assert_eq!(NoiArch::from_name(arch.name()), Some(arch.clone()));
            assert_eq!(
                arch.name().to_lowercase().parse::<NoiArch>().as_ref(),
                Ok(&arch)
            );
        }
        assert!(NoiArch::from_name("torus").is_none());
        assert!("torus".parse::<NoiArch>().is_err());
    }
}
