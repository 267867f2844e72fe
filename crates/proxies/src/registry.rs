//! The proxy-application registry: Table I configurations and builders.
//!
//! Table I of the MATCH paper lists, for each of the six proxy applications, the
//! command-line arguments of its small, medium and large input problems and the
//! process counts it is evaluated on. This module reproduces that table
//! ([`ProxyKind::table1_args`], [`ProxyKind::process_counts`]) and builds runnable
//! application instances from it.
//!
//! Because the original inputs are sized for a 32-node production cluster, the builder
//! takes an [`ExecutionScale`] that shrinks the per-rank extents (and caps the
//! iteration counts) while keeping the small/medium/large ratios, so that the full
//! evaluation matrix regenerates in minutes on a laptop. `ExecutionScale::paper()`
//! keeps the original extents.

use crate::amg::{Amg, AmgParams};
use crate::comd::{Comd, ComdParams};
use crate::common::{InputSize, ProxyApp};
use crate::hpccg::{Hpccg, HpccgParams};
use crate::lulesh::{Lulesh, LuleshParams};
use crate::minife::{MiniFe, MiniFeParams};
use crate::minivite::{MiniVite, MiniViteParams};

/// How far to scale the Table I inputs down for execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionScale {
    /// Fraction applied to linear grid extents (and to miniVite's vertex count).
    pub linear_fraction: f64,
    /// Upper bound on the number of main-loop iterations.
    pub iteration_cap: u64,
    /// Lower bound on any scaled linear extent.
    pub min_extent: usize,
}

impl ExecutionScale {
    /// The paper's original extents (use with care: the large inputs are sized for a
    /// production cluster).
    pub fn paper() -> Self {
        ExecutionScale {
            linear_fraction: 1.0,
            iteration_cap: 50,
            min_extent: 4,
        }
    }

    /// The bench scale: quarter-size linear extents.
    pub fn bench() -> Self {
        ExecutionScale {
            linear_fraction: 0.25,
            iteration_cap: 20,
            min_extent: 4,
        }
    }

    /// A tiny scale for smoke tests.
    pub fn smoke() -> Self {
        ExecutionScale {
            linear_fraction: 0.1,
            iteration_cap: 8,
            min_extent: 3,
        }
    }

    /// Applies the scale to a linear extent.
    pub fn extent(&self, nominal: usize) -> usize {
        ((nominal as f64 * self.linear_fraction).round() as usize).max(self.min_extent)
    }

    /// Applies the scale to an iteration count.
    pub fn iterations(&self, nominal: u64) -> u64 {
        nominal.min(self.iteration_cap).max(1)
    }
}

/// The six proxy applications of the MATCH suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProxyKind {
    /// Algebraic multigrid (ECP proxy, HYPRE/BoomerAMG).
    Amg,
    /// Classical molecular dynamics (ECP proxy).
    Comd,
    /// Preconditioned conjugate gradient (Mantevo/ASC proxy).
    Hpccg,
    /// Sedov-blast shock hydrodynamics (LLNL ASC proxy).
    Lulesh,
    /// Implicit finite elements (Mantevo proxy).
    MiniFe,
    /// Distributed Louvain community detection (ECP proxy).
    MiniVite,
}

impl ProxyKind {
    /// All six applications, in the order the paper's figures present them.
    pub const ALL: [ProxyKind; 6] = [
        ProxyKind::Amg,
        ProxyKind::Comd,
        ProxyKind::Hpccg,
        ProxyKind::Lulesh,
        ProxyKind::MiniFe,
        ProxyKind::MiniVite,
    ];

    /// The application's name as used in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            ProxyKind::Amg => "AMG",
            ProxyKind::Comd => "CoMD",
            ProxyKind::Hpccg => "HPCCG",
            ProxyKind::Lulesh => "LULESH",
            ProxyKind::MiniFe => "miniFE",
            ProxyKind::MiniVite => "miniVite",
        }
    }

    /// The Table I command-line arguments of the given input size.
    pub fn table1_args(&self, size: InputSize) -> &'static str {
        match (self, size) {
            (ProxyKind::Amg, InputSize::Small) => "-problem 2 -n 20 20 20",
            (ProxyKind::Amg, InputSize::Medium) => "-problem 2 -n 40 40 40",
            (ProxyKind::Amg, InputSize::Large) => "-problem 2 -n 60 60 60",
            (ProxyKind::Comd, InputSize::Small) => "-nx 128 -ny 128 -nz 128",
            (ProxyKind::Comd, InputSize::Medium) => "-nx 256 -ny 256 -nz 256",
            (ProxyKind::Comd, InputSize::Large) => "-nx 512 -ny 512 -nz 512",
            (ProxyKind::Hpccg, InputSize::Small) => "64 64 64",
            (ProxyKind::Hpccg, InputSize::Medium) => "128 128 128",
            (ProxyKind::Hpccg, InputSize::Large) => "192 192 192",
            (ProxyKind::Lulesh, InputSize::Small) => "-s 30 -p",
            (ProxyKind::Lulesh, InputSize::Medium) => "-s 40 -p",
            (ProxyKind::Lulesh, InputSize::Large) => "-s 50 -p",
            (ProxyKind::MiniFe, InputSize::Small) => "-nx 20 -ny 20 -nz 20",
            (ProxyKind::MiniFe, InputSize::Medium) => "-nx 40 -ny 40 -nz 40",
            (ProxyKind::MiniFe, InputSize::Large) => "-nx 60 -ny 60 -nz 60",
            (ProxyKind::MiniVite, InputSize::Small) => "-p 3 -l -n 128000",
            (ProxyKind::MiniVite, InputSize::Medium) => "-p 3 -l -n 256000",
            (ProxyKind::MiniVite, InputSize::Large) => "-p 3 -l -n 512000",
        }
    }

    /// The process counts this application is evaluated on (Table I): all applications
    /// use 64–512 processes except LULESH, which requires a cube number of processes
    /// and therefore runs only on 64 and 512.
    pub fn process_counts(&self) -> &'static [usize] {
        match self {
            ProxyKind::Lulesh => &[64, 512],
            _ => &[64, 128, 256, 512],
        }
    }

    /// The nominal linear extent of the given input size (the scalar behind
    /// [`ProxyKind::table1_args`]).
    fn nominal_extent(&self, size: InputSize) -> usize {
        match (self, size) {
            (ProxyKind::Amg, InputSize::Small) | (ProxyKind::MiniFe, InputSize::Small) => 20,
            (ProxyKind::Amg, InputSize::Medium) | (ProxyKind::MiniFe, InputSize::Medium) => 40,
            (ProxyKind::Amg, InputSize::Large) | (ProxyKind::MiniFe, InputSize::Large) => 60,
            (ProxyKind::Comd, InputSize::Small) => 128,
            (ProxyKind::Comd, InputSize::Medium) => 256,
            (ProxyKind::Comd, InputSize::Large) => 512,
            (ProxyKind::Hpccg, InputSize::Small) => 64,
            (ProxyKind::Hpccg, InputSize::Medium) => 128,
            (ProxyKind::Hpccg, InputSize::Large) => 192,
            (ProxyKind::Lulesh, InputSize::Small) => 30,
            (ProxyKind::Lulesh, InputSize::Medium) => 40,
            (ProxyKind::Lulesh, InputSize::Large) => 50,
            (ProxyKind::MiniVite, InputSize::Small) => 128_000,
            (ProxyKind::MiniVite, InputSize::Medium) => 256_000,
            (ProxyKind::MiniVite, InputSize::Large) => 512_000,
        }
    }

    /// The nominal number of main-loop iterations the suite runs for this application
    /// (before the execution scale's cap).
    pub fn nominal_iterations(&self) -> u64 {
        match self {
            ProxyKind::Amg => 15,
            ProxyKind::Comd => 20,
            ProxyKind::Hpccg => 25,
            ProxyKind::Lulesh => 20,
            ProxyKind::MiniFe => 20,
            ProxyKind::MiniVite => 12,
        }
    }

    /// Builds a runnable application instance for the given input size and execution
    /// scale.
    pub fn build(&self, size: InputSize, scale: ExecutionScale) -> Box<dyn ProxyApp> {
        let iters = scale.iterations(self.nominal_iterations());
        match self {
            ProxyKind::Amg => {
                let n = scale.extent(self.nominal_extent(size));
                // Keep the z extent small: the per-rank grid is decomposed along z and
                // the original AMG problem is strongly anisotropic.
                Box::new(Amg::new(AmgParams::new(
                    n.max(8),
                    n.max(8),
                    (n / 4).max(2),
                    iters,
                )))
            }
            ProxyKind::Comd => {
                let n = scale.extent(self.nominal_extent(size));
                Box::new(Comd::new(ComdParams::new(
                    n,
                    (n / 4).max(2),
                    (n / 4).max(2),
                    iters,
                )))
            }
            ProxyKind::Hpccg => {
                let n = scale.extent(self.nominal_extent(size));
                Box::new(Hpccg::new(HpccgParams::new(
                    n / 2 + 1,
                    n / 2 + 1,
                    (n / 4).max(2),
                    iters,
                )))
            }
            ProxyKind::Lulesh => {
                let s = scale.extent(self.nominal_extent(size));
                Box::new(Lulesh::new(LuleshParams::new(s, iters)))
            }
            ProxyKind::MiniFe => {
                let n = scale.extent(self.nominal_extent(size));
                Box::new(MiniFe::new(MiniFeParams::new(n, n, (n / 2).max(2), iters)))
            }
            ProxyKind::MiniVite => {
                let v = ((self.nominal_extent(size) as f64 * scale.linear_fraction * 0.05)
                    as usize)
                    .max(128);
                Box::new(MiniVite::new(MiniViteParams::new(v, 6, iters)))
            }
        }
    }
}

impl std::fmt::Display for ProxyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One fully specified workload: an application, an input size and the execution
/// scale. This is the unit the MATCH experiment matrix iterates over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProxySpec {
    /// Which application.
    pub kind: ProxyKind,
    /// Which Table I input size.
    pub size: InputSize,
    /// How far the extents are scaled for execution.
    pub scale: ExecutionScale,
}

impl ProxySpec {
    /// Creates a spec.
    pub fn new(kind: ProxyKind, size: InputSize, scale: ExecutionScale) -> Self {
        ProxySpec { kind, size, scale }
    }

    /// Builds the runnable application.
    pub fn build(&self) -> Box<dyn ProxyApp> {
        self.kind.build(self.size, self.scale)
    }

    /// The Table I arguments this spec corresponds to.
    pub fn table1_args(&self) -> &'static str {
        self.kind.table1_args(self.size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::run_standalone;
    use fti::store::CheckpointStore;
    use fti::FtiConfig;
    use mpisim::{Cluster, ClusterConfig};

    #[test]
    fn table1_matches_the_paper() {
        assert_eq!(
            ProxyKind::Amg.table1_args(InputSize::Small),
            "-problem 2 -n 20 20 20"
        );
        assert_eq!(
            ProxyKind::Comd.table1_args(InputSize::Large),
            "-nx 512 -ny 512 -nz 512"
        );
        assert_eq!(
            ProxyKind::Hpccg.table1_args(InputSize::Medium),
            "128 128 128"
        );
        assert_eq!(ProxyKind::Lulesh.table1_args(InputSize::Small), "-s 30 -p");
        assert_eq!(
            ProxyKind::MiniFe.table1_args(InputSize::Large),
            "-nx 60 -ny 60 -nz 60"
        );
        assert_eq!(
            ProxyKind::MiniVite.table1_args(InputSize::Small),
            "-p 3 -l -n 128000"
        );
        assert_eq!(ProxyKind::Lulesh.process_counts(), &[64, 512]);
        assert_eq!(ProxyKind::Amg.process_counts(), &[64, 128, 256, 512]);
        assert_eq!(ProxyKind::ALL.len(), 6);
    }

    #[test]
    fn execution_scale_shrinks_and_caps() {
        let s = ExecutionScale::bench();
        assert_eq!(s.extent(64), 16);
        assert_eq!(s.extent(8), 4, "respects the minimum extent");
        assert_eq!(s.iterations(100), 20);
        let p = ExecutionScale::paper();
        assert_eq!(p.extent(64), 64);
    }

    #[test]
    fn larger_inputs_build_larger_problems() {
        for kind in ProxyKind::ALL {
            let small = kind.build(InputSize::Small, ExecutionScale::smoke());
            let large = kind.build(InputSize::Large, ExecutionScale::smoke());
            assert_eq!(small.name(), kind.name());
            assert_eq!(large.name(), kind.name());
        }
    }

    #[test]
    fn every_proxy_runs_at_smoke_scale_on_four_ranks() {
        for kind in ProxyKind::ALL {
            let spec = ProxySpec::new(kind, InputSize::Small, ExecutionScale::smoke());
            let cluster = Cluster::new(ClusterConfig::with_ranks(4));
            let outcome = cluster.run(move |ctx| {
                let app = spec.build();
                run_standalone(
                    app.as_ref(),
                    ctx,
                    CheckpointStore::shared(),
                    FtiConfig::default(),
                )
            });
            assert!(outcome.all_ok(), "{kind}: {:?}", outcome.errors());
            let reference = outcome.value_of(0).checksum;
            assert!(reference.is_finite(), "{kind}");
            for r in outcome.ranks() {
                assert_eq!(r.result.as_ref().unwrap().checksum, reference, "{kind}");
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(ProxyKind::MiniVite.to_string(), "miniVite");
        assert_eq!(ProxyKind::Hpccg.to_string(), "HPCCG");
    }
}
