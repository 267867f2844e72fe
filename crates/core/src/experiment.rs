//! Experiment descriptions.

use proxies::registry::ExecutionScale;
use proxies::{InputSize, ProxyKind};
use recovery::RecoveryStrategy;

/// Global options applied to every experiment of a suite run: how far inputs are
/// scaled down, how many repetitions are averaged, and the failure-injection seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuiteOptions {
    /// Execution scale applied to the Table I inputs.
    pub scale: ExecutionScale,
    /// Number of repetitions averaged per configuration (the paper uses five).
    pub repetitions: u32,
    /// Seed for the random failure plans.
    pub seed: u64,
}

impl SuiteOptions {
    /// The paper's setup: full Table I extents, five repetitions.
    pub fn paper() -> Self {
        SuiteOptions {
            scale: ExecutionScale::paper(),
            repetitions: 5,
            seed: 2020,
        }
    }

    /// The bench setup: quarter-scale extents, one repetition.
    pub fn bench() -> Self {
        SuiteOptions {
            scale: ExecutionScale::bench(),
            repetitions: 1,
            seed: 2020,
        }
    }

    /// A tiny setup for unit tests and examples.
    pub fn smoke() -> Self {
        SuiteOptions {
            scale: ExecutionScale::smoke(),
            repetitions: 1,
            seed: 7,
        }
    }
}

impl Default for SuiteOptions {
    /// The `match-bench` setup: smoke-scale extents, one repetition, seed 2020.
    fn default() -> Self {
        SuiteOptions {
            scale: ExecutionScale::smoke(),
            ..Self::bench()
        }
    }
}

/// The failure scenario an experiment runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureScenario {
    /// Failure-free execution.
    None,
    /// The paper's methodology: exactly one seeded random process failure.
    SingleRandom,
    /// An MTBF-driven multi-failure arrival process: seeded exponential inter-arrival
    /// draws whose rate scales with the node count, with optional correlated node
    /// crashes, rack-neighbour cascades and recovery-window follow-up kills.
    Mtbf {
        /// Mean iterations between failures of a single node.
        node_mtbf_iterations: u32,
        /// Percent chance an event is a node crash instead of a process kill.
        node_crash_pct: u8,
        /// Percent chance a node crash cascades to **another node of the victim's
        /// rack** one iteration later (real rack correlation over the topology's
        /// rack dimension; a scenario with cascades checkpoints at the erasure-coded
        /// L3 level, see `runner::run_single`).
        rack_neighbor_pct: u8,
        /// Percent chance a kill is followed by a second kill in the recovery window.
        recovery_window_pct: u8,
    },
}

impl FailureScenario {
    /// Whether this scenario injects any failures.
    pub fn injects_failure(&self) -> bool {
        !matches!(self, FailureScenario::None)
    }
}

/// One experiment: a workload, a scale, a fault-tolerance design, and the failure
/// scenario it runs under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Experiment {
    /// The proxy application.
    pub app: ProxyKind,
    /// The Table I input size.
    pub input: InputSize,
    /// Number of MPI processes.
    pub nprocs: usize,
    /// The fault-tolerance design.
    pub strategy: RecoveryStrategy,
    /// The failure scenario.
    pub scenario: FailureScenario,
    /// Execution scale.
    pub scale: ExecutionScale,
    /// Number of repetitions to average.
    pub repetitions: u32,
    /// Failure-plan seed.
    pub seed: u64,
}

impl Experiment {
    /// Creates an experiment with the default options ([`SuiteOptions::default`]) and
    /// no failure.
    pub fn new(
        app: ProxyKind,
        input: InputSize,
        nprocs: usize,
        strategy: RecoveryStrategy,
    ) -> Self {
        let options = SuiteOptions::default();
        Experiment {
            app,
            input,
            nprocs,
            strategy,
            scenario: FailureScenario::None,
            scale: options.scale,
            repetitions: options.repetitions,
            seed: options.seed,
        }
    }

    /// Enables or disables the paper's single-random-failure injection.
    pub fn with_failure(mut self, inject: bool) -> Self {
        self.scenario = if inject {
            FailureScenario::SingleRandom
        } else {
            FailureScenario::None
        };
        self
    }

    /// Sets the full failure scenario.
    pub fn with_scenario(mut self, scenario: FailureScenario) -> Self {
        self.scenario = scenario;
        self
    }

    /// Whether this experiment injects any failure.
    pub fn inject_failure(&self) -> bool {
        self.scenario.injects_failure()
    }

    /// Applies suite-wide options.
    pub fn with_options(mut self, options: &SuiteOptions) -> Self {
        self.scale = options.scale;
        self.repetitions = options.repetitions;
        self.seed = options.seed;
        self
    }

    /// Overrides the number of repetitions.
    pub fn with_repetitions(mut self, repetitions: u32) -> Self {
        self.repetitions = repetitions.max(1);
        self
    }

    /// The experiment whose simulation answers this one: itself, except that a
    /// failure-free cell takes the first design of its healthy runtime
    /// ([`recovery::HealthyRuntime::representative`]). Before a failure a design
    /// acts only through its runtime's background interference, so REINIT runs
    /// failure-free exactly like RESTART and SHRINK exactly like ULFM; only the
    /// report's `strategy` differs.
    pub fn representative(&self) -> Experiment {
        let mut representative = *self;
        if !self.inject_failure() {
            representative.strategy = self.strategy.healthy_runtime().representative();
        }
        representative
    }

    /// A short human-readable label ("HPCCG/Small/64/REINIT-FTI").
    pub fn label(&self) -> String {
        let suffix = match self.scenario {
            FailureScenario::None => String::new(),
            FailureScenario::SingleRandom => "/fault".to_string(),
            FailureScenario::Mtbf {
                node_mtbf_iterations,
                ..
            } => format!("/mtbf{node_mtbf_iterations}"),
        };
        format!(
            "{}/{}/{}/{}{}",
            self.app.name(),
            self.input.name(),
            self.nprocs,
            self.strategy.design_name(),
            suffix
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_presets() {
        assert_eq!(SuiteOptions::paper().repetitions, 5);
        let default = SuiteOptions::default();
        assert_eq!((default.repetitions, default.seed), (1, 2020));
        assert_eq!(default.scale, ExecutionScale::smoke());
        assert!(
            SuiteOptions::smoke().scale.linear_fraction
                < SuiteOptions::paper().scale.linear_fraction
        );
    }

    #[test]
    fn experiment_builders_and_label() {
        let e = Experiment::new(
            ProxyKind::Amg,
            InputSize::Medium,
            64,
            RecoveryStrategy::Ulfm,
        )
        .with_failure(true)
        .with_repetitions(3);
        assert!(e.inject_failure());
        assert_eq!(e.repetitions, 3);
        assert_eq!(e.label(), "AMG/Medium/64/ULFM-FTI/fault");
        let quiet = e.with_failure(false);
        assert_eq!(quiet.label(), "AMG/Medium/64/ULFM-FTI");
    }

    #[test]
    fn only_failure_free_cells_take_their_runtimes_representative() {
        let base = Experiment::new(
            ProxyKind::Hpccg,
            InputSize::Small,
            8,
            RecoveryStrategy::Restart,
        );
        for (design, twin) in [
            (RecoveryStrategy::Restart, RecoveryStrategy::Restart),
            (RecoveryStrategy::Ulfm, RecoveryStrategy::Ulfm),
            (RecoveryStrategy::Reinit, RecoveryStrategy::Restart),
            (RecoveryStrategy::Shrink, RecoveryStrategy::Ulfm),
        ] {
            let e = Experiment {
                strategy: design,
                ..base
            };
            assert_eq!(
                e.representative(),
                Experiment {
                    strategy: twin,
                    ..e
                }
            );
            let faulty = e.with_failure(true);
            assert_eq!(faulty.representative(), faulty);
        }
    }

    #[test]
    fn with_options_applies_scale_and_seed() {
        // Scale and seed both differ from the default's.
        let opts = SuiteOptions {
            seed: 7,
            ..SuiteOptions::bench()
        };
        let e = Experiment::new(
            ProxyKind::Hpccg,
            InputSize::Small,
            8,
            RecoveryStrategy::Reinit,
        )
        .with_options(&opts);
        assert_eq!(e.seed, opts.seed);
        assert_eq!(e.scale, opts.scale);
    }
}
