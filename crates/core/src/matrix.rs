//! The paper's experiment matrices.
//!
//! Section V-B of the paper defines two sweeps, both run with and without fault
//! injection and for every design of the registry ([`crate::designs`] — the
//! paper's three plus `SHRINK-FTI` unless `MATCH_SHRINK=0`):
//!
//! * the **scaling sweep** — every application on 64, 128, 256 and 512 processes
//!   (LULESH: 64 and 512) at the small input (Figs. 5–7);
//! * the **input-size sweep** — every application on the default 64 processes at the
//!   small, medium and large inputs (Figs. 8–10).
//!
//! Because the original process counts are sized for a 32-node cluster, the matrix
//! builders take the process counts as a parameter; [`MatrixOptions::default`] uses a
//! scaled-down ladder (8–64 ranks) that preserves the scaling trends on a laptop, and
//! [`MatrixOptions::paper`] uses the original 64–512.

use proxies::{InputSize, ProxyKind};

use crate::designs::enabled_designs;
use crate::experiment::{Experiment, SuiteOptions};

/// Options controlling the generated matrices.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixOptions {
    /// The process-count ladder used by the scaling sweep (subsetted per application
    /// through [`scaled_process_counts`]).
    pub process_counts: Vec<usize>,
    /// The process count used by the input-size sweep (the paper's default is 64).
    pub default_procs: usize,
    /// The applications to include.
    pub apps: Vec<ProxyKind>,
    /// Suite-wide options (scale, repetitions, seed).
    pub suite: SuiteOptions,
}

impl MatrixOptions {
    /// The paper's original matrix: 64–512 processes, all six applications.
    pub fn paper() -> Self {
        MatrixOptions {
            process_counts: vec![64, 128, 256, 512],
            default_procs: 64,
            apps: ProxyKind::ALL.to_vec(),
            suite: SuiteOptions::paper(),
        }
    }

    /// A laptop-scale matrix preserving the scaling trends: 8–64 processes, smoke-scale
    /// inputs, one repetition.
    pub fn laptop() -> Self {
        MatrixOptions {
            process_counts: vec![8, 16, 32, 64],
            default_procs: 8,
            apps: ProxyKind::ALL.to_vec(),
            suite: SuiteOptions::default(),
        }
    }

    /// Restricts the matrix to the given applications.
    pub fn with_apps(mut self, apps: Vec<ProxyKind>) -> Self {
        self.apps = apps;
        self
    }

    /// Overrides the process-count ladder.
    pub fn with_process_counts(mut self, counts: Vec<usize>) -> Self {
        assert!(!counts.is_empty(), "need at least one process count");
        self.process_counts = counts;
        self.default_procs = counts_first(&self.process_counts);
        self
    }
}

fn counts_first(counts: &[usize]) -> usize {
    *counts.first().expect("non-empty process counts")
}

impl Default for MatrixOptions {
    fn default() -> Self {
        Self::laptop()
    }
}

/// The process counts an application runs on, intersected with the configured ladder:
/// LULESH needs a cube number of processes, so it keeps only the first and last rung of
/// the ladder, mirroring the paper's 64-and-512-only configuration.
pub fn scaled_process_counts(app: ProxyKind, options: &MatrixOptions) -> Vec<usize> {
    match app {
        ProxyKind::Lulesh => {
            let mut v = Vec::new();
            if let Some(first) = options.process_counts.first() {
                v.push(*first);
            }
            if let Some(last) = options.process_counts.last() {
                if Some(last) != options.process_counts.first() {
                    v.push(*last);
                }
            }
            v
        }
        _ => options.process_counts.clone(),
    }
}

/// The scaling sweep (Figs. 5–7): every application × every design × every process
/// count, at the small input.
pub fn scaling_matrix(options: &MatrixOptions, inject_failure: bool) -> Vec<Experiment> {
    let mut experiments = Vec::new();
    for &app in &options.apps {
        for nprocs in scaled_process_counts(app, options) {
            for &strategy in enabled_designs() {
                experiments.push(
                    Experiment::new(app, InputSize::Small, nprocs, strategy)
                        .with_options(&options.suite)
                        .with_failure(inject_failure),
                );
            }
        }
    }
    experiments
}

/// The input-size sweep (Figs. 8–10): every application × every design × the three
/// input sizes, at the default process count.
pub fn input_size_matrix(options: &MatrixOptions, inject_failure: bool) -> Vec<Experiment> {
    let mut experiments = Vec::new();
    for &app in &options.apps {
        for input in InputSize::ALL {
            for &strategy in enabled_designs() {
                experiments.push(
                    Experiment::new(app, input, options.default_procs, strategy)
                        .with_options(&options.suite)
                        .with_failure(inject_failure),
                );
            }
        }
    }
    experiments
}

/// The union of every experiment behind Figs. 5–10: the scaling sweep and the
/// input-size sweep, each with and without fault injection.
///
/// The `match-bench all` target feeds this to
/// [`SuiteEngine::run_matrix`](crate::engine::SuiteEngine::run_matrix) as one wave,
/// so the whole evaluation saturates the worker pool once and every figure then
/// renders from cache.
pub fn full_suite_matrix(options: &MatrixOptions) -> Vec<Experiment> {
    let mut experiments = scaling_matrix(options, false);
    experiments.extend(scaling_matrix(options, true));
    experiments.extend(input_size_matrix(options, false));
    experiments.extend(input_size_matrix(options, true));
    experiments
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_matrix_sizes_match_the_evaluation() {
        let options = MatrixOptions::paper();
        let scaling = scaling_matrix(&options, false);
        // 5 apps x 4 scales x 4 designs + LULESH x 2 scales x 4 designs = 80 + 8 = 88.
        assert_eq!(scaling.len(), 88);
        let inputs = input_size_matrix(&options, true);
        // 6 apps x 3 sizes x 4 designs.
        assert_eq!(inputs.len(), 72);
        assert!(inputs.iter().all(|e| e.nprocs == 64 && e.inject_failure()));
    }

    #[test]
    fn every_matrix_cell_group_covers_the_whole_design_registry() {
        // Dropping a design from a sweep must fail loudly, not shrink a figure: every
        // (app, nprocs) group of the scaling sweep and every (app, input) group of
        // the input-size sweep carries exactly the registry's designs, in order.
        let designs: Vec<_> = crate::designs::enabled_designs().to_vec();
        let options = MatrixOptions::laptop();
        let scaling = scaling_matrix(&options, true);
        for chunk in scaling.chunks(designs.len()) {
            let got: Vec<_> = chunk.iter().map(|e| e.strategy).collect();
            assert_eq!(got, designs, "scaling sweep group dropped a design");
        }
        let inputs = input_size_matrix(&options, true);
        for chunk in inputs.chunks(designs.len()) {
            let got: Vec<_> = chunk.iter().map(|e| e.strategy).collect();
            assert_eq!(got, designs, "input-size sweep group dropped a design");
        }
    }

    #[test]
    fn lulesh_only_gets_first_and_last_rung() {
        let options = MatrixOptions::laptop();
        assert_eq!(
            scaled_process_counts(ProxyKind::Lulesh, &options),
            vec![8, 64]
        );
        assert_eq!(
            scaled_process_counts(ProxyKind::Amg, &options),
            vec![8, 16, 32, 64]
        );
    }

    #[test]
    fn with_apps_and_counts_restrict_the_matrix() {
        let options = MatrixOptions::laptop()
            .with_apps(vec![ProxyKind::Hpccg])
            .with_process_counts(vec![4, 8]);
        let scaling = scaling_matrix(&options, false);
        assert_eq!(scaling.len(), 2 * 4);
        assert!(scaling.iter().all(|e| e.app == ProxyKind::Hpccg));
        assert_eq!(options.default_procs, 4);
    }

    #[test]
    #[should_panic]
    fn empty_process_counts_panic() {
        let _ = MatrixOptions::laptop().with_process_counts(vec![]);
    }

    #[test]
    fn full_suite_matrix_is_the_union_of_the_four_sweeps() {
        let options = MatrixOptions::paper();
        let all = full_suite_matrix(&options);
        // 88 scaling cells and 72 input cells, each with and without failure.
        assert_eq!(all.len(), 2 * 88 + 2 * 72);
        assert_eq!(all.iter().filter(|e| e.inject_failure()).count(), 88 + 72);
    }
}
