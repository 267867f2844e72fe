//! The MTBF sweep: efficiency versus failure rate, per fault-tolerance design.
//!
//! This is the classic Daly-style reliability curve the original paper stops short
//! of: instead of injecting exactly one failure, each cell runs the workload under an
//! MTBF-driven arrival process ([`FailureScenario::Mtbf`]) — seeded exponential
//! inter-arrival draws whose rate scales with the node count, optionally mixed with
//! correlated node crashes — and reports the resulting *efficiency*: the failure-free
//! completion time divided by the with-failures completion time. As the node MTBF
//! shrinks, recovery and redone work eat the machine, and the three designs separate
//! by their recovery cost exactly as Figs. 6–7 predict for the single-failure case.
//!
//! All cells execute through a [`SuiteEngine`], so re-running the sweep (or any
//! figure sharing its cells) is answered from the result cache.
//!
//! Note on correlated sweeps: scenarios with node crashes checkpoint at L2 (partner
//! copies leave the rack), and scenarios with rack-correlated cascades at the
//! erasure-coded L3 (groups span `fti::config::L3_GROUP_NODES` distinct nodes with
//! a periodic L4 anchor), while the failure-free baseline keeps the paper's L1
//! configuration. The resulting efficiency curve therefore starts below 1.0 even at
//! negligible failure rates — that constant offset *is* the price of provisioning
//! for node or rack loss, which is exactly what the figure is meant to expose.

use proxies::{InputSize, ProxyKind};

use crate::designs::enabled_designs;
use crate::engine::{SuiteEngine, SuiteError};
use crate::experiment::{Experiment, FailureScenario, SuiteOptions};
use crate::matrix::MatrixOptions;
use crate::table::{secs, TextTable};

/// Options of an MTBF sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct MtbfSweepOptions {
    /// The proxy application to sweep.
    pub app: ProxyKind,
    /// The input size.
    pub input: InputSize,
    /// Number of MPI processes.
    pub nprocs: usize,
    /// The node-MTBF ladder, in iterations of the main loop, largest (most reliable)
    /// first. The job-level failure rate additionally scales with the node count.
    pub node_mtbf_ladder: Vec<u32>,
    /// Percent of events that are correlated node crashes.
    pub node_crash_pct: u8,
    /// Percent of node crashes cascading to another node of the victim's rack
    /// (sweeps with cascades checkpoint at the erasure-coded L3 level).
    pub rack_neighbor_pct: u8,
    /// Percent of kills followed by a recovery-window kill.
    pub recovery_window_pct: u8,
    /// Suite-wide options (scale, repetitions, seed).
    pub suite: SuiteOptions,
}

impl MtbfSweepOptions {
    /// Derives sweep options from a figure matrix: the first configured application
    /// at the default process count. The default MTBF ladder scales with the
    /// configured execution scale's iteration cap (8× down to 1× the cap), so the
    /// sweep produces failures at every scale from smoke to paper.
    pub fn from_matrix(options: &MatrixOptions) -> Self {
        let cap = options.suite.scale.iteration_cap.max(1) as u32;
        MtbfSweepOptions {
            app: options.apps.first().copied().unwrap_or(ProxyKind::Hpccg),
            input: InputSize::Small,
            nprocs: options.default_procs,
            node_mtbf_ladder: vec![8 * cap, 4 * cap, 2 * cap, cap],
            node_crash_pct: 0,
            rack_neighbor_pct: 0,
            recovery_window_pct: 0,
            suite: options.suite,
        }
    }

    /// Overrides the MTBF ladder.
    pub fn with_ladder(mut self, ladder: Vec<u32>) -> Self {
        assert!(!ladder.is_empty(), "need at least one MTBF rung");
        self.node_mtbf_ladder = ladder;
        self
    }

    /// Sets the correlated-failure percentages.
    pub fn with_correlation(mut self, node_crash_pct: u8, rack_neighbor_pct: u8) -> Self {
        self.node_crash_pct = node_crash_pct;
        self.rack_neighbor_pct = rack_neighbor_pct;
        self
    }
}

/// One cell of the sweep: one design at one node MTBF.
#[derive(Debug, Clone, PartialEq)]
pub struct MtbfRow {
    /// The design name ("REINIT-FTI", ...).
    pub design: String,
    /// The node MTBF in iterations.
    pub node_mtbf_iterations: u32,
    /// Average failure events per run.
    pub failures: f64,
    /// Average global restarts per run.
    pub restarts: f64,
    /// Application time, seconds of virtual time.
    pub application: f64,
    /// Checkpoint-write time.
    pub checkpoint_write: f64,
    /// Recovery time.
    pub recovery: f64,
    /// Completion time of the with-failures run.
    pub total: f64,
    /// Failure-free completion time divided by `total` (1.0 = failures cost nothing).
    pub efficiency: f64,
}

/// The sweep result: a baseline per design plus one row per (design, MTBF) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct MtbfSweep {
    /// Figure title.
    pub title: String,
    /// The rows, ordered by design then descending MTBF.
    pub rows: Vec<MtbfRow>,
}

impl MtbfSweep {
    /// Renders the sweep as an aligned text table.
    pub fn to_table(&self) -> TextTable {
        let mut table = TextTable::new(vec![
            "Design",
            "Node MTBF (it)",
            "Failures",
            "Restarts",
            "Application (s)",
            "Write Checkpoints (s)",
            "Recovery (s)",
            "Total (s)",
            "Efficiency",
        ]);
        for row in &self.rows {
            table.add_row(vec![
                row.design.clone(),
                row.node_mtbf_iterations.to_string(),
                format!("{:.1}", row.failures),
                format!("{:.1}", row.restarts),
                secs(row.application),
                secs(row.checkpoint_write),
                secs(row.recovery),
                secs(row.total),
                format!("{:.3}", row.efficiency),
            ]);
        }
        table
    }

    /// Renders the title plus the table.
    pub fn render(&self) -> String {
        format!("{}\n{}", self.title, self.to_table().render())
    }

    /// The rows of one design, in ladder order.
    pub fn rows_for(&self, design: &str) -> Vec<&MtbfRow> {
        self.rows.iter().filter(|r| r.design == design).collect()
    }
}

/// Runs the MTBF sweep through `engine`.
///
/// # Errors
///
/// Surfaces the first failing cell as a [`SuiteError`].
pub fn mtbf_sweep(
    engine: &SuiteEngine,
    options: &MtbfSweepOptions,
) -> Result<MtbfSweep, SuiteError> {
    // Schedule every cell (baselines + ladder) as one wave so the worker pool
    // saturates once; the per-cell reports are then recalled from the cache.
    let designs = enabled_designs();
    let mut experiments = Vec::new();
    for &strategy in designs {
        let base = Experiment::new(options.app, options.input, options.nprocs, strategy)
            .with_options(&options.suite);
        experiments.push(base);
        for &mtbf in &options.node_mtbf_ladder {
            experiments.push(base.with_scenario(FailureScenario::Mtbf {
                node_mtbf_iterations: mtbf,
                node_crash_pct: options.node_crash_pct,
                rack_neighbor_pct: options.rack_neighbor_pct,
                recovery_window_pct: options.recovery_window_pct,
            }));
        }
    }
    let reports = engine.run_matrix(&experiments)?;

    let mut rows = Vec::new();
    let per_design = 1 + options.node_mtbf_ladder.len();
    for (d, strategy) in designs.iter().enumerate() {
        let baseline = &reports[d * per_design];
        let baseline_total = baseline.total_time.as_secs();
        for (i, &mtbf) in options.node_mtbf_ladder.iter().enumerate() {
            let report = &reports[d * per_design + 1 + i];
            let reps = experiments[d * per_design + 1 + i].repetitions.max(1) as f64;
            let total = report.total_time.as_secs();
            rows.push(MtbfRow {
                design: strategy.design_name().to_string(),
                node_mtbf_iterations: mtbf,
                failures: report.failure_events as f64 / reps,
                restarts: report.restarts as f64 / reps,
                application: report.application_time().as_secs(),
                checkpoint_write: report.checkpoint_time().as_secs(),
                recovery: report.recovery_time().as_secs(),
                total,
                efficiency: if total > 0.0 {
                    baseline_total / total
                } else {
                    1.0
                },
            });
        }
    }
    Ok(MtbfSweep {
        title: format!(
            "MTBF sweep: efficiency vs. node failure rate ({} / {} / {} ranks)",
            options.app.name(),
            options.input.name(),
            options.nprocs
        ),
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_sweep() -> MtbfSweepOptions {
        MtbfSweepOptions {
            app: ProxyKind::Hpccg,
            input: InputSize::Small,
            nprocs: 4,
            node_mtbf_ladder: vec![64, 16],
            node_crash_pct: 0,
            rack_neighbor_pct: 0,
            recovery_window_pct: 0,
            suite: SuiteOptions::smoke(),
        }
    }

    #[test]
    fn sweep_produces_rows_per_design_and_rung() {
        let engine = SuiteEngine::with_jobs(2);
        let sweep = mtbf_sweep(&engine, &tiny_sweep()).unwrap();
        assert_eq!(sweep.rows.len(), 4 * 2);
        for design in crate::designs::enabled_design_names() {
            assert_eq!(
                sweep.rows_for(design).len(),
                2,
                "{design} missing from the sweep"
            );
        }
        for row in &sweep.rows {
            assert!(row.total > 0.0);
            assert!(row.efficiency > 0.0 && row.efficiency <= 1.0 + 1e-9);
        }
        let text = sweep.render();
        assert!(text.contains("Efficiency"));
        assert_eq!(sweep.rows_for("REINIT-FTI").len(), 2);
    }

    #[test]
    fn shorter_mtbf_means_more_failures_and_lower_efficiency() {
        // A ladder with a strong contrast: at node MTBF 4096 the smoke-scale run sees
        // no failure at all, at 8 it sees several per run.
        let engine = SuiteEngine::with_jobs(2);
        let sweep = mtbf_sweep(&engine, &tiny_sweep().with_ladder(vec![4096, 8])).unwrap();
        for design in ["RESTART-FTI", "ULFM-FTI", "REINIT-FTI"] {
            let rows = sweep.rows_for(design);
            assert!(
                rows[1].failures > rows[0].failures,
                "{design}: shorter MTBF must fail more ({} vs {})",
                rows[1].failures,
                rows[0].failures
            );
            assert!(
                rows[0].efficiency > rows[1].efficiency,
                "{design}: efficiency must drop as MTBF shrinks ({} vs {})",
                rows[0].efficiency,
                rows[1].efficiency
            );
        }
        // The designs separate by recovery cost at the failure-heavy end.
        let at8 = |d: &str| sweep.rows_for(d)[1].efficiency;
        assert!(at8("REINIT-FTI") > at8("ULFM-FTI"));
        assert!(at8("ULFM-FTI") > at8("RESTART-FTI"));
    }

    #[test]
    fn rerunning_the_sweep_hits_the_cache() {
        let engine = SuiteEngine::with_jobs(2);
        let first = mtbf_sweep(&engine, &tiny_sweep()).unwrap();
        let misses = engine.cache_stats().misses;
        let second = mtbf_sweep(&engine, &tiny_sweep()).unwrap();
        assert_eq!(first, second, "cached rerun must be verbatim");
        assert_eq!(
            engine.cache_stats().misses,
            misses,
            "second sweep recomputes nothing"
        );
    }
}
