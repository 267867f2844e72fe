//! Figure generators: the data series behind Figs. 5–10 of the paper.
//!
//! Each figure runs the relevant experiment matrix and produces a [`FigureData`]
//! whose rows carry the same quantities the paper's stacked bars show: the application
//! time, the checkpoint-write time and (for the with-failure figures) the MPI recovery
//! time, for every (application, group, design) combination. `group` is the process
//! count for the scaling figures and the input size for the input-size figures.
//!
//! A figure is a [`Figure`] value and [`Figure::generate`] runs it on the
//! [`SuiteEngine`] the caller passes in. Figures generated on one engine share its
//! result cache, so overlapping figures (Fig. 7 after Fig. 6, Fig. 10 after Fig. 9,
//! the findings after Fig. 6 or 7) are answered without simulating again.

use proxies::ProxyKind;

use crate::engine::{SuiteEngine, SuiteError};
use crate::matrix::{input_size_matrix, scaling_matrix, MatrixOptions};
use crate::table::{secs, TextTable};

/// One row of a figure: one (application, group, design) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureRow {
    /// The proxy application.
    pub app: ProxyKind,
    /// The group label (process count for Figs. 5–7, input size for Figs. 8–10).
    pub group: String,
    /// The fault-tolerance design name ("RESTART-FTI", ...).
    pub design: String,
    /// Application execution time (seconds of virtual time).
    pub application: f64,
    /// Checkpoint-write time.
    pub checkpoint_write: f64,
    /// MPI recovery time (zero in the failure-free figures).
    pub recovery: f64,
}

impl FigureRow {
    /// The stacked-bar total.
    pub fn total(&self) -> f64 {
        self.application + self.checkpoint_write + self.recovery
    }
}

/// A figure: a title plus its rows.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureData {
    /// Figure title (e.g. "Figure 5: execution time breakdown, no failures").
    pub title: String,
    /// Whether the recovery column is meaningful for this figure.
    pub with_failure: bool,
    /// The rows, ordered by application, then group, then design.
    pub rows: Vec<FigureRow>,
}

impl FigureData {
    /// Renders the figure as an aligned text table (the textual equivalent of the
    /// paper's stacked bars).
    pub fn to_table(&self) -> TextTable {
        let mut table = TextTable::new(vec![
            "Application",
            "Group",
            "Design",
            "Application (s)",
            "Write Checkpoints (s)",
            "Recovery (s)",
            "Total (s)",
        ]);
        for row in &self.rows {
            table.add_row(vec![
                row.app.name().to_string(),
                row.group.clone(),
                row.design.clone(),
                secs(row.application),
                secs(row.checkpoint_write),
                secs(row.recovery),
                secs(row.total()),
            ]);
        }
        table
    }

    /// Renders the title plus the table.
    pub fn render(&self) -> String {
        format!("{}\n{}", self.title, self.to_table().render())
    }

    /// The rows belonging to one application.
    pub fn rows_for(&self, app: ProxyKind) -> Vec<&FigureRow> {
        self.rows.iter().filter(|r| r.app == app).collect()
    }
}

/// One figure of the paper's evaluation. Each variant fixes the figure's title, the
/// matrix it runs, how its rows are grouped and whether it injects a failure; every
/// caller generates it through [`Figure::generate`] on the engine it passes in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Figure {
    /// Execution-time breakdown across scaling sizes, **no failures**.
    Fig5,
    /// Execution-time breakdown across scaling sizes, **with one process failure**.
    Fig6,
    /// MPI recovery time across scaling sizes: the Fig. 6 runs, reported for their
    /// recovery component only (so with a shared engine it costs no simulation).
    Fig7,
    /// Execution-time breakdown across input sizes, no failures.
    Fig8,
    /// Execution-time breakdown across input sizes, with one process failure.
    Fig9,
    /// MPI recovery time across input sizes: the Fig. 9 runs, recovery only.
    Fig10,
}

impl Figure {
    /// Every figure, in the paper's order.
    pub const ALL: [Figure; 6] = [
        Figure::Fig5,
        Figure::Fig6,
        Figure::Fig7,
        Figure::Fig8,
        Figure::Fig9,
        Figure::Fig10,
    ];

    /// The figure's short name, which is also its `match-bench` target (`"fig5"`…).
    pub fn name(self) -> &'static str {
        match self {
            Figure::Fig5 => "fig5",
            Figure::Fig6 => "fig6",
            Figure::Fig7 => "fig7",
            Figure::Fig8 => "fig8",
            Figure::Fig9 => "fig9",
            Figure::Fig10 => "fig10",
        }
    }

    /// The figure named `name` (see [`Figure::name`]), if there is one.
    pub fn from_name(name: &str) -> Option<Figure> {
        Figure::ALL.into_iter().find(|f| f.name() == name)
    }

    /// Whether the paper plots only the recovery component of this figure (Figs. 7
    /// and 10).
    pub fn recovery_only(self) -> bool {
        matches!(self, Figure::Fig7 | Figure::Fig10)
    }

    /// Runs the figure's matrix through `engine` and collects one row per cell.
    /// `group` is the process count for the scaling figures (5–7) and the input size
    /// for the input-size figures (8–10).
    ///
    /// # Errors
    ///
    /// Surfaces the first failing cell as a [`SuiteError`].
    pub fn generate(
        self,
        engine: &SuiteEngine,
        options: &MatrixOptions,
    ) -> Result<FigureData, SuiteError> {
        let (title, scaling, with_failure) = match self {
            Figure::Fig5 => (
                "Figure 5: execution time breakdown across scaling sizes (no process failures)",
                true,
                false,
            ),
            Figure::Fig6 => (
                "Figure 6: execution time breakdown recovering from a process failure across scaling sizes",
                true,
                true,
            ),
            Figure::Fig7 => (
                "Figure 7: recovery time for different scaling sizes",
                true,
                true,
            ),
            Figure::Fig8 => (
                "Figure 8: execution time breakdown across input problem sizes (no process failures)",
                false,
                false,
            ),
            Figure::Fig9 => (
                "Figure 9: execution time breakdown recovering from a process failure across input problem sizes",
                false,
                true,
            ),
            Figure::Fig10 => (
                "Figure 10: recovery time for different input problem sizes",
                false,
                true,
            ),
        };
        let experiments = if scaling {
            scaling_matrix(options, with_failure)
        } else {
            input_size_matrix(options, with_failure)
        };
        let reports = engine.run_matrix(&experiments)?;
        let rows = experiments
            .iter()
            .zip(&reports)
            .map(|(e, report)| FigureRow {
                app: e.app,
                group: if scaling {
                    e.nprocs.to_string()
                } else {
                    e.input.name().to_string()
                },
                design: e.strategy.design_name().to_string(),
                application: report.application_time().as_secs(),
                checkpoint_write: report.checkpoint_time().as_secs(),
                recovery: report.recovery_time().as_secs(),
            })
            .collect();
        Ok(FigureData {
            title: title.to_string(),
            with_failure,
            rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::SuiteOptions;
    use proxies::registry::ExecutionScale;

    fn tiny_options() -> MatrixOptions {
        MatrixOptions::laptop()
            .with_apps(vec![ProxyKind::Hpccg])
            .with_process_counts(vec![2, 4])
    }

    #[test]
    fn every_figure_name_round_trips_and_nothing_else_parses() {
        for figure in Figure::ALL {
            assert_eq!(Figure::from_name(figure.name()), Some(figure));
        }
        for name in ["", "fig4", "fig11", "Fig5", "fig 5", "table1", "findings"] {
            assert_eq!(Figure::from_name(name), None, "{name:?}");
        }
        let recovery: Vec<Figure> = Figure::ALL
            .into_iter()
            .filter(|f| f.recovery_only())
            .collect();
        assert_eq!(recovery, [Figure::Fig7, Figure::Fig10]);
    }

    #[test]
    fn fig5_rows_cover_all_designs_and_groups() {
        let data = Figure::Fig5
            .generate(&SuiteEngine::serial(), &tiny_options())
            .unwrap();
        assert_eq!(data.rows.len(), 2 * 4);
        assert!(!data.with_failure);
        for row in &data.rows {
            assert!(row.application > 0.0);
            assert!(row.checkpoint_write > 0.0);
            assert_eq!(row.recovery, 0.0);
            assert!(row.total() > row.application);
        }
        let text = data.render();
        assert!(text.contains("Figure 5"));
        assert!(text.contains("REINIT-FTI"));
        assert!(text.contains("SHRINK-FTI"));
        assert_eq!(data.rows_for(ProxyKind::Hpccg).len(), 8);
    }

    #[test]
    fn no_figure_silently_drops_a_registry_design() {
        // The registry is the single source of the design axis: every
        // (application, group) cell of every figure must carry every enabled
        // design. A generator that enumerated a hardcoded subset would fail here.
        let expected: Vec<&str> = crate::designs::enabled_design_names();
        let engine = SuiteEngine::serial();
        let options = tiny_options();
        for figure in [Figure::Fig5, Figure::Fig6, Figure::Fig7] {
            let data = figure.generate(&engine, &options).unwrap();
            let mut cells: std::collections::BTreeMap<(String, String), Vec<&str>> =
                std::collections::BTreeMap::new();
            for row in &data.rows {
                cells
                    .entry((row.app.name().to_string(), row.group.clone()))
                    .or_default()
                    .push(row.design.as_str());
            }
            assert!(!cells.is_empty());
            for ((app, group), designs) in &cells {
                assert_eq!(
                    designs, &expected,
                    "{}: cell {app}/{group} dropped a design",
                    data.title
                );
            }
        }
    }

    #[test]
    fn fig7_recovery_orders_designs_correctly() {
        let data = Figure::Fig7
            .generate(&SuiteEngine::serial(), &tiny_options())
            .unwrap();
        for group in ["2", "4"] {
            let get = |design: &str| {
                data.rows
                    .iter()
                    .find(|r| r.group == group && r.design == design)
                    .map(|r| r.recovery)
                    .unwrap()
            };
            let restart = get("RESTART-FTI");
            let ulfm = get("ULFM-FTI");
            let reinit = get("REINIT-FTI");
            let shrink = get("SHRINK-FTI");
            assert!(reinit > 0.0);
            assert!(
                shrink > 0.0 && shrink < restart,
                "group {group}: shrink {shrink} must cost recovery but never a relaunch"
            );
            assert!(
                reinit < ulfm,
                "group {group}: reinit {reinit} !< ulfm {ulfm}"
            );
            assert!(
                ulfm < restart,
                "group {group}: ulfm {ulfm} !< restart {restart}"
            );
        }
    }

    #[test]
    fn fig8_groups_by_input_size() {
        let options = MatrixOptions {
            process_counts: vec![2],
            default_procs: 2,
            apps: vec![ProxyKind::MiniVite],
            suite: SuiteOptions {
                scale: ExecutionScale::smoke(),
                ..SuiteOptions::smoke()
            },
        };
        let data = Figure::Fig8
            .generate(&SuiteEngine::serial(), &options)
            .unwrap();
        assert_eq!(data.rows.len(), 3 * 4);
        let groups: std::collections::BTreeSet<_> =
            data.rows.iter().map(|r| r.group.clone()).collect();
        assert_eq!(groups.len(), 3);
        assert!(groups.contains("Small") && groups.contains("Medium") && groups.contains("Large"));
    }

    #[test]
    fn fig6_then_fig7_reuses_every_run() {
        let engine = SuiteEngine::with_jobs(2);
        let options = tiny_options();
        let fig6 = Figure::Fig6.generate(&engine, &options).unwrap();
        let after_fig6 = engine.cache_stats();
        assert_eq!(after_fig6.hits, 0);
        assert_eq!(after_fig6.misses as usize, fig6.rows.len());
        let fig7 = Figure::Fig7.generate(&engine, &options).unwrap();
        let after_fig7 = engine.cache_stats();
        assert_eq!(
            after_fig7.misses, after_fig6.misses,
            "fig7 recomputes nothing"
        );
        assert_eq!(
            after_fig7.hits as usize,
            fig7.rows.len(),
            "fig7 is all cache hits"
        );
        // And the shared cells carry identical numbers.
        for (a, b) in fig6.rows.iter().zip(&fig7.rows) {
            assert_eq!(a.recovery, b.recovery);
        }
    }

    #[test]
    fn recovery_figures_are_all_cache_hits_after_their_source_figures() {
        let engine = SuiteEngine::with_jobs(2);
        let options = tiny_options();
        for (source, recovery) in [(Figure::Fig6, Figure::Fig7), (Figure::Fig9, Figure::Fig10)] {
            let full = source.generate(&engine, &options).unwrap();
            let before = engine.cache_stats();
            let data = recovery.generate(&engine, &options).unwrap();
            let after = engine.cache_stats();
            assert_eq!(
                after.misses,
                before.misses,
                "{} recomputes nothing",
                recovery.name()
            );
            assert_eq!(
                (after.hits - before.hits) as usize,
                data.rows.len(),
                "{} is all cache hits",
                recovery.name()
            );
            assert_eq!(full.rows.len(), data.rows.len());
            for (a, b) in full.rows.iter().zip(&data.rows) {
                assert_eq!(a.recovery, b.recovery);
            }
        }
    }
}
