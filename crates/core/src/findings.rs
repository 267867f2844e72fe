//! The headline findings of Section V-C, derived from figure data.
//!
//! The paper reports, averaged over its with-failure runs:
//!
//! * ULFM recovery is up to 13× (4× on average) slower than Reinit recovery;
//! * Restart recovery is up to 22× (16× on average) slower than Reinit recovery;
//! * Restart recovery is 2–3× slower than ULFM recovery;
//! * checkpoint writing accounts for about 13% of the total execution time;
//! * ULFM delays application execution even without failures, Reinit does not.

use crate::engine::{SuiteEngine, SuiteError};
use crate::figures::{Figure, FigureData};
use crate::json;
use crate::matrix::MatrixOptions;
use crate::table::TextTable;

/// Aggregated comparison ratios between the three designs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Findings {
    /// Average of ULFM recovery time / Reinit recovery time over all cells.
    pub ulfm_over_reinit_avg: f64,
    /// Maximum of ULFM recovery time / Reinit recovery time.
    pub ulfm_over_reinit_max: f64,
    /// Average of Restart recovery time / Reinit recovery time.
    pub restart_over_reinit_avg: f64,
    /// Maximum of Restart recovery time / Reinit recovery time.
    pub restart_over_reinit_max: f64,
    /// Average of Restart recovery time / ULFM recovery time.
    pub restart_over_ulfm_avg: f64,
    /// Average fraction of total time spent writing checkpoints (over all cells).
    pub checkpoint_fraction_avg: f64,
    /// Average of ULFM application time / Restart (baseline) application time: the
    /// application-execution inflation caused by ULFM's background work.
    pub ulfm_app_inflation_avg: f64,
    /// Average of Shrink recovery time / Reinit recovery time (0.0 when the figure
    /// carries no `SHRINK-FTI` rows, e.g. under `MATCH_SHRINK=0`). Beyond the
    /// paper: shrinking pays revoke + shrink + agree plus the data redistribution,
    /// but never a respawn or a job relaunch.
    pub shrink_over_reinit_avg: f64,
}

impl Findings {
    /// Regenerates the Fig. 6 matrix through `engine` and derives the findings from
    /// it. When the engine already ran Fig. 6 (or Fig. 7, which shares every cell),
    /// this recomputes nothing: all cells are answered from the result cache.
    pub fn compute(engine: &SuiteEngine, options: &MatrixOptions) -> Result<Findings, SuiteError> {
        Ok(Findings::from_figure(
            &Figure::Fig6.generate(engine, options)?,
        ))
    }

    /// Derives the findings from with-failure figure data (Fig. 6/7 or Fig. 9/10
    /// style). Cells are matched by (application, group).
    ///
    /// # Panics
    ///
    /// Panics if the figure does not contain the paper's three designs for some
    /// cell. `SHRINK-FTI` rows are aggregated when present (they are absent under
    /// `MATCH_SHRINK=0`).
    pub fn from_figure(data: &FigureData) -> Findings {
        let mut ulfm_ratio = Vec::new();
        let mut restart_ratio = Vec::new();
        let mut restart_over_ulfm = Vec::new();
        let mut shrink_ratio = Vec::new();
        let mut ckpt_fraction = Vec::new();
        let mut app_inflation = Vec::new();

        let mut cells: std::collections::BTreeMap<
            (String, String),
            [Option<&crate::figures::FigureRow>; 4],
        > = std::collections::BTreeMap::new();
        for row in &data.rows {
            let entry = cells
                .entry((row.app.name().to_string(), row.group.clone()))
                .or_default();
            match row.design.as_str() {
                "RESTART-FTI" => entry[0] = Some(row),
                "ULFM-FTI" => entry[1] = Some(row),
                "REINIT-FTI" => entry[2] = Some(row),
                "SHRINK-FTI" => entry[3] = Some(row),
                other => panic!("unknown design {other}"),
            }
        }
        for ((app, group), designs) in &cells {
            let restart =
                designs[0].unwrap_or_else(|| panic!("missing RESTART-FTI for {app}/{group}"));
            let ulfm = designs[1].unwrap_or_else(|| panic!("missing ULFM-FTI for {app}/{group}"));
            let reinit =
                designs[2].unwrap_or_else(|| panic!("missing REINIT-FTI for {app}/{group}"));
            let shrink = designs[3];
            if data.with_failure && reinit.recovery > 0.0 {
                ulfm_ratio.push(ulfm.recovery / reinit.recovery);
                restart_ratio.push(restart.recovery / reinit.recovery);
                if ulfm.recovery > 0.0 {
                    restart_over_ulfm.push(restart.recovery / ulfm.recovery);
                }
                if let Some(shrink) = shrink {
                    shrink_ratio.push(shrink.recovery / reinit.recovery);
                }
            }
            for row in [Some(restart), Some(ulfm), Some(reinit), shrink]
                .into_iter()
                .flatten()
            {
                if row.total() > 0.0 {
                    ckpt_fraction.push(row.checkpoint_write / row.total());
                }
            }
            if restart.application > 0.0 {
                app_inflation.push(ulfm.application / restart.application);
            }
        }

        let avg = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        let max = |v: &[f64]| v.iter().copied().fold(0.0f64, f64::max);

        Findings {
            ulfm_over_reinit_avg: avg(&ulfm_ratio),
            ulfm_over_reinit_max: max(&ulfm_ratio),
            restart_over_reinit_avg: avg(&restart_ratio),
            restart_over_reinit_max: max(&restart_ratio),
            restart_over_ulfm_avg: avg(&restart_over_ulfm),
            checkpoint_fraction_avg: avg(&ckpt_fraction),
            ulfm_app_inflation_avg: avg(&app_inflation),
            shrink_over_reinit_avg: avg(&shrink_ratio),
        }
    }

    /// The rows of [`Findings::to_table`] and [`Findings::to_json`]: each
    /// finding's [`ROWS`] entry and simulated value, the Shrink ratio only when
    /// the figure carried `SHRINK-FTI` rows.
    fn rows(&self) -> impl Iterator<Item = (FindingRow, f64)> {
        let values = [
            self.ulfm_over_reinit_avg,
            self.ulfm_over_reinit_max,
            self.restart_over_reinit_avg,
            self.restart_over_reinit_max,
            self.restart_over_ulfm_avg,
            self.checkpoint_fraction_avg * 100.0,
            self.ulfm_app_inflation_avg,
            self.shrink_over_reinit_avg,
        ];
        let shown = ROWS.len() - 1 + usize::from(self.shrink_over_reinit_avg > 0.0);
        ROWS.into_iter().zip(values).take(shown)
    }

    /// Renders the findings next to the paper's reported values.
    pub fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(vec!["Finding", "Paper", "Measured"]);
        for ((name, paper, unit, decimals), value) in self.rows() {
            t.add_row(vec![
                name.to_string(),
                paper.to_string(),
                format!("{value:.decimals$}{unit}"),
            ]);
        }
        t
    }

    /// Serializes the rows of [`Findings::to_table`] into canonical JSON (the
    /// [`json::document`] layout of the figure dumps): per finding its name, the
    /// paper's value, the simulated value at full precision and its unit (`x` for
    /// a ratio, `%` for a share).
    pub fn to_json(&self) -> String {
        let rows = json::rows(self.rows().map(|((name, paper, unit, _), value)| {
            json::row(&[
                ("name", &json::string(name)),
                ("paper", &json::string(paper)),
                ("simulated", &value),
                ("unit", &json::string(unit)),
            ])
        }));
        json::document(&[
            ("title", &json::string("Section V-C findings")),
            ("rows", &rows),
        ])
    }
}

/// A finding's name, the paper's value as the paper states it, the unit of the
/// simulated value and the decimals the table shows.
type FindingRow = (&'static str, &'static str, &'static str, usize);

/// Every finding, in table order (the last, Shrink, only with `SHRINK-FTI` rows).
const ROWS: [FindingRow; 8] = [
    ("ULFM recovery / Reinit recovery (avg)", "4x", "x", 1),
    ("ULFM recovery / Reinit recovery (max)", "13x", "x", 1),
    ("Restart recovery / Reinit recovery (avg)", "16x", "x", 1),
    ("Restart recovery / Reinit recovery (max)", "22x", "x", 1),
    ("Restart recovery / ULFM recovery (avg)", "2-3x", "x", 1),
    ("Checkpoint write share of total time", "~13%", "%", 0),
    (
        "ULFM application-time inflation vs. baseline",
        "grows with scale",
        "x",
        2,
    ),
    (
        "Shrink recovery / Reinit recovery (avg)",
        "beyond the paper",
        "x",
        1,
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{FigureData, FigureRow};
    use proxies::ProxyKind;

    fn synthetic_figure() -> FigureData {
        let mut rows = Vec::new();
        for (design, app_time, recovery) in [
            ("RESTART-FTI", 10.0, 10.0),
            ("ULFM-FTI", 12.0, 4.0),
            ("REINIT-FTI", 10.0, 1.0),
        ] {
            rows.push(FigureRow {
                app: ProxyKind::Hpccg,
                group: "64".to_string(),
                design: design.to_string(),
                application: app_time,
                checkpoint_write: 1.5,
                recovery,
            });
        }
        FigureData {
            title: "synthetic".into(),
            with_failure: true,
            rows,
        }
    }

    #[test]
    fn ratios_from_synthetic_data() {
        let f = Findings::from_figure(&synthetic_figure());
        assert!((f.ulfm_over_reinit_avg - 4.0).abs() < 1e-9);
        assert!((f.restart_over_reinit_avg - 10.0).abs() < 1e-9);
        assert!((f.restart_over_ulfm_avg - 2.5).abs() < 1e-9);
        assert!((f.ulfm_app_inflation_avg - 1.2).abs() < 1e-9);
        assert!(f.checkpoint_fraction_avg > 0.0 && f.checkpoint_fraction_avg < 1.0);
        // Without SHRINK-FTI rows (the MATCH_SHRINK=0 shape) the shrink ratio is
        // absent from the numbers and the table alike.
        assert_eq!(f.shrink_over_reinit_avg, 0.0);
        let table = f.to_table().render();
        assert!(table.contains("Paper"));
        assert!(table.contains("4.0x"));
        assert!(!table.contains("Shrink recovery"));
    }

    #[test]
    fn shrink_rows_feed_the_shrink_ratio_when_present() {
        let mut data = synthetic_figure();
        data.rows.push(FigureRow {
            app: ProxyKind::Hpccg,
            group: "64".to_string(),
            design: "SHRINK-FTI".to_string(),
            application: 11.0,
            checkpoint_write: 1.5,
            recovery: 2.0,
        });
        let f = Findings::from_figure(&data);
        assert!((f.shrink_over_reinit_avg - 2.0).abs() < 1e-9);
        // The paper ratios are untouched by the extra design.
        assert!((f.ulfm_over_reinit_avg - 4.0).abs() < 1e-9);
        let table = f.to_table().render();
        assert!(table.contains("Shrink recovery / Reinit recovery"));
        assert!(table.contains("2.0x"));
    }

    #[test]
    #[should_panic]
    fn missing_design_panics() {
        let mut data = synthetic_figure();
        data.rows.retain(|r| r.design != "ULFM-FTI");
        let _ = Findings::from_figure(&data);
    }
}
