//! The coverage report: which recovery paths each design reached.
//!
//! Everything here is built from ordered containers and rendered with explicit
//! formatting, so the text table and the canonical JSON are byte-identical across
//! `MATCH_JOBS`, scheduler backends and worker counts — the CI explore-smoke job
//! diffs exactly these bytes.

use match_core::json;

/// Per-design coverage summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignSummary {
    /// The design name (`"RESTART-FTI"`, …).
    pub design: String,
    /// Every distinct recovery-path label reached, sorted.
    pub paths: Vec<String>,
    /// Traces evaluated (the per-design budget).
    pub runs: u32,
    /// Traces whose run failed outright (dead ends, not kept).
    pub dead_ends: u32,
    /// Property violations found (each shrunk to a minimal reproducer).
    pub violations: u32,
}

/// The explorer's result: the per-design recovery-path coverage matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreReport {
    /// Ranks per explored trace.
    pub nprocs: usize,
    /// Main-loop iterations per trace.
    pub iterations: u64,
    /// Traces evaluated per design.
    pub budget: u32,
    /// The mutation RNG seed.
    pub seed: u64,
    /// Per-design summaries, in design-registry order.
    pub designs: Vec<DesignSummary>,
}

impl ExploreReport {
    /// The sorted union of every reached path label.
    pub fn all_paths(&self) -> Vec<String> {
        let mut union: Vec<String> = self
            .designs
            .iter()
            .flat_map(|d| d.paths.iter().cloned())
            .collect();
        union.sort();
        union.dedup();
        union
    }

    /// The human-readable coverage matrix: one row per path label, one column per
    /// design.
    pub fn render(&self) -> String {
        let paths = self.all_paths();
        let width = paths
            .iter()
            .map(|p| p.len())
            .max()
            .unwrap_or(4)
            .max("path".len());
        let mut out = String::new();
        out.push_str(&format!(
            "fault-space coverage: {} ranks, {} iterations, budget {} per design, seed {}\n",
            self.nprocs, self.iterations, self.budget, self.seed
        ));
        out.push_str(&format!("{:width$}", "path"));
        for d in &self.designs {
            out.push_str(&format!("  {}", d.design));
        }
        out.push('\n');
        for path in &paths {
            out.push_str(&format!("{path:width$}"));
            for d in &self.designs {
                let mark = if d.paths.iter().any(|p| p == path) {
                    "x"
                } else {
                    "-"
                };
                out.push_str(&format!("  {mark:^width$}", width = d.design.len()));
            }
            out.push('\n');
        }
        for d in &self.designs {
            out.push_str(&format!(
                "{}: {} distinct paths over {} runs ({} dead ends, {} violations)\n",
                d.design,
                d.paths.len(),
                d.runs,
                d.dead_ends,
                d.violations
            ));
        }
        out
    }

    /// Canonical JSON in the suite's [`json::document`] layout: stable key order,
    /// no float formatting involved — byte-identical exactly when the coverage is.
    pub fn to_json(&self) -> String {
        let designs = json::rows(self.designs.iter().map(|d| {
            json::row(&[
                ("design", &json::string(&d.design)),
                ("runs", &d.runs),
                ("dead_ends", &d.dead_ends),
                ("violations", &d.violations),
                ("paths", &json::strings(&d.paths)),
            ])
        }));
        json::document(&[
            ("nprocs", &self.nprocs),
            ("iterations", &self.iterations),
            ("budget", &self.budget),
            ("seed", &self.seed),
            ("designs", &designs),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ExploreReport {
        ExploreReport {
            nprocs: 8,
            iterations: 12,
            budget: 16,
            seed: 20,
            designs: vec![
                DesignSummary {
                    design: "RESTART-FTI".into(),
                    paths: vec!["L1".into(), "fresh".into()],
                    runs: 16,
                    dead_ends: 0,
                    violations: 0,
                },
                DesignSummary {
                    design: "SHRINK-FTI".into(),
                    paths: vec!["L1+shrink".into(), "fresh".into()],
                    runs: 16,
                    dead_ends: 1,
                    violations: 0,
                },
            ],
        }
    }

    #[test]
    fn matrix_unions_and_sorts_paths() {
        let r = report();
        assert_eq!(r.all_paths(), vec!["L1", "L1+shrink", "fresh"]);
        let text = r.render();
        assert!(text.contains("RESTART-FTI"));
        assert!(text.contains("L1+shrink"));
    }

    #[test]
    fn json_is_stable_and_lists_every_design() {
        let r = report();
        let a = r.to_json();
        assert_eq!(a, r.to_json());
        assert!(a.contains("\"design\": \"SHRINK-FTI\""));
        assert!(a.contains("\"paths\": [\"L1\", \"fresh\"]"));
    }
}
