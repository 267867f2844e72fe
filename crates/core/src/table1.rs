//! Table I: the experimentation configuration for the proxy applications.

use proxies::{InputSize, ProxyKind};

use crate::table::TextTable;

/// Builds the paper's Table I: one row per application with its small / medium /
/// large input arguments and the process counts it runs on.
pub fn table1() -> TextTable {
    let mut table = TextTable::new(vec![
        "Application",
        "Small Input",
        "Medium Input",
        "Large Input",
        "Number of processes",
    ]);
    for kind in ProxyKind::ALL {
        let procs = kind
            .process_counts()
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        table.add_row(vec![
            kind.name().to_string(),
            kind.table1_args(InputSize::Small).to_string(),
            kind.table1_args(InputSize::Medium).to_string(),
            kind.table1_args(InputSize::Large).to_string(),
            procs,
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_six_rows_and_matches_the_paper() {
        let t = table1();
        let text = t.render();
        // Header and separator plus six rows.
        assert_eq!(text.lines().count(), 8);
        assert!(text.contains("AMG"));
        assert!(text.contains("-problem 2 -n 60 60 60"));
        assert!(text.contains("-nx 512 -ny 512 -nz 512"));
        assert!(text.contains("-s 30 -p"));
        assert!(text.contains("-p 3 -l -n 512000"));
        // LULESH only runs on cube process counts.
        assert!(text.contains("64, 512"));
        assert!(text.contains("64, 128, 256, 512"));
    }
}
