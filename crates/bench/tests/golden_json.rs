//! Golden bytes of every JSON document the suite emits.
//!
//! CI `cmp`s the `--json` dumps across job counts and backends, and the committed
//! replay fixture must stay readable, so the exact bytes of each emitter are part
//! of its contract. Each test renders a small fixed value (including an empty
//! row array) and compares it with the bytes the emitter produced when the test
//! was written.

use match_bench::{figure_to_json, mtbf_to_json};
use match_core::findings::Findings;
use match_core::fti::CheckpointLevel;
use match_core::mpisim::FailureSpec;
use match_core::mtbf::{MtbfRow, MtbfSweep};
use match_core::proxies::ProxyKind;
use match_core::recovery::RecoveryStrategy;
use match_core::{FigureData, FigureRow};
use match_explorer::genome::TraceGenome;
use match_explorer::replay::to_artifact;
use match_explorer::report::DesignSummary;
use match_explorer::{ExploreReport, Property, Violation};

#[test]
fn figure_json_bytes_are_pinned() {
    let data = FigureData {
        title: "Figure 6 \u{2014} a \"quoted\" title with a \\ and it's\ttabbed\n".into(),
        with_failure: true,
        rows: vec![
            FigureRow {
                app: ProxyKind::Hpccg,
                group: "4".into(),
                design: "RESTART-FTI".into(),
                application: 1.5,
                checkpoint_write: 0.1 + 0.2,
                recovery: 0.0,
            },
            FigureRow {
                app: ProxyKind::MiniVite,
                group: "Small".into(),
                design: "SHRINK-FTI".into(),
                application: 1e21,
                checkpoint_write: 1e-7,
                recovery: 2.0,
            },
        ],
    };
    assert_eq!(
        figure_to_json(&data),
        r#"{
  "title": "Figure 6 — a \"quoted\" title with a \\ and it's\ttabbed\n",
  "with_failure": true,
  "rows": [
    {"app": "HPCCG", "group": "4", "design": "RESTART-FTI", "application": 1.5, "checkpoint_write": 0.30000000000000004, "recovery": 0},
    {"app": "miniVite", "group": "Small", "design": "SHRINK-FTI", "application": 1000000000000000000000, "checkpoint_write": 0.0000001, "recovery": 2}
  ]
}
"#
    );
    let empty = FigureData {
        title: "Figure 5".into(),
        with_failure: false,
        rows: Vec::new(),
    };
    assert_eq!(
        figure_to_json(&empty),
        "{\n  \"title\": \"Figure 5\",\n  \"with_failure\": false,\n  \"rows\": [\n  ]\n}\n"
    );
}

#[test]
fn mtbf_json_bytes_are_pinned() {
    let sweep = MtbfSweep {
        title: "MTBF sweep: HPCCG at 4 ranks".into(),
        rows: vec![MtbfRow {
            design: "REINIT-FTI".into(),
            node_mtbf_iterations: 16,
            failures: 0.5,
            restarts: 1.0,
            application: 12.625,
            checkpoint_write: 0.125,
            recovery: 0.75,
            total: 13.5,
            efficiency: 0.9259259259259259,
        }],
    };
    assert_eq!(
        mtbf_to_json(&sweep),
        r#"{
  "title": "MTBF sweep: HPCCG at 4 ranks",
  "rows": [
    {"design": "REINIT-FTI", "node_mtbf_iterations": 16, "failures": 0.5, "restarts": 1, "application": 12.625, "checkpoint_write": 0.125, "recovery": 0.75, "total": 13.5, "efficiency": 0.9259259259259259}
  ]
}
"#
    );
    let empty = MtbfSweep {
        title: "MTBF sweep".into(),
        rows: Vec::new(),
    };
    assert_eq!(
        mtbf_to_json(&empty),
        "{\n  \"title\": \"MTBF sweep\",\n  \"rows\": [\n  ]\n}\n"
    );
}

#[test]
fn findings_json_bytes_are_pinned() {
    let findings = Findings {
        ulfm_over_reinit_avg: 3.96,
        ulfm_over_reinit_max: 7.0,
        restart_over_reinit_avg: 10.8,
        restart_over_reinit_max: 11.0,
        restart_over_ulfm_avg: 3.5,
        checkpoint_fraction_avg: 0.0018,
        ulfm_app_inflation_avg: 1.0 / 3.0,
        shrink_over_reinit_avg: 2.25,
    };
    let paper_rows = r#"{
  "title": "Section V-C findings",
  "rows": [
    {"name": "ULFM recovery / Reinit recovery (avg)", "paper": "4x", "simulated": 3.96, "unit": "x"},
    {"name": "ULFM recovery / Reinit recovery (max)", "paper": "13x", "simulated": 7, "unit": "x"},
    {"name": "Restart recovery / Reinit recovery (avg)", "paper": "16x", "simulated": 10.8, "unit": "x"},
    {"name": "Restart recovery / Reinit recovery (max)", "paper": "22x", "simulated": 11, "unit": "x"},
    {"name": "Restart recovery / ULFM recovery (avg)", "paper": "2-3x", "simulated": 3.5, "unit": "x"},
    {"name": "Checkpoint write share of total time", "paper": "~13%", "simulated": 0.18, "unit": "%"},
    {"name": "ULFM application-time inflation vs. baseline", "paper": "grows with scale", "simulated": 0.3333333333333333, "unit": "x"}"#;
    assert_eq!(
        findings.to_json(),
        format!(
            "{paper_rows},\n    {{\"name\": \"Shrink recovery / Reinit recovery (avg)\", \
             \"paper\": \"beyond the paper\", \"simulated\": 2.25, \"unit\": \"x\"}}\n  ]\n}}\n"
        )
    );
    // Without SHRINK-FTI rows (MATCH_SHRINK=0) the Shrink finding is absent, as in
    // the table.
    let paper_designs = Findings {
        shrink_over_reinit_avg: 0.0,
        ..findings
    };
    assert_eq!(paper_designs.to_json(), format!("{paper_rows}\n  ]\n}}\n"));
}

#[test]
fn explore_report_json_bytes_are_pinned() {
    let report = ExploreReport {
        nprocs: 8,
        iterations: 12,
        budget: 48,
        seed: 20,
        designs: vec![
            DesignSummary {
                design: "RESTART-FTI".into(),
                paths: vec!["L1".into(), "L3-decode(2)".into(), "fresh".into()],
                runs: 48,
                dead_ends: 0,
                violations: 1,
            },
            DesignSummary {
                design: "SHRINK-FTI".into(),
                paths: Vec::new(),
                runs: 48,
                dead_ends: 3,
                violations: 0,
            },
        ],
    };
    assert_eq!(
        report.to_json(),
        r#"{
  "nprocs": 8,
  "iterations": 12,
  "budget": 48,
  "seed": 20,
  "designs": [
    {"design": "RESTART-FTI", "runs": 48, "dead_ends": 0, "violations": 1, "paths": ["L1", "L3-decode(2)", "fresh"]},
    {"design": "SHRINK-FTI", "runs": 48, "dead_ends": 3, "violations": 0, "paths": []}
  ]
}
"#
    );
    let empty = ExploreReport {
        designs: Vec::new(),
        ..report
    };
    assert_eq!(
        empty.to_json(),
        "{\n  \"nprocs\": 8,\n  \"iterations\": 12,\n  \"budget\": 48,\n  \"seed\": 20,\n  \
         \"designs\": [\n  ]\n}\n"
    );
}

#[test]
fn artifact_bytes_are_pinned() {
    let mut genome = TraceGenome::baseline(8, 4);
    genome.level = CheckpointLevel::L2;
    genome.events = vec![
        FailureSpec::crash_node(0, 4),
        FailureSpec::kill_process(3, 2),
    ];
    let violation = Violation {
        strategy: RecoveryStrategy::Restart,
        property: Property::AssertLabel,
        assert_label: Some("L2-partner".into()),
        genome,
        labels: vec!["fresh".into(), "L2-partner".into()],
        detail: "reached a path labelled *L2-partner*: fresh L2-partner".into(),
    };
    assert_eq!(
        to_artifact(&violation),
        r#"{
  "version": 1,
  "design": "RESTART-FTI",
  "property": "assert-label",
  "assert": "L2-partner",
  "nprocs": 8,
  "iterations": 4,
  "level": 2,
  "interval": 3,
  "events": [
    {"kind": "node", "victim": 0, "iteration": 4},
    {"kind": "kill", "victim": 3, "iteration": 2}
  ],
  "labels": ["fresh", "L2-partner"],
  "detail": "reached a path labelled *L2-partner*: fresh L2-partner"
}
"#
    );
    let bare = Violation {
        strategy: RecoveryStrategy::Shrink,
        property: Property::Oracle,
        assert_label: None,
        genome: TraceGenome::baseline(4, 6),
        labels: Vec::new(),
        detail: String::new(),
    };
    assert_eq!(
        to_artifact(&bare),
        r#"{
  "version": 1,
  "design": "SHRINK-FTI",
  "property": "oracle",
  "nprocs": 4,
  "iterations": 6,
  "level": 1,
  "interval": 3,
  "events": [
  ],
  "labels": [],
  "detail": ""
}
"#
    );
}
