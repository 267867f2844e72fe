//! End-to-end suite tests: run small experiment matrices through the public harness
//! API and check that the regenerated figures have the shapes the paper reports.

use match_core::findings::Findings;
use match_core::matrix::MatrixOptions;
use match_core::proxies::ProxyKind;
use match_core::table1::table1;
use match_core::{Figure, SuiteEngine};

fn tiny_options(apps: Vec<ProxyKind>, procs: Vec<usize>) -> MatrixOptions {
    MatrixOptions::laptop()
        .with_apps(apps)
        .with_process_counts(procs)
}

#[test]
fn table1_reproduces_the_paper_configuration() {
    let text = table1().render();
    for needle in [
        "AMG",
        "CoMD",
        "HPCCG",
        "LULESH",
        "miniFE",
        "miniVite",
        "-problem 2 -n 40 40 40",
        "-nx 256 -ny 256 -nz 256",
        "128 128 128",
        "-s 50 -p",
        "-nx 60 -ny 60 -nz 60",
        "-p 3 -l -n 256000",
    ] {
        assert!(text.contains(needle), "Table I is missing {needle}\n{text}");
    }
}

#[test]
fn scaling_figure_shapes_match_the_paper() {
    let options = tiny_options(vec![ProxyKind::Hpccg], vec![4, 16]);
    let fig7 = Figure::Fig7
        .generate(&SuiteEngine::new(), &options)
        .expect("figure 7 matrix");

    // Ordering at every scale: Reinit < ULFM < Restart recovery.
    for group in ["4", "16"] {
        let recovery = |design: &str| {
            fig7.rows
                .iter()
                .find(|r| r.group == group && r.design == design)
                .map(|r| r.recovery)
                .unwrap()
        };
        assert!(recovery("REINIT-FTI") < recovery("ULFM-FTI"));
        assert!(recovery("ULFM-FTI") < recovery("RESTART-FTI"));
    }

    // ULFM recovery grows with the number of processes; Reinit's does not (beyond a
    // few percent).
    let get = |design: &str, group: &str| {
        fig7.rows
            .iter()
            .find(|r| r.group == group && r.design == design)
            .map(|r| r.recovery)
            .unwrap()
    };
    let ulfm_growth = get("ULFM-FTI", "16") / get("ULFM-FTI", "4");
    let reinit_growth = get("REINIT-FTI", "16") / get("REINIT-FTI", "4");
    assert!(
        ulfm_growth > 1.02,
        "ULFM recovery must grow with scale ({ulfm_growth})"
    );
    assert!(
        reinit_growth < 1.05,
        "Reinit recovery must be scale-independent ({reinit_growth})"
    );

    // The derived findings keep the design ordering.
    let findings = Findings::from_figure(&fig7);
    assert!(findings.ulfm_over_reinit_avg > 1.0);
    assert!(findings.restart_over_reinit_avg > findings.ulfm_over_reinit_avg);
    assert!(findings.checkpoint_fraction_avg > 0.0);
}

#[test]
fn ulfm_delays_application_execution_without_failures() {
    let options = tiny_options(vec![ProxyKind::MiniVite], vec![8]);
    let fig5 = Figure::Fig5
        .generate(&SuiteEngine::new(), &options)
        .expect("figure 5 matrix");
    let app_time = |design: &str| {
        fig5.rows
            .iter()
            .find(|r| r.design == design)
            .map(|r| r.application)
            .unwrap()
    };
    let restart = app_time("RESTART-FTI");
    let reinit = app_time("REINIT-FTI");
    let ulfm = app_time("ULFM-FTI");
    assert!(
        ulfm > restart,
        "ULFM must inflate application time ({ulfm} vs {restart})"
    );
    assert!(
        (reinit - restart).abs() / restart < 1e-9,
        "Reinit matches the baseline"
    );
    // No recovery time appears anywhere in a failure-free figure.
    assert!(fig5.rows.iter().all(|r| r.recovery == 0.0));
}

#[test]
fn input_size_sweep_grows_application_time_with_input() {
    let options = tiny_options(vec![ProxyKind::Hpccg], vec![4]);
    let fig8 = Figure::Fig8
        .generate(&SuiteEngine::new(), &options)
        .expect("figure 8 matrix");
    let app_time = |group: &str| {
        fig8.rows
            .iter()
            .find(|r| r.group == group && r.design == "RESTART-FTI")
            .map(|r| r.application)
            .unwrap()
    };
    assert!(app_time("Medium") > app_time("Small"));
    assert!(app_time("Large") > app_time("Medium"));
}
