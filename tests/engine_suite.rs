//! End-to-end tests of the [`SuiteEngine`]: cached results must be bit-identical to
//! fresh recomputation, parallel scheduling must not change any figure row, and the
//! engine must report rank failures as errors instead of panicking.
//!
//! On strictness: *every* run of the simulator — failure-free or with injected
//! failures — is bit-deterministic. Failure detection is resolved in virtual time (a
//! failure's visibility, the abort of blocked operations and the detection instant
//! are pure functions of the failure event and the machine model), so with-failure
//! rows are compared with exact `==` just like failure-free ones: across engines,
//! across job counts, and against from-scratch recomputation.

use match_core::matrix::{full_suite_matrix, MatrixOptions};
use match_core::proxies::InputSize;
use match_core::proxies::ProxyKind;
use match_core::recovery::{RecoveryStrategy, RunReport};
use match_core::runner;
use match_core::{Experiment, Figure, SuiteEngine, SuiteOptions};

fn tiny_options() -> MatrixOptions {
    MatrixOptions::laptop()
        .with_apps(vec![ProxyKind::Hpccg, ProxyKind::MiniVite])
        .with_process_counts(vec![2, 4])
}

#[test]
fn cached_report_is_bit_identical_to_fresh_recompute() {
    // Failure-free: the cached report, a second (cached) lookup, and a from-scratch
    // recompute must agree exactly.
    let experiment = Experiment::new(
        ProxyKind::Hpccg,
        InputSize::Small,
        4,
        RecoveryStrategy::Ulfm,
    )
    .with_options(&SuiteOptions::smoke());
    let engine = SuiteEngine::serial();
    let computed = engine.run(&experiment).expect("first run");
    let cached = engine.run(&experiment).expect("cached run");
    let fresh = runner::run_experiment_uncached(&experiment).expect("fresh recompute");
    assert_eq!(cached, computed);
    assert_eq!(cached, fresh);
    let stats = engine.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
}

#[test]
fn cached_with_failure_report_equals_fresh_recompute_exactly() {
    let experiment = Experiment::new(
        ProxyKind::Hpccg,
        InputSize::Small,
        4,
        RecoveryStrategy::Reinit,
    )
    .with_options(&SuiteOptions::smoke())
    .with_failure(true);
    let engine = SuiteEngine::serial();
    let computed = engine.run(&experiment).expect("first run");
    for _ in 0..3 {
        assert_eq!(engine.run(&experiment).expect("cached run"), computed);
    }
    assert_eq!(engine.cache_stats().misses, 1);
    // Failure detection is deterministic in virtual time, so even a from-scratch
    // recompute of the with-failure cell is bit-identical to the cached report.
    let fresh = runner::run_experiment_uncached(&experiment).expect("fresh recompute");
    assert_eq!(fresh, computed);
    assert!(fresh.recovery_time().as_secs() > 0.0);
    assert!(fresh.restarts >= 1);
}

#[test]
fn parallel_equals_serial_for_figure_rows() {
    let options = tiny_options();
    // MATCH_JOBS=1 equivalent...
    let serial_engine = SuiteEngine::with_jobs(1);
    // ...versus MATCH_JOBS=8 equivalent.
    let parallel_engine = SuiteEngine::with_jobs(8);

    // Failure-free figure: strictly identical rows.
    let serial5 = Figure::Fig5
        .generate(&serial_engine, &options)
        .expect("serial figure 5");
    let parallel5 = Figure::Fig5
        .generate(&parallel_engine, &options)
        .expect("parallel figure 5");
    assert_eq!(
        serial5, parallel5,
        "failure-free rows must be bit-identical"
    );

    // With-failure figure: also strictly identical — virtual time never depends on
    // how the host schedules the engine's workers or the rank fibers.
    let serial6 = Figure::Fig6
        .generate(&serial_engine, &options)
        .expect("serial figure 6");
    let parallel6 = Figure::Fig6
        .generate(&parallel_engine, &options)
        .expect("parallel figure 6");
    assert_eq!(
        serial6, parallel6,
        "with-failure rows must be bit-identical"
    );
}

#[test]
fn overlapping_figures_share_every_cell() {
    let options = tiny_options();
    let engine = SuiteEngine::with_jobs(4);
    let fig6 = Figure::Fig6.generate(&engine, &options).expect("figure 6");
    let misses_after_fig6 = engine.cache_stats().misses;
    let fig7 = Figure::Fig7.generate(&engine, &options).expect("figure 7");
    let stats = engine.cache_stats();
    assert_eq!(
        stats.misses, misses_after_fig6,
        "figure 7 must not recompute"
    );
    assert_eq!(stats.hits as usize, fig7.rows.len());
    assert_eq!(fig6.rows.len(), fig7.rows.len());
    for (a, b) in fig6.rows.iter().zip(&fig7.rows) {
        assert_eq!(a.recovery, b.recovery);
    }
}

#[test]
fn full_suite_matrix_runs_once_then_serves_all_figures() {
    let options = MatrixOptions::laptop()
        .with_apps(vec![ProxyKind::Hpccg])
        .with_process_counts(vec![2]);
    let engine = SuiteEngine::with_jobs(2);
    let matrix = full_suite_matrix(&options);
    engine.run_matrix(&matrix).expect("full matrix");
    let misses = engine.cache_stats().misses;
    for figure in Figure::ALL {
        figure
            .generate(&engine, &options)
            .expect("figure from cache");
    }
    assert_eq!(
        engine.cache_stats().misses,
        misses,
        "figures render from cache"
    );
}

#[test]
fn nonsensical_topology_surfaces_as_an_error_not_a_panic() {
    // 3 ranks do not divide into the paper's 32-node layout evenly; the cluster
    // constructor rejects it by panicking, which the engine converts into a
    // `SuiteError` instead of tearing the caller down.
    let experiment = Experiment::new(
        ProxyKind::Hpccg,
        InputSize::Small,
        3,
        RecoveryStrategy::Reinit,
    )
    .with_options(&SuiteOptions::smoke());
    let engine = SuiteEngine::serial();
    match engine.run(&experiment) {
        Ok(report) => {
            // If the topology happens to accept 3 ranks the run must simply succeed.
            assert!(report.total_time.as_secs() > 0.0);
        }
        Err(error) => {
            let text = error.to_string();
            assert!(!text.is_empty());
        }
    }
}

#[test]
fn failure_free_twins_simulate_identically_and_the_engine_answers_each_design() {
    // Before a failure a design acts only through its healthy runtime's background
    // interference, so REINIT's failure-free run is RESTART's and SHRINK's is
    // ULFM's, bit for bit, except for the design the report names.
    let engine = SuiteEngine::with_jobs_and_disk(2, None);
    for app in ProxyKind::ALL {
        for nprocs in [4, 8] {
            let cells = RecoveryStrategy::ALL.map(|strategy| {
                Experiment::new(app, InputSize::Small, nprocs, strategy)
                    .with_options(&SuiteOptions::smoke())
            });
            let uncached = cells.map(|cell| {
                runner::run_experiment_uncached(&cell)
                    .unwrap_or_else(|e| panic!("{}: {e}", cell.label()))
            });
            for (cell, report) in cells.iter().zip(&uncached) {
                assert_eq!(report.strategy, cell.strategy);
                let representative = cell.strategy.healthy_runtime().representative();
                let twin = RunReport {
                    strategy: representative,
                    ..report.clone()
                };
                assert_eq!(
                    twin,
                    uncached[RecoveryStrategy::ALL
                        .iter()
                        .position(|&s| s == representative)
                        .expect("a design of ALL")],
                    "{} must simulate like {representative}",
                    cell.label()
                );
            }
            let answers = engine.run_matrix(&cells).expect("matrix");
            for ((cell, answer), report) in cells.iter().zip(&answers).zip(&uncached) {
                assert_eq!(answer, report, "{}", cell.label());
                assert_eq!(
                    &engine.run(cell).expect("recall"),
                    report,
                    "{}",
                    cell.label()
                );
            }
        }
    }
    // Two simulations per (app, nprocs): one per healthy runtime.
    let stats = engine.cache_stats();
    assert_eq!(stats.disk_misses as usize, ProxyKind::ALL.len() * 2 * 2);
}
