//! Executes experiments on the simulated cluster.
//!
//! These are the uncached single-run primitives ([`run_experiment_uncached`],
//! [`run_single`], [`run_trace`]). Cached, parallel execution goes through a
//! [`SuiteEngine`](crate::engine::SuiteEngine), which calls
//! [`run_experiment_uncached`] once per distinct cell; failures are reported as
//! [`SuiteError`] values instead of panics.

use std::sync::Arc;

use fti::store::CheckpointStore;
use fti::{FtiConfig, Protectable};
use mpisim::{Cluster, ClusterConfig, RunOutcome};
use proxies::registry::ProxySpec;
use recovery::{
    ArrivalModel, DriverOutcome, FailureTrace, FaultPlan, FtConfig, FtDriver, RecoveryStrategy,
    RunReport,
};

use crate::engine::SuiteError;
use crate::experiment::{Experiment, FailureScenario};

/// Environment variable overriding the rack count experiments run on (the `nracks`
/// sweep knob): the paper-layout node count is regrouped into this many racks, which
/// must divide it. Plumbed through [`ClusterConfig::racks`]; the cache key derives
/// its failure-domain layout from the same configuration, so overridden sweeps can
/// never collide with default-layout results.
pub const RACKS_ENV_VAR: &str = "MATCH_RACKS";

/// The cluster configuration an experiment of `nprocs` ranks runs on. The single
/// source of the experiment → topology mapping: [`run_single`] builds its cluster
/// from it and [`crate::cache::ExperimentId`] derives the failure-domain layout of
/// its cache key from it, so the two can never silently diverge. Honours the
/// `MATCH_RACKS` rack-count override (and, through
/// [`ClusterConfig::with_ranks`], the `MATCH_BACKEND` scheduler selection — which
/// deliberately does *not* enter the cache key, since results are bit-identical
/// across backends).
pub fn experiment_cluster(nprocs: usize) -> ClusterConfig {
    let config = ClusterConfig::with_ranks(nprocs);
    let Ok(value) = std::env::var(RACKS_ENV_VAR) else {
        return config;
    };
    match value.trim().parse::<usize>() {
        Ok(r) if r > 0 => config.racks(r),
        _ => {
            // Warn once (this runs per experiment, including cache-key derivation)
            // instead of silently sweeping the default layout under a wrong label.
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| {
                eprintln!(
                    "warning: {RACKS_ENV_VAR}='{value}' is not a positive rack count; \
                     using the default paper layout"
                );
            });
            config
        }
    }
}

/// Runs one experiment without consulting any cache: builds the cluster, runs the
/// configured proxy application under the configured fault-tolerance design
/// `repetitions` times, and averages the resulting time breakdowns (the paper
/// averages five repetitions to reduce noise; the simulator is deterministic, so
/// repetitions mostly matter when sweeping seeds).
pub fn run_experiment_uncached(experiment: &Experiment) -> Result<RunReport, SuiteError> {
    let reports: Vec<RunReport> = (0..experiment.repetitions.max(1))
        .map(|rep| run_single(experiment, rep))
        .collect::<Result<_, _>>()?;
    Ok(RunReport::average(&reports))
}

/// Runs one repetition of an experiment, uncached.
pub fn run_single(experiment: &Experiment, repetition: u32) -> Result<RunReport, SuiteError> {
    let spec = ProxySpec::new(experiment.app, experiment.input, experiment.scale);
    // Build the application once: the instance is immutable during execution, so all
    // ranks can run the same one, and its iteration count feeds the fault plan.
    let app = spec.build();
    let iterations = app.iterations();
    // The repetition seed reproduces the paper's "average over seeds" methodology.
    let rep_seed = experiment.seed ^ (repetition as u64).wrapping_mul(0x9E37_79B9);
    // The paper checkpoints every ten iterations. Scaled-down runs execute fewer
    // iterations, so the interval is tightened to keep at least two checkpoints per
    // run (never more often than every other iteration).
    let interval = 10u64.min((iterations / 2).max(1));
    let (fault, fti_config) = match experiment.scenario {
        FailureScenario::None => (FailureTrace::none(), FtiConfig::default()),
        FailureScenario::SingleRandom => {
            // Like the paper: a random rank and a random iteration, reproducible
            // through the seed (varied per repetition).
            (
                FaultPlan::random(rep_seed, iterations.max(2)).into(),
                FtiConfig::default(),
            )
        }
        FailureScenario::Mtbf {
            node_mtbf_iterations,
            node_crash_pct,
            rack_neighbor_pct,
            recovery_window_pct,
        } => {
            let model = ArrivalModel::exponential(
                rep_seed,
                node_mtbf_iterations.max(1) as f64,
                iterations.max(2),
            )
            .correlated(node_crash_pct, rack_neighbor_pct)
            .recovery_window(recovery_window_pct);
            // Crashes destroy node-local storage, so the checkpoint level is
            // provisioned for the failure domain the scenario actually exercises:
            // rack-correlated cascades (back-to-back node crashes inside one rack)
            // run the erasure-coded L3 — groups span `group_size` distinct nodes and
            // tolerate `m` node losses, with a periodic L4 flush as the anchor when
            // a cascade erases more than `m` shards of a group — while uncorrelated
            // node crashes keep the cheaper L2 (the partner copy leaves the rack).
            let fti = if node_crash_pct > 0 && rack_neighbor_pct > 0 {
                // Clamp the anchor onto a checkpoint wave the run actually reaches:
                // at smoke scale `interval * 4` exceeds the iteration count and the
                // promised L4 fallback would otherwise never exist.
                let anchor = interval * 4u64.min((iterations / interval).max(1));
                FtiConfig::level(fti::CheckpointLevel::L3).l4_every(anchor)
            } else if node_crash_pct > 0 {
                FtiConfig::level(fti::CheckpointLevel::L2)
            } else {
                FtiConfig::default()
            };
            (model.into(), fti)
        }
    };
    let ft_config =
        FtConfig::new(experiment.strategy, fti_config.interval(interval)).with_fault(fault);

    let cluster = Cluster::new(experiment_cluster(experiment.nprocs));
    let store = CheckpointStore::shared();
    let outcome = cluster.run(move |ctx| {
        let driver = FtDriver::new(ft_config.clone(), Arc::clone(&store));
        driver.execute(ctx, |ctx, fti, injector| app.run(ctx, fti, injector))
    });

    if !outcome.all_ok() {
        return Err(SuiteError::from_outcome(experiment.label(), &outcome));
    }

    Ok(summarize_outcome(
        experiment.strategy,
        experiment.nprocs,
        experiment.inject_failure(),
        &outcome,
    ))
}

/// Collapses the per-rank driver outcomes of one run to a [`RunReport`]: counters are
/// maxima over ranks, the per-attempt log takes element-wise maxima (the slowest-rank
/// convention of the breakdown), and each attempt's recovery path is the most severe
/// path any rank took (see [`recovery::CoveragePath::severity`]).
fn summarize_outcome<R>(
    strategy: RecoveryStrategy,
    nprocs: usize,
    failure_injected: bool,
    outcome: &RunOutcome<DriverOutcome<R>>,
) -> RunReport {
    let restarts = outcome
        .ranks()
        .iter()
        .map(|r| r.result.as_ref().map(|o| o.recoveries).unwrap_or(0))
        .max()
        .unwrap_or(0);
    let attempts = outcome
        .ranks()
        .iter()
        .map(|r| r.result.as_ref().map(|o| o.attempts).unwrap_or(0))
        .max()
        .unwrap_or(1);
    let failure_events = outcome
        .ranks()
        .iter()
        .map(|r| r.result.as_ref().map(|o| o.failure_events).unwrap_or(0))
        .max()
        .unwrap_or(0);
    // Per-attempt accounting: element-wise maxima over ranks (the same slowest-rank
    // convention as the breakdown). Every rank goes through every global restart, so
    // the logs line up by attempt index.
    let mut attempt_log = Vec::new();
    for i in 0..attempts as usize {
        let mut span = 0.0f64;
        let mut recovery = 0.0f64;
        let mut completed = false;
        let mut survivors = 0usize;
        let mut path = recovery::CoveragePath::fresh();
        let mut erasures = 0u32;
        for rank in outcome.ranks() {
            if let Ok(o) = &rank.result {
                if let Some(rec) = o.attempt_log.get(i) {
                    span = span.max(rec.ended_at.saturating_sub(rec.started_at).as_secs());
                    recovery = recovery.max(rec.recovery.as_secs());
                    completed |= rec.completed;
                    survivors = survivors.max(rec.survivors);
                    // Equal severities name the same mechanism (only the erasure
                    // counts can differ), so "first rank with the maximum severity"
                    // is order-independent for the label.
                    if rec.path.severity() > path.severity() {
                        path = rec.path;
                    }
                    erasures = erasures.max(rec.path.erasures);
                }
            }
        }
        path.erasures = erasures;
        attempt_log.push(recovery::AttemptSummary {
            attempt: i as u32 + 1,
            span_secs: span,
            recovery_secs: recovery,
            completed,
            survivors,
            path,
        });
    }

    RunReport {
        strategy,
        nprocs,
        failure_injected,
        breakdown: outcome.max_breakdown(),
        total_time: outcome.max_time(),
        stats: outcome.total_stats(),
        restarts,
        attempts,
        failure_events,
        attempt_log,
    }
}

/// One explicit failure-trace run: a design, an FTI configuration and a concrete
/// event schedule, with none of [`Experiment`]'s scenario sampling in between. This
/// is the fault-space explorer's entry point; it deliberately has no cached form —
/// [`crate::cache::ExperimentId`] keys stay exactly as they are, and explorer runs
/// never touch the persistent result cache.
#[derive(Debug, Clone)]
pub struct TraceRunSpec {
    /// Number of processes (laid out by [`experiment_cluster`]).
    pub nprocs: usize,
    /// Main-loop iterations of the synthetic workload.
    pub iterations: u64,
    /// The recovery design to run.
    pub strategy: RecoveryStrategy,
    /// The FTI configuration (level, interval, retention schedule).
    pub fti: FtiConfig,
    /// The failure events to inject.
    pub trace: FailureTrace,
}

/// What [`run_trace`] returns: the usual run summary plus each rank's final value of
/// the synthetic workload (`None` for shrinking-recovery casualties), so callers can
/// check answers against a failure-free oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRunOutcome {
    /// The run summary, including the per-attempt recovery paths.
    pub report: RunReport,
    /// Final per-rank values of the synthetic workload.
    pub values: Vec<Option<f64>>,
}

/// The cluster [`run_trace`] runs on: [`experiment_cluster`] pinned to one scheduler
/// worker. The synthetic rank body does no host work between communication points, so
/// a second `par` worker could only trade fiber switches for cross-thread wakes; on
/// one worker the job runs inline on the calling thread.
fn trace_cluster(nprocs: usize) -> ClusterConfig {
    experiment_cluster(nprocs).workers(1)
}

/// Runs one explicit failure trace, uncached, under a synthetic iterative workload
/// (an all-reduce accumulation checkpointed through FTI, the same shape as the
/// recovery crate's driver tests): cheap enough for search loops, deterministic, and
/// with a closed-form failure-free answer for oracle checks.
///
/// # Errors
///
/// Reports invalid traces (victims outside the topology), driver give-ups (more
/// restarts than the driver's bound) and unreconstructible checkpoints under strict
/// (no-fallback) configurations as [`SuiteError::RankFailures`].
pub fn run_trace(spec: &TraceRunSpec) -> Result<TraceRunOutcome, SuiteError> {
    let iterations = spec.iterations.max(1);
    let ft_config = FtConfig::new(spec.strategy, spec.fti.clone()).with_fault(spec.trace.clone());
    let cluster = Cluster::new(trace_cluster(spec.nprocs));
    let store = CheckpointStore::shared();
    let outcome = cluster.run(move |ctx| {
        let driver = FtDriver::new(ft_config.clone(), Arc::clone(&store));
        driver.execute(ctx, |ctx, fti, injector| {
            let world = ctx.world();
            let mut acc = 0.0f64;
            let mut start = 1u64;
            fti.protect(0, "acc", &acc);
            if fti.status().is_restart() {
                let at = fti.recover_object(ctx, 0, &mut acc)?;
                start = at + 1;
            }
            for iteration in start..=iterations {
                injector.maybe_fail(ctx, iteration)?;
                ctx.compute(5e4);
                let contribution = ctx.allreduce_sum_f64(&world, (ctx.rank() + 1) as f64)?;
                acc += contribution;
                if fti.should_checkpoint(iteration) {
                    fti.checkpoint(ctx, iteration, &[(0, &acc as &dyn Protectable)])?;
                }
            }
            fti.finalize(ctx)?;
            Ok(acc)
        })
    });
    if !outcome.all_ok() {
        return Err(SuiteError::from_outcome(
            format!("trace[{}@{}]", spec.strategy, spec.nprocs),
            &outcome,
        ));
    }
    let values = outcome
        .ranks()
        .iter()
        .map(|r| r.result.as_ref().ok().and_then(|o| o.value))
        .collect();
    let report = summarize_outcome(
        spec.strategy,
        spec.nprocs,
        spec.trace.injects_failure(),
        &outcome,
    );
    Ok(TraceRunOutcome { report, values })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SuiteEngine;
    use crate::experiment::SuiteOptions;
    use mpisim::SimTime;
    use proxies::{InputSize, ProxyKind};
    use recovery::RecoveryStrategy;

    fn smoke_experiment(strategy: RecoveryStrategy, inject: bool) -> Experiment {
        Experiment::new(ProxyKind::Hpccg, InputSize::Small, 4, strategy)
            .with_options(&SuiteOptions::smoke())
            .with_failure(inject)
    }

    #[test]
    fn trace_runs_execute_inline_on_the_callers_thread() {
        let config = trace_cluster(8);
        let caller = std::thread::current().id();
        let outcome = Cluster::new(config).run(move |ctx| {
            let world = ctx.world();
            ctx.allreduce_sum_f64(&world, 1.0)?;
            Ok(std::thread::current().id() == caller)
        });
        assert!(outcome.all_ok(), "{:?}", outcome.errors());
        assert!(outcome.results().iter().all(|r| **r == Ok(true)));
    }

    #[test]
    fn failure_free_run_has_no_recovery_time() {
        let report = SuiteEngine::serial()
            .run(&smoke_experiment(RecoveryStrategy::Reinit, false))
            .unwrap();
        assert_eq!(report.recovery_time(), SimTime::ZERO);
        assert!(report.application_time().as_secs() > 0.0);
        assert!(report.checkpoint_time().as_secs() > 0.0);
        assert_eq!(report.restarts, 0);
        assert!(!report.failure_injected);
    }

    #[test]
    fn injected_failure_produces_recovery_time_and_a_restart() {
        let report = SuiteEngine::serial()
            .run(&smoke_experiment(RecoveryStrategy::Reinit, true))
            .unwrap();
        assert!(report.recovery_time().as_secs() > 0.0);
        assert!(report.restarts >= 1);
        assert!(report.failure_injected);
    }

    #[test]
    fn all_designs_complete_and_are_ordered_on_recovery() {
        let base = smoke_experiment(RecoveryStrategy::Restart, true);
        let reports = SuiteEngine::serial().run_all_designs(&base).unwrap();
        assert_eq!(reports.len(), crate::designs::enabled_designs().len());
        let restart = &reports[0];
        let ulfm = &reports[1];
        let reinit = &reports[2];
        let shrink = &reports[3];
        assert!(reinit.recovery_time() < ulfm.recovery_time());
        assert!(ulfm.recovery_time() < restart.recovery_time());
        assert!(shrink.recovery_time().as_secs() > 0.0);
        // The surviving world size is recorded per attempt: after the single
        // injected failure the shrinking design continues one rank short, while the
        // non-shrinking designs restore the full world.
        assert!(shrink
            .attempt_log
            .iter()
            .any(|a| a.survivors == base.nprocs - 1));
        assert!(restart
            .attempt_log
            .iter()
            .all(|a| a.survivors == base.nprocs));
    }

    #[test]
    fn repetitions_average_deterministic_runs() {
        let mut e = smoke_experiment(RecoveryStrategy::Reinit, false);
        e = e.with_repetitions(2);
        let engine = SuiteEngine::serial();
        let avg = engine.run(&e).unwrap();
        let single = engine.run(&e.with_repetitions(1)).unwrap();
        // The simulator is deterministic, so averaging identical repetitions changes
        // nothing.
        assert!((avg.total_time.as_secs() - single.total_time.as_secs()).abs() < 1e-9);
    }

    #[test]
    fn cached_and_uncached_runs_agree_exactly() {
        // Failure-free, hence bit-deterministic.
        let e = smoke_experiment(RecoveryStrategy::Ulfm, false);
        let through_engine = SuiteEngine::serial().run(&e).unwrap();
        let fresh = run_experiment_uncached(&e).unwrap();
        assert_eq!(through_engine, fresh);
    }
}
