//! The suite execution engine: parallel, cached, fallible experiment execution.
//!
//! [`SuiteEngine`] owns the execution of experiment matrices end-to-end and is the
//! single path every consumer (figures, findings, the MTBF sweep, the `match-bench`
//! CLI and the examples) goes through; each consumer is handed the engine it runs on:
//!
//! * **caching** — every run is keyed by its canonical
//!   [`ExperimentId`] in a thread-safe
//!   [`ResultCache`], so overlapping matrices (Fig. 6 and
//!   Fig. 7 share every cell; the findings re-derive from the Fig. 6 matrix) never
//!   simulate the same cell twice in one process; failure-free twins — designs on
//!   the same healthy runtime, which simulate identically until a failure — share
//!   one key, so one simulation answers both ([`Experiment::representative`]);
//!   unless `MATCH_CACHE=off`, the
//!   cache is also backed by the persistent content-addressed [`DiskCache`], so
//!   *fresh processes* recall earlier results from disk instead of re-simulating
//!   — a warm figure rerun performs zero simulations;
//! * **parallelism** — independent experiments of a matrix run concurrently on a
//!   work-stealing pool of `std` threads bounded by [`SuiteEngine::jobs`] (the
//!   `MATCH_JOBS` environment variable, defaulting to the host's available
//!   parallelism). The engine's core budget (`MATCH_CORES`, defaulting to the host's
//!   available parallelism) is divided between concurrent experiments and the
//!   per-experiment scheduler: an engine with `j` jobs publishes
//!   `max(1, cores / j)` as the default worker count of the `par` rank scheduler
//!   (overridable via `MATCH_WORKERS`), so `jobs × workers` never oversubscribes
//!   the budget;
//! * **fallibility** — a failed rank no longer panics the process: runs return
//!   `Result<RunReport, `[`SuiteError`]`>` carrying the experiment label and the
//!   per-rank errors, and matrix runs surface the first failing cell.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use mpisim::MpiError;
use recovery::RunReport;

use crate::cache::{CacheStats, ExperimentId, ResultCache};
use crate::experiment::Experiment;
use crate::knobs;
use crate::persist::DiskCache;
use crate::runner;

/// An experiment (or the engine running it) failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SuiteError {
    /// One or more ranks of the experiment reported an error the fault-tolerance
    /// design did not recover from.
    RankFailures {
        /// The experiment's human-readable label ("HPCCG/Small/8/REINIT-FTI/fault").
        label: String,
        /// The failing ranks and the errors they reported, ordered by rank.
        errors: Vec<(usize, MpiError)>,
    },
    /// The computation panicked; the panic was contained by the engine.
    Panicked {
        /// What was being computed and what the panic said.
        context: String,
    },
}

impl SuiteError {
    /// Builds the error for a run whose outcome contains failing ranks.
    pub fn from_outcome<R>(label: String, outcome: &mpisim::RunOutcome<R>) -> Self {
        let errors = outcome
            .ranks()
            .iter()
            .filter_map(|r| r.result.as_ref().err().map(|e| (r.rank, e.clone())))
            .collect();
        SuiteError::RankFailures { label, errors }
    }

    /// The label of the experiment that failed, when one is known.
    pub fn label(&self) -> Option<&str> {
        match self {
            SuiteError::RankFailures { label, .. } => Some(label),
            SuiteError::Panicked { .. } => None,
        }
    }

    /// The per-rank errors, when the failure came from ranks.
    pub fn rank_errors(&self) -> &[(usize, MpiError)] {
        match self {
            SuiteError::RankFailures { errors, .. } => errors,
            SuiteError::Panicked { .. } => &[],
        }
    }

    pub(crate) fn panicked_experiment(label: &str, payload: Box<dyn std::any::Any + Send>) -> Self {
        SuiteError::Panicked {
            context: format!("{label}: {}", panic_message(payload)),
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

impl std::fmt::Display for SuiteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SuiteError::RankFailures { label, errors } => {
                write!(f, "experiment {label} failed on {} rank(s):", errors.len())?;
                for (rank, error) in errors {
                    write!(f, " [rank {rank}: {error}]")?;
                }
                Ok(())
            }
            SuiteError::Panicked { context } => write!(f, "experiment panicked: {context}"),
        }
    }
}

impl std::error::Error for SuiteError {}

/// The parallel, cached experiment executor (see the module docs).
#[derive(Debug)]
pub struct SuiteEngine {
    jobs: usize,
    workers_per_job: usize,
    cache: ResultCache,
}

impl Default for SuiteEngine {
    /// Same as [`SuiteEngine::new`].
    fn default() -> Self {
        Self::new()
    }
}

impl SuiteEngine {
    /// Creates an engine with the default concurrency: the `MATCH_JOBS` environment
    /// variable if set to a positive integer, otherwise the host's available
    /// parallelism.
    pub fn new() -> Self {
        Self::with_jobs(default_jobs())
    }

    /// Creates an engine running at most `jobs` experiments concurrently (`0` is
    /// treated as `1`), backed by the process-wide persistent result store the
    /// environment describes (see [`DiskCache::global`]; `MATCH_CACHE=off`
    /// disables it).
    ///
    /// The core budget ([`core_budget`], i.e. `MATCH_CORES` or the host's available
    /// parallelism) left over after dividing by `jobs` — at least 1 — is published
    /// as the default worker count of the `par` rank scheduler, so experiments
    /// running concurrently under this engine do not oversubscribe the host. An
    /// explicit `MATCH_WORKERS` still takes precedence over this default.
    pub fn with_jobs(jobs: usize) -> Self {
        Self::with_jobs_and_disk(jobs, DiskCache::global())
    }

    /// Creates an engine like [`SuiteEngine::with_jobs`] but with an explicit
    /// persistent store (or none), instead of the environment-described one.
    /// Lookups go memory → disk → compute with write-through; several engines
    /// sharing one store recall each other's results across processes.
    pub fn with_jobs_and_disk(jobs: usize, disk: Option<Arc<DiskCache>>) -> Self {
        let jobs = jobs.max(1);
        let workers_per_job = (core_budget() / jobs).max(1);
        mpisim::set_default_par_workers(workers_per_job);
        SuiteEngine {
            jobs,
            workers_per_job,
            cache: ResultCache::with_disk(disk),
        }
    }

    /// Creates a strictly serial engine (equivalent to `MATCH_JOBS=1`).
    pub fn serial() -> Self {
        Self::with_jobs(1)
    }

    /// The maximum number of experiments this engine runs concurrently.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The `par` scheduler worker count this engine published as the per-experiment
    /// default: `max(1, core_budget / jobs)`.
    pub fn workers_per_job(&self) -> usize {
        self.workers_per_job
    }

    /// Runs (or recalls) one experiment. Panics inside the computation are contained
    /// by the cache's single backstop, labelled with the experiment's readable name.
    ///
    /// A failure-free cell is answered by its [`Experiment::representative`]'s
    /// simulation (which is what the cache and the disk store hold), re-stamped
    /// with the requested design; an error names the requested cell.
    pub fn run(&self, experiment: &Experiment) -> Result<RunReport, SuiteError> {
        restamp(
            self.run_cell(ExperimentId::of(experiment), experiment),
            experiment,
        )
    }

    /// The cached (or freshly simulated) result of `experiment`'s representative,
    /// whose id is `id`; not yet re-stamped.
    fn run_cell(&self, id: ExperimentId, experiment: &Experiment) -> Result<RunReport, SuiteError> {
        let simulated = experiment.representative();
        self.cache.get_or_compute(
            id,
            || simulated.label(),
            || runner::run_experiment_uncached(&simulated),
        )
    }

    /// Runs a whole matrix: each distinct cell is looked up once, and the cells
    /// not yet in memory are scheduled across the worker pool (a matrix already
    /// in memory is recalled on the calling thread). The reports are returned in
    /// the input's order — duplicates and failure-free twins included. The first
    /// failing cell (in input order) is returned as the error. Scheduling stops
    /// early once any cell fails: in-flight cells finish, unstarted ones are never
    /// launched.
    pub fn run_matrix(&self, experiments: &[Experiment]) -> Result<Vec<RunReport>, SuiteError> {
        // One id per row; `slot_of[row]` indexes `distinct`, the first row of each
        // id in input order.
        #[allow(clippy::disallowed_types, reason = "lookup only, never iterated")]
        let mut slots = std::collections::HashMap::with_capacity(experiments.len());
        let mut distinct: Vec<(ExperimentId, &Experiment)> = Vec::new();
        let slot_of: Vec<usize> = experiments
            .iter()
            .map(|experiment| {
                let id = ExperimentId::of(experiment);
                *slots.entry(id).or_insert_with(|| {
                    distinct.push((id, experiment));
                    distinct.len() - 1
                })
            })
            .collect();

        let results: Vec<OnceLock<Result<RunReport, SuiteError>>> =
            distinct.iter().map(|_| OnceLock::new()).collect();
        // Runs slot `i` and reports whether it succeeded.
        let run_slot = |i: usize| {
            let (id, experiment) = distinct[i];
            let result = results[i].get_or_init(|| self.run_cell(id, experiment));
            result.is_ok()
        };
        let absent = self.cache.count_absent(distinct.iter().map(|(id, _)| id));
        let workers = self.jobs.min(absent);
        if workers > 1 {
            let cursor = AtomicUsize::new(0);
            let failed = AtomicBool::new(false);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| {
                        while !failed.load(Ordering::Relaxed) {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= distinct.len() {
                                break;
                            }
                            // Errors are kept; they surface during collection below.
                            if !run_slot(i) {
                                failed.store(true, Ordering::Relaxed);
                            }
                        }
                    });
                }
            });
        } else {
            for i in 0..distinct.len() {
                if !run_slot(i) {
                    break;
                }
            }
        }

        // Collection stops at the first failing row. Every slot first seen before
        // that row was claimed (slots are claimed in order) and so has finished.
        experiments
            .iter()
            .zip(&slot_of)
            .map(|(experiment, &slot)| {
                let result = results[slot]
                    .get()
                    .expect("every slot before the first failure was run");
                restamp(result.clone(), experiment)
            })
            .collect()
    }

    /// Runs the same workload under every design of the registry, in
    /// [`crate::designs::enabled_designs`] order (Restart, Ulfm, Reinit, then
    /// Shrink unless `MATCH_SHRINK=0`).
    pub fn run_all_designs(&self, base: &Experiment) -> Result<Vec<RunReport>, SuiteError> {
        let experiments: Vec<Experiment> = crate::designs::enabled_designs()
            .iter()
            .map(|&strategy| {
                let mut e = *base;
                e.strategy = strategy;
                e
            })
            .collect();
        self.run_matrix(&experiments)
    }

    /// Hit/miss counters of the engine's cache. A matrix counts one lookup per
    /// distinct cell: its duplicate rows and failure-free twins do not bump them. The
    /// `disk_misses` counter is the number of cells this engine actually
    /// simulated — zero on a fully warm-started run.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }
}

/// Turns the cached result of `requested`'s representative into `requested`'s own:
/// a report carries the requested design, an error names the requested cell.
fn restamp(
    result: Result<RunReport, SuiteError>,
    requested: &Experiment,
) -> Result<RunReport, SuiteError> {
    match result {
        Ok(mut report) => {
            report.strategy = requested.strategy;
            Ok(report)
        }
        Err(SuiteError::RankFailures { errors, .. }) => Err(SuiteError::RankFailures {
            label: requested.label(),
            errors,
        }),
        Err(SuiteError::Panicked { context }) => {
            let simulated = requested.representative().label();
            Err(SuiteError::Panicked {
                context: match context.strip_prefix(&simulated) {
                    Some(message) => format!("{}{message}", requested.label()),
                    None => context,
                },
            })
        }
    }
}

/// [`knobs::JOBS`] if set and positive, otherwise the full core budget.
fn default_jobs() -> usize {
    knobs::JOBS.read().unwrap_or_else(core_budget)
}

/// The engine's total core budget, which concurrent experiments times their `par`
/// workers stay within: [`knobs::CORES`] if set and positive (read at every call),
/// otherwise the host's available parallelism (probed once per process; 1 when it
/// cannot be determined).
pub fn core_budget() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    knobs::CORES.read().unwrap_or_else(|| {
        *HOST.get_or_init(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::SuiteOptions;
    use proxies::{InputSize, ProxyKind};
    use recovery::RecoveryStrategy;

    fn smoke(strategy: RecoveryStrategy, inject: bool) -> Experiment {
        Experiment::new(ProxyKind::Hpccg, InputSize::Small, 4, strategy)
            .with_options(&SuiteOptions::smoke())
            .with_failure(inject)
    }

    #[test]
    fn run_caches_the_second_lookup() {
        let engine = SuiteEngine::serial();
        let first = engine.run(&smoke(RecoveryStrategy::Reinit, false)).unwrap();
        let second = engine.run(&smoke(RecoveryStrategy::Reinit, false)).unwrap();
        assert_eq!(first, second);
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn matrix_dedups_overlapping_cells() {
        let engine = SuiteEngine::with_jobs(2);
        let e = smoke(RecoveryStrategy::Reinit, true);
        let matrix = vec![e, smoke(RecoveryStrategy::Ulfm, true), e];
        let reports = engine.run_matrix(&matrix).unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(
            reports[0], reports[2],
            "duplicate rows share one computed report"
        );
        assert_eq!(
            engine.cache_stats().misses,
            2,
            "only two unique cells computed"
        );
    }

    #[test]
    fn parallel_and_serial_engines_agree() {
        // Failure-free runs are bit-deterministic, so the comparison can be exact.
        let experiments: Vec<Experiment> = RecoveryStrategy::ALL
            .iter()
            .map(|&s| smoke(s, false))
            .collect();
        let serial = SuiteEngine::serial().run_matrix(&experiments).unwrap();
        let parallel = SuiteEngine::with_jobs(8).run_matrix(&experiments).unwrap();
        assert_eq!(
            serial, parallel,
            "virtual time must not depend on engine scheduling"
        );
    }

    #[test]
    fn run_all_designs_orders_like_the_design_registry() {
        let engine = SuiteEngine::serial();
        let reports = engine
            .run_all_designs(&smoke(RecoveryStrategy::Restart, true))
            .unwrap();
        assert_eq!(reports.len(), 4);
        assert_eq!(reports[0].strategy, RecoveryStrategy::Restart);
        assert_eq!(reports[1].strategy, RecoveryStrategy::Ulfm);
        assert_eq!(reports[2].strategy, RecoveryStrategy::Reinit);
        assert_eq!(reports[3].strategy, RecoveryStrategy::Shrink);
        assert!(reports[2].recovery_time() < reports[1].recovery_time());
        assert!(reports[1].recovery_time() < reports[0].recovery_time());
        // The shrinking design pays a real recovery (revoke + shrink + agree plus
        // the data redistribution) but never a job relaunch.
        assert!(reports[3].recovery_time().as_secs() > 0.0);
        assert!(reports[3].recovery_time() < reports[0].recovery_time());
    }

    #[test]
    fn jobs_floor_is_one() {
        assert_eq!(SuiteEngine::with_jobs(0).jobs(), 1);
        assert!(SuiteEngine::new().jobs() >= 1);
    }

    #[test]
    fn core_budget_is_split_between_jobs_and_workers() {
        let budget = core_budget();
        assert!(budget >= 1);
        for jobs in [1, 2, 3, 8, budget, budget * 4] {
            let engine = SuiteEngine::with_jobs(jobs);
            assert_eq!(engine.workers_per_job(), (budget / jobs).max(1));
            if jobs <= budget {
                assert!(
                    engine.jobs() * engine.workers_per_job() <= budget,
                    "{jobs} jobs × {} workers oversubscribes a budget of {budget}",
                    engine.workers_per_job()
                );
            } else {
                // More jobs than cores: each job still gets the floor of one worker.
                assert_eq!(engine.workers_per_job(), 1);
            }
        }
    }

    #[test]
    fn workers_per_job_floor_is_one() {
        assert_eq!(SuiteEngine::with_jobs(usize::MAX / 2).workers_per_job(), 1);
        assert!(SuiteEngine::serial().workers_per_job() >= 1);
    }

    #[test]
    fn matrix_aborts_early_on_failure() {
        let engine = SuiteEngine::serial();
        let bad = Experiment::new(
            ProxyKind::Hpccg,
            InputSize::Small,
            0,
            RecoveryStrategy::Reinit,
        )
        .with_options(&SuiteOptions::smoke());
        let good = smoke(RecoveryStrategy::Reinit, false);
        let error = engine.run_matrix(&[bad, good]).unwrap_err();
        assert!(error.to_string().contains("HPCCG/Small/0"), "{error}");
        // The failing first cell aborted scheduling: the good cell never ran.
        assert_eq!(engine.cache_stats().entries, 1);
    }

    #[test]
    fn a_matrix_in_memory_recalls_the_same_reports_and_counts() {
        // Twins, a duplicate row and a cell with a failure: three distinct cells.
        let matrix = [
            smoke(RecoveryStrategy::Reinit, false),
            smoke(RecoveryStrategy::Restart, false),
            smoke(RecoveryStrategy::Ulfm, true),
            smoke(RecoveryStrategy::Reinit, false),
            smoke(RecoveryStrategy::Shrink, false),
        ];
        let engine = SuiteEngine::with_jobs_and_disk(2, None);
        let first = engine.run_matrix(&matrix).unwrap();
        let cold = engine.cache_stats();
        assert_eq!((cold.hits, cold.misses, cold.entries), (0, 3, 3));
        let designs: Vec<_> = first.iter().map(|r| r.strategy).collect();
        let asked: Vec<_> = matrix.iter().map(|e| e.strategy).collect();
        assert_eq!(designs, asked);
        for _ in 0..2 {
            let before = engine.cache_stats();
            assert_eq!(engine.run_matrix(&matrix).unwrap(), first);
            // One memory hit per distinct cell, nothing else moves.
            assert_eq!(
                engine.cache_stats(),
                CacheStats {
                    hits: before.hits + 3,
                    ..cold
                }
            );
        }
    }

    #[test]
    fn panics_surface_with_the_experiment_label() {
        // Zero ranks trips the cluster constructor's assertion; the engine must
        // contain the panic and name the cell by its human-readable label.
        let bad = Experiment::new(
            ProxyKind::Hpccg,
            InputSize::Small,
            0,
            RecoveryStrategy::Reinit,
        )
        .with_options(&SuiteOptions::smoke());
        let engine = SuiteEngine::serial();
        let error = engine.run(&bad).unwrap_err();
        assert!(
            error.to_string().contains("HPCCG/Small/0/REINIT-FTI"),
            "panic context must carry the label: {error}"
        );
    }

    #[test]
    fn a_twin_is_a_cache_hit_stamped_with_its_own_design() {
        let engine = SuiteEngine::serial();
        let restart = engine
            .run(&smoke(RecoveryStrategy::Restart, false))
            .unwrap();
        let reinit = engine.run(&smoke(RecoveryStrategy::Reinit, false)).unwrap();
        assert_eq!(reinit.strategy, RecoveryStrategy::Reinit);
        assert_eq!(
            RunReport {
                strategy: RecoveryStrategy::Restart,
                ..reinit
            },
            restart
        );
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        // A matrix of all four failure-free designs simulates one cell per runtime,
        // and every row names its own design.
        let matrix: Vec<Experiment> = RecoveryStrategy::ALL
            .iter()
            .map(|&s| smoke(s, false))
            .collect();
        let fresh = SuiteEngine::with_jobs_and_disk(1, None);
        let reports = fresh.run_matrix(&matrix).unwrap();
        assert_eq!(fresh.cache_stats().disk_misses, 2);
        let designs: Vec<_> = reports.iter().map(|r| r.strategy).collect();
        assert_eq!(designs, RecoveryStrategy::ALL);
    }

    #[test]
    fn an_erroring_twin_names_the_requested_cell() {
        let bad = |strategy| {
            Experiment::new(ProxyKind::Hpccg, InputSize::Small, 0, strategy)
                .with_options(&SuiteOptions::smoke())
        };
        let engine = SuiteEngine::serial();
        let restart = engine.run(&bad(RecoveryStrategy::Restart)).unwrap_err();
        assert!(
            restart.to_string().contains("HPCCG/Small/0/RESTART-FTI"),
            "{restart}"
        );
        // The twin recalls RESTART's cached error, but names itself.
        let reinit = engine.run(&bad(RecoveryStrategy::Reinit)).unwrap_err();
        let text = reinit.to_string();
        assert!(text.contains("HPCCG/Small/0/REINIT-FTI"), "{text}");
        assert!(!text.contains("RESTART"), "{text}");
        let shrink = engine
            .run_matrix(&[bad(RecoveryStrategy::Shrink)])
            .unwrap_err();
        assert!(
            shrink.to_string().contains("HPCCG/Small/0/SHRINK-FTI"),
            "{shrink}"
        );
        // Rank failures are re-labelled the same way.
        let failures = SuiteError::RankFailures {
            label: bad(RecoveryStrategy::Restart).label(),
            errors: vec![(1, MpiError::Revoked)],
        };
        let relabelled = restamp(Err(failures), &bad(RecoveryStrategy::Reinit)).unwrap_err();
        assert_eq!(relabelled.label(), Some("HPCCG/Small/0/REINIT-FTI"));
        assert_eq!(relabelled.rank_errors(), &[(1, MpiError::Revoked)]);
    }

    #[test]
    fn suite_error_renders_label_and_ranks() {
        let err = SuiteError::RankFailures {
            label: "HPCCG/Small/4/REINIT-FTI".into(),
            errors: vec![(2, MpiError::Revoked)],
        };
        let text = err.to_string();
        assert!(text.contains("HPCCG/Small/4/REINIT-FTI"));
        assert!(text.contains("rank 2"));
        assert_eq!(err.label(), Some("HPCCG/Small/4/REINIT-FTI"));
        assert_eq!(err.rank_errors().len(), 1);
        let panicked = SuiteError::Panicked {
            context: "boom".into(),
        };
        assert!(panicked.to_string().contains("boom"));
        assert!(panicked.label().is_none());
        assert!(panicked.rank_errors().is_empty());
    }
}
