//! The six workloads: input generation, set-up, one closed-loop pass, and the checks
//! that decide whether a pass's operations count as failed.
//!
//! Every workload is a closed loop driven by one generator (this process); the
//! engine runs `nproc` cells at a time unless stated. The persistent result cache is
//! detached (`None`) everywhere except `warm-rerun`, which owns a private store.
//! `--seed` feeds the failure plans, the explorer's mutation RNG and the checkpoint
//! payload generator, so the same seed gives the same inputs.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use match_core::fti::store::CheckpointStore;
use match_core::fti::{CheckpointLevel, FtiConfig, Protectable, RestoreObservation};
use match_core::matrix::{input_size_matrix, scaling_matrix, MatrixOptions};
use match_core::mpisim::{Cluster, FailureSpec, RunOutcome, SchedBackend};
use match_core::persist::{encode_report, fnv1a128};
use match_core::proxies::registry::{ExecutionScale, ProxySpec};
use match_core::proxies::{InputSize, ProxyKind};
use match_core::recovery::{
    DriverOutcome, FailureTrace, FaultPlan, FtConfig, FtDriver, RecoveryStrategy, RunReport,
};
use match_core::{
    runner, DiskCache, Experiment, ExperimentId, FigureData, FigureRow, Findings, SuiteEngine,
    SuiteOptions,
};
use match_explorer::{ExploreConfig, Explorer};

use crate::host::nproc;
use crate::trace::{traced, SpanId, Tracer};

/// What one pass did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassOutcome {
    /// Operations attempted.
    pub ops: u64,
    /// Operations that failed (see the `fail_ratio` definition).
    pub failed: u64,
    /// FNV-128 over the canonical bytes of everything the pass simulated.
    pub sim_digest: u128,
    /// Simulated sends + receives + collectives, where reports carry them.
    pub sim_ops: u64,
    /// `fig-fault` only: the model's error against the paper, in percent.
    pub paper_err_pct: Option<f64>,
    /// One line per failed operation (first few only).
    pub failures: Vec<String>,
}

impl PassOutcome {
    fn fail(&mut self, count: u64, why: String) {
        self.failed += count;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }
}

/// FNV-128 over the canonical persist encoding of `reports`, in order.
pub fn reports_digest(reports: &[RunReport]) -> u128 {
    let mut bytes = Vec::new();
    for report in reports {
        bytes.extend_from_slice(&encode_report(report));
    }
    fnv1a128(&bytes)
}

fn sim_ops_of(reports: &[RunReport]) -> u64 {
    reports
        .iter()
        .map(|r| r.stats.sends + r.stats.recvs + r.stats.collectives)
        .sum()
}

/// The five quantitative Section V-C findings the paper reports: ULFM/Reinit
/// recovery 4x on average and 13x at most, Restart/Reinit 16x and 22x, and a 13 %
/// checkpoint share.
const PAPER_FINDINGS: [f64; 5] = [4.0, 13.0, 16.0, 22.0, 0.13];

/// Mean relative error of `findings` against [`PAPER_FINDINGS`], in percent.
pub fn paper_err_pct(findings: &Findings) -> f64 {
    let measured = [
        findings.ulfm_over_reinit_avg,
        findings.ulfm_over_reinit_max,
        findings.restart_over_reinit_avg,
        findings.restart_over_reinit_max,
        findings.checkpoint_fraction_avg,
    ];
    let sum: f64 = measured
        .iter()
        .zip(PAPER_FINDINGS)
        .map(|(m, paper)| (m - paper).abs() / paper)
        .sum();
    100.0 * sum / PAPER_FINDINGS.len() as f64
}

/// Suite options of one scale and seed, one repetition.
pub fn suite_options(scale: ExecutionScale, seed: u64) -> SuiteOptions {
    SuiteOptions {
        scale,
        repetitions: 1,
        seed,
    }
}

/// The main-loop iterations of a cell's application.
fn iterations_of(cell: &Experiment) -> u64 {
    ProxySpec::new(cell.app, cell.input, cell.scale)
        .build()
        .iterations()
}

/// The checkpoint interval the runner gives an application of `iterations`
/// iterations: every ten, tightened so that short runs still take two checkpoints.
/// (The harness's copy of `runner::run_single`'s rule: were that to change, the
/// failure balance would degrade and the probes' own cell runner would checkpoint
/// differently; nothing else depends on it.)
pub fn checkpoint_interval(iterations: u64) -> u64 {
    10u64.min((iterations / 2).max(1))
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Gives every with-failure cell of a matrix its own failure-plan seed, chosen so
/// that the *amount* of re-executed work hardly depends on `seed` while the plans
/// themselves do.
///
/// `SingleRandom` draws the victim rank and the failing iteration from the cell's
/// seed. With one seed for the whole matrix every cell fails at the same relative
/// point, and a pass costs up to a third more or less host time depending on how far
/// that point lies behind a checkpoint — seed noise that would drown any real
/// change. So the failing iteration's distance behind the last checkpoint (its
/// *phase*) is stratified instead: within each group of cells that differ only in
/// the design, consecutive cells get a seeded phase `p` and its mirror
/// `interval - 1 - p`, so the group re-executes the same number of iterations
/// whatever the seed. Which interval the failure falls in, and the victim rank, stay
/// free. The cell seed realising the wanted iteration is found by asking
/// `FaultPlan::random(candidate, ..).resolve(..)`, the function the runner itself uses.
pub fn balance_failures(cells: &mut [Experiment], seed: u64) {
    let mut group_key = None;
    let (mut in_group, mut shift, mut state) = (0u64, 0u64, seed);
    for (index, cell) in cells.iter_mut().enumerate() {
        if !cell.inject_failure() {
            continue;
        }
        let key = (cell.app, cell.input, cell.nprocs);
        if group_key != Some(key) {
            group_key = Some(key);
            in_group = 0;
            state = seed ^ (index as u64).wrapping_mul(0xA24B_AED4_963E_E407);
            shift = splitmix64(&mut state);
        }
        let iterations = iterations_of(cell);
        let (max_iteration, interval) = (iterations.max(2), checkpoint_interval(iterations));
        let phase = (shift + in_group / 2) % interval;
        let phase = if in_group % 2 == 0 {
            phase
        } else {
            interval - 1 - phase
        };
        // Only whole intervals: a clamped iteration would change the phase.
        let intervals = (max_iteration / interval).max(1);
        let wanted = (splitmix64(&mut state) % intervals) * interval + phase + 1;
        for _ in 0..10_000 {
            let candidate = splitmix64(&mut state);
            let drawn = FaultPlan::random(candidate, max_iteration).resolve(cell.nprocs);
            if drawn.is_some_and(|spec| spec.at_iteration == wanted) {
                cell.seed = candidate;
                break;
            }
        }
        in_group += 1;
    }
}

/// The figure rows `Findings::from_figure` reads, from cells and their reports.
pub fn with_failure_figure<'a>(
    rows: impl Iterator<Item = (&'a Experiment, [f64; 3])>,
) -> FigureData {
    FigureData {
        title: "fig-fault, with failure".to_string(),
        with_failure: true,
        rows: rows
            .map(
                |(cell, [application, checkpoint_write, recovery])| FigureRow {
                    app: cell.app,
                    group: cell.nprocs.to_string(),
                    design: cell.strategy.design_name().to_string(),
                    application,
                    checkpoint_write,
                    recovery,
                },
            )
            .collect(),
    }
}

/// The `fig-fault` matrix options: Small input, smoke scale, the three-rung ladder.
/// `--quick` keeps the shape and shrinks the ladder.
pub fn fig_fault_options(seed: u64, quick: bool) -> MatrixOptions {
    let ladder = if quick {
        vec![8, 16]
    } else {
        vec![32, 64, 128]
    };
    let mut options = MatrixOptions::laptop().with_process_counts(ladder);
    options.suite = suite_options(ExecutionScale::smoke(), seed);
    options
}

/// The `fig-fault` cells: the scaling sweep failure-free, then with one failure
/// (failure plans balanced, see [`balance_failures`]).
pub fn fig_fault_cells(options: &MatrixOptions) -> Vec<Experiment> {
    let mut cells = scaling_matrix(options, false);
    cells.extend(scaling_matrix(options, true));
    balance_failures(&mut cells, options.suite.seed);
    cells
}

fn ranks_wide_cells(seed: u64, quick: bool) -> Vec<Experiment> {
    let ladder: &[usize] = if quick { &[64] } else { &[512, 1024] };
    let suite = suite_options(ExecutionScale::smoke(), seed);
    let mut cells = Vec::new();
    for app in [ProxyKind::Hpccg, ProxyKind::Amg, ProxyKind::MiniVite] {
        for &nprocs in ladder {
            for strategy in [RecoveryStrategy::Reinit, RecoveryStrategy::Ulfm] {
                cells.push(
                    Experiment::new(app, InputSize::Small, nprocs, strategy)
                        .with_options(&suite)
                        .with_failure(true),
                );
            }
        }
    }
    balance_failures(&mut cells, seed);
    cells
}

/// `CoMD/Large` at bench scale is 40 s a cell — more than the whole run budget —
/// so the sweep leaves it out; the README records the exclusion.
fn input_sweep_cells(seed: u64, quick: bool) -> Vec<Experiment> {
    let mut options = MatrixOptions::laptop().with_process_counts(vec![8]);
    let scale = if quick {
        ExecutionScale::smoke()
    } else {
        ExecutionScale::bench()
    };
    options.suite = suite_options(scale, seed);
    let mut cells: Vec<Experiment> = input_size_matrix(&options, true)
        .into_iter()
        .filter(|e| !(e.app == ProxyKind::Comd && e.input == InputSize::Large))
        .collect();
    balance_failures(&mut cells, seed);
    cells
}

/// Which cells the set-up's warm-up pass runs: every fourth, so lazy tables, the
/// allocator and the page cache are warm without paying a whole pass per set-up.
fn warm_up_subset(cells: &[Experiment]) -> Vec<Experiment> {
    cells.iter().step_by(4).copied().collect()
}

/// A matrix workload: cold cells through `SuiteEngine::run_matrix`.
#[derive(Debug)]
pub struct Matrix {
    name: &'static str,
    cells: Vec<Experiment>,
    jobs: usize,
    /// `fig-fault` derives the paper error from its with-failure half.
    findings: bool,
}

impl Matrix {
    fn pass(&self, tracer: Option<&Tracer>) -> PassOutcome {
        let mut out = PassOutcome {
            ops: self.cells.len() as u64,
            ..Default::default()
        };
        let engine = SuiteEngine::with_jobs_and_disk(self.jobs, None);
        let result = match tracer {
            None => engine.run_matrix(&self.cells),
            Some(t) => drive_cells(&engine, &self.cells, self.jobs, t),
        };
        match result {
            Ok(reports) => {
                out.sim_digest = reports_digest(&reports);
                out.sim_ops = sim_ops_of(&reports);
                if self.findings {
                    let rows = self
                        .cells
                        .iter()
                        .zip(&reports)
                        .filter(|(c, _)| c.inject_failure());
                    let fig6 = with_failure_figure(rows.map(|(cell, r)| {
                        let times = [r.application_time(), r.checkpoint_time(), r.recovery_time()];
                        (cell, times.map(|t| t.as_secs()))
                    }));
                    out.paper_err_pct = Some(paper_err_pct(&Findings::from_figure(&fig6)));
                }
            }
            Err(e) => out.fail(out.ops, format!("{}: {e}", self.name)),
        }
        out
    }
}

/// The traced pass's own cell driver: at most `jobs` harness threads pull cells off
/// a shared cursor and call `SuiteEngine::run` inside a span each. Same cells, same
/// engine, same concurrency as `run_matrix` — plus one span per cell.
fn drive_cells(
    engine: &SuiteEngine,
    cells: &[Experiment],
    jobs: usize,
    tracer: &Tracer,
) -> Result<Vec<RunReport>, match_core::SuiteError> {
    let cursor = AtomicU64::new(0);
    let slots: Vec<std::sync::Mutex<Option<Result<RunReport, match_core::SuiteError>>>> =
        cells.iter().map(|_| std::sync::Mutex::new(None)).collect();
    tracer.span("harness", "pass", 0, None, |pass| {
        std::thread::scope(|scope| {
            for lane in 0..jobs.min(cells.len()).min(nproc()).max(1) {
                let (cursor, slots) = (&cursor, &slots);
                scope.spawn(move || loop {
                    // A work counter, not a publication: the slot mutex orders the data.
                    let i = cursor.fetch_add(1, Ordering::Relaxed) as usize;
                    let Some(cell) = cells.get(i) else { break };
                    let result = tracer.span(
                        "core",
                        format!("engine.run {}", cell.label()),
                        lane as u32,
                        Some(pass),
                        |_| engine.run(cell),
                    );
                    *slots[i].lock().expect("slot lock is never poisoned") = Some(result);
                });
            }
        });
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock is never poisoned")
                .expect("every cell was driven")
        })
        .collect()
}

/// Number of f64 words of protected state per rank (8 MiB), and per `--quick` rank.
const CKPT_WORDS: usize = 1 << 20;
const CKPT_WORDS_QUICK: usize = 1 << 14;
const CKPT_RANKS: usize = 16;
const CKPT_ITERATIONS: u64 = 6;

/// One FTI configuration of `ckpt-heavy`.
#[derive(Debug, Clone)]
struct CkptConfig {
    label: &'static str,
    fti: FtiConfig,
    dense: bool,
}

fn ckpt_configs() -> Vec<CkptConfig> {
    vec![
        CkptConfig {
            label: "L1+l2_every(2)+l4_every(6) differential, sparse updates",
            fti: FtiConfig::level(CheckpointLevel::L1)
                .interval(1)
                .l2_every(2)
                .l4_every(6)
                .differential(true),
            dense: false,
        },
        CkptConfig {
            label: "L3 RS k2+m2, dense updates",
            fti: FtiConfig::level(CheckpointLevel::L3).interval(1),
            dense: true,
        },
        CkptConfig {
            label: "L4, dense updates",
            fti: FtiConfig::level(CheckpointLevel::L4).interval(1),
            dense: true,
        },
    ]
}

/// The seeded initial payload of one rank.
fn initial_state(seed: u64, rank: usize, words: usize) -> Vec<f64> {
    let mut s = seed ^ (rank as u64).wrapping_mul(0xA24B_AED4_963E_E407);
    (0..words)
        .map(|_| (splitmix64(&mut s) >> 11) as f64 / (1u64 << 53) as f64)
        .collect()
}

/// One iteration's update of a rank's state; `sum` is that iteration's all-reduce.
fn advance(state: &mut [f64], iteration: u64, sum: f64, dense: bool) {
    let stride = if dense { 1 } else { 4096 };
    let offset = if dense {
        0
    } else {
        iteration as usize % stride
    };
    for x in state.iter_mut().skip(offset).step_by(stride) {
        *x = *x * 0.5 + sum * 1e-3;
    }
}

/// The all-reduce every iteration performs: rank `r` contributes `(r + 1) * t`, so
/// the sum is exact in f64 and known in closed form.
fn iteration_sum(nranks: usize, iteration: u64) -> f64 {
    (nranks * (nranks + 1) / 2) as f64 * iteration as f64
}

fn state_hash(state: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in state {
        h = (h ^ x.to_bits()).wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// One job of the harness-owned checkpoint rank body (shared with the `fti` layer
/// probes): `nranks` ranks each protect `words` f64 words, all-reduce, update and
/// checkpoint every iteration under `FtDriver::execute`, and restore after every
/// event of `trace`.
#[derive(Debug, Clone)]
pub struct CkptJob {
    /// Number of ranks.
    pub nranks: usize,
    /// Protected f64 words per rank.
    pub words: usize,
    /// Main-loop iterations (one checkpoint each).
    pub iterations: u64,
    /// Payload seed.
    pub seed: u64,
    /// Dense updates rewrite every word; sparse ones touch one word in 4096.
    pub dense: bool,
    /// The FTI configuration.
    pub fti: FtiConfig,
    /// The failures to inject.
    pub trace: FailureTrace,
    /// The scheduler backend; `None` is the library default.
    pub backend: Option<SchedBackend>,
}

/// What one rank of a [`CkptJob`] returns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CkptRank {
    /// Hash of the rank's final state.
    pub hash: u64,
    /// Checkpoints this rank wrote, over all attempts.
    pub checkpoints: u64,
    /// The rank's last restore: what served it and how many host microseconds
    /// `Fti::recover_object` took.
    pub restore: Option<(RestoreObservation, f64)>,
    /// Restores this rank performed.
    pub restores: u64,
}

impl CkptJob {
    /// The hash of rank `rank`'s failure-free final state. Needs no simulation: a
    /// rank's state depends only on its seed and the closed-form all-reduce sums.
    pub fn expected_hash(&self, rank: usize) -> u64 {
        let mut state = initial_state(self.seed, rank, self.words);
        for t in 1..=self.iterations {
            advance(&mut state, t, iteration_sum(self.nranks, t), self.dense);
        }
        state_hash(&state)
    }

    /// Runs the job; spans around every call into `mpisim`, `recovery` and `fti` are
    /// recorded under `parent` when `tracer` is given.
    pub fn run(
        &self,
        tracer: Option<&Tracer>,
        parent: Option<SpanId>,
    ) -> RunOutcome<DriverOutcome<CkptRank>> {
        let ft = FtConfig::new(RecoveryStrategy::Reinit, self.fti.clone())
            .with_fault(self.trace.clone());
        let mut config = runner::experiment_cluster(self.nranks);
        if let Some(backend) = self.backend {
            config = config.backend(backend);
        }
        let cluster = Cluster::new(config);
        let store = CheckpointStore::shared();
        traced(
            tracer,
            "mpisim",
            || "Cluster::run".into(),
            0,
            parent,
            |job| {
                cluster.run(|ctx| {
                    let lane = ctx.rank() as u32 + 1;
                    let driver = FtDriver::new(ft.clone(), Arc::clone(&store));
                    // The closure is re-entered after every recovery; the counts span
                    // all attempts of this rank.
                    let (mut checkpoints, mut restores, mut restore) = (0u64, 0u64, None);
                    let result = traced(
                        tracer,
                        "recovery",
                        || "FtDriver::execute".into(),
                        lane,
                        job,
                        |exec| {
                            driver.execute(ctx, |ctx, fti, injector| {
                                let world = ctx.world();
                                let rank = ctx.rank();
                                let mut state = initial_state(self.seed, rank, self.words);
                                let mut start = 1u64;
                                fti.protect(0, "state", &state);
                                if fti.status().is_restart() {
                                    let began = Instant::now();
                                    let at = traced(
                                        tracer,
                                        "fti",
                                        || "Fti::recover_object".into(),
                                        lane,
                                        exec,
                                        |_| fti.recover_object(ctx, 0, &mut state),
                                    )?;
                                    let us = began.elapsed().as_secs_f64() * 1e6;
                                    restore = fti.last_restore().map(|seen| (seen, us));
                                    restores += 1;
                                    start = at + 1;
                                }
                                for t in start..=self.iterations {
                                    injector.maybe_fail(ctx, t)?;
                                    let mine = ((rank + 1) as u64 * t) as f64;
                                    let sum = traced(
                                        tracer,
                                        "mpisim",
                                        || "allreduce_sum_f64".into(),
                                        lane,
                                        exec,
                                        |_| ctx.allreduce_sum_f64(&world, mine),
                                    )?;
                                    advance(&mut state, t, sum, self.dense);
                                    traced(
                                        tracer,
                                        "fti",
                                        || "Fti::checkpoint".into(),
                                        lane,
                                        exec,
                                        |_| {
                                            fti.checkpoint(
                                                ctx,
                                                t,
                                                &[(0, &state as &dyn Protectable)],
                                            )
                                        },
                                    )?;
                                    checkpoints += 1;
                                }
                                fti.finalize(ctx)?;
                                Ok(state_hash(&state))
                            })
                        },
                    )?;
                    Ok(DriverOutcome {
                        value: result.value.map(|hash| CkptRank {
                            hash,
                            checkpoints,
                            restore,
                            restores,
                        }),
                        attempts: result.attempts,
                        recoveries: result.recoveries,
                        attempt_log: result.attempt_log,
                        failure_events: result.failure_events,
                    })
                })
            },
        )
    }
}

/// The checkpoint workload: [`CkptJob`] under three FTI configurations.
#[derive(Debug)]
pub struct CkptHeavy {
    jobs: Vec<(&'static str, CkptJob)>,
    /// Per job, per rank: the hash of the failure-free final state.
    expected: Vec<Vec<u64>>,
}

impl CkptHeavy {
    fn prepare(seed: u64, quick: bool) -> Self {
        // A process kill (restore from the surviving primary copies) and then a node
        // crash (the victim's primary is gone: partner copy, RS decode or PFS).
        let mut s = seed;
        let killed = (splitmix64(&mut s) % CKPT_RANKS as u64) as usize;
        let crashed = (splitmix64(&mut s) % CKPT_RANKS as u64) as usize;
        let trace = FailureTrace::schedule(vec![
            FailureSpec::kill_process(killed, 3),
            FailureSpec::crash_node(crashed, 5),
        ]);
        let jobs: Vec<(&'static str, CkptJob)> = ckpt_configs()
            .into_iter()
            .map(|config| {
                let job = CkptJob {
                    nranks: CKPT_RANKS,
                    words: if quick { CKPT_WORDS_QUICK } else { CKPT_WORDS },
                    iterations: CKPT_ITERATIONS,
                    seed,
                    dense: config.dense,
                    fti: config.fti,
                    trace: trace.clone(),
                    backend: None,
                };
                (config.label, job)
            })
            .collect();
        let expected = jobs
            .iter()
            .map(|(_, job)| {
                (0..job.nranks)
                    .map(|rank| job.expected_hash(rank))
                    .collect()
            })
            .collect();
        CkptHeavy { jobs, expected }
    }

    fn pass(&self, tracer: Option<&Tracer>) -> PassOutcome {
        let mut out = PassOutcome::default();
        let mut digest_bytes = Vec::new();
        traced(
            tracer,
            "harness",
            || "pass".into(),
            0,
            None,
            |pass| {
                for i in 0..self.jobs.len() {
                    self.run_job(i, tracer, pass, &mut out, &mut digest_bytes);
                }
            },
        );
        out.sim_digest = fnv1a128(&digest_bytes);
        out
    }

    fn run_job(
        &self,
        index: usize,
        tracer: Option<&Tracer>,
        pass: Option<SpanId>,
        out: &mut PassOutcome,
        digest_bytes: &mut Vec<u8>,
    ) {
        let (label, job) = &self.jobs[index];
        let outcome = job.run(tracer, pass);
        if !outcome.all_ok() {
            let attempted = job.nranks as u64 * job.iterations;
            out.ops += attempted;
            out.fail(attempted, format!("{label}: {:?}", outcome.errors()));
            return;
        }
        let mut ops = 0;
        for (rank, want) in self.expected[index].iter().enumerate() {
            let got = outcome.value_of(rank).value;
            ops += got.map_or(0, |r| r.checkpoints + r.restores);
            if got.map(|r| r.hash) != Some(*want) {
                out.fail(1, format!("{label}: rank {rank} final state differs"));
            }
            digest_bytes.extend_from_slice(&got.map_or(0, |r| r.hash).to_le_bytes());
        }
        out.ops += ops;
        let stats = outcome.total_stats();
        out.sim_ops += stats.sends + stats.recvs + stats.collectives;
        digest_bytes.extend_from_slice(&outcome.max_time().as_secs().to_bits().to_le_bytes());
        digest_bytes.extend_from_slice(&stats.checkpoint_bytes.to_le_bytes());
        digest_bytes.extend_from_slice(&ops.to_le_bytes());
    }
}

/// How many {fresh engine, disk recall, memory recall} loops one `warm-rerun` pass
/// makes.
const WARM_LOOPS: usize = 1200;

/// The warm workload: the `fig-fault` cells recalled from a private disk store.
#[derive(Debug)]
pub struct WarmRerun {
    cells: Vec<Experiment>,
    unique: u64,
    cold: Vec<RunReport>,
    store: Arc<DiskCache>,
    loops: usize,
}

impl WarmRerun {
    fn prepare(seed: u64, quick: bool, scratch: &Path) -> Result<Self, String> {
        let cells = fig_fault_cells(&fig_fault_options(seed, quick));
        let unique = cells
            .iter()
            .map(ExperimentId::of)
            .collect::<std::collections::BTreeSet<_>>()
            .len() as u64;
        static STORE_SEQ: AtomicU64 = AtomicU64::new(0);
        let root = scratch.join(format!(
            "store-{}",
            STORE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let store = Arc::new(DiskCache::new(root, None));
        let engine = SuiteEngine::with_jobs_and_disk(nproc(), Some(Arc::clone(&store)));
        let cold = engine
            .run_matrix(&cells)
            .map_err(|e| format!("warm-rerun pre-population: {e}"))?;
        let written = engine.cache_stats().disk_writes;
        if written != unique {
            return Err(format!(
                "warm-rerun pre-population stored {written} of {unique} cells"
            ));
        }
        Ok(WarmRerun {
            cells,
            unique,
            cold,
            store,
            loops: if quick { 3 } else { WARM_LOOPS },
        })
    }

    fn run_loops(&self, loops: usize, tracer: Option<&Tracer>) -> PassOutcome {
        let mut out = PassOutcome::default();
        let mut last = Vec::new();
        traced(
            tracer,
            "harness",
            || "pass".into(),
            0,
            None,
            |pass| {
                for _ in 0..loops {
                    out.ops += 2 * self.cells.len() as u64;
                    let engine = traced(
                        tracer,
                        "core",
                        || "SuiteEngine::with_jobs_and_disk".into(),
                        0,
                        pass,
                        |_| SuiteEngine::with_jobs_and_disk(nproc(), Some(Arc::clone(&self.store))),
                    );
                    let disk = traced(
                        tracer,
                        "core",
                        || "run_matrix (disk)".into(),
                        0,
                        pass,
                        |_| engine.run_matrix(&self.cells),
                    );
                    let stats = engine.cache_stats();
                    if stats.disk_misses > 0 || stats.disk_hits != self.unique {
                        out.fail(
                            stats.disk_misses.max(1),
                            format!("warm-rerun simulated {} cells ({stats})", stats.disk_misses),
                        );
                    }
                    let memory = traced(
                        tracer,
                        "core",
                        || "run_matrix (memory)".into(),
                        0,
                        pass,
                        |_| engine.run_matrix(&self.cells),
                    );
                    for (what, recalled) in [("disk", disk), ("memory", memory)] {
                        match recalled {
                            Ok(reports) => {
                                let wrong = reports.iter().zip(&self.cold).filter(|(a, b)| a != b);
                                let wrong = wrong.count() as u64;
                                if wrong > 0 {
                                    out.fail(
                                        wrong,
                                        format!("{wrong} {what} recalls differ from cold"),
                                    );
                                }
                                last = reports;
                            }
                            Err(e) => {
                                out.fail(self.cells.len() as u64, format!("{what} recall: {e}"))
                            }
                        }
                    }
                }
            },
        );
        out.sim_digest = reports_digest(&last);
        out.sim_ops = 0;
        out
    }
}

impl Drop for WarmRerun {
    fn drop(&mut self) {
        // Best effort: a leftover store is also removed with the scratch directory.
        let _ = std::fs::remove_dir_all(self.store.root());
    }
}

/// The explorer workload.
#[derive(Debug)]
pub struct ExploreSmall {
    config: ExploreConfig,
}

impl ExploreSmall {
    fn config(seed: u64, budget: u32) -> ExploreConfig {
        ExploreConfig {
            nprocs: 8,
            iterations: 12,
            budget,
            seed,
            // A corpus would make the second pass start from the first one's finds;
            // passes must repeat, so the corpus stays in memory.
            corpus: None,
            assert_label: None,
        }
    }

    fn pass(&self, tracer: Option<&Tracer>) -> PassOutcome {
        let explorer = Explorer::new(self.config.clone());
        let outcome = traced(
            tracer,
            "harness",
            || "pass".into(),
            0,
            None,
            |pass| {
                traced(
                    tracer,
                    "explorer",
                    || "Explorer::run".into(),
                    0,
                    pass,
                    |_| explorer.run(),
                )
            },
        );
        let rounds: u64 = outcome
            .report
            .designs
            .iter()
            .map(|d| u64::from(d.runs))
            .sum();
        let mut out = PassOutcome {
            ops: rounds,
            sim_digest: fnv1a128(outcome.report.to_json().as_bytes()),
            ..Default::default()
        };
        for v in &outcome.violations {
            out.fail(
                1,
                format!("explorer violation: {} {:?}", v.strategy, v.property),
            );
        }
        out
    }
}

/// A prepared workload: inputs generated, ready for its warm-up and passes.
#[derive(Debug)]
pub enum Workload {
    /// `fig-fault`, `ranks-wide` and `input-sweep`.
    Matrix(Matrix),
    /// `ckpt-heavy`.
    Ckpt(CkptHeavy),
    /// `warm-rerun`.
    Warm(WarmRerun),
    /// `explore-small`.
    Explore(ExploreSmall),
}

impl Workload {
    /// Generates the inputs of the workload named `name` (and pre-populates the
    /// store of `warm-rerun` under `scratch`). The first half of a set-up.
    pub fn prepare(name: &str, seed: u64, quick: bool, scratch: &Path) -> Result<Self, String> {
        let jobs = nproc();
        Ok(match name {
            "fig-fault" => Workload::Matrix(Matrix {
                name: "fig-fault",
                cells: fig_fault_cells(&fig_fault_options(seed, quick)),
                jobs,
                findings: true,
            }),
            "ranks-wide" => Workload::Matrix(Matrix {
                name: "ranks-wide",
                cells: ranks_wide_cells(seed, quick),
                // One cell at a time: `par` gets the whole core budget as workers.
                jobs: 1,
                findings: false,
            }),
            "input-sweep" => Workload::Matrix(Matrix {
                name: "input-sweep",
                cells: input_sweep_cells(seed, quick),
                jobs,
                findings: false,
            }),
            "ckpt-heavy" => Workload::Ckpt(CkptHeavy::prepare(seed, quick)),
            "warm-rerun" => Workload::Warm(WarmRerun::prepare(seed, quick, scratch)?),
            "explore-small" => Workload::Explore(ExploreSmall {
                config: ExploreSmall::config(seed, if quick { 8 } else { 96 }),
            }),
            other => return Err(format!("unknown workload {other:?}")),
        })
    }

    /// The warm-up pass: the second half of a set-up. Runs a stated fraction of a
    /// pass so that lazy initialisation is paid before timing starts.
    pub fn warm_up(&self) -> PassOutcome {
        match self {
            Workload::Matrix(m) => Matrix {
                name: m.name,
                cells: warm_up_subset(&m.cells),
                jobs: m.jobs,
                findings: false,
            }
            .pass(None),
            Workload::Ckpt(c) => {
                let mut out = PassOutcome::default();
                c.run_job(1, None, None, &mut out, &mut Vec::new());
                out
            }
            Workload::Warm(w) => w.run_loops(2, None),
            Workload::Explore(e) => ExploreSmall {
                config: ExploreSmall::config(e.config.seed, e.config.budget.div_ceil(8)),
            }
            .pass(None),
        }
    }

    /// One closed-loop pass over the whole workload, spans recorded when `tracer`
    /// is given.
    pub fn pass(&self, tracer: Option<&Tracer>) -> PassOutcome {
        match self {
            Workload::Matrix(m) => m.pass(tracer),
            Workload::Ckpt(c) => c.pass(tracer),
            Workload::Warm(w) => w.run_loops(w.loops, tracer),
            Workload::Explore(e) => e.pass(tracer),
        }
    }
}

/// A private scratch directory under the package's `out/`, removed on drop.
#[derive(Debug)]
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    /// Creates `out/tmp-<pid>-<label>` under the benchmark package.
    pub fn create(label: &str) -> std::io::Result<Scratch> {
        let path = crate::host::package_dir()
            .join("out")
            .join(format!("tmp-{}-{label}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Scratch { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Errors cannot be reported from a destructor; the directory is inside the
        // ignored `out/` tree either way.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let cells = ranks_wide_cells(7, true);
        let engine = SuiteEngine::with_jobs_and_disk(1, None);
        let reports = engine.run_matrix(&cells[..2]).expect("cells run");
        let again = SuiteEngine::with_jobs_and_disk(2, None)
            .run_matrix(&cells[..2])
            .expect("cells run");
        assert_eq!(reports_digest(&reports), reports_digest(&again));
        let swapped = vec![reports[1].clone(), reports[0].clone()];
        assert_ne!(reports_digest(&reports), reports_digest(&swapped));
        assert_ne!(reports_digest(&reports), reports_digest(&reports[..1]));
        // The digest of nothing is the FNV-128 offset basis: a fixed point of the format.
        assert_eq!(reports_digest(&[]), fnv1a128(&[]));
    }

    #[test]
    fn workload_shapes_match_their_definitions() {
        assert_eq!(fig_fault_cells(&fig_fault_options(1, false)).len(), 136);
        assert_eq!(ranks_wide_cells(1, false).len(), 12);
        let sweep = input_sweep_cells(1, false);
        assert_eq!(sweep.len(), 68);
        assert!(sweep.iter().all(|e| e.nprocs == 8 && e.inject_failure()));
        assert!(!sweep
            .iter()
            .any(|e| e.app == ProxyKind::Comd && e.input == InputSize::Large));
    }

    #[test]
    fn balanced_failures_re_execute_the_same_work_for_every_seed() {
        let phases_of = |seed: u64| -> (Vec<u64>, Vec<u64>) {
            let cells = input_sweep_cells(seed, true);
            let mut phases = Vec::new();
            for cell in &cells {
                let iterations = iterations_of(cell);
                let interval = checkpoint_interval(iterations);
                let spec = FaultPlan::random(cell.seed, iterations.max(2))
                    .resolve(cell.nprocs)
                    .expect("a with-failure cell has a plan");
                phases.push((spec.at_iteration - 1) % interval);
            }
            (phases, cells.iter().map(|c| c.seed).collect())
        };
        let (first, first_seeds) = phases_of(11);
        assert_eq!(first, phases_of(11).0, "the same seed gives the same plans");
        let mut plans_differ = false;
        for seed in 12..20 {
            let (phases, seeds) = phases_of(seed);
            plans_differ |= seeds != first_seeds;
            // Four designs per (app, input): two mirrored pairs, so every group
            // re-executes the same number of iterations whatever the seed.
            for (a, b) in first.chunks(4).zip(phases.chunks(4)) {
                assert_eq!(a.iter().sum::<u64>(), b.iter().sum::<u64>(), "seed {seed}");
            }
        }
        assert!(plans_differ, "seeds must still change the plans");
    }

    #[test]
    fn paper_error_is_zero_at_the_paper_values() {
        let findings = Findings {
            ulfm_over_reinit_avg: 4.0,
            ulfm_over_reinit_max: 13.0,
            restart_over_reinit_avg: 16.0,
            restart_over_reinit_max: 22.0,
            restart_over_ulfm_avg: 0.0,
            checkpoint_fraction_avg: 0.13,
            ulfm_app_inflation_avg: 0.0,
            shrink_over_reinit_avg: 0.0,
        };
        assert_eq!(paper_err_pct(&findings), 0.0);
        let off = Findings {
            ulfm_over_reinit_avg: 8.0,
            ..findings
        };
        assert!((paper_err_pct(&off) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn seeds_change_inputs_and_repeat() {
        assert_eq!(initial_state(3, 1, 64), initial_state(3, 1, 64));
        assert_ne!(initial_state(3, 1, 64), initial_state(4, 1, 64));
        assert_ne!(initial_state(3, 1, 64), initial_state(3, 2, 64));
        assert!(initial_state(3, 1, 64)
            .iter()
            .all(|x| (0.0..1.0).contains(x)));
    }
}
