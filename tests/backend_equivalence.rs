//! Backend-equivalence suite: the `coop` and `par` scheduler backends must be
//! observationally indistinguishable — every run is a pure function of virtual time,
//! so a job's results, time breakdowns, statistics and per-attempt accounting must be
//! **bit-identical** across backends (and, for `par`, across any worker count), with
//! and without injected failures. `coop`, whose single-threaded schedule is the same
//! every run, is the reference. This is the contract of `mpisim::SchedBackend`, and it
//! is what lets the experiment cache key omit the backend entirely.

/// The `par` worker counts every equivalence test sweeps: the degenerate single
/// worker, two ranks per worker, one rank per worker (every rank parks and is woken
/// on an OS thread of its own), and more workers than ranks (clamped internally).
const PAR_WORKERS: [usize; 4] = [1, 2, 4, 8];

use std::sync::Arc;

use match_core::fti::store::CheckpointStore;
use match_core::fti::{CheckpointLevel, Fti, FtiConfig, Protectable};
use match_core::mpisim::{
    Cluster, ClusterConfig, FailureSpec, MpiError, RankCtx, SchedBackend, TimeBreakdown,
};
use match_core::proxies::{InputSize, ProxyKind};
use match_core::recovery::{
    DriverOutcome, FailureTrace, FaultInjector, FtConfig, FtDriver, RecoveryStrategy,
};
use match_core::{runner, Experiment, SuiteOptions};

const ITERATIONS: u64 = 12;
const NPROCS: usize = 4;
const NNODES: usize = 2;

/// The driver-test toy application (same as the multi-failure suite): deterministic
/// final value, FTI-protected accumulator, injection hook each iteration.
fn toy_app(ctx: &mut RankCtx, fti: &mut Fti, injector: &FaultInjector) -> Result<f64, MpiError> {
    let world = ctx.world();
    let mut acc = 0.0f64;
    let mut start = 1u64;
    fti.protect(0, "acc", &acc);
    if fti.status().is_restart() {
        let at = fti.recover_object(ctx, 0, &mut acc)?;
        start = at + 1;
    }
    for iteration in start..=ITERATIONS {
        injector.maybe_fail(ctx, iteration)?;
        ctx.compute(2e4);
        let contribution = ctx.allreduce_sum_f64(&world, (ctx.rank() + 1) as f64)?;
        acc += contribution;
        if fti.should_checkpoint(iteration) {
            fti.checkpoint(ctx, iteration, &[(0, &acc as &dyn Protectable)])?;
        }
    }
    fti.finalize(ctx)?;
    Ok(acc)
}

/// Everything observable about one rank's execution, for exact comparison.
/// `value` is `None` for a rank that left the job as a shrinking-recovery casualty.
#[derive(Debug, PartialEq)]
struct RankObservation {
    value: Option<f64>,
    attempts: u32,
    recoveries: u32,
    failure_events: u64,
    finish_secs_bits: u64,
}

fn run_trace_on(
    backend: SchedBackend,
    strategy: RecoveryStrategy,
    trace: FailureTrace,
    fti: FtiConfig,
) -> (Vec<RankObservation>, TimeBreakdown) {
    run_trace_on_workers(backend, 0, strategy, trace, fti)
}

fn run_trace_on_workers(
    backend: SchedBackend,
    workers: usize,
    strategy: RecoveryStrategy,
    trace: FailureTrace,
    fti: FtiConfig,
) -> (Vec<RankObservation>, TimeBreakdown) {
    run_trace_at(NPROCS, NNODES, backend, workers, strategy, trace, fti)
}

fn run_trace_at(
    nprocs: usize,
    nnodes: usize,
    backend: SchedBackend,
    workers: usize,
    strategy: RecoveryStrategy,
    trace: FailureTrace,
    fti: FtiConfig,
) -> (Vec<RankObservation>, TimeBreakdown) {
    let cluster = ClusterConfig::with_ranks(nprocs)
        .nodes(nnodes)
        .backend(backend)
        .workers(workers)
        .stack_size(256 * 1024);
    run_trace_in(cluster, strategy, trace, fti)
}

fn run_trace_in(
    cluster: ClusterConfig,
    strategy: RecoveryStrategy,
    trace: FailureTrace,
    fti: FtiConfig,
) -> (Vec<RankObservation>, TimeBreakdown) {
    run_app_in(cluster, strategy, trace, fti, toy_app)
}

/// A rank program under the recovery driver.
type App = fn(&mut RankCtx, &mut Fti, &FaultInjector) -> Result<f64, MpiError>;

fn run_app_in(
    cluster: ClusterConfig,
    strategy: RecoveryStrategy,
    trace: FailureTrace,
    fti: FtiConfig,
    app: App,
) -> (Vec<RankObservation>, TimeBreakdown) {
    let backend = cluster.backend;
    let store = CheckpointStore::shared();
    let config = FtConfig::new(strategy, fti).with_fault(trace);
    let outcome = Cluster::new(cluster).run(move |ctx| {
        let driver = FtDriver::new(config.clone(), Arc::clone(&store));
        driver.execute(ctx, app)
    });
    assert!(
        outcome.all_ok(),
        "{strategy} on {backend}: {:?}",
        outcome.errors()
    );
    let observations = outcome
        .ranks()
        .iter()
        .map(|r| {
            let out: &DriverOutcome<f64> = r.result.as_ref().unwrap();
            RankObservation {
                value: out.value,
                attempts: out.attempts,
                recoveries: out.recoveries,
                failure_events: out.failure_events,
                finish_secs_bits: r.finish_time.as_secs().to_bits(),
            }
        })
        .collect();
    (observations, outcome.max_breakdown())
}

/// An L2 configuration with a periodic L4 flush (tolerates the node crashes the
/// seeded traces below can produce).
fn resilient_config() -> FtiConfig {
    FtiConfig::level(CheckpointLevel::L2)
        .interval(4)
        .l4_every(8)
}

#[test]
fn failure_free_runs_are_bit_identical_across_backends() {
    for strategy in RecoveryStrategy::ALL {
        let (a, ba) = run_trace_on(
            SchedBackend::Coop,
            strategy,
            FailureTrace::none(),
            resilient_config(),
        );
        for workers in PAR_WORKERS {
            let (c, bc) = run_trace_on_workers(
                SchedBackend::Par,
                workers,
                strategy,
                FailureTrace::none(),
                resilient_config(),
            );
            assert_eq!(a, c, "{strategy}: par[w={workers}] observations diverged");
            assert_eq!(ba, bc, "{strategy}: par[w={workers}] breakdowns diverged");
        }
    }
}

#[test]
fn node_crash_recovery_is_bit_identical_across_backends() {
    let trace = FailureTrace::schedule(vec![FailureSpec::crash_node(1, 6)]);
    for strategy in RecoveryStrategy::ALL {
        let (a, ba) = run_trace_on(
            SchedBackend::Coop,
            strategy,
            trace.clone(),
            resilient_config(),
        );
        // Shrinking-recovery casualties (value None) report zero recoveries; every
        // rank that finishes the job must have gone through at least one.
        assert!(
            a.iter()
                .filter(|o| o.value.is_some())
                .all(|o| o.recoveries >= 1),
            "{strategy}: no recovery"
        );
        for workers in PAR_WORKERS {
            let (c, bc) = run_trace_on_workers(
                SchedBackend::Par,
                workers,
                strategy,
                trace.clone(),
                resilient_config(),
            );
            assert_eq!(
                a, c,
                "{strategy}: par[w={workers}] node-crash observations diverged"
            );
            assert_eq!(
                ba, bc,
                "{strategy}: par[w={workers}] node-crash breakdowns diverged"
            );
        }
    }
}

/// The dedicated shrink leg: a *partitioned* dataset (so the shrinking recovery
/// actually moves blocks between survivors) run under `SHRINK-FTI` must be
/// bit-identical across `coop` and `par` at every worker count — the
/// redistribution messages are part of the virtual-time contract.
#[test]
fn shrink_redistribution_is_bit_identical_across_backends() {
    use match_core::proxies::common::world_slab;
    const TOTAL: usize = 32;

    fn partitioned_app(
        ctx: &mut RankCtx,
        fti: &mut Fti,
        injector: &FaultInjector,
    ) -> Result<f64, MpiError> {
        let world = ctx.world();
        let global = TOTAL * ctx.topology().nranks() / NPROCS;
        let (start, count) = world_slab(&world, global);
        let mut x: Vec<f64> = (start..start + count).map(|g| g as f64).collect();
        let mut step: u64 = 0;
        fti.protect_partitioned(0, "x", &x, global as u64);
        fti.protect(1, "step", &step);
        if fti.status().is_restart() {
            fti.recover(
                ctx,
                &mut [
                    (0, &mut x as &mut dyn Protectable),
                    (1, &mut step as &mut dyn Protectable),
                ],
            )?;
        }
        while step < ITERATIONS {
            let current = step + 1;
            injector.maybe_fail(ctx, current)?;
            ctx.compute(1e4);
            for v in &mut x {
                *v += 1.0;
            }
            step = current;
            if fti.should_checkpoint(step) {
                fti.checkpoint(
                    ctx,
                    step,
                    &[(0, &x as &dyn Protectable), (1, &step as &dyn Protectable)],
                )?;
            }
        }
        fti.finalize(ctx)?;
        ctx.allreduce_sum_f64(&world, x.iter().sum())
    }

    let run = |backend: SchedBackend, workers: usize| {
        let store = CheckpointStore::shared();
        let config = FtConfig::new(RecoveryStrategy::Shrink, resilient_config()).with_fault(
            FailureTrace::schedule(vec![FailureSpec::kill_process(2, 6)]),
        );
        let cluster = Cluster::new(
            ClusterConfig::with_ranks(NPROCS)
                .nodes(NNODES)
                .backend(backend)
                .workers(workers),
        );
        let outcome = cluster.run(move |ctx| {
            let driver = FtDriver::new(config.clone(), Arc::clone(&store));
            driver.execute(ctx, partitioned_app)
        });
        assert!(outcome.all_ok(), "{backend}: {:?}", outcome.errors());
        let observations: Vec<RankObservation> = outcome
            .ranks()
            .iter()
            .map(|r| {
                let out: &DriverOutcome<f64> = r.result.as_ref().unwrap();
                RankObservation {
                    value: out.value,
                    attempts: out.attempts,
                    recoveries: out.recoveries,
                    failure_events: out.failure_events,
                    finish_secs_bits: r.finish_time.as_secs().to_bits(),
                }
            })
            .collect();
        (observations, outcome.max_breakdown())
    };

    let (a, ba) = run(SchedBackend::Coop, 0);
    // The casualty reports no value; every survivor owns part of the full array and
    // agrees on the global sum (each element advanced by every one of the 12 steps).
    assert_eq!(a[2].value, None);
    let expected: f64 = (0..TOTAL).map(|g| g as f64 + ITERATIONS as f64).sum();
    for (rank, o) in a.iter().enumerate() {
        if rank != 2 {
            assert_eq!(o.value, Some(expected), "rank {rank}");
        }
    }
    for workers in PAR_WORKERS {
        let (c, bc) = run(SchedBackend::Par, workers);
        assert_eq!(a, c, "shrink redistribution diverged on par[w={workers}]");
        assert_eq!(ba, bc, "shrink breakdowns diverged on par[w={workers}]");
    }
}

/// Regression (found by the seeded proptest below): two process kills landing at
/// the SAME iteration under the shrinking design must still be bit-identical
/// across backends and worker counts. The double-kill makes the shrink rendezvous
/// race-prone: both victims die in one disruption epoch and the survivors must
/// agree on one combined retirement, not two orderings of partial ones.
#[test]
fn simultaneous_kills_under_shrink_are_bit_identical_across_backends() {
    let trace = FailureTrace::schedule(vec![
        FailureSpec::kill_process(1, 12),
        FailureSpec::kill_process(3, 12),
    ]);
    for _ in 0..12 {
        let (a, ba) = run_trace_on(
            SchedBackend::Coop,
            RecoveryStrategy::Shrink,
            trace.clone(),
            resilient_config(),
        );
        for workers in PAR_WORKERS {
            let (c, bc) = run_trace_on_workers(
                SchedBackend::Par,
                workers,
                RecoveryStrategy::Shrink,
                trace.clone(),
                resilient_config(),
            );
            assert_eq!(a, c, "double-kill shrink diverged on par[w={workers}]");
            assert_eq!(
                ba, bc,
                "double-kill shrink breakdowns diverged on par[w={workers}]"
            );
        }
    }
}

/// The wide leg of the matrix: at 256 ranks a recovery is a few hundred parkings and
/// two cluster-wide broadcasts racing each other across `par`'s workers — the regime
/// the targeted failure-transition wakes were built for. One with-failure cell per
/// design, bit-identical on every backend.
#[test]
fn wide_cells_with_a_failure_are_bit_identical_across_backends() {
    const WIDE: usize = 256;
    let trace = FailureTrace::schedule(vec![FailureSpec::kill_process(WIDE / 3, 7)]);
    for strategy in RecoveryStrategy::ALL {
        let run = |backend, workers| {
            run_trace_at(
                WIDE,
                32,
                backend,
                workers,
                strategy,
                trace.clone(),
                resilient_config(),
            )
        };
        let (a, ba) = run(SchedBackend::Coop, 0);
        assert!(
            a.iter().any(|o| o.recoveries == 1),
            "{strategy} must recover"
        );
        for workers in [2, 3] {
            let (b, bb) = run(SchedBackend::Par, workers);
            assert_eq!(a, b, "{strategy} diverged on par[w={workers}]");
            assert_eq!(ba, bb, "{strategy} breakdowns diverged on par[w={workers}]");
        }
    }
}

/// The collective slot under load: every iteration runs an all-reduce, a ring
/// exchange, an all-gather, a barrier and a max-reduce back to back — no rank waits
/// for a round to drain before depositing into the next — and the victim dies between
/// two of them, after its peers have run ahead into a round it will never join. The
/// respawn designs must be bit-identical to `coop` on `par` at 2, 3 and 4 workers
/// (12 ranks: even, uneven and one-node-per-worker blocks).
#[test]
fn collective_heavy_rounds_with_a_kill_are_bit_identical_across_backends() {
    const RANKS: usize = 12;

    fn collective_app(
        ctx: &mut RankCtx,
        fti: &mut Fti,
        injector: &FaultInjector,
    ) -> Result<f64, MpiError> {
        let world = ctx.world();
        let (me, n) = (world.rank(), world.size());
        let (next, prev) = ((me + 1) % n, (me + n - 1) % n);
        let mut acc = 0.0f64;
        let mut start = 1u64;
        fti.protect(0, "acc", &acc);
        if fti.status().is_restart() {
            start = fti.recover_object(ctx, 0, &mut acc)? + 1;
        }
        for iteration in start..=ITERATIONS {
            // Uneven bodies: who is ahead, and who finishes a round, changes per
            // iteration.
            ctx.compute(((me + iteration as usize) % 4) as f64 * 3e4);
            let sum = ctx.allreduce_sum_f64(&world, (me + 1) as f64 * iteration as f64)?;
            let halo = ctx.sendrecv_f64(&world, next, &[acc, sum], prev, 7)?;
            injector.maybe_fail(ctx, iteration)?;
            let mine = [(halo[0] + me as f64).to_bits(), sum.to_bits()];
            let gathered = ctx.allgather_u64(&world, &mine)?;
            ctx.barrier(&world)?;
            let peak = ctx.allreduce_max_f64(&world, f64::from_bits(gathered.chunk(prev)[0]))?;
            let gathered_sum = gathered
                .flat()
                .iter()
                .map(|&b| f64::from_bits(b))
                .sum::<f64>();
            acc += sum + 1e-3 * gathered_sum + 1e-6 * peak;
            if fti.should_checkpoint(iteration) {
                fti.checkpoint(ctx, iteration, &[(0, &acc as &dyn Protectable)])?;
            }
        }
        fti.finalize(ctx)?;
        Ok(acc)
    }

    let trace = FailureTrace::schedule(vec![FailureSpec::kill_process(RANKS / 2, 7)]);
    for strategy in RecoveryStrategy::ALL
        .into_iter()
        .filter(|s| *s != RecoveryStrategy::Shrink)
    {
        let run = |backend, workers| {
            let cluster = ClusterConfig::with_ranks(RANKS)
                .nodes(4)
                .backend(backend)
                .workers(workers)
                .stack_size(256 * 1024);
            let fti = resilient_config();
            run_app_in(cluster, strategy, trace.clone(), fti, collective_app)
        };
        let (a, ba) = run(SchedBackend::Coop, 0);
        assert!(
            a.iter().all(|o| o.recoveries == 1),
            "{strategy} must recover"
        );
        assert!(
            a.iter().all(|o| o.value == a[0].value),
            "{strategy}: one answer"
        );
        for workers in [2, 3, 4] {
            let (b, bb) = run(SchedBackend::Par, workers);
            assert_eq!(a, b, "{strategy} diverged on par[w={workers}]");
            assert_eq!(ba, bb, "{strategy} breakdowns diverged on par[w={workers}]");
        }
    }
}

/// Exclusive hold on the scheduler selection of the process environment: saves
/// `MATCH_BACKEND` and `MATCH_WORKERS` and puts them back on drop. The tests that set
/// or clear them serialise on it; every other test in this binary names its backend.
struct SchedEnv {
    saved: [(&'static str, Option<String>); 2],
    _lock: std::sync::MutexGuard<'static, ()>,
}

impl SchedEnv {
    fn hold() -> SchedEnv {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        SchedEnv {
            saved: ["MATCH_BACKEND", "MATCH_WORKERS"].map(|k| (k, std::env::var(k).ok())),
            _lock: lock,
        }
    }
}

impl Drop for SchedEnv {
    fn drop(&mut self) {
        for (key, value) in &self.saved {
            match value {
                Some(v) => std::env::set_var(key, v),
                None => std::env::remove_var(key),
            }
        }
    }
}

/// The library-default leg: a configuration that names no backend, in a process
/// whose environment names none either, runs on `SchedBackend::default()` with the
/// default worker resolution — the path every figure takes — and must equal the
/// `coop` reference bit for bit. One with-failure cell per design at 64 ranks
/// (a few ranks per worker on a small host) and at 256.
#[test]
fn library_default_backend_is_bit_identical_to_coop() {
    let _env = SchedEnv::hold();
    std::env::remove_var("MATCH_BACKEND");
    std::env::remove_var("MATCH_WORKERS");
    for nprocs in [64usize, 256] {
        let default = ClusterConfig::with_ranks(nprocs);
        assert_eq!(default.backend, SchedBackend::Par, "fibers are the default");
        assert_eq!(default.workers, 0, "the default names no worker count");
        let trace = FailureTrace::schedule(vec![FailureSpec::kill_process(nprocs / 3, 7)]);
        for strategy in RecoveryStrategy::ALL {
            let run = |cluster| run_trace_in(cluster, strategy, trace.clone(), resilient_config());
            let (a, ba) = run(default.clone().backend(SchedBackend::Coop));
            assert!(
                a.iter().any(|o| o.recoveries == 1),
                "{strategy} must recover"
            );
            let (b, bb) = run(default.clone());
            assert_eq!(a, b, "{strategy}@{nprocs} diverged on the default backend");
            assert_eq!(
                ba, bb,
                "{strategy}@{nprocs} breakdowns diverged on the default backend"
            );
        }
    }
}

/// A rank program that blocks with no simulated event left to produce — here a
/// receive cycle nobody ever feeds — must be *diagnosed* by the `par` backend with a
/// panic naming the parked ranks, not hang the suite.
#[test]
#[should_panic(expected = "parallel scheduler deadlock")]
fn par_diagnoses_receive_cycles_instead_of_hanging() {
    let cluster = Cluster::new(
        ClusterConfig::with_ranks(NPROCS)
            .backend(SchedBackend::Par)
            .workers(2),
    );
    cluster.run(|ctx| {
        let world = ctx.world();
        let from = (ctx.rank() + 1) % world.size();
        let _ = ctx.recv_payload(&world, from as i32, 7)?;
        Ok(())
    });
}

/// The `RunReport` level of the same property: a full experiment (real proxy
/// application, SingleRandom injection) produces equal reports whichever backend the
/// `MATCH_BACKEND` selection routes it to. Other tests in this binary are
/// backend-agnostic by the very property under test, so flipping the variable here
/// cannot perturb them.
#[test]
fn experiment_run_reports_are_equal_across_backends() {
    let experiment = Experiment::new(ProxyKind::Hpccg, InputSize::Small, NPROCS, {
        RecoveryStrategy::Reinit
    })
    .with_options(&SuiteOptions::smoke())
    .with_failure(true);
    let env = SchedEnv::hold();
    std::env::set_var("MATCH_BACKEND", "coop");
    let coop = runner::run_experiment_uncached(&experiment).unwrap();
    std::env::set_var("MATCH_BACKEND", "par");
    let mut par = Vec::new();
    for workers in ["3", "4"] {
        std::env::set_var("MATCH_WORKERS", workers);
        par.push((
            workers,
            runner::run_experiment_uncached(&experiment).unwrap(),
        ));
    }
    drop(env);
    for (workers, report) in par {
        assert_eq!(
            coop, report,
            "RunReports must be bit-identical across backends (the cache key omits the \
             backend on the strength of this); par[w={workers}] diverged"
        );
    }
    assert!(coop.failure_injected && coop.restarts >= 1);
}

/// A 4096-rank cooperative job — with a failure, a global-restart recovery and FTI
/// checkpoint/restore — completes in a single process on one OS thread, in well under
/// a second (21 s while every parking rank woke every other one; it was a slow-lane
/// `--ignored` test then). A host thread per rank would need 4096 threads at this
/// scale, the ceiling the cooperative backend removes.
#[test]
fn coop_runs_4096_ranks_with_failure_recovery_in_one_process() {
    const BIG: usize = 4096;
    let store = CheckpointStore::shared();
    let config = FtConfig::new(
        RecoveryStrategy::Reinit,
        FtiConfig::level(CheckpointLevel::L2).interval(3),
    )
    .with_fault(FailureTrace::schedule(vec![FailureSpec::kill_process(
        BIG / 2,
        5,
    )]));
    let cluster = Cluster::new(
        ClusterConfig::with_ranks(BIG)
            .backend(SchedBackend::Coop)
            .stack_size(256 * 1024),
    );
    let outcome = cluster.run(move |ctx| {
        let driver = FtDriver::new(config.clone(), Arc::clone(&store));
        driver.execute(ctx, |ctx, fti, injector| {
            let world = ctx.world();
            let mut acc = 0.0f64;
            let mut start = 1u64;
            fti.protect(0, "acc", &acc);
            if fti.status().is_restart() {
                let at = fti.recover_object(ctx, 0, &mut acc)?;
                start = at + 1;
            }
            for iteration in start..=8 {
                injector.maybe_fail(ctx, iteration)?;
                acc += ctx.allreduce_sum_f64(&world, 1.0)?;
                if fti.should_checkpoint(iteration) {
                    fti.checkpoint(ctx, iteration, &[(0, &acc as &dyn Protectable)])?;
                }
            }
            fti.finalize(ctx)?;
            Ok(acc)
        })
    });
    assert!(outcome.all_ok(), "{:?}", outcome.errors().first());
    for rank in 0..BIG {
        let out = outcome.value_of(rank);
        assert_eq!(out.value, Some(8.0 * BIG as f64));
        assert_eq!(out.recoveries, 1, "rank {rank} must recover exactly once");
    }
}

mod proptests {
    use super::*;
    use match_core::proxies::common::DetRng;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// The tentpole property: any seeded trace of up to three events (kills or
        /// node crashes) yields bit-identical per-rank observations and time
        /// breakdowns under `coop` and `par` (at a seed-chosen worker
        /// count), for every design of the axis — including the shrinking one,
        /// whose survivor set and redistribution traffic must also be a pure
        /// function of virtual time.
        #[test]
        fn seeded_traces_are_bit_identical_across_backends(
            seed in any::<u64>(),
            nevents in 1usize..4,
        ) {
            let mut rng = DetRng::new(seed);
            let mut events = Vec::new();
            for _ in 0..nevents {
                let iteration = 1 + rng.next_below(ITERATIONS as usize) as u64;
                if rng.next_below(4) == 0 {
                    events.push(FailureSpec::crash_node(rng.next_below(NNODES), iteration));
                } else {
                    events.push(FailureSpec::kill_process(rng.next_below(NPROCS), iteration));
                }
            }
            let workers = PAR_WORKERS[rng.next_below(PAR_WORKERS.len())];
            let trace = FailureTrace::schedule(events);
            for strategy in RecoveryStrategy::ALL {
                let (a, ba) = run_trace_on(
                    SchedBackend::Coop, strategy, trace.clone(), resilient_config());
                let (c, bc) = run_trace_on_workers(
                    SchedBackend::Par, workers, strategy, trace.clone(), resilient_config());
                prop_assert_eq!(
                    &a, &c, "{} diverged on par[w={}] on {:?}", strategy, workers, &trace);
                prop_assert_eq!(
                    &ba, &bc,
                    "{} breakdowns diverged on par[w={}] on {:?}", strategy, workers, &trace);
            }
        }
    }
}
