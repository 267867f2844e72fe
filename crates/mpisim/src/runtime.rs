//! The cluster runtime: executes jobs on a scheduler backend (cooperative fibers on
//! one thread, or sharded over several worker threads — the default) and collects the
//! results.

use crate::ctx::RankCtx;
use crate::error::MpiError;
use crate::machine::MachineModel;
use crate::sched::{coop, par, SchedBackend, SchedStats};
use crate::state::ClusterState;
use crate::stats::{RankStats, TimeBreakdown};
use crate::time::SimTime;
use crate::topology::Topology;

/// Configuration of a simulated job.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of MPI ranks.
    pub nprocs: usize,
    /// Number of compute nodes; defaults to the paper's 32-node layout (or one rank per
    /// node for small jobs) when `None`.
    pub nnodes: Option<usize>,
    /// Number of racks the nodes are grouped into; defaults to the paper layout's
    /// rack split (four racks at 32 nodes, two-node racks for small jobs) when both
    /// this and `nnodes` are `None`, and to a single rack when only `nnodes` is set.
    /// Setting only this keeps the paper layout's node count and regroups it.
    pub nracks: Option<usize>,
    /// The machine model; defaults to [`MachineModel::haswell_cluster`].
    pub machine: MachineModel,
    /// Stack size of each rank's fiber in bytes: the proxy applications keep their
    /// data on the heap, so a modest stack suffices even for 512-rank jobs.
    pub stack_size: usize,
    /// The scheduler backend rank programs run on. Defaults to the `MATCH_BACKEND`
    /// environment variable, then to [`SchedBackend::Par`]. Results are
    /// bit-identical across backends by the [`SchedBackend`] contract — only
    /// host-side scaling differs — which is why the experiment cache key does *not*
    /// include it.
    pub backend: SchedBackend,
    /// Worker-thread count of the `par` backend; 0 (the default) resolves through
    /// `MATCH_WORKERS`, then the suite engine's published core budget, then the
    /// host's available parallelism. A job resolved to one worker runs the `coop`
    /// loop on the calling thread. Ignored by `coop`. Like the backend itself, the
    /// count has no observable effect on results.
    pub workers: usize,
}

impl ClusterConfig {
    /// A configuration with `nprocs` ranks and default machine model and topology.
    pub fn with_ranks(nprocs: usize) -> Self {
        ClusterConfig {
            nprocs,
            nnodes: None,
            nracks: None,
            machine: MachineModel::default(),
            stack_size: 1 << 20,
            // Read per configuration, never cached: callers switch backends by
            // setting the variable between jobs.
            backend: crate::knob::read(crate::BACKEND_ENV_VAR, str::parse).unwrap_or_default(),
            workers: 0,
        }
    }

    /// Selects the scheduler backend.
    pub fn backend(mut self, backend: SchedBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Pins the `par` backend's worker-thread count (0 restores the default
    /// resolution chain — see [`ClusterConfig::workers`]).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the per-rank stack size in bytes (thread stacks or fiber stacks).
    pub fn stack_size(mut self, stack_size: usize) -> Self {
        self.stack_size = stack_size;
        self
    }

    /// Sets the number of nodes.
    pub fn nodes(mut self, nnodes: usize) -> Self {
        self.nnodes = Some(nnodes);
        self
    }

    /// Sets the number of racks the nodes are grouped into. The rack count must
    /// divide the node count — when `nodes()` is not set, that is the *implied*
    /// paper-layout node count, and building the cluster panics with a message
    /// naming it if the division fails.
    pub fn racks(mut self, nracks: usize) -> Self {
        self.nracks = Some(nracks);
        self
    }

    /// The topology this configuration builds (also the cluster layout cache keys
    /// and cost models should agree on).
    pub fn topology(&self) -> Topology {
        match (self.nnodes, self.nracks) {
            (Some(n), Some(r)) => Topology::with_racks(self.nprocs, n, r),
            (Some(n), None) => Topology::new(self.nprocs, n),
            // Only the rack count overridden: keep the documented paper-layout node
            // count and regroup those nodes, instead of silently degrading to one
            // rank per node.
            (None, Some(r)) => {
                let (nnodes, _) = Topology::paper_shape(self.nprocs);
                assert!(
                    nnodes.is_multiple_of(r),
                    "racks({r}) does not divide the implied paper-layout node count \
                     ({nnodes} nodes for {} ranks); set nodes() explicitly",
                    self.nprocs
                );
                Topology::with_racks(self.nprocs, nnodes, r)
            }
            (None, None) => Topology::paper_layout(self.nprocs),
        }
    }
}

/// Outcome of a single rank's execution.
#[derive(Debug)]
pub struct RankOutcome<R> {
    /// The global rank.
    pub rank: usize,
    /// The value returned by the rank closure, or the error it propagated.
    pub result: Result<R, MpiError>,
    /// The rank's final virtual time.
    pub finish_time: SimTime,
    /// The rank's time breakdown.
    pub breakdown: TimeBreakdown,
    /// The rank's operation counters.
    pub stats: RankStats,
}

/// Outcome of a whole simulated job.
#[derive(Debug)]
pub struct RunOutcome<R> {
    ranks: Vec<RankOutcome<R>>,
    sched: SchedStats,
}

impl<R> RunOutcome<R> {
    /// Per-rank outcomes ordered by rank.
    pub fn ranks(&self) -> &[RankOutcome<R>] {
        &self.ranks
    }

    /// The scheduler's host-side counters for this job, on every backend. They
    /// describe how the host executed the job, not what it simulated: nothing derived
    /// from them may enter a report, a cache key or a persisted file.
    pub fn sched_stats(&self) -> SchedStats {
        self.sched
    }

    /// The per-rank results ordered by rank.
    pub fn results(&self) -> Vec<&Result<R, MpiError>> {
        self.ranks.iter().map(|r| &r.result).collect()
    }

    /// The errors reported by ranks, if any.
    pub fn errors(&self) -> Vec<&MpiError> {
        self.ranks
            .iter()
            .filter_map(|r| r.result.as_ref().err())
            .collect()
    }

    /// True if every rank returned `Ok`.
    pub fn all_ok(&self) -> bool {
        self.ranks.iter().all(|r| r.result.is_ok())
    }

    /// The job's completion time: the maximum finish time over all ranks.
    pub fn max_time(&self) -> SimTime {
        self.ranks
            .iter()
            .map(|r| r.finish_time)
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// Element-wise maximum of the per-rank time breakdowns (the convention the MATCH
    /// figures use for their stacked bars: the slowest rank in each category).
    pub fn max_breakdown(&self) -> TimeBreakdown {
        self.ranks.iter().fold(TimeBreakdown::new(), |acc, r| {
            acc.max_elementwise(&r.breakdown)
        })
    }

    /// Sum of the per-rank operation counters.
    pub fn total_stats(&self) -> RankStats {
        let mut acc = RankStats::new();
        for r in &self.ranks {
            acc.accumulate(&r.stats);
        }
        acc
    }

    /// Returns the `Ok` value of rank `rank`.
    ///
    /// # Panics
    ///
    /// Panics if the rank is out of range or returned an error.
    pub fn value_of(&self, rank: usize) -> &R {
        self.ranks[rank]
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("rank {rank} failed: {e}"))
    }
}

/// A simulated cluster ready to run jobs.
///
/// Each call to [`Cluster::run`] executes one job on the configured scheduler
/// backend — all ranks as cooperative fibers, in the calling thread
/// ([`SchedBackend::Coop`], or [`SchedBackend::Par`] resolved to one worker) or
/// sharded over worker threads ([`SchedBackend::Par`], the default) — hands each rank
/// a fresh [`RankCtx`] over a fresh shared state, runs the provided closure and
/// collects every rank's result, virtual time, breakdown and statistics.
#[derive(Debug, Clone)]
pub struct Cluster {
    config: ClusterConfig,
}

impl Cluster {
    /// Creates a cluster with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration requests zero ranks or a topology that does not
    /// divide evenly.
    pub fn new(config: ClusterConfig) -> Self {
        assert!(config.nprocs > 0, "a job needs at least one rank");
        // Validate the topology eagerly so misconfigurations fail fast.
        let _ = config.topology();
        Cluster { config }
    }

    /// The job configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Number of ranks per job.
    pub fn nprocs(&self) -> usize {
        self.config.nprocs
    }

    /// Runs one job: executes `body` once per rank over a fresh cluster state on the
    /// configured scheduler backend, and returns every rank's outcome.
    ///
    /// The closure receives the rank's [`RankCtx`] and returns either a result value or
    /// an [`MpiError`]. Errors do not abort the other ranks; they are reported in the
    /// [`RunOutcome`]. On either backend the closure must block only through
    /// simulated operations (receives, collectives, rendezvous, the injector's
    /// detection barrier): a raw host-time spin loop would never yield the OS thread
    /// its peers share.
    pub fn run<R, F>(&self, body: F) -> RunOutcome<R>
    where
        R: Send,
        F: Fn(&mut RankCtx) -> Result<R, MpiError> + Send + Sync,
    {
        let topology = self.config.topology();
        let state = ClusterState::new(self.config.nprocs, topology, self.config.machine.clone());
        let (ranks, sched) = match self.config.backend {
            SchedBackend::Coop => coop::run_job(&self.config, state, &body),
            SchedBackend::Par => par::run_job(&self.config, state, &body),
        };
        RunOutcome { ranks, sched }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::ReduceOp;
    use crate::msg::Payload;

    #[test]
    fn racks_only_override_keeps_the_paper_node_count() {
        let t = ClusterConfig::with_ranks(64).racks(2).topology();
        assert_eq!(
            t.nnodes(),
            32,
            "rack override must not change the node layout"
        );
        assert_eq!(t.nracks(), 2);
        assert_eq!(
            ClusterConfig::with_ranks(64).topology(),
            Topology::paper_layout(64)
        );
        assert_eq!(ClusterConfig::with_ranks(8).nodes(4).topology().nracks(), 1);
    }

    #[test]
    #[should_panic(expected = "implied paper-layout node count")]
    fn indivisible_racks_override_panics_with_the_implied_layout() {
        let _ = ClusterConfig::with_ranks(8).racks(3).topology();
    }

    #[test]
    fn allreduce_across_many_ranks() {
        let cluster = Cluster::new(ClusterConfig::with_ranks(16));
        let outcome = cluster.run(|ctx| {
            let world = ctx.world();
            let sum = ctx.allreduce_sum_f64(&world, ctx.rank() as f64)?;
            let max = ctx.allreduce_max_f64(&world, ctx.rank() as f64)?;
            Ok((sum, max))
        });
        assert!(outcome.all_ok());
        for r in outcome.results() {
            let (sum, max) = r.as_ref().unwrap();
            assert_eq!(*sum, 120.0);
            assert_eq!(*max, 15.0);
        }
        assert!(outcome.max_time().as_secs() > 0.0);
        assert!(outcome.total_stats().collectives >= 32);
    }

    #[test]
    fn point_to_point_ring() {
        let cluster = Cluster::new(ClusterConfig::with_ranks(8));
        let outcome = cluster.run(|ctx| {
            let world = ctx.world();
            let n = world.size();
            let next = (world.rank() + 1) % n;
            let prev = (world.rank() + n - 1) % n;
            let data = vec![ctx.rank() as f64; 4];
            let received = ctx.sendrecv_f64(&world, next, &data, prev, 7)?;
            Ok(received[0] as usize)
        });
        assert!(outcome.all_ok());
        for (rank, r) in outcome.results().iter().enumerate() {
            let prev = (rank + 7) % 8;
            assert_eq!(*r.as_ref().unwrap(), prev);
        }
    }

    #[test]
    fn broadcast_reaches_every_member() {
        let cluster = Cluster::new(ClusterConfig::with_ranks(4));
        let outcome = cluster.run(|ctx| {
            let world = ctx.world();
            // Only the root's data is used: the others contribute their own rank.
            let data = Payload::from(vec![ctx.rank() as u8; 1 + ctx.rank()]);
            let bcast = ctx.bcast_payload(&world, 1, data)?;
            assert_eq!(&bcast[..], &[1, 1]);
            let bad_root = ctx.bcast_payload(&world, 4, Payload::from(vec![0]));
            assert!(
                matches!(
                    bad_root,
                    Err(MpiError::InvalidRank {
                        rank: 4,
                        comm_size: 4
                    })
                ),
                "{bad_root:?}"
            );
            Ok(())
        });
        assert!(outcome.all_ok(), "{:?}", outcome.errors());
    }

    #[test]
    fn failure_interrupts_blocked_collective() {
        let cluster = Cluster::new(ClusterConfig::with_ranks(4));
        let outcome = cluster.run(|ctx| {
            let world = ctx.world();
            if ctx.rank() == 3 {
                return Err(ctx.kill_self());
            }
            // The barrier can never complete because rank 3 is dead; survivors must be
            // notified instead of hanging.
            match ctx.barrier(&world) {
                Err(e) if e.is_process_failure() => Ok(()),
                Ok(()) => Err(MpiError::Internal(
                    "barrier completed without rank 3".into(),
                )),
                Err(e) => Err(e),
            }
        });
        let failures = outcome
            .results()
            .iter()
            .filter(|r| matches!(r, Err(MpiError::SelfFailed)))
            .count();
        assert_eq!(failures, 1);
        let survivors_ok = outcome.results().iter().filter(|r| r.is_ok()).count();
        assert_eq!(survivors_ok, 3);
    }

    #[test]
    fn recovery_rendezvous_heals_the_job() {
        let cluster = Cluster::new(ClusterConfig::with_ranks(4));
        let outcome = cluster.run(|ctx| {
            let world = ctx.world();
            // Rank 1 fails; everyone then recovers and runs a collective successfully.
            if ctx.rank() == 1 {
                let _ = ctx.kill_self();
            } else {
                // Survivors bump into the failure through a collective.
                let _ = ctx.barrier(&world);
            }
            ctx.recovery_rendezvous(SimTime::from_secs(1.0), |_| {})?;
            let sum = ctx.allreduce_sum_f64(&world, 1.0)?;
            assert_eq!(sum, 4.0);
            Ok(ctx.breakdown().total().as_secs())
        });
        assert!(outcome.all_ok(), "{:?}", outcome.errors());
        assert_eq!(outcome.total_stats().recoveries, 4);
    }

    #[test]
    fn virtual_time_is_deterministic_across_runs() {
        let run = || {
            let cluster = Cluster::new(ClusterConfig::with_ranks(8));
            let outcome = cluster.run(|ctx| {
                let world = ctx.world();
                for _ in 0..5 {
                    ctx.compute(1e6);
                    ctx.allreduce_sum_f64(&world, 1.0)?;
                }
                Ok(())
            });
            outcome.max_time().as_secs()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "virtual time must not depend on host scheduling");
    }

    #[test]
    fn value_of_returns_rank_result() {
        let cluster = Cluster::new(ClusterConfig::with_ranks(2));
        let outcome = cluster.run(|ctx| Ok(ctx.rank() * 10));
        assert_eq!(*outcome.value_of(1), 10);
        assert_eq!(outcome.ranks().len(), 2);
    }

    // ----- cooperative backend -------------------------------------------------------

    /// The reference `par` is compared against.
    fn coop_cluster(nprocs: usize) -> Cluster {
        Cluster::new(ClusterConfig::with_ranks(nprocs).backend(SchedBackend::Coop))
    }

    #[test]
    fn coop_failure_aborts_blocked_collective_deterministically() {
        let program = |ctx: &mut RankCtx| {
            let world = ctx.world();
            if ctx.rank() == 3 {
                ctx.compute(1e6);
                return Err(ctx.kill_self());
            }
            match ctx.barrier(&world) {
                Err(e) if e.is_process_failure() => Ok(ctx.now()),
                other => Err(MpiError::Internal(format!("unexpected: {other:?}"))),
            }
        };
        let coop = coop_cluster(4).run(program);
        for rank in [1usize, 2] {
            assert_eq!(
                coop.value_of(rank),
                coop.value_of(0),
                "every survivor aborts at the one deterministic failure instant"
            );
        }
    }

    #[test]
    fn coop_recovery_rendezvous_heals_the_job() {
        let outcome = coop_cluster(4).run(|ctx| {
            let world = ctx.world();
            if ctx.rank() == 1 {
                let _ = ctx.kill_self();
            } else {
                let _ = ctx.barrier(&world);
            }
            ctx.recovery_rendezvous(SimTime::from_secs(1.0), |_| {})?;
            let sum = ctx.allreduce_sum_f64(&world, 1.0)?;
            assert_eq!(sum, 4.0);
            Ok(())
        });
        assert!(outcome.all_ok(), "{:?}", outcome.errors());
        assert_eq!(outcome.total_stats().recoveries, 4);
    }

    #[test]
    fn coop_blocked_receive_is_woken_by_late_sender() {
        // Rank 0 blocks in a receive first (lowest clock runs first); rank 1 computes
        // before sending, so the wakeup path — not a lucky poll — delivers it.
        let outcome = coop_cluster(2).run(|ctx| {
            let world = ctx.world();
            if ctx.rank() == 0 {
                let (src, data) = ctx.recv_f64(&world, 1, 9)?;
                assert_eq!(src, 1);
                Ok(data[0])
            } else {
                ctx.compute(1e7);
                ctx.send_f64(&world, 0, 9, &[42.0])?;
                Ok(0.0)
            }
        });
        assert!(outcome.all_ok(), "{:?}", outcome.errors());
        assert_eq!(*outcome.value_of(0), 42.0);
    }

    #[test]
    fn coop_runs_in_a_single_thread_per_job() {
        // The defining property of the backend: rank bodies all execute on the OS
        // thread that called `run`, no matter how many ranks the job has.
        let caller = std::thread::current().id();
        let outcome = coop_cluster(32).run(move |ctx| {
            assert_eq!(
                std::thread::current().id(),
                caller,
                "coop ranks must share the caller's thread"
            );
            let world = ctx.world();
            ctx.allreduce_sum_f64(&world, ctx.rank() as f64)
        });
        assert!(outcome.all_ok());
    }

    #[test]
    #[should_panic(expected = "cooperative scheduler deadlock")]
    fn coop_deadlock_is_diagnosed_not_hung() {
        // A receive nothing will ever send to: the cooperative scheduler panics with
        // a per-rank diagnosis instead of hanging.
        let _ = coop_cluster(2).run(|ctx| {
            let world = ctx.world();
            if ctx.rank() == 0 {
                let _ = ctx.recv_f64(&world, 1, 77)?;
            } else {
                ctx.recv_f64(&world, 0, 78)?;
            }
            Ok(())
        });
    }

    // ----- parallel backend ----------------------------------------------------------

    fn par_cluster(nprocs: usize, workers: usize) -> Cluster {
        Cluster::new(
            ClusterConfig::with_ranks(nprocs)
                .backend(SchedBackend::Par)
                .workers(workers),
        )
    }

    #[test]
    fn par_with_one_worker_runs_inline_on_the_callers_thread() {
        // par(1) is coop: no worker thread exists, every rank body executes on the OS
        // thread that called `run`. With two workers the bodies run on the workers.
        let ranks_on_caller = |workers: usize| {
            let caller = std::thread::current().id();
            let outcome = par_cluster(8, workers).run(move |ctx| {
                let world = ctx.world();
                ctx.allreduce_sum_f64(&world, 1.0)?;
                Ok(std::thread::current().id() == caller)
            });
            assert!(outcome.all_ok(), "{:?}", outcome.errors());
            (0..8).filter(|&r| *outcome.value_of(r)).count()
        };
        assert_eq!(ranks_on_caller(1), 8, "one worker must not spawn a thread");
        assert_eq!(
            ranks_on_caller(2),
            0,
            "two workers run ranks off the caller"
        );
    }

    #[test]
    fn par_collectives_and_p2p_match_coop_at_any_worker_count() {
        let program = |ctx: &mut RankCtx| {
            let world = ctx.world();
            let n = world.size();
            let next = (world.rank() + 1) % n;
            let prev = (world.rank() + n - 1) % n;
            for _ in 0..3 {
                ctx.compute(1e5);
                let data = vec![ctx.rank() as f64; 8];
                let got = ctx.sendrecv_f64(&world, next, &data, prev, 3)?;
                assert_eq!(got[0] as usize, prev);
                ctx.allreduce_sum_f64(&world, 1.0)?;
            }
            let sum = ctx.allreduce_sum_f64(&world, ctx.rank() as f64)?;
            ctx.barrier(&world)?;
            Ok((sum, ctx.now()))
        };
        let coop = coop_cluster(8).run(program);
        // Worker counts beyond nprocs are clamped; 1 is coop's schedule, 8 gives
        // every rank a worker thread of its own.
        for workers in [1usize, 2, 3, 8, 16] {
            let par = par_cluster(8, workers).run(program);
            assert!(coop.all_ok() && par.all_ok(), "{:?}", par.errors());
            for rank in 0..8 {
                assert_eq!(
                    coop.value_of(rank),
                    par.value_of(rank),
                    "rank {rank}: par({workers} workers) must agree with coop bit-for-bit"
                );
            }
            assert_eq!(coop.max_time(), par.max_time());
            assert_eq!(coop.max_breakdown(), par.max_breakdown());
        }
    }

    #[test]
    fn par_failure_aborts_blocked_collective_deterministically() {
        let program = |ctx: &mut RankCtx| {
            let world = ctx.world();
            if ctx.rank() == 3 {
                ctx.compute(1e6);
                return Err(ctx.kill_self());
            }
            match ctx.barrier(&world) {
                Err(e) if e.is_process_failure() => Ok(ctx.now()),
                other => Err(MpiError::Internal(format!("unexpected: {other:?}"))),
            }
        };
        let coop = coop_cluster(4).run(program);
        for workers in [2usize, 4] {
            let par = par_cluster(4, workers).run(program);
            for rank in [0usize, 1, 2] {
                assert_eq!(
                    coop.value_of(rank),
                    par.value_of(rank),
                    "abort clocks must be the deterministic failure instant on both backends"
                );
            }
        }
    }

    #[test]
    fn par_recovery_rendezvous_heals_the_job() {
        let outcome = par_cluster(4, 2).run(|ctx| {
            let world = ctx.world();
            if ctx.rank() == 1 {
                let _ = ctx.kill_self();
            } else {
                let _ = ctx.barrier(&world);
            }
            ctx.recovery_rendezvous(SimTime::from_secs(1.0), |_| {})?;
            let sum = ctx.allreduce_sum_f64(&world, 1.0)?;
            assert_eq!(sum, 4.0);
            Ok(())
        });
        assert!(outcome.all_ok(), "{:?}", outcome.errors());
        assert_eq!(outcome.total_stats().recoveries, 4);
    }

    #[test]
    fn par_blocked_receive_is_woken_by_cross_worker_sender() {
        // With 2 workers over 2 ranks, each rank lives on its own worker thread: the
        // receive parks on one worker and the send wakes it from the other — the
        // cross-worker wake path, not a shared run queue, delivers it.
        let outcome = par_cluster(2, 2).run(|ctx| {
            let world = ctx.world();
            if ctx.rank() == 0 {
                let (src, data) = ctx.recv_f64(&world, 1, 9)?;
                assert_eq!(src, 1);
                Ok(data[0])
            } else {
                ctx.compute(1e7);
                ctx.send_f64(&world, 0, 9, &[42.0])?;
                Ok(0.0)
            }
        });
        assert!(outcome.all_ok(), "{:?}", outcome.errors());
        assert_eq!(*outcome.value_of(0), 42.0);
    }

    #[test]
    #[should_panic(expected = "parallel scheduler deadlock")]
    fn par_deadlock_is_diagnosed_not_hung() {
        // Two ranks on two workers, each receiving a message the other will never
        // send: every worker goes quiet with unfinished ranks parked, the census
        // fires, and the job panics with a per-rank diagnosis instead of hanging.
        let _ = par_cluster(2, 2).run(|ctx| {
            let world = ctx.world();
            if ctx.rank() == 0 {
                let _ = ctx.recv_f64(&world, 1, 77)?;
            } else {
                ctx.recv_f64(&world, 0, 78)?;
            }
            Ok(())
        });
    }

    #[test]
    fn par_virtual_time_matches_coop_exactly() {
        let program = |ctx: &mut RankCtx| {
            let world = ctx.world();
            for _ in 0..5 {
                ctx.compute(1e6);
                ctx.allreduce_sum_f64(&world, 1.0)?;
            }
            Ok(())
        };
        let a = coop_cluster(8).run(program);
        for workers in [4, 8] {
            let b = par_cluster(8, workers).run(program);
            assert_eq!(a.max_time(), b.max_time(), "par({workers} workers)");
        }
    }

    // ----- the collective slot protocol, on every wait strategy -----------------------

    /// Every way a member of a collective round waits: its fiber parked on one thread
    /// (`coop`), across 2, 3 and 4 workers, or on a worker of its own.
    fn every_wait_strategy(nprocs: usize) -> Vec<(String, Cluster)> {
        let par = [2, 3, 4, nprocs].map(|w| (format!("par[{w}]"), par_cluster(nprocs, w)));
        let mut all = vec![("coop".to_string(), coop_cluster(nprocs))];
        all.extend(par);
        all
    }

    #[test]
    fn back_to_back_rounds_never_mix_and_share_one_output() {
        // No rank waits for a round to drain: a member that takes its delivery early
        // is back depositing into the next round while others have yet to take
        // theirs. Round-dependent values make any mix-up a wrong sum.
        const ROUNDS: usize = 300;
        let program = |ctx: &mut RankCtx| {
            let world = ctx.world();
            let n = world.size() as f64;
            let mut last = None;
            for round in 0..ROUNDS {
                // Uneven bodies: who finishes a round changes from round to round.
                ctx.compute(((ctx.rank() + round) % 5) as f64 * 1e3);
                let mine = [(round * 1000 + ctx.rank()) as f64, 1.0];
                let sums = ctx.allreduce_f64(&world, ReduceOp::Sum, &mine)?;
                let expected = round as f64 * 1000.0 * n + n * (n - 1.0) / 2.0;
                assert_eq!(*sums, vec![expected, n], "round {round}");
                last = Some(sums);
            }
            Ok((last.expect("at least one round"), ctx.now()))
        };
        for nprocs in [1usize, 12] {
            let reference = coop_cluster(nprocs).run(program);
            for (name, cluster) in every_wait_strategy(nprocs) {
                let outcome = cluster.run(program);
                assert!(outcome.all_ok(), "{name}: {:?}", outcome.errors());
                let (shared, _) = outcome.value_of(0);
                for rank in 0..nprocs {
                    let (output, finished) = outcome.value_of(rank);
                    assert!(
                        std::sync::Arc::ptr_eq(output, shared),
                        "{name}: the finisher's one output reaches rank {rank} as is"
                    );
                    assert_eq!(*finished, reference.value_of(rank).1, "{name}, rank {rank}");
                }
            }
        }
    }

    #[test]
    fn vector_rounds_too_big_to_keep_fold_right_round_after_round() {
        // 10 000 values per member: above what a slot keeps between rounds, so every
        // round deposits into a freed cell.
        const LEN: usize = 10_000;
        let program = |ctx: &mut RankCtx| {
            let world = ctx.world();
            let (n, rank) = (world.size(), ctx.rank());
            for round in 0..4 {
                let mine = vec![(round * 100 + rank) as f64; LEN];
                let sums = ctx.allreduce_f64(&world, ReduceOp::Sum, &mine)?;
                let expected = (round * 100 * n + n * (n - 1) / 2) as f64;
                assert!(sums.len() == LEN && sums.iter().all(|&v| v == expected));
                let gathered = ctx.allgather_u64(&world, &vec![(round + rank) as u64; LEN])?;
                for (member, chunk) in gathered.chunks().enumerate() {
                    assert!(
                        chunk.len() == LEN && chunk.iter().all(|&v| v == (round + member) as u64)
                    );
                }
            }
            Ok(())
        };
        for (name, cluster) in every_wait_strategy(4) {
            let outcome = cluster.run(program);
            assert!(outcome.all_ok(), "{name}: {:?}", outcome.errors());
        }
    }

    #[test]
    fn a_death_mid_round_aborts_the_round_and_the_repaired_slot_starts_clean() {
        // Rank 5 dies instead of depositing into round 3. Its peers have deposited
        // and wait; they withdraw, the repair resets the slot, and the rounds after
        // it see neither a stale contribution nor a stale delivery.
        let program = |ctx: &mut RankCtx| {
            let world = ctx.world();
            let mut sums = Vec::new();
            let mut died = false;
            let mut round = 0;
            while round < 8 {
                ctx.compute((ctx.rank() % 3) as f64 * 1e4);
                if round == 3 && ctx.rank() == 5 && !died {
                    died = true;
                    let _ = ctx.kill_self();
                } else {
                    match ctx.allreduce_sum_f64(&world, (round * 10 + ctx.rank()) as f64) {
                        Ok(sum) => {
                            sums.push(sum);
                            round += 1;
                            continue;
                        }
                        Err(e) if e.is_process_failure() => {}
                        Err(e) => return Err(e),
                    }
                }
                ctx.recovery_rendezvous(SimTime::from_secs(0.5), |_| {})?;
            }
            Ok((sums, ctx.now()))
        };
        let expected: Vec<f64> = (0..8).map(|round| (round * 10 * 8 + 28) as f64).collect();
        let reference = coop_cluster(8).run(program);
        for (name, cluster) in every_wait_strategy(8) {
            let outcome = cluster.run(program);
            assert!(outcome.all_ok(), "{name}: {:?}", outcome.errors());
            assert_eq!(outcome.total_stats().recoveries, 8, "{name}");
            for rank in 0..8 {
                assert_eq!(outcome.value_of(rank).0, expected, "{name}, rank {rank}");
                assert_eq!(outcome.value_of(rank), reference.value_of(rank), "{name}");
            }
        }
    }
}
