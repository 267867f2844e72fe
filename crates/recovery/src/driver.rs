//! The fault-tolerance driver.
//!
//! [`FtDriver`] is the glue that turns an application main loop plus a
//! [`RecoveryStrategy`] plus FTI checkpointing into one of the paper's three designs.
//! Its `execute` method mirrors the structure of Figs. 1–3 of the paper:
//!
//! 1. it installs the strategy's background interference (ULFM's heartbeat),
//! 2. it creates a fresh FTI instance over the shared checkpoint store and invokes the
//!    application closure (the *resilient main*),
//! 3. when the closure propagates a process-failure error — either because this rank
//!    was killed by fault injection or because an MPI operation reported a failed peer
//!    — the driver declares a global restart, charges the strategy's recovery cost at a
//!    cluster-wide recovery rendezvous, and re-invokes the closure, whose new FTI
//!    instance will report [`fti::FtiStatus::Restart`] so the application reloads its
//!    checkpoint and resumes.
//!
//! Unlike the paper's single-failure methodology, the driver loops through as many
//! detect → recover → rollback cycles as the configured [`FailureTrace`] produces
//! (bounded by [`FtConfig::max_restarts`]), keeping a per-attempt account
//! ([`AttemptRecord`]) of where the virtual time went.

use std::sync::Arc;

use fti::store::CheckpointStore;
use fti::{Fti, FtiConfig};
use mpisim::{MpiError, RankCtx, SimTime, TimeCategory};

use crate::inject::{FailureTrace, FaultInjector};
use crate::path::{AttemptEntry, CoveragePath};
use crate::strategy::RecoveryStrategy;

/// Configuration of one fault-tolerance design instance: the recovery strategy, the
/// FTI configuration and the failure scenario to inject.
#[derive(Debug, Clone)]
pub struct FtConfig {
    /// The MPI recovery strategy.
    pub strategy: RecoveryStrategy,
    /// The FTI checkpointing configuration.
    pub fti: FtiConfig,
    /// The failure scenario to inject (a trace of zero or more events).
    pub fault: FailureTrace,
    /// Maximum number of global restarts before the driver gives up. Multi-failure
    /// traces legitimately restart once per disruption epoch; anything beyond this
    /// bound indicates an application bug rather than injected failures.
    pub max_restarts: u32,
}

impl FtConfig {
    /// Creates a configuration with no fault injection.
    pub fn new(strategy: RecoveryStrategy, fti: FtiConfig) -> Self {
        FtConfig {
            strategy,
            fti,
            fault: FailureTrace::none(),
            max_restarts: 32,
        }
    }

    /// Sets the failure scenario (accepts a [`FailureTrace`], a legacy
    /// [`crate::FaultPlan`], a bare [`mpisim::FailureSpec`] or an
    /// [`crate::ArrivalModel`]).
    pub fn with_fault(mut self, fault: impl Into<FailureTrace>) -> Self {
        self.fault = fault.into();
        self
    }

    /// Sets the restart bound.
    pub fn with_max_restarts(mut self, max_restarts: u32) -> Self {
        self.max_restarts = max_restarts.max(1);
        self
    }
}

/// The account of one invocation of the application closure.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptRecord {
    /// 1-based attempt number.
    pub attempt: u32,
    /// Virtual time when the closure was (re-)entered.
    pub started_at: SimTime,
    /// Virtual time when the attempt ended — at completion, or at the deterministic
    /// failure-detection point for aborted attempts.
    pub ended_at: SimTime,
    /// Whether the attempt ran to completion (only the final attempt does).
    pub completed: bool,
    /// Virtual time spent in the recovery that followed this attempt
    /// ([`SimTime::ZERO`] for the completed attempt).
    pub recovery: SimTime,
    /// Number of ranks continuing after this attempt: the world size the next
    /// attempt runs at (equal to the world size this attempt ran at for the
    /// non-shrinking designs and for completed attempts), or 0 when this rank
    /// leaves the job as a shrinking-recovery casualty.
    pub survivors: usize,
    /// The recovery path this attempt exercised on this rank: how it was entered,
    /// which checkpoint level and redundancy mechanism served its restore, and how
    /// many failure events it absorbed.
    pub path: CoveragePath,
}

/// What [`FtDriver::execute`] returns on success.
#[derive(Debug, Clone, PartialEq)]
pub struct DriverOutcome<R> {
    /// The application's result from its final, successful attempt — `None` when
    /// this rank was removed from the job by a shrinking recovery (its surviving
    /// peers carry the job to completion and report `Some`).
    pub value: Option<R>,
    /// Number of times the application closure was invoked (1 = no restart).
    pub attempts: u32,
    /// Number of recoveries this rank participated in.
    pub recoveries: u32,
    /// Per-attempt accounting, in attempt order.
    pub attempt_log: Vec<AttemptRecord>,
    /// Cluster-wide failure events absorbed by the end of the run.
    pub failure_events: u64,
}

/// The per-rank fault-tolerance driver.
#[derive(Debug, Clone)]
pub struct FtDriver {
    config: FtConfig,
    store: Arc<CheckpointStore>,
}

impl FtDriver {
    /// Creates a driver for the given design over the shared checkpoint store.
    pub fn new(config: FtConfig, store: Arc<CheckpointStore>) -> Self {
        FtDriver { config, store }
    }

    /// The design configuration.
    pub fn config(&self) -> &FtConfig {
        &self.config
    }

    /// The shared checkpoint store.
    pub fn store(&self) -> &Arc<CheckpointStore> {
        &self.store
    }

    /// Runs `app` under this fault-tolerance design until it completes.
    ///
    /// The closure receives the rank context, a fresh FTI instance (over the shared
    /// store, so checkpoints survive restarts) and the fault injector; it must call
    /// [`FaultInjector::maybe_fail`] at the top of every main-loop iteration and
    /// propagate every [`MpiError`] with `?` so the driver can handle failures.
    ///
    /// # Errors
    ///
    /// Returns [`MpiError::InvalidArgument`] for failure traces targeting ranks or
    /// nodes outside the job, propagates non-failure errors from the application, and
    /// gives up with [`MpiError::Internal`] if the application keeps failing after
    /// [`FtConfig::max_restarts`] recoveries.
    pub fn execute<R>(
        &self,
        ctx: &mut RankCtx,
        mut app: impl FnMut(&mut RankCtx, &mut Fti, &FaultInjector) -> Result<R, MpiError>,
    ) -> Result<DriverOutcome<R>, MpiError> {
        let (app_interference, io_interference) = self
            .config
            .strategy
            .background_interference(ctx.machine(), ctx.nprocs());
        ctx.set_interference(app_interference, io_interference);

        let injector = FaultInjector::new(&self.config.fault, ctx.topology())?;
        let mut attempts = 0u32;
        let mut recoveries = 0u32;
        let mut attempt_log: Vec<AttemptRecord> = Vec::new();
        // How the next attempt is entered; the first one is always a fresh start.
        let mut entry = AttemptEntry::Fresh;

        loop {
            attempts += 1;
            if attempts > self.config.max_restarts {
                return Err(MpiError::Internal(format!(
                    "application did not complete after {} global restarts",
                    self.config.max_restarts
                )));
            }
            let started_at = ctx.now();
            // Every rank is synchronized here (cluster start or the recovery
            // rendezvous of the previous epoch), so the event counter is stable.
            let events_at_start = ctx.failure_events();

            let mut fti = Fti::init(self.config.fti.clone(), Arc::clone(&self.store), ctx)?;
            let attempt = match app(ctx, &mut fti, &injector) {
                Ok(value) => {
                    // The analogue of MPI_Finalize: ensure nobody still needs this rank
                    // for recovery before leaving.
                    match ctx.completion_barrier() {
                        Ok(()) => Ok(value),
                        Err(e) => Err(e),
                    }
                }
                Err(e) => Err(e),
            };
            match attempt {
                Ok(value) => {
                    let events = ctx.failure_events();
                    attempt_log.push(AttemptRecord {
                        attempt: attempts,
                        started_at,
                        ended_at: ctx.now(),
                        completed: true,
                        recovery: SimTime::ZERO,
                        survivors: ctx.world().size(),
                        path: CoveragePath::observed(
                            entry,
                            fti.last_restore(),
                            (events.saturating_sub(events_at_start)) as u32,
                        ),
                    });
                    return Ok(DriverOutcome {
                        value: Some(value),
                        attempts,
                        recoveries,
                        attempt_log,
                        failure_events: events,
                    });
                }
                Err(e) if e.is_process_failure() && self.config.strategy.shrinks_world() => {
                    let ended_at = ctx.now();
                    let continuing = if matches!(e, MpiError::SelfFailed) {
                        // This rank was killed: under a shrinking design it is not
                        // respawned — it leaves the job here, permanently.
                        false
                    } else {
                        self.recover_shrink(ctx)?
                    };
                    if !continuing {
                        // A casualty must not read the live event counter: a later
                        // event of the same injection iteration races with this
                        // return on multi-threaded backends. The count as of its own
                        // death is recorded at kill time and fires in a globally
                        // serialized order, so it is bit-deterministic.
                        let events = ctx.failure_events_at_death();
                        attempt_log.push(AttemptRecord {
                            attempt: attempts,
                            started_at,
                            ended_at,
                            completed: false,
                            recovery: ctx.now().saturating_sub(ended_at),
                            survivors: 0,
                            path: CoveragePath::observed(
                                entry,
                                fti.last_restore(),
                                (events.saturating_sub(events_at_start)) as u32,
                            ),
                        });
                        return Ok(DriverOutcome {
                            value: None,
                            attempts,
                            recoveries,
                            attempt_log,
                            failure_events: events,
                        });
                    }
                    recoveries += 1;
                    attempt_log.push(AttemptRecord {
                        attempt: attempts,
                        started_at,
                        ended_at,
                        completed: false,
                        recovery: ctx.now().saturating_sub(ended_at),
                        survivors: ctx.world().size(),
                        path: CoveragePath::observed(
                            entry,
                            fti.last_restore(),
                            (ctx.failure_events().saturating_sub(events_at_start)) as u32,
                        ),
                    });
                    entry = AttemptEntry::Shrink;
                }
                Err(e) if e.is_process_failure() => {
                    let ended_at = ctx.now();
                    self.recover(ctx)?;
                    recoveries += 1;
                    attempt_log.push(AttemptRecord {
                        attempt: attempts,
                        started_at,
                        ended_at,
                        completed: false,
                        recovery: ctx.now().saturating_sub(ended_at),
                        survivors: ctx.nprocs(),
                        path: CoveragePath::observed(
                            entry,
                            fti.last_restore(),
                            (ctx.failure_events().saturating_sub(events_at_start)) as u32,
                        ),
                    });
                    entry = AttemptEntry::Respawn;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Runs the strategy-specific recovery protocol: declares the global restart,
    /// charges failure detection plus the strategy's repair cost, and joins the
    /// cluster-wide recovery rendezvous that repairs the communicators, revives the
    /// failed processes and erases the checkpoint storage of crashed nodes.
    fn recover(&self, ctx: &mut RankCtx) -> Result<(), MpiError> {
        ctx.declare_global_restart();
        let nfailed = ctx.failed_count().max(1);
        let cost = ctx.machine().failure_detection_cost()
            + self
                .config
                .strategy
                .recovery_cost(ctx.machine(), ctx.nprocs(), nfailed);
        let prev = ctx.set_category(TimeCategory::Recovery);
        let store = Arc::clone(&self.store);
        let result = ctx.recovery_rendezvous_with(cost, move |crashed_nodes| {
            for &node in crashed_nodes {
                store.erase_node(node);
            }
        });
        ctx.set_category(prev);
        result
    }

    /// Runs the shrinking (ULFM `MPI_Comm_shrink`) recovery protocol: declares the
    /// global restart, charges detection plus the revoke→shrink→agree cost, joins the
    /// shrink rendezvous that retires the dead ranks and builds the survivor
    /// communicator, installs it as this rank's world, and re-partitions the
    /// protected dataset over the survivors (real redistribution messages, charged
    /// to [`TimeCategory::Recovery`]).
    ///
    /// Returns `Ok(true)` when this rank continues as a survivor and `Ok(false)`
    /// when it turns out to be a casualty of the very disruption being recovered
    /// (it observed a peer's failure, then was killed itself before the shrink).
    fn recover_shrink(&self, ctx: &mut RankCtx) -> Result<bool, MpiError> {
        ctx.declare_global_restart();
        let world = ctx.world();
        let nfailed = ctx.failed_count().max(1);
        let cost = ctx.machine().failure_detection_cost()
            + self
                .config
                .strategy
                .recovery_cost(ctx.machine(), world.size(), nfailed);
        let prev = ctx.set_category(TimeCategory::Recovery);
        let store = Arc::clone(&self.store);
        let shrunk = mpisim::ulfm::shrink_recovery(ctx, &world, cost, move |crashed_nodes| {
            for &node in crashed_nodes {
                store.erase_node(node);
            }
        });
        let result = match shrunk {
            Ok(new_world) => {
                let old_members: Vec<usize> = world.members().to_vec();
                ctx.set_world(new_world.clone());
                fti::redistribute_after_shrink(
                    ctx,
                    &new_world,
                    &self.config.fti,
                    &self.store,
                    &old_members,
                )
                .map(|_| true)
            }
            Err(MpiError::SelfFailed) => Ok(false),
            Err(e) => Err(e),
        };
        ctx.set_category(prev);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::FaultPlan;
    use fti::Protectable;
    use mpisim::{Cluster, ClusterConfig};

    /// A small iterative "application": every iteration adds the all-reduced rank sum
    /// to an accumulator, checkpointing through FTI. The final value is deterministic,
    /// so recovered runs must match failure-free runs exactly.
    fn toy_app(
        ctx: &mut RankCtx,
        fti: &mut Fti,
        injector: &FaultInjector,
        iterations: u64,
    ) -> Result<f64, MpiError> {
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
    }

    fn run_design(
        strategy: RecoveryStrategy,
        fault: impl Into<FailureTrace>,
        nprocs: usize,
    ) -> (Vec<Option<f64>>, mpisim::TimeBreakdown) {
        let store = CheckpointStore::shared();
        let config = FtConfig::new(strategy, FtiConfig::default().interval(5)).with_fault(fault);
        let cluster = Cluster::new(ClusterConfig::with_ranks(nprocs));
        let outcome = cluster.run(move |ctx| {
            let driver = FtDriver::new(config.clone(), Arc::clone(&store));
            driver.execute(ctx, |ctx, fti, injector| toy_app(ctx, fti, injector, 20))
        });
        assert!(outcome.all_ok(), "{strategy}: {:?}", outcome.errors());
        let values = outcome
            .ranks()
            .iter()
            .map(|r| r.result.as_ref().unwrap().value)
            .collect();
        (values, outcome.max_breakdown())
    }

    fn expected_value(nprocs: usize, iterations: u64) -> f64 {
        let per_iter: f64 = (1..=nprocs).map(|r| r as f64).sum();
        per_iter * iterations as f64
    }

    #[test]
    fn failure_free_runs_are_correct_for_all_designs() {
        // Without failures even the shrinking design runs on the full world, so all
        // four designs must produce the exact failure-free answer.
        for strategy in RecoveryStrategy::ALL {
            let (values, breakdown) = run_design(strategy, FaultPlan::None, 8);
            for v in &values {
                assert_eq!(*v, Some(expected_value(8, 20)), "{strategy}");
            }
            assert_eq!(
                breakdown.recovery,
                SimTime::ZERO,
                "{strategy} must not pay recovery"
            );
            assert!(breakdown.checkpoint_write.as_secs() > 0.0);
        }
    }

    #[test]
    fn recovered_runs_reproduce_the_failure_free_answer() {
        // The paper's three designs restore the full world, so the recovered answer
        // equals the failure-free one. The shrinking design legitimately computes a
        // different (smaller-world) answer and has its own tests below.
        for strategy in RecoveryStrategy::PAPER {
            let (values, breakdown) = run_design(strategy, FaultPlan::kill_rank_at(3, 12), 8);
            for v in &values {
                assert_eq!(*v, Some(expected_value(8, 20)), "{strategy} after recovery");
            }
            assert!(
                breakdown.recovery.as_secs() > 0.0,
                "{strategy} must pay recovery"
            );
        }
    }

    #[test]
    fn shrink_survivors_continue_on_the_smaller_world() {
        // 8 ranks, rank 3 killed at iteration 12, checkpoints every 5 iterations:
        // the survivors roll back to iteration 10 (10 iterations of the full-world
        // sum 36) and finish iterations 11..=20 as a 7-rank world whose per-iteration
        // sum is 36 - 4 = 32. The casualty reports no value.
        let (values, breakdown) =
            run_design(RecoveryStrategy::Shrink, FaultPlan::kill_rank_at(3, 12), 8);
        let expected = 10.0 * 36.0 + 10.0 * 32.0;
        for (rank, v) in values.iter().enumerate() {
            if rank == 3 {
                assert_eq!(*v, None, "the casualty must not report a value");
            } else {
                assert_eq!(*v, Some(expected), "rank {rank} after shrink");
            }
        }
        assert!(breakdown.recovery.as_secs() > 0.0);
    }

    #[test]
    fn shrink_attempt_log_records_the_survivor_counts() {
        let store = CheckpointStore::shared();
        let config = FtConfig::new(RecoveryStrategy::Shrink, FtiConfig::default().interval(5))
            .with_fault(FaultPlan::kill_rank_at(3, 12));
        let cluster = Cluster::new(ClusterConfig::with_ranks(8));
        let outcome = cluster.run(move |ctx| {
            let driver = FtDriver::new(config.clone(), Arc::clone(&store));
            driver.execute(ctx, |ctx, fti, injector| toy_app(ctx, fti, injector, 20))
        });
        assert!(outcome.all_ok(), "{:?}", outcome.errors());
        for (rank, r) in outcome.ranks().iter().enumerate() {
            let out = r.result.as_ref().unwrap();
            if rank == 3 {
                assert_eq!(out.attempts, 1);
                assert_eq!(out.recoveries, 0);
                assert_eq!(out.attempt_log.len(), 1);
                assert!(!out.attempt_log[0].completed);
                assert_eq!(out.attempt_log[0].survivors, 0, "a casualty leaves nobody");
            } else {
                assert_eq!(out.attempts, 2, "rank {rank}");
                assert_eq!(out.recoveries, 1);
                assert_eq!(out.attempt_log[0].survivors, 7, "the world shrank to 7");
                assert!(out.attempt_log[0].recovery.as_secs() > 0.0);
                assert!(out.attempt_log[1].completed);
                assert_eq!(out.attempt_log[1].survivors, 7);
            }
        }
    }

    #[test]
    fn shrink_runs_are_bit_deterministic() {
        for fault in [
            FaultPlan::kill_rank_at(3, 12),
            FaultPlan::crash_node_at(1, 7),
        ] {
            let (va, a) = run_design(RecoveryStrategy::Shrink, fault, 8);
            let (vb, b) = run_design(RecoveryStrategy::Shrink, fault, 8);
            assert_eq!(va, vb, "shrink values must be bit-identical: {fault:?}");
            assert_eq!(a, b, "shrink breakdowns must be bit-identical: {fault:?}");
        }
    }

    #[test]
    fn multi_event_shrink_retires_every_victim() {
        // Three disruptions, three shrinks: 8 -> 7 -> 6 -> 5 ranks. Every survivor
        // agrees on the same final value and every victim reports none.
        let trace = FailureTrace::schedule(vec![
            mpisim::FailureSpec::kill_process(2, 4),
            mpisim::FailureSpec::crash_node(3, 9),
            mpisim::FailureSpec::kill_process(0, 17),
        ]);
        let (values, breakdown) = run_design(RecoveryStrategy::Shrink, trace, 8);
        let dead = [0usize, 2, 3];
        let survivor_values: Vec<f64> = values
            .iter()
            .enumerate()
            .filter(|(rank, _)| !dead.contains(rank))
            .map(|(rank, v)| v.unwrap_or_else(|| panic!("rank {rank} must survive")))
            .collect();
        assert_eq!(survivor_values.len(), 5);
        for v in &survivor_values {
            assert_eq!(*v, survivor_values[0], "survivors must agree");
        }
        for &rank in &dead {
            assert_eq!(values[rank], None, "rank {rank} must be retired");
        }
        assert!(breakdown.recovery.as_secs() > 0.0);
    }

    #[test]
    fn with_failure_runs_are_bit_deterministic() {
        // The headline bugfix: detection latency is a pure function of the failure
        // event and the blocked operation, so two executions of the same with-failure
        // design agree on every breakdown component bit-for-bit.
        for fault in [
            FaultPlan::kill_rank_at(3, 12),
            FaultPlan::crash_node_at(1, 7),
        ] {
            let (va, a) = run_design(RecoveryStrategy::Ulfm, fault, 8);
            let (vb, b) = run_design(RecoveryStrategy::Ulfm, fault, 8);
            assert_eq!(va, vb);
            assert_eq!(a, b, "host scheduling leaked into virtual time: {fault:?}");
        }
    }

    #[test]
    fn recovery_time_ordering_reinit_ulfm_restart() {
        let fault = FaultPlan::kill_rank_at(1, 7);
        let (_, reinit) = run_design(RecoveryStrategy::Reinit, fault, 8);
        let (_, ulfm) = run_design(RecoveryStrategy::Ulfm, fault, 8);
        let (_, restart) = run_design(RecoveryStrategy::Restart, fault, 8);
        let (_, shrink) = run_design(RecoveryStrategy::Shrink, fault, 8);
        assert!(reinit.recovery < ulfm.recovery);
        assert!(ulfm.recovery < restart.recovery);
        // Shrinking skips the spawn/merge phases of non-shrinking ULFM; with a
        // replicated-only dataset (no redistribution traffic) it recovers faster.
        assert!(shrink.recovery < ulfm.recovery);
    }

    #[test]
    fn ulfm_inflates_application_time_even_without_failures() {
        let (_, reinit) = run_design(RecoveryStrategy::Reinit, FaultPlan::None, 8);
        let (_, ulfm) = run_design(RecoveryStrategy::Ulfm, FaultPlan::None, 8);
        let (_, restart) = run_design(RecoveryStrategy::Restart, FaultPlan::None, 8);
        assert!(ulfm.application > reinit.application);
        assert!(ulfm.application > restart.application);
        // Reinit's application time matches the Restart baseline (no background work).
        let rel = (reinit.application.as_secs() - restart.application.as_secs()).abs()
            / restart.application.as_secs();
        assert!(
            rel < 1e-9,
            "reinit and restart application times should match: {rel}"
        );
    }

    #[test]
    fn random_fault_plans_recover_too() {
        let (values, breakdown) = run_design(RecoveryStrategy::Reinit, FaultPlan::random(7, 20), 4);
        for v in &values {
            assert_eq!(*v, Some(expected_value(4, 20)));
        }
        assert!(breakdown.recovery.as_secs() > 0.0);
    }

    #[test]
    fn multi_event_traces_survive_repeated_recovery_cycles() {
        // Three failures in one run: two kills and a node crash, each in its own
        // detect -> recover -> rollback epoch. The final answer must still be exact.
        let trace = FailureTrace::schedule(vec![
            mpisim::FailureSpec::kill_process(2, 4),
            mpisim::FailureSpec::crash_node(3, 9),
            mpisim::FailureSpec::kill_process(0, 17),
        ]);
        for strategy in RecoveryStrategy::PAPER {
            let (values, breakdown) = run_design(strategy, trace.clone(), 8);
            for v in &values {
                assert_eq!(
                    *v,
                    Some(expected_value(8, 20)),
                    "{strategy} after 3 failures"
                );
            }
            assert!(breakdown.recovery.as_secs() > 0.0);
        }
    }

    #[test]
    fn attempts_and_recoveries_are_reported() {
        let store = CheckpointStore::shared();
        let config = FtConfig::new(RecoveryStrategy::Reinit, FtiConfig::default().interval(5))
            .with_fault(FaultPlan::kill_rank_at(0, 6));
        let cluster = Cluster::new(ClusterConfig::with_ranks(4));
        let outcome = cluster.run(move |ctx| {
            let driver = FtDriver::new(config.clone(), Arc::clone(&store));
            driver.execute(ctx, |ctx, fti, injector| toy_app(ctx, fti, injector, 10))
        });
        assert!(outcome.all_ok(), "{:?}", outcome.errors());
        for rank in outcome.ranks() {
            let out = rank.result.as_ref().unwrap();
            assert_eq!(out.attempts, 2);
            assert_eq!(out.recoveries, 1);
            assert_eq!(out.failure_events, 1);
            // Per-attempt accounting: a failed first attempt with its recovery cost,
            // then a completed second attempt.
            assert_eq!(out.attempt_log.len(), 2);
            assert!(!out.attempt_log[0].completed);
            assert!(out.attempt_log[0].recovery.as_secs() > 0.0);
            assert!(out.attempt_log[1].completed);
            assert_eq!(out.attempt_log[1].recovery, SimTime::ZERO);
            assert!(out.attempt_log[1].started_at >= out.attempt_log[0].ended_at);
            // Reinit respawns the dead rank: the world never shrinks.
            assert!(out.attempt_log.iter().all(|a| a.survivors == 4));
        }
    }

    #[test]
    fn misconfigured_victims_surface_as_errors() {
        // Satellite bugfix: a victim rank >= nprocs used to silently never fire and
        // the run reported success; it is now a loud configuration error.
        let store = CheckpointStore::shared();
        let config = FtConfig::new(RecoveryStrategy::Reinit, FtiConfig::default())
            .with_fault(FaultPlan::kill_rank_at(64, 3));
        let cluster = Cluster::new(ClusterConfig::with_ranks(2));
        let outcome = cluster.run(move |ctx| {
            let driver = FtDriver::new(config.clone(), Arc::clone(&store));
            driver.execute(ctx, |ctx, fti, injector| toy_app(ctx, fti, injector, 5))
        });
        for r in outcome.results() {
            assert!(matches!(r, Err(MpiError::InvalidArgument(_))), "{r:?}");
        }
    }

    #[test]
    fn non_failure_errors_are_propagated() {
        let store = CheckpointStore::shared();
        let config = FtConfig::new(RecoveryStrategy::Reinit, FtiConfig::default());
        let cluster = Cluster::new(ClusterConfig::with_ranks(1));
        let outcome = cluster.run(move |ctx| {
            let driver = FtDriver::new(config.clone(), Arc::clone(&store));
            driver.execute(ctx, |_ctx, _fti, _injector| -> Result<(), MpiError> {
                Err(MpiError::InvalidArgument("application bug".into()))
            })
        });
        assert!(matches!(
            outcome.results()[0],
            Err(MpiError::InvalidArgument(_))
        ));
    }

    #[test]
    fn restart_loses_more_work_than_checkpoint_interval_allows() {
        // With a checkpoint every 5 iterations and a failure at iteration 12, the
        // application resumes from iteration 11 (checkpoint at 10): the work of
        // iterations 11 and 12 is redone. We verify the application time with a failure
        // exceeds the failure-free application time for the same design.
        let (_, with_fault) =
            run_design(RecoveryStrategy::Reinit, FaultPlan::kill_rank_at(2, 12), 4);
        let (_, no_fault) = run_design(RecoveryStrategy::Reinit, FaultPlan::None, 4);
        assert!(with_fault.application > no_fault.application);
    }
}
