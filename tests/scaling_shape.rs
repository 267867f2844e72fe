//! Host-cost scaling shape, asserted on counts.
//!
//! The invariant: the host cost of one cell is linear in its rank count. Wall-clock
//! cannot be asserted in a test (and `match-lint`'s `no-wall-clock` keeps it out of
//! the simulation crates), so the shape is pinned on the scheduler's own counters —
//! [`SchedStats`] — on the `coop` backend, whose schedule is deterministic: the counts
//! repeat exactly, run to run.

use std::sync::Arc;

use match_core::fti::store::CheckpointStore;
use match_core::fti::{Fti, FtiConfig, Protectable};
use match_core::mpisim::{
    Cluster, ClusterConfig, FailureSpec, MpiError, RankCtx, SchedBackend, SchedStats,
};
use match_core::recovery::{FailureTrace, FaultInjector, FtConfig, FtDriver, RecoveryStrategy};

const ITERATIONS: u64 = 10;

/// A halo-plus-reduction main loop: every rank exchanges with its ring neighbours (so
/// receives blocked on a specific source exist when the failure hits), all-reduces,
/// and checkpoints every third iteration.
fn ring_app(ctx: &mut RankCtx, fti: &mut Fti, injector: &FaultInjector) -> Result<f64, MpiError> {
    let world = ctx.world();
    let n = world.size();
    let (next, prev) = ((world.rank() + 1) % n, (world.rank() + n - 1) % n);
    let mut acc = 0.0f64;
    let mut start = 1u64;
    fti.protect(0, "acc", &acc);
    if fti.status().is_restart() {
        start = fti.recover_object(ctx, 0, &mut acc)? + 1;
    }
    for iteration in start..=ITERATIONS {
        injector.maybe_fail(ctx, iteration)?;
        ctx.compute(2e4);
        ctx.sendrecv_f64(&world, next, &[acc], prev, 5)?;
        acc += ctx.allreduce_sum_f64(&world, 1.0)?;
        if fti.should_checkpoint(iteration) {
            fti.checkpoint(ctx, iteration, &[(0, &acc as &dyn Protectable)])?;
        }
    }
    fti.finalize(ctx)?;
    Ok(acc)
}

/// Runs the one-failure job at `nprocs` ranks under `strategy` and returns the
/// scheduler's counters.
fn one_failure_job(
    (backend, workers): (SchedBackend, usize),
    strategy: RecoveryStrategy,
    nprocs: usize,
) -> SchedStats {
    let store = CheckpointStore::shared();
    let config = FtConfig::new(strategy, FtiConfig::default().interval(3))
        .with_fault(FailureTrace::from(FailureSpec::kill_process(nprocs / 3, 5)));
    let cluster = Cluster::new(
        ClusterConfig::with_ranks(nprocs)
            .backend(backend)
            .workers(workers)
            .stack_size(256 * 1024),
    );
    let outcome = cluster
        .run(move |ctx| FtDriver::new(config.clone(), Arc::clone(&store)).execute(ctx, ring_app));
    assert!(
        outcome.all_ok(),
        "{strategy} on {backend}[w={workers}]: {:?}",
        outcome.errors().first()
    );
    for rank in 0..nprocs {
        let out = outcome.value_of(rank);
        assert_eq!(out.value, Some((ITERATIONS as usize * nprocs) as f64));
        assert_eq!(out.recoveries, 1, "rank {rank} recovers exactly once");
    }
    outcome.sched_stats()
}

#[test]
fn one_recovery_resumes_a_linear_number_of_fibers() {
    if !match_core::mpisim::COOP_SUPPORTED {
        return; // without fibers `coop` is `threads`, which counts nothing
    }
    const COOP: (SchedBackend, usize) = (SchedBackend::Coop, 0);
    for strategy in [RecoveryStrategy::Reinit, RecoveryStrategy::Ulfm] {
        let narrow = one_failure_job(COOP, strategy, 256);
        let wide = one_failure_job(COOP, strategy, 512);
        for (stats, nprocs) in [(narrow, 256u64), (wide, 512)] {
            // Every suspension ends in exactly one wake, every wake in one resume.
            assert_eq!(
                stats.parks, stats.wakes,
                "{strategy} at {nprocs}: {stats:?}"
            );
            assert_eq!(stats.resumes, nprocs + stats.wakes, "{strategy}: {stats:?}");
            // The schedule is deterministic: the counts repeat exactly.
            assert_eq!(stats, one_failure_job(COOP, strategy, nprocs as usize));
        }
        // Twice the ranks, about twice the fiber switches — not four times: every
        // failure transition wakes the ranks it concerns, and nobody already waiting
        // at the recovery rendezvous.
        assert!(
            wide.resumes as f64 <= 2.3 * narrow.resumes as f64,
            "{strategy}: {} resumes at 512 ranks against {} at 256",
            wide.resumes,
            narrow.resumes
        );
        // And hardly any of them in vain: a few per rank at most, at either size.
        for (stats, nprocs) in [(narrow, 256u64), (wide, 512)] {
            assert!(stats.spurious_wakes <= 4 * nprocs, "{strategy}: {stats:?}");
        }
    }
}

#[test]
fn the_thread_backend_counts_nothing_and_par_counts_consistently() {
    let threads = one_failure_job((SchedBackend::Threads, 0), RecoveryStrategy::Reinit, 16);
    assert_eq!(threads, SchedStats::default());
    if !match_core::mpisim::COOP_SUPPORTED {
        return;
    }
    // `par` interleaves freely, so its counts vary run to run — but never their
    // balance, at any worker count. And without the single thread's clock order to
    // hide them, wakes that reach ranks they do not concern show up as spurious ones:
    // waking everybody whenever a rank parks costs tens to thousands of them here,
    // depending on the interleaving; the targeted wakes leave at most the failure
    // broadcast's, one per rank.
    for workers in [1, 2, 3] {
        let stats = one_failure_job((SchedBackend::Par, workers), RecoveryStrategy::Ulfm, 256);
        assert_eq!(stats.parks, stats.wakes, "par[w={workers}]: {stats:?}");
        assert_eq!(
            stats.resumes,
            256 + stats.wakes,
            "par[w={workers}]: {stats:?}"
        );
        assert!(stats.spurious_wakes <= 256, "par[w={workers}]: {stats:?}");
    }
}
