//! Lost-wakeup coverage for the targeted failure-transition wakes.
//!
//! A rank that parks at the recovery rendezvous wakes only the operations whose abort
//! predicate reads its state: the receivers waiting for a message from it and the
//! collectives of its communicators. These tests put a rank into each kind of blocked
//! operation and check that the transition it depends on gets it out — with the
//! deterministic result and the deterministic exit clock — on the backends where a
//! wake can race the blocked rank's check: `par` at 2, 3 and 4 workers, the last one
//! rank per worker (`coop` rides along as the single-threaded reference). A lost wake
//! would show as the `par` deadlock diagnosis, or a clock that differs from the
//! reference.
//! Each job is repeated so that different host interleavings get sampled.

use match_core::mpisim::{
    Cluster, ClusterConfig, MachineModel, MpiError, RankCtx, SchedBackend, SimTime, ANY_SOURCE,
};

/// The backends under test: `(backend, par workers)`.
const BACKENDS: [(SchedBackend, usize); 4] = [
    (SchedBackend::Coop, 0),
    (SchedBackend::Par, 2),
    (SchedBackend::Par, 3),
    (SchedBackend::Par, 4),
];

const REPEATS: usize = 25;

/// The flops the victim computes before it dies: puts the failure instant at a
/// nonzero virtual time every other rank's clock is still short of.
const VICTIM_FLOPS: f64 = 1e6;

fn failure_instant() -> SimTime {
    MachineModel::default().compute_cost(VICTIM_FLOPS)
}

/// Runs `program` on 4 ranks on every backend, `REPEATS` times each, and checks that
/// every run produces the reference (first) result.
fn run_everywhere<R, F>(what: &str, program: F) -> Vec<R>
where
    R: Send + PartialEq + std::fmt::Debug + Clone,
    F: Fn(&mut RankCtx) -> Result<R, MpiError> + Send + Sync + Copy,
{
    let mut reference: Option<Vec<R>> = None;
    for (backend, workers) in BACKENDS {
        for repeat in 0..REPEATS {
            let cluster = Cluster::new(
                ClusterConfig::with_ranks(4)
                    .backend(backend)
                    .workers(workers),
            );
            let outcome = cluster.run(program);
            assert!(
                outcome.all_ok(),
                "{what} on {backend}[w={workers}] #{repeat}: {:?}",
                outcome.errors()
            );
            let values: Vec<R> = (0..4).map(|r| outcome.value_of(r).clone()).collect();
            match &reference {
                None => reference = Some(values),
                Some(expected) => assert_eq!(
                    &values, expected,
                    "{what} diverged on {backend}[w={workers}] #{repeat}"
                ),
            }
        }
    }
    reference.expect("at least one backend ran")
}

/// Rank 3 of every job below: computes, dies, and joins the repair as its own
/// replacement.
fn die_then_rejoin(ctx: &mut RankCtx) -> Result<(), MpiError> {
    ctx.compute(VICTIM_FLOPS);
    let _ = ctx.kill_self();
    ctx.recovery_rendezvous(SimTime::ZERO)
}

/// A survivor with nothing to receive: waits for the failure, then parks at the
/// recovery rendezvous.
fn observe_failure_then_park(ctx: &mut RankCtx) -> Result<(), MpiError> {
    ctx.wait_for_failure_events(1);
    ctx.recovery_rendezvous(SimTime::ZERO)
}

/// After the repair every rank proves the job healed.
fn healed_sum(ctx: &mut RankCtx) -> Result<f64, MpiError> {
    let world = ctx.world();
    ctx.allreduce_sum_f64(&world, 1.0)
}

#[test]
fn receiver_aborts_when_its_source_parks_at_the_recovery_rendezvous() {
    // Rank 0 blocks on a message rank 1 never sends. The failure of rank 3 alone must
    // not abort the receive (rank 1 could still send); rank 1's parking must — and it
    // is the only wake rank 0 gets for it.
    let results = run_everywhere("receive from a parking source", |ctx| {
        let world = ctx.world();
        let mut abort_clock = None;
        match ctx.rank() {
            0 => {
                // Tell rank 1 this rank is about to block, then block.
                ctx.send_f64(&world, 1, 1, &[0.0])?;
                let err = ctx
                    .recv_f64(&world, 1, 9)
                    .expect_err("nothing was ever sent with tag 9");
                assert!(err.is_process_failure(), "{err:?}");
                abort_clock = Some(ctx.now());
                ctx.recovery_rendezvous(SimTime::ZERO)?;
            }
            1 => {
                ctx.recv_f64(&world, 0, 1)?;
                observe_failure_then_park(ctx)?;
            }
            2 => observe_failure_then_park(ctx)?,
            _ => die_then_rejoin(ctx)?,
        }
        Ok((abort_clock, healed_sum(ctx)?))
    });
    assert_eq!(
        results[0],
        (Some(failure_instant()), 4.0),
        "the aborted receive must exit at the failure instant"
    );
}

#[test]
fn any_source_receiver_outlasts_every_source_but_the_last_and_loses_no_message() {
    // Rank 0 receives from anybody, three times. Rank 1 sends before it parks; rank 2
    // sends only *after* it has seen the failure — by then ranks 1 and 3 may long have
    // quiesced — and then parks. Aborting when the first sources quiesce would lose
    // rank 2's message; aborting without a final sweep would lose one queued before
    // quiescence. Only the third receive, with nobody left to send, may fail.
    let results = run_everywhere("ANY_SOURCE receive", |ctx| {
        let world = ctx.world();
        let mut received = Vec::new();
        match ctx.rank() {
            0 => {
                for tag in [1, 2] {
                    let (src, data) = ctx.recv_f64(&world, ANY_SOURCE, tag)?;
                    received.push((src, data[0]));
                }
                let err = ctx
                    .recv_f64(&world, ANY_SOURCE, 3)
                    .expect_err("every possible source has quiesced");
                assert!(err.is_process_failure(), "{err:?}");
                assert_eq!(ctx.now(), failure_instant());
                ctx.recovery_rendezvous(SimTime::ZERO)?;
            }
            1 => {
                ctx.send_f64(&world, 0, 1, &[10.0])?;
                observe_failure_then_park(ctx)?;
            }
            2 => {
                ctx.wait_for_failure_events(1);
                // Issued before this rank's clock reaches the failure instant, so the
                // failure is not yet visible to it and the send succeeds.
                ctx.send_f64(&world, 0, 2, &[20.0])?;
                ctx.recovery_rendezvous(SimTime::ZERO)?;
            }
            _ => die_then_rejoin(ctx)?,
        }
        Ok((received, healed_sum(ctx)?))
    });
    assert_eq!(results[0], (vec![(1, 10.0), (2, 20.0)], 4.0));
}

#[test]
fn collective_blocked_on_a_dead_member_aborts_at_the_failure_instant() {
    let results = run_everywhere("barrier with a dead member", |ctx| {
        let world = ctx.world();
        if ctx.rank() == 3 {
            die_then_rejoin(ctx)?;
            return Ok((None, healed_sum(ctx)?));
        }
        let err = ctx
            .barrier(&world)
            .expect_err("rank 3 never reaches the barrier");
        assert!(err.is_process_failure(), "{err:?}");
        let abort_clock = ctx.now();
        ctx.recovery_rendezvous(SimTime::ZERO)?;
        Ok((Some(abort_clock), healed_sum(ctx)?))
    });
    for observed in &results[..3] {
        assert_eq!(*observed, (Some(failure_instant()), 4.0));
    }
}
