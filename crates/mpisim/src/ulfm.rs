//! ULFM (User-Level Fault Mitigation) extensions.
//!
//! ULFM adds a small set of operations to MPI that let an application repair its
//! communicators after a fail-stop process failure: `MPIX_Comm_revoke`,
//! `MPIX_Comm_shrink`, `MPIX_Comm_agree` and `MPIX_Comm_failure_ack`/`get_acked`.
//! Non-shrinking recovery additionally uses `MPI_Comm_spawn` and
//! `MPI_Intercomm_merge` to replace the failed processes (Fig. 3 of the MATCH paper).
//!
//! This module provides the same operations over the simulated runtime. The
//! survivor-only operations (`comm_shrink`, `comm_agree`) synchronize exactly the
//! members that are still alive, so they work while a failure is outstanding, and they
//! charge the calibrated ULFM cost model of [`crate::MachineModel`]. Full non-shrinking
//! recovery — respawning the failed processes and rebuilding the world — is
//! orchestrated by the `match-recovery` crate on top of
//! [`crate::RankCtx::recovery_rendezvous`], using [`spawn_merge_cost`] for the cost of
//! the spawn + merge + agree steps.

use std::sync::Arc;

use crate::comm::{Comm, CommShared, SurvivorResult};
use crate::ctx::RankCtx;
use crate::error::MpiError;
use crate::sched::WaitKey;
use crate::state::ClusterState;
use crate::time::SimTime;

/// Revokes a communicator (`MPIX_Comm_revoke`).
///
/// After revocation every pending and future operation on the communicator fails with
/// [`MpiError::Revoked`] on all members, which is how survivors that have not yet
/// noticed the process failure are interrupted. The call itself never fails and charges
/// the modelled revoke propagation cost.
pub fn comm_revoke(ctx: &mut RankCtx, comm: &Comm) {
    comm.shared().revoke();
    // Wake blocked members so they observe the revocation.
    ctx.cluster().wake_all_waiters();
    let cost = ctx.machine().ulfm_revoke_cost(comm.size());
    ctx.elapse(cost);
}

/// Acknowledges the locally known failures on `comm` and returns the global ranks of
/// its failed members (`MPIX_Comm_failure_ack` + `MPIX_Comm_failure_get_acked`).
pub fn comm_failure_ack(ctx: &mut RankCtx, comm: &Comm) -> Vec<usize> {
    ctx.failed_ranks()
        .into_iter()
        .filter(|r| comm.contains(*r))
        .collect()
}

/// Fault-tolerant agreement (`MPIX_Comm_agree`): the surviving members of `comm`
/// agree on the bitwise AND of their contributed flags.
///
/// # Errors
///
/// Returns [`MpiError::Internal`] if the caller is not an alive member of the
/// communicator (a failed process must not participate), and
/// [`MpiError::SelfFailed`] if every member dies before the agreement completes.
pub fn comm_agree(ctx: &mut RankCtx, comm: &Comm, flag: u64) -> Result<u64, MpiError> {
    let cost = ctx.machine().ulfm_agree_cost(comm.size());
    let result = survivor_rendezvous(ctx, comm, flag, cost, false)?;
    Ok(result.value)
}

/// Shrinks a communicator (`MPIX_Comm_shrink`): returns a new communicator containing
/// only the surviving members of `comm`, in ascending global-rank order.
///
/// # Errors
///
/// Returns [`MpiError::Internal`] if the caller is not an alive member, and
/// [`MpiError::SelfFailed`] if every member dies before the shrink completes.
pub fn comm_shrink(ctx: &mut RankCtx, comm: &Comm) -> Result<Comm, MpiError> {
    let cost = ctx.machine().ulfm_shrink_cost(comm.size());
    let result = survivor_rendezvous(ctx, comm, 0, cost, true)?;
    let shared = result
        .new_comm
        .ok_or_else(|| MpiError::Internal("shrink produced no communicator".into()))?;
    let my_index = shared
        .rank_of(ctx.rank())
        .ok_or_else(|| MpiError::Internal("caller missing from shrunk communicator".into()))?;
    Ok(Comm::new(shared, my_index))
}

/// The modelled cost of the spawn + intercommunicator-merge + agree sequence that
/// non-shrinking ULFM recovery uses to replace `nfailed` processes in a job of
/// `nprocs` processes.
pub fn spawn_merge_cost(ctx: &RankCtx, nprocs: usize, nfailed: usize) -> SimTime {
    let m = ctx.machine();
    m.ulfm_spawn_cost(nfailed) + m.ulfm_merge_cost(nprocs) + m.ulfm_agree_cost(nprocs)
}

/// The total modelled cost of the full ULFM global non-shrinking recovery protocol
/// (revoke + shrink + spawn + merge + agree), as used by the MATCH `ULFM-FTI` design.
pub fn nonshrinking_recovery_cost(ctx: &RankCtx, nprocs: usize, nfailed: usize) -> SimTime {
    ctx.machine().ulfm_recovery_cost(nprocs, nfailed)
}

/// The total modelled cost of the ULFM *shrinking* recovery protocol
/// (revoke + shrink + agree — no spawn and no merge, because the failed processes
/// are never replaced), as used by the beyond-the-paper `SHRINK-FTI` design.
/// `nprocs` is the communicator size *before* the shrink.
pub fn shrinking_recovery_cost(ctx: &RankCtx, nprocs: usize) -> SimTime {
    let m = ctx.machine();
    m.ulfm_revoke_cost(nprocs) + m.ulfm_shrink_cost(nprocs) + m.ulfm_agree_cost(nprocs)
}

/// Shrinking recovery rendezvous: every surviving member of `comm` gathers here, the
/// failed members are *permanently retired* from the cluster (never respawned), and
/// each survivor receives a freshly registered communicator containing exactly the
/// survivor set in ascending global-rank order.
///
/// The last survivor to arrive performs the epoch repair exactly once, while every
/// other survivor is parked inside the rendezvous:
///
/// 1. drains the pending node-failure list and hands it to `repair_hook`, so the
///    caller can erase node-local checkpoint storage before anyone reads it again;
/// 2. retires the failed ranks ([`crate::state::ClusterState::retire_failed_ranks`]);
/// 3. ends the disruption epoch — failure-visibility clock, mailboxes and parked
///    flags of the survivors are reset — without reviving anyone
///    ([`crate::state::ClusterState::complete_shrink_repair`]);
/// 4. registers the shrunk communicator and publishes the common completion time
///    `max(survivor entry times) + cost`.
///
/// `cost` is the full modelled recovery cost the survivors synchronize over
/// (typically failure detection plus [`shrinking_recovery_cost`]).
///
/// # Errors
///
/// Returns [`MpiError::SelfFailed`] if the caller is (or becomes) a casualty of the
/// current epoch: it was dead on entry, it was killed after depositing but before the
/// round completed (it is then not a member of the shrunk communicator), or every
/// member of `comm` died so no survivor set exists.
pub fn shrink_recovery(
    ctx: &mut RankCtx,
    comm: &Comm,
    cost: SimTime,
    repair_hook: impl FnOnce(&[usize]),
) -> Result<Comm, MpiError> {
    let me = ctx.rank();
    let cluster = Arc::clone(ctx.cluster());
    let shared = Arc::clone(comm.shared());
    let entry_time = ctx.now();

    // Park first: survivors still blocked in application operations must be able to
    // conclude that no more messages can arrive from ranks already gathered here.
    cluster.set_parked(me);

    // NOTE: deliberately no host-time liveness check on entry — whether this rank is
    // a casualty of the epoch is decided by membership in the communicator the
    // finisher publishes, which is a pure function of virtual time. Each
    // communicator hosts at most one shrink round (the next epoch runs on the shrunk
    // communicator), so a round that already finished can only mean this caller was
    // excluded from it: a casualty killed after its attempt aborted but before it
    // reached the rendezvous. It must not disturb the drain accounting.
    let my_seq = {
        let mut rounds = shared.survivor_rounds.lock();
        if rounds.finished.is_some() {
            return Err(MpiError::SelfFailed);
        }
        rounds.arrivals.push((me, entry_time, 0));
        rounds.seq
    };

    let mut repair_hook = Some(repair_hook);
    let res = survivor_round(ctx, &shared, my_seq, cost, |alive_members, _| {
        // Every survivor has arrived: this caller repairs the epoch.
        let crashed_nodes = cluster.take_pending_node_failures();
        if let Some(hook) = repair_hook.take() {
            hook(&crashed_nodes);
        }
        cluster.retire_failed_ranks();
        cluster.complete_shrink_repair();
        let shrunk = register_comm(&cluster, alive_members);
        // Anything blocked on state the repair just reset.
        cluster.wake_all_waiters();
        (0, Some(shrunk))
    })?;
    let new_shared = res
        .new_comm
        .ok_or_else(|| MpiError::Internal("shrink recovery produced no communicator".into()))?;
    match new_shared.rank_of(me) {
        Some(idx) => Ok(Comm::new(new_shared, idx)),
        // Killed after depositing but before the round completed: membership in the
        // published communicator is the virtual-time-deterministic casualty test (the
        // host-time liveness flag must not be consulted here).
        None => Err(MpiError::SelfFailed),
    }
}

/// Rendezvous among the *alive* members of `comm`.
///
/// Unlike the regular collective slot, participation is determined dynamically: the
/// round completes once every currently-alive member has arrived. The last arriver
/// ANDs the contributions, optionally builds the shrunk communicator, and sets the
/// common completion time to `max(entry times) + cost`.
fn survivor_rendezvous(
    ctx: &mut RankCtx,
    comm: &Comm,
    contribution: u64,
    cost: SimTime,
    build_shrunk: bool,
) -> Result<SurvivorResult, MpiError> {
    let me = ctx.rank();
    let cluster = Arc::clone(ctx.cluster());
    if !cluster.is_alive(me) {
        return Err(MpiError::Internal(
            "failed process cannot join a survivor rendezvous".into(),
        ));
    }
    let shared = Arc::clone(comm.shared());
    let entry_time = ctx.now();
    let key = WaitKey::object(&shared.survivor_rounds);

    // Deposit phase: wait until the previous round has fully drained, then join the
    // current round. The token is read before each condition check so a progress
    // signal racing the check invalidates the park.
    let mut suspended_before = false;
    let my_seq = loop {
        let token = ctx.wait_token(key);
        {
            let mut rounds = shared.survivor_rounds.lock();
            if rounds.finished.is_none() {
                rounds.arrivals.push((me, entry_time, contribution));
                break rounds.seq;
            }
        }
        suspended_before |= ctx.park(token, suspended_before);
    };

    survivor_round(
        ctx,
        &shared,
        my_seq,
        cost,
        |alive_members, arrived_alive| {
            let value = arrived_alive
                .iter()
                .fold(u64::MAX, |acc, (_, _, v)| acc & v);
            let shrunk = build_shrunk.then(|| register_comm(&cluster, alive_members));
            (value, shrunk)
        },
    )
}

/// Waits in survivor round `my_seq` of `shared`, which the caller has joined, until
/// the round has a result, and collects it. The caller that finds every alive member
/// arrived finishes the round: `finish` gets the alive members and their arrivals and
/// returns the round's value and new communicator, and the completion time is
/// `max(their entry times) + cost`.
///
/// # Errors
///
/// [`MpiError::SelfFailed`] if every member of `shared` died, so that no survivor can
/// ever complete the round.
fn survivor_round(
    ctx: &mut RankCtx,
    shared: &CommShared,
    my_seq: u64,
    cost: SimTime,
    mut finish: impl FnMut(&[usize], &[(usize, SimTime, u64)]) -> (u64, Option<Arc<CommShared>>),
) -> Result<SurvivorResult, MpiError> {
    let cluster = Arc::clone(ctx.cluster());
    let entry_time = ctx.now();
    // The rendezvous wait channel: progress transitions below signal it, and failures
    // signal every channel through the cluster state.
    let key = WaitKey::object(&shared.survivor_rounds);
    let mut suspended_before = false;
    loop {
        let token = ctx.wait_token(key);
        let mut rounds = shared.survivor_rounds.lock();
        if let Some(res) = rounds.finished.clone().filter(|res| res.seq == my_seq) {
            rounds.collected += 1;
            let drained = rounds.collected >= res.participants;
            if drained {
                // Round fully drained: advance to the next one.
                rounds.seq += 1;
                rounds.arrivals.clear();
                rounds.finished = None;
                rounds.collected = 0;
            }
            drop(rounds);
            if drained {
                // Members parked waiting to deposit into the next round.
                ctx.wake_channel(key);
            }
            ctx.elapse(res.finish_time.saturating_sub(entry_time));
            ctx.stats_mut().collectives += 1;
            return Ok(res);
        }
        if rounds.finished.is_none()
            && rounds.seq == my_seq
            && all_survivors_may_have_arrived(&cluster, shared, &rounds)
        {
            let alive_members = alive_members_of(&cluster, shared);
            if alive_members.is_empty() {
                return Err(MpiError::SelfFailed);
            }
            let arrived_alive: Vec<(usize, SimTime, u64)> = (rounds.arrivals.iter())
                .filter(|(r, _, _)| cluster.is_alive(*r))
                .copied()
                .collect();
            if arrived_alive.len() >= alive_members.len() {
                let max_entry = (arrived_alive.iter())
                    .map(|(_, t, _)| *t)
                    .fold(SimTime::ZERO, SimTime::max);
                let (value, new_comm) = finish(&alive_members, &arrived_alive);
                rounds.finished = Some(SurvivorResult {
                    seq: my_seq,
                    finish_time: max_entry + cost,
                    value,
                    // Every depositor — including casualties killed after depositing —
                    // collects exactly once, so the drain count is independent of host
                    // scheduling.
                    participants: rounds.arrivals.len(),
                    new_comm,
                });
                drop(rounds);
                // Members parked waiting for the round's result.
                ctx.wake_channel(key);
                continue;
            }
        }
        drop(rounds);
        suspended_before |= ctx.park(token, suspended_before);
    }
}

/// Creates and registers the communicator of `members`.
fn register_comm(cluster: &ClusterState, members: &[usize]) -> Arc<CommShared> {
    let comm = CommShared::new(cluster.next_comm_id(), members.to_vec());
    cluster.register_comm(&comm);
    comm
}

/// A constant-time necessary condition for "every alive member of `comm` has arrived":
/// the arrivals plus every dead rank of the job cover the membership. All but the last
/// arrivers of a round fail it and skip the per-member liveness scans.
fn all_survivors_may_have_arrived(
    cluster: &ClusterState,
    comm: &CommShared,
    rounds: &crate::comm::SurvivorRounds,
) -> bool {
    rounds.arrivals.len() + cluster.failed_count() + cluster.retired_count() >= comm.members.len()
}

fn alive_members_of(cluster: &ClusterState, comm: &CommShared) -> Vec<usize> {
    comm.members
        .iter()
        .copied()
        .filter(|&r| cluster.is_alive(r))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{Cluster, ClusterConfig};

    #[test]
    fn revoke_poisons_collectives() {
        let cluster = Cluster::new(ClusterConfig::with_ranks(4));
        let outcome = cluster.run(|ctx| {
            let world = ctx.world();
            if ctx.rank() == 0 {
                comm_revoke(ctx, &world);
            }
            // Give revocation time to be observed by everyone: rank 0 revokes before the
            // barrier, so the barrier must fail with Revoked on every rank.
            match ctx.barrier(&world) {
                Err(MpiError::Revoked) => Ok(true),
                other => Ok(matches!(other, Err(MpiError::Revoked))),
            }
        });
        // Rank 0 definitely observed Revoked; others may or may not depending on timing
        // of their entry, but none may succeed because the flag is set before rank 0
        // enters the rendezvous and the barrier cannot complete without rank 0.
        assert!(outcome.all_ok());
        assert!(outcome.results().iter().any(|r| *r.as_ref().unwrap()));
    }

    #[test]
    fn failure_ack_lists_failed_members() {
        let cluster = Cluster::new(ClusterConfig::with_ranks(4));
        let outcome = cluster.run(|ctx| {
            if ctx.rank() == 2 {
                ctx.fail_rank(2);
            }
            // Wait until the failure is visible everywhere.
            ctx.wait_for_failure_events(1);
            let world = ctx.world();
            Ok(comm_failure_ack(ctx, &world))
        });
        for r in outcome.results() {
            assert_eq!(r.as_ref().unwrap(), &vec![2]);
        }
    }

    #[test]
    fn shrink_and_agree_among_survivors() {
        let cluster = Cluster::new(ClusterConfig::with_ranks(4));
        let outcome = cluster.run(|ctx| {
            let world = ctx.world();
            if ctx.rank() == 1 {
                // Rank 1 dies immediately and takes no further part.
                return Err(ctx.kill_self());
            }
            // Survivors wait until they can see the failure, then shrink.
            ctx.wait_for_failure_events(1);
            let shrunk = comm_shrink(ctx, &world)?;
            assert_eq!(shrunk.size(), 3);
            assert!(!shrunk.contains(1));
            let agreed = comm_agree(ctx, &world, if ctx.rank() == 0 { 0b1110 } else { 0b0111 })?;
            assert_eq!(agreed, 0b0110);
            // The shrunk communicator supports normal collectives among survivors.
            let sum = ctx.allreduce_sum_f64(&shrunk, 1.0)?;
            assert_eq!(sum, 3.0);
            Ok(vec![shrunk.size()])
        });
        let mut ok = 0;
        let mut failed = 0;
        for r in outcome.results() {
            match r {
                Ok(v) => {
                    assert_eq!(v, &vec![3]);
                    ok += 1;
                }
                Err(MpiError::SelfFailed) => failed += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(ok, 3);
        assert_eq!(failed, 1);
    }

    #[test]
    fn shrink_recovery_retires_the_dead_and_continues_on_the_survivor_comm() {
        let cluster = Cluster::new(ClusterConfig::with_ranks(4));
        let outcome = cluster.run(|ctx| {
            let world = ctx.world();
            if ctx.rank() == 1 {
                return Err(ctx.kill_self());
            }
            ctx.wait_for_failure_events(1);
            let cost = shrinking_recovery_cost(ctx, world.size());
            let shrunk = shrink_recovery(ctx, &world, cost, |_crashed| {})?;
            assert_eq!(shrunk.size(), 3);
            assert!(!shrunk.contains(1));
            // The casualty is permanently retired, not left failed: the epoch is
            // healthy again without anyone having been revived.
            assert!(ctx.cluster().is_retired(1));
            assert_eq!(ctx.cluster().retired_count(), 1);
            assert_eq!(ctx.cluster().failed_count(), 0);
            assert!(ctx.failed_ranks().is_empty());
            // Normal collectives work among the survivors.
            let sum = ctx.allreduce_sum_f64(&shrunk, 1.0)?;
            assert_eq!(sum, 3.0);
            Ok(shrunk.size())
        });
        let mut ok = 0;
        let mut failed = 0;
        for r in outcome.results() {
            match r {
                Ok(size) => {
                    assert_eq!(*size, 3);
                    ok += 1;
                }
                Err(MpiError::SelfFailed) => failed += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(ok, 3);
        assert_eq!(failed, 1);
    }

    #[test]
    fn shrinking_costs_less_than_nonshrinking() {
        let cluster = Cluster::new(ClusterConfig::with_ranks(2));
        let outcome = cluster.run(|ctx| {
            let shrink = shrinking_recovery_cost(ctx, 128);
            let nonshrink = nonshrinking_recovery_cost(ctx, 128, 1);
            assert!(shrink.as_secs() > 0.0);
            // No spawn + merge step, so the shrink protocol itself must be cheaper.
            assert!(shrink < nonshrink);
            Ok(())
        });
        assert!(outcome.all_ok());
    }

    #[test]
    fn recovery_costs_are_positive_and_ordered() {
        let cluster = Cluster::new(ClusterConfig::with_ranks(2));
        let outcome = cluster.run(|ctx| {
            let spawn = spawn_merge_cost(ctx, 128, 1);
            let total = nonshrinking_recovery_cost(ctx, 128, 1);
            assert!(spawn.as_secs() > 0.0);
            assert!(total > spawn);
            Ok(())
        });
        assert!(outcome.all_ok());
    }
}
