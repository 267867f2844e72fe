//! The per-rank execution context.
//!
//! A [`RankCtx`] is handed to the closure each simulated rank executes. It exposes the
//! MPI-like operations (point-to-point and collectives), the virtual clock and its
//! category-attributed time breakdown, failure reporting, and the global recovery
//! rendezvous used by the fault-tolerance drivers.

use std::sync::Arc;

use crate::collective::{CollSlot, SlotWait};
use crate::comm::Comm;
use crate::datatype;
use crate::error::MpiError;
use crate::machine::{CollectiveKind, MachineModel, StorageTier};
use crate::msg::{Message, Payload, SpareBuffers};
use crate::sched::{WaitKey, WaitToken, Yielder};
use crate::state::ClusterState;
use crate::stats::{RankStats, TimeBreakdown};
use crate::time::SimTime;
use crate::topology::Topology;
use crate::{ANY_SOURCE, ANY_TAG};

/// The category virtual time is currently attributed to.
///
/// The MATCH figures break execution time into application time, checkpoint-write time
/// and recovery time; the fault-tolerance driver switches the active category around
/// checkpoint and recovery phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeCategory {
    /// Application compute and application communication.
    Application,
    /// Writing checkpoints (FTI `checkpoint()` and its internal collectives).
    CheckpointWrite,
    /// Reading checkpoints back during a restart.
    CheckpointRead,
    /// MPI recovery (failure detection, communicator repair, job redeployment).
    Recovery,
}

/// Element-wise reduction operators for `f64` reductions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
    /// Element-wise product.
    Prod,
}

impl ReduceOp {
    fn combine(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::Prod => a * b,
        }
    }

    fn apply(self, acc: &mut [f64], x: &[f64]) {
        for (a, b) in acc.iter_mut().zip(x) {
            *a = self.combine(*a, *b);
        }
    }

    /// Folds the members' vectors element-wise into `acc`, in communicator-rank order.
    fn fold_into(self, acc: &mut Vec<f64>, vals: &[Vec<f64>]) {
        let (first, rest) = vals
            .split_first()
            .expect("a collective has at least one member");
        acc.clear();
        acc.extend_from_slice(first);
        for v in rest {
            self.apply(acc, v);
        }
    }
}

/// A vector cell keeps its buffer for the slot's next round of its kind up to this
/// size; a larger one is freed once folded, so that a slot never holds a round's worth
/// of big contributions between rounds.
const KEPT_CELL_BYTES: usize = 64 << 10;

/// Folds the cells of a vector round into its result: `fold` writes into `spare` — the
/// result of this kind two rounds back — when nobody holds that anymore, and into a
/// fresh buffer otherwise. Then frees the cells above [`KEPT_CELL_BYTES`].
fn fold_vectors<T, R: Default>(
    cells: &mut [Vec<T>],
    spare: Option<Arc<R>>,
    fold: impl FnOnce(&[Vec<T>], &mut R),
) -> Arc<R> {
    let unshared = |buf: &Arc<R>| Arc::strong_count(buf) == 1 && Arc::weak_count(buf) == 0;
    let mut result = spare.filter(unshared).unwrap_or_default();
    fold(
        cells,
        Arc::get_mut(&mut result).expect("an unshared buffer"),
    );
    for cell in cells {
        if cell.capacity() * std::mem::size_of::<T>() > KEPT_CELL_BYTES {
            *cell = Vec::new();
        }
    }
    result
}

/// The result of an all-gather of typed slices: every member's contribution in
/// communicator-rank order, stored once — contiguously — and shared by all members.
#[derive(Debug, Clone)]
pub struct Gathered<T> {
    parts: Arc<GatheredParts<T>>,
}

#[derive(Debug, Default)]
struct GatheredParts<T> {
    flat: Vec<T>,
    /// `ends[i]` is the end offset of member `i`'s chunk in `flat`.
    ends: Vec<usize>,
}

impl<T> Gathered<T> {
    /// All contributions concatenated in communicator-rank order.
    pub fn flat(&self) -> &[T] {
        &self.parts.flat
    }

    /// Number of members that contributed.
    pub fn len(&self) -> usize {
        self.parts.ends.len()
    }

    /// Whether no member contributed (never the case for a completed all-gather).
    pub fn is_empty(&self) -> bool {
        self.parts.ends.is_empty()
    }

    /// The contribution of the member with communicator rank `member`.
    ///
    /// # Panics
    ///
    /// Panics if `member` is out of range.
    pub fn chunk(&self, member: usize) -> &[T] {
        let start = if member == 0 {
            0
        } else {
            self.parts.ends[member - 1]
        };
        &self.parts.flat[start..self.parts.ends[member]]
    }

    /// The contributions in communicator-rank order.
    pub fn chunks(&self) -> impl Iterator<Item = &[T]> {
        (0..self.len()).map(|member| self.chunk(member))
    }
}

/// Per-rank execution context: virtual clock, statistics and MPI-like operations.
pub struct RankCtx {
    rank: usize,
    state: Arc<ClusterState>,
    now: SimTime,
    breakdown: TimeBreakdown,
    stats: RankStats,
    category: TimeCategory,
    compute_interference: f64,
    io_interference: f64,
    world: Comm,
    /// The backend's park/wake handle: blocked operations park the rank through it,
    /// and state changes other ranks may be parked on are signalled through it.
    yielder: Yielder,
    /// Message buffers typed receives freed for typed sends to reuse.
    spares: SpareBuffers,
}

impl std::fmt::Debug for RankCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RankCtx")
            .field("rank", &self.rank)
            .field("now", &self.now)
            .field("category", &self.category)
            .finish()
    }
}

impl RankCtx {
    /// Creates the context for `rank` over the given shared cluster state; blocked
    /// operations park through `yielder`, the handle of the job's backend.
    pub(crate) fn new(rank: usize, state: Arc<ClusterState>, yielder: Yielder) -> Self {
        let world = Comm::new(Arc::clone(&state.world), rank);
        RankCtx {
            rank,
            state,
            now: SimTime::ZERO,
            breakdown: TimeBreakdown::new(),
            stats: RankStats::new(),
            category: TimeCategory::Application,
            compute_interference: 0.0,
            io_interference: 0.0,
            world,
            yielder,
            spares: SpareBuffers::default(),
        }
    }

    // ----- backend plumbing ----------------------------------------------------------

    /// Snapshots the wait channel `key` for a subsequent [`RankCtx::park`]. Must be
    /// read **before** the condition the park guards is checked: on `par`, whose ranks
    /// park from several worker threads, the token is what detects a wake racing the
    /// check (the park then returns immediately); on `coop` it is inert.
    pub(crate) fn wait_token(&self, key: WaitKey) -> WaitToken {
        self.yielder.wait_token(self.rank, key)
    }

    /// Suspends this rank until the token's wait channel is signalled. The caller
    /// re-checks its condition in a loop around this, re-reading the token each pass;
    /// parks whose token a wake has invalidated return immediately, so no wakeup can
    /// be lost. `suspended_before` and the result are those of [`Yielder::park`]: the
    /// caller ORs the result into the flag it passes on its next pass.
    pub(crate) fn park(&self, token: WaitToken, suspended_before: bool) -> bool {
        self.yielder
            .park(self.rank, token, self.now, suspended_before)
    }

    /// Executes one rendezvous round on `slot` as member `member` (see
    /// [`CollSlot::round`]), parked on the slot's wait channel while it waits.
    fn run_round<C, O>(
        &self,
        slot: &CollSlot,
        member: usize,
        cost: SimTime,
        deposit: impl FnOnce(&mut C),
        fold: impl FnOnce(&mut [C], Option<O>) -> O,
        abort_check: impl FnMut() -> Option<MpiError>,
    ) -> Result<(SimTime, O), MpiError>
    where
        C: Default + Send + 'static,
        O: Clone + Send + 'static,
    {
        let (y, rank, key, entry_time) =
            (&self.yielder, self.rank, WaitKey::object(slot), self.now);
        slot.round(
            member,
            entry_time,
            cost,
            deposit,
            fold,
            abort_check,
            SlotWait {
                prepare: &|| y.wait_token(rank, key),
                park: &|token, suspended_before| y.park(rank, token, entry_time, suspended_before),
                wake: &|| y.wake(key),
            },
        )
    }

    /// Signals the wait channel `key`.
    pub(crate) fn wake_channel(&self, key: WaitKey) {
        self.yielder.wake(key);
    }

    // ----- introspection -------------------------------------------------------------

    /// This process's global rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of processes in the job.
    pub fn nprocs(&self) -> usize {
        self.state.nprocs
    }

    /// A handle to the world communicator.
    pub fn world(&self) -> Comm {
        self.world.clone()
    }

    /// Replaces this rank's world communicator. Used by shrinking recovery: after
    /// [`crate::ulfm::shrink_recovery`] the survivors continue on the shrunk
    /// communicator as their new world, with the retired ranks gone for good.
    pub fn set_world(&mut self, world: Comm) {
        self.world = world;
    }

    /// The current virtual time of this rank.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The machine model used to advance virtual time.
    pub fn machine(&self) -> &MachineModel {
        &self.state.machine
    }

    /// The cluster topology.
    pub fn topology(&self) -> &Topology {
        &self.state.topology
    }

    /// The time breakdown accumulated so far.
    pub fn breakdown(&self) -> &TimeBreakdown {
        &self.breakdown
    }

    /// Operation counters accumulated so far.
    pub fn stats(&self) -> &RankStats {
        &self.stats
    }

    /// Mutable access to the operation counters.
    pub fn stats_mut(&mut self) -> &mut RankStats {
        &mut self.stats
    }

    /// Currently failed global ranks.
    pub fn failed_ranks(&self) -> Vec<usize> {
        self.state.failed_ranks()
    }

    /// Number of currently failed processes (retired ranks not counted).
    pub fn failed_count(&self) -> usize {
        self.state.failed_count()
    }

    /// How many liveness queries of the whole job left the lock-free fast path so far
    /// (host-side instrumentation, see
    /// [`ClusterState::slow_liveness_queries`]): 0 while nobody is failed or retired.
    pub fn slow_liveness_queries(&self) -> u64 {
        self.state.slow_liveness_queries()
    }

    /// Total number of failure events seen by the job so far (does not reset on
    /// recovery).
    pub fn failure_events(&self) -> u64 {
        self.state.failure_events()
    }

    /// The failure-event count as of this rank's own death, or 0 while it has never
    /// been killed. Unlike [`RankCtx::failure_events`], this is deterministic for a
    /// casualty even when later events share its injection iteration: events fire in
    /// a globally serialized order and the count is recorded at kill time.
    pub fn failure_events_at_death(&self) -> u64 {
        self.state.failure_events_at_death(self.rank)
    }

    /// The ranks permanently retired by shrinking recoveries (ascending). Empty
    /// under the non-shrinking designs, whose recoveries revive every rank.
    pub fn retired_ranks(&self) -> Vec<usize> {
        self.state.retired_ranks()
    }

    /// How many ranks have been permanently retired by shrinking recoveries.
    pub fn retired_count(&self) -> usize {
        self.state.retired_count()
    }

    /// Whether `rank` was permanently retired by a shrinking recovery (a lock-free
    /// read of its liveness state).
    pub fn is_retired(&self, rank: usize) -> bool {
        self.state.is_retired(rank)
    }

    /// The shared cluster state (crate-internal; used by the ULFM module).
    pub(crate) fn cluster(&self) -> &Arc<ClusterState> {
        &self.state
    }

    // ----- time accounting -----------------------------------------------------------

    /// Switches the active time category, returning the previous one.
    pub fn set_category(&mut self, category: TimeCategory) -> TimeCategory {
        std::mem::replace(&mut self.category, category)
    }

    /// The currently active time category.
    pub fn category(&self) -> TimeCategory {
        self.category
    }

    /// Sets the fractional interference applied to application work and to checkpoint
    /// I/O (used to model the background overhead of the ULFM heartbeat and MPI-call
    /// interposition). A value of 0.15 makes the affected work 15% slower.
    pub fn set_interference(&mut self, compute: f64, io: f64) {
        assert!(
            compute >= 0.0 && io >= 0.0,
            "interference must be non-negative"
        );
        self.compute_interference = compute;
        self.io_interference = io;
    }

    /// The interference pair currently in effect `(compute, io)`.
    pub fn interference(&self) -> (f64, f64) {
        (self.compute_interference, self.io_interference)
    }

    fn charge(&mut self, amount: SimTime) {
        self.now += amount;
        match self.category {
            TimeCategory::Application => self.breakdown.application += amount,
            TimeCategory::CheckpointWrite => self.breakdown.checkpoint_write += amount,
            TimeCategory::CheckpointRead => self.breakdown.checkpoint_read += amount,
            TimeCategory::Recovery => self.breakdown.recovery += amount,
        }
    }

    /// Advances the clock to `target` (no-op if `target` is in the past), attributing
    /// the elapsed time to the current category.
    fn advance_to(&mut self, target: SimTime) {
        if target > self.now {
            let delta = target.saturating_sub(self.now);
            self.charge(delta);
        }
    }

    /// Charges `flops` floating-point operations of application work.
    pub fn compute(&mut self, flops: f64) {
        let base = self.state.machine.compute_cost(flops);
        self.charge(base * (1.0 + self.compute_interference));
    }

    /// Charges `bytes` bytes of explicit memory traffic.
    pub fn memory_traffic(&mut self, bytes: f64) {
        let base = self.state.machine.memory_cost(bytes);
        self.charge(base * (1.0 + self.compute_interference));
    }

    /// Advances the virtual clock by an explicit duration (charged to the current
    /// category, without interference).
    pub fn elapse(&mut self, duration: SimTime) {
        self.charge(duration);
    }

    /// Charges a checkpoint write of `bytes` bytes to storage tier `tier`.
    pub fn charge_storage_write(&mut self, tier: StorageTier, bytes: usize) {
        let base = self.state.machine.storage_write_cost(tier, bytes);
        self.charge(base * (1.0 + self.io_interference));
        self.stats.checkpoint_bytes += bytes as u64;
    }

    /// Charges a checkpoint read of `bytes` bytes from storage tier `tier`.
    pub fn charge_storage_read(&mut self, tier: StorageTier, bytes: usize) {
        let base = self.state.machine.storage_read_cost(tier, bytes);
        self.charge(base * (1.0 + self.io_interference));
    }

    // ----- failure -------------------------------------------------------------------

    /// Kills the calling process (fault injection). Marks the process failed cluster-
    /// wide and returns the [`MpiError::SelfFailed`] error the caller must propagate to
    /// its recovery driver.
    pub fn kill_self(&mut self) -> MpiError {
        self.state.mark_failed_at(self.rank, self.now);
        self.stats.times_failed += 1;
        MpiError::SelfFailed
    }

    /// Kills a whole group of ranks at this rank's current virtual time as *one*
    /// failure event burst (used for node crashes, where every co-located process dies
    /// at the same instant). Returns the [`MpiError::SelfFailed`] error the caller
    /// must propagate when it is among the victims, and [`MpiError::ProcFailed`]
    /// otherwise.
    pub fn kill_ranks(&mut self, ranks: &[usize]) -> MpiError {
        let victims: Vec<usize> = ranks
            .iter()
            .copied()
            .filter(|&r| r < self.state.nprocs)
            .collect();
        self.state.mark_failed_burst(&victims, self.now);
        let lowest = victims.iter().copied().min();
        if ranks.contains(&self.rank) {
            self.stats.times_failed += 1;
            MpiError::SelfFailed
        } else {
            MpiError::ProcFailed {
                rank: lowest.unwrap_or(self.rank),
            }
        }
    }

    /// Whether this rank is itself still alive (false once it has been killed by a
    /// failure event, e.g. a node crash fired by a co-located rank).
    pub fn is_self_alive(&self) -> bool {
        self.state.is_alive(self.rank)
    }

    /// Acknowledges that this rank has been killed by an externally fired failure
    /// event (a node crash fired by a co-located victim): counts the death and returns
    /// the [`MpiError::SelfFailed`] the caller must propagate to its recovery driver.
    pub fn acknowledge_killed(&mut self) -> MpiError {
        self.stats.times_failed += 1;
        MpiError::SelfFailed
    }

    /// Records that `node` physically crashed (its node-local checkpoint storage is
    /// destroyed). The erasure itself is deferred: recovery drivers drain the pending
    /// node failures inside the repair rendezvous via
    /// [`RankCtx::recovery_rendezvous`], while every rank is parked, so it can
    /// never race an in-flight checkpoint write.
    pub fn note_node_failure(&self, node: usize) {
        self.state.note_node_failure(node);
    }

    /// Blocks (at no virtual cost) until at least `events` failure events have been
    /// recorded cluster-wide, or any failure is outstanding. This is the injector's
    /// *detection barrier*: a rank that has reached the iteration of a scheduled
    /// failure event waits here until the event's victim has actually died, which
    /// guarantees the failure's virtual timestamp is published before any post-event
    /// operation evaluates the visibility rule. The rank parks on the failure-event
    /// channel and every failure publication wakes it.
    pub fn wait_for_failure_events(&self, events: u64) {
        let mut suspended_before = false;
        loop {
            // Token before the condition: a publication racing the check invalidates
            // the park below instead of being lost.
            let token = self.wait_token(WaitKey::FAILURE_EVENTS);
            if self.state.failure_events() >= events || self.state.failed_count() > 0 {
                return;
            }
            suspended_before |= self.park(token, suspended_before);
        }
    }

    /// Marks another rank failed (external fault injection, e.g. modelling a node OS
    /// crash observed from a monitoring rank).
    pub fn fail_rank(&self, rank: usize) {
        if rank < self.state.nprocs {
            self.state.mark_failed(rank);
        }
    }

    /// Declares that a global-restart recovery is beginning: until the next
    /// [`RankCtx::recovery_rendezvous`] completes, every MPI operation on every
    /// communicator (even ones whose members are all alive) reports the process
    /// failure, so that all ranks are rolled back. Recovery drivers call this as soon
    /// as they observe a failure.
    pub fn declare_global_restart(&self) {
        self.state.declare_global_disruption();
    }

    /// Aborts the whole job (`MPI_Abort` semantics): every subsequent MPI operation on
    /// any rank fails with [`MpiError::Aborted`].
    pub fn abort(&mut self, code: i32) -> MpiError {
        self.state.set_abort(code);
        MpiError::Aborted { code }
    }

    /// Returns the error that operations on `comm` would currently report, if any.
    pub fn health_error(&self, comm: &Comm) -> Option<MpiError> {
        self.state.health_error(comm.shared())
    }

    fn check_health(&self, comm: &Comm) -> Result<(), MpiError> {
        match self.state.visible_health_error(comm.shared(), self.now) {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Advances the clock to the failure instant of the current epoch (no-op when no
    /// failure is outstanding or the clock is already past it). Called on every abort
    /// out of a *blocked* operation so that the exit time — and with it the detection
    /// latency charged by the recovery driver — is a deterministic function of the
    /// failure event instead of host scheduling.
    fn advance_to_failure(&mut self) {
        if let Some(t) = self.state.fail_time() {
            self.advance_to(t);
        }
    }

    /// Whether every rank the selector could match (other than the caller) is failed
    /// or parked at the recovery rendezvous — i.e. no further matching message can
    /// arrive. Because a rank's sends happen-before it parks (and a victim's sends
    /// happen-before its failure is published), a final mailbox sweep after this
    /// returns true observes every message the quiesced sources ever produced.
    fn sources_quiesced(&self, comm: &Comm, src_global: Option<usize>) -> bool {
        match src_global {
            Some(s) => !self.state.can_still_act(s),
            None => comm
                .members()
                .iter()
                .all(|&m| m == self.rank || !self.state.can_still_act(m)),
        }
    }

    // ----- point-to-point ------------------------------------------------------------

    /// Sends a shared-buffer [`Payload`] to communicator rank `dest` with the given
    /// `tag`: the message holds a reference-counted view of the caller's buffer, not a
    /// copy.
    ///
    /// The send is buffered (eager): it deposits the message in the destination's
    /// mailbox and returns. The transfer cost is charged to the receiver.
    ///
    /// # Errors
    ///
    /// Fails with [`MpiError::ProcFailed`] if the destination (or any process, once a
    /// failure has been detected job-wide) has failed, [`MpiError::Revoked`] if the
    /// communicator is revoked, or [`MpiError::InvalidRank`] if `dest` is out of range.
    pub fn send_payload(
        &mut self,
        comm: &Comm,
        dest: usize,
        tag: i32,
        payload: Payload,
    ) -> Result<(), MpiError> {
        self.check_health(comm)?;
        if dest >= comm.size() {
            return Err(MpiError::InvalidRank {
                rank: dest as i32,
                comm_size: comm.size(),
            });
        }
        let dest_global = comm.global_rank_of(dest);
        // The destination's death is observed through the deterministic visibility
        // rule: a send issued at a virtual time before the failure instant still
        // succeeds (the message is dropped during repair), one issued after it reports
        // the failure. Deciding by host-time liveness here used to let a rank squeeze
        // in (or lose) one extra send depending on thread scheduling, which was the
        // simulator's with-failure jitter.
        if !self.state.is_alive(dest_global) {
            if let Some(t) = self.state.fail_time() {
                if self.now >= t {
                    return Err(MpiError::ProcFailed { rank: dest_global });
                }
            }
        }
        // Charge the injection overhead (half the latency of the domain the message
        // crosses — node, rack or spine); the transfer itself is charged on the
        // receive side where the arrival time is computed.
        let link = self.state.topology.link_between(self.rank, dest_global);
        let alpha = self.state.machine.link_latency(link);
        self.charge(SimTime::from_secs(alpha * 0.5) * (1.0 + self.compute_interference));
        self.stats.bytes_sent += payload.len() as u64;
        self.state.mailboxes[dest_global].push(Message {
            src: self.rank,
            tag,
            comm_id: comm.id(),
            payload,
            sent_at: self.now,
        });
        // The destination may be parked on its mailbox channel.
        self.wake_channel(WaitKey::mailbox(dest_global));
        self.stats.sends += 1;
        Ok(())
    }

    /// Receives a message on `comm` as a shared-buffer [`Payload`], the sender's buffer
    /// view, not a copy. `src` may be [`ANY_SOURCE`] and `tag` may be [`ANY_TAG`].
    /// Returns `(source communicator rank, tag, payload)`.
    ///
    /// # Errors
    ///
    /// Fails with a failure/revocation error under the same conditions as
    /// [`RankCtx::send_payload`]; in particular a receive blocked on a failed peer is
    /// woken up and reports the failure.
    pub fn recv_payload(
        &mut self,
        comm: &Comm,
        src: i32,
        tag: i32,
    ) -> Result<(usize, i32, Payload), MpiError> {
        let src_global = if src == ANY_SOURCE {
            None
        } else {
            if src < 0 || src as usize >= comm.size() {
                return Err(MpiError::InvalidRank {
                    rank: src,
                    comm_size: comm.size(),
                });
            }
            Some(comm.global_rank_of(src as usize))
        };
        let tag_sel = if tag == ANY_TAG { None } else { Some(tag) };
        let mut watching = false;
        let matched = self.await_match(comm, src_global, tag_sel, &mut watching);
        if watching {
            self.state.unwatch_source(self.rank, src_global);
        }
        let msg = matched?;
        let link = self.state.topology.link_between(self.rank, msg.src);
        let transfer = self.state.machine.p2p_cost_link(msg.len(), link);
        let arrival = (msg.sent_at + transfer).max(self.now);
        self.advance_to(arrival);
        self.stats.recvs += 1;
        self.stats.bytes_received += msg.len() as u64;
        let src_comm_rank = comm
            .shared()
            .rank_of(msg.src)
            .ok_or_else(|| MpiError::Internal("message from non-member".into()))?;
        Ok((src_comm_rank, msg.tag, msg.payload))
    }

    /// Blocks until a message matching the selector is queued or the receive's
    /// deterministic abort rule fires. Sets `watching` once the receive has registered
    /// itself with the cluster as waiting on its source; the caller deregisters it.
    ///
    /// Only a receive that finds the job unhealthy registers: the registration serves
    /// the quiescence check, which only a failure state asks for, and every transition
    /// into one wakes all blocked operations, so a receive that parked unregistered
    /// while the job was healthy runs again and registers before its first check.
    fn await_match(
        &mut self,
        comm: &Comm,
        src_global: Option<usize>,
        tag_sel: Option<i32>,
        watching: &mut bool,
    ) -> Result<Message, MpiError> {
        let me = self.rank;
        let mut suspended_before = false;
        loop {
            // Token before *both* conditions the park guards — the health check and
            // the mailbox probe: a failure publication or a send racing either one
            // invalidates the park below instead of being lost.
            let token = self.wait_token(WaitKey::mailbox(me));
            let health = self.state.health_error(comm.shared());
            let unhealthy = health.is_some();
            if let Some(err) = health {
                match err {
                    // Abort and revocation interrupt a blocked receive unconditionally.
                    MpiError::Aborted { .. } | MpiError::Revoked => return Err(err),
                    // A process failure aborts the receive only once the selected
                    // source(s) can send nothing more — a source's sends happen-before
                    // it parks or dies, so the final sweep below observes every
                    // message it ever produced, and the deliver-vs-abort decision is
                    // independent of host scheduling. A matched message is always
                    // delivered; otherwise the exit clock is advanced to the failure
                    // instant, making the detection point deterministic.
                    _ => {
                        if self.sources_quiesced(comm, src_global) {
                            let swept =
                                self.state.mailboxes[me].try_match(comm.id(), src_global, tag_sel);
                            return match swept {
                                Some(msg) => Ok(msg),
                                None => {
                                    self.advance_to_failure();
                                    Err(err)
                                }
                            };
                        }
                    }
                }
            }
            let mailbox = &self.state.mailboxes[me];
            if let Some(msg) = mailbox.try_match(comm.id(), src_global, tag_sel) {
                return Ok(msg);
            }
            if unhealthy && !*watching {
                // About to block in a failure state. Tell the cluster whom this receive
                // waits for, so that the source's parking wakes it — and only it — and
                // take the pass again: the registration must precede the quiescence
                // check.
                self.state.watch_source(me, src_global, comm.size());
                *watching = true;
            } else {
                // Park on the mailbox channel; a send to this rank, the parking of its
                // source or any cluster-wide failure transition wakes it. On `coop`
                // the check-then-park is atomic (one OS thread); elsewhere the token
                // read above detects a racing wake and turns the park into a no-op.
                suspended_before |= self.park(token, suspended_before);
            }
        }
    }

    /// Sends a slice of `f64` values (see [`RankCtx::send_payload`]), packed into a
    /// message buffer an earlier typed receive of this rank freed, when there is one.
    pub fn send_f64(
        &mut self,
        comm: &Comm,
        dest: usize,
        tag: i32,
        data: &[f64],
    ) -> Result<(), MpiError> {
        let payload = self.spares.payload(|out| datatype::pack_into(data, out));
        self.send_payload(comm, dest, tag, payload)
    }

    /// Receives a slice of `f64` values into `out`, replacing its contents and keeping
    /// its allocation, and returns the source's communicator rank (see
    /// [`RankCtx::recv_payload`]). The message buffer is kept for this rank's next
    /// [`RankCtx::send_f64`] if nothing else refers to it.
    ///
    /// # Errors
    ///
    /// Those of [`RankCtx::recv_payload`], and [`MpiError::InvalidArgument`] if the
    /// matched message is not a whole number of `f64` values (it is consumed).
    pub fn recv_f64_into(
        &mut self,
        comm: &Comm,
        src: i32,
        tag: i32,
        out: &mut Vec<f64>,
    ) -> Result<usize, MpiError> {
        let (s, _t, payload) = self.recv_payload(comm, src, tag)?;
        check_f64_payload(&payload, s)?;
        datatype::unpack_into(&payload, out);
        self.spares.recycle(payload);
        Ok(s)
    }

    /// Receives a slice of `f64` values (see [`RankCtx::recv_f64_into`]).
    ///
    /// # Errors
    ///
    /// Those of [`RankCtx::recv_f64_into`].
    pub fn recv_f64(
        &mut self,
        comm: &Comm,
        src: i32,
        tag: i32,
    ) -> Result<(usize, Vec<f64>), MpiError> {
        let mut data = Vec::new();
        let s = self.recv_f64_into(comm, src, tag, &mut data)?;
        Ok((s, data))
    }

    /// Combined send + receive: sends `send_data` to `dest`, then receives one message
    /// from `src`, both with tag `tag` — one step of a ring or shift.
    pub fn sendrecv_f64(
        &mut self,
        comm: &Comm,
        dest: usize,
        send_data: &[f64],
        src: usize,
        tag: i32,
    ) -> Result<Vec<f64>, MpiError> {
        self.send_f64(comm, dest, tag, send_data)?;
        let (from, data) = self.recv_f64(comm, src as i32, tag)?;
        debug_assert_eq!(from, src);
        Ok(data)
    }

    // ----- collectives ---------------------------------------------------------------

    /// Executes one collective round on `comm`: every member writes its contribution
    /// into its `C` cell, the last one to arrive folds all cells (in communicator-rank
    /// order) into the round's one result, and every member receives a clone of it.
    fn collective<C, O>(
        &mut self,
        comm: &Comm,
        kind: CollectiveKind,
        bytes_per_member: usize,
        deposit: impl FnOnce(&mut C),
        fold: impl FnOnce(&mut [C], Option<O>) -> O,
    ) -> Result<O, MpiError>
    where
        C: Default + Send + 'static,
        O: Clone + Send + 'static,
    {
        self.check_health(comm)?;
        let cost = self
            .state
            .machine
            .collective_cost(kind, comm.size(), bytes_per_member)
            * (1.0 + self.compute_interference);
        let state = &*self.state;
        let shared = comm.shared();
        // While blocked in the rendezvous, a process failure aborts the round only
        // once it can no longer complete — some member is dead or parked at the
        // recovery rendezvous. A round whose members all deposit therefore always
        // completes, independent of how the host interleaves the failure marking, and
        // an aborted member's clock is advanced to the failure instant below.
        let abort_check = || {
            let err = state.health_error(shared)?;
            let doomed = match err {
                MpiError::Aborted { .. } | MpiError::Revoked => true,
                // The blamed rank is dead; as a member it dooms the round by itself.
                MpiError::ProcFailed { rank } if shared.rank_of(rank).is_some() => true,
                _ => shared.members.iter().any(|&m| !state.can_still_act(m)),
            };
            doomed.then_some(err)
        };
        let round = self.run_round(&shared.slot, comm.rank(), cost, deposit, fold, abort_check);
        let (finish_time, out) = match round {
            Ok(v) => v,
            Err(e) => {
                if e.is_process_failure() {
                    self.advance_to_failure();
                }
                return Err(e);
            }
        };
        self.advance_to(finish_time);
        self.stats.collectives += 1;
        Ok(out)
    }

    fn check_root(comm: &Comm, root: usize) -> Result<(), MpiError> {
        if root >= comm.size() {
            return Err(MpiError::InvalidRank {
                rank: root as i32,
                comm_size: comm.size(),
            });
        }
        Ok(())
    }

    /// Synchronizes all members of `comm`.
    pub fn barrier(&mut self, comm: &Comm) -> Result<(), MpiError> {
        self.collective(comm, CollectiveKind::Barrier, 0, |_: &mut ()| (), |_, _| ())
    }

    /// Broadcasts a shared-buffer [`Payload`] from `root`: every member receives a
    /// reference-counted view of the root's buffer, not a copy. Only the root's `data`
    /// is used.
    ///
    /// # Errors
    ///
    /// [`MpiError::InvalidRank`] if `root` is out of range, and the failure and
    /// revocation errors of every collective.
    pub fn bcast_payload(
        &mut self,
        comm: &Comm,
        root: usize,
        data: Payload,
    ) -> Result<Payload, MpiError> {
        Self::check_root(comm, root)?;
        let (bytes, is_root) = (data.len(), comm.rank() == root);
        self.collective(
            comm,
            CollectiveKind::Broadcast,
            bytes,
            |cell: &mut Option<Payload>| *cell = is_root.then_some(data),
            |cells, _| cells[root].take().expect("the root deposited its payload"),
        )
    }

    /// Element-wise all-reduce: every member receives the combined vector — the one
    /// vector the round produced, shared, not a copy per member.
    pub fn allreduce_f64(
        &mut self,
        comm: &Comm,
        op: ReduceOp,
        data: &[f64],
    ) -> Result<Arc<Vec<f64>>, MpiError> {
        self.collective(
            comm,
            CollectiveKind::Allreduce,
            data.len() * 8,
            |cell: &mut Vec<f64>| {
                cell.clear();
                cell.extend_from_slice(data);
            },
            |cells, spare| fold_vectors(cells, spare, |vals, acc| op.fold_into(acc, vals)),
        )
    }

    /// All-reduce of one `f64` per member (combined in communicator-rank order, like
    /// the element-wise form).
    fn allreduce_scalar(&mut self, comm: &Comm, op: ReduceOp, value: f64) -> Result<f64, MpiError> {
        self.collective(
            comm,
            CollectiveKind::Allreduce,
            8,
            |cell: &mut f64| *cell = value,
            |cells, _| {
                (cells.iter().copied())
                    .reduce(|acc, v| op.combine(acc, v))
                    .expect("a collective has at least one member")
            },
        )
    }

    /// Scalar all-reduce sum.
    pub fn allreduce_sum_f64(&mut self, comm: &Comm, value: f64) -> Result<f64, MpiError> {
        self.allreduce_scalar(comm, ReduceOp::Sum, value)
    }

    /// Scalar all-reduce maximum.
    pub fn allreduce_max_f64(&mut self, comm: &Comm, value: f64) -> Result<f64, MpiError> {
        self.allreduce_scalar(comm, ReduceOp::Max, value)
    }

    /// Scalar all-reduce minimum.
    pub fn allreduce_min_f64(&mut self, comm: &Comm, value: f64) -> Result<f64, MpiError> {
        self.allreduce_scalar(comm, ReduceOp::Min, value)
    }

    /// Scalar all-reduce sum over unsigned integers (exact).
    pub fn allreduce_sum_u64(&mut self, comm: &Comm, value: u64) -> Result<u64, MpiError> {
        self.collective(
            comm,
            CollectiveKind::Allreduce,
            8,
            |cell: &mut u64| *cell = value,
            |cells, _| cells.iter().sum(),
        )
    }

    /// All-gathers `u64` slices into one contiguous, shared [`Gathered`] result: every
    /// member receives all contributions, ordered by communicator rank.
    pub fn allgather_u64(&mut self, comm: &Comm, data: &[u64]) -> Result<Gathered<u64>, MpiError> {
        let parts = self.collective(
            comm,
            CollectiveKind::Allgather,
            std::mem::size_of_val(data),
            |cell: &mut Vec<u64>| {
                cell.clear();
                cell.extend_from_slice(data);
            },
            |cells, spare| {
                fold_vectors(cells, spare, |chunks, parts: &mut GatheredParts<u64>| {
                    parts.flat.clear();
                    parts.ends.clear();
                    for chunk in chunks {
                        parts.flat.extend_from_slice(chunk);
                        parts.ends.push(parts.flat.len());
                    }
                })
            },
        )?;
        Ok(Gathered { parts })
    }

    // ----- recovery ------------------------------------------------------------------

    /// Global recovery rendezvous: blocks until *every* rank of the job (survivors and
    /// the replacements for failed processes) has arrived, repairs the cluster state
    /// (revives processes, drops in-flight messages, resets and un-revokes every
    /// communicator) and advances every rank's clock to a common completion time
    /// `max(entry times) + extra_cost`.
    ///
    /// `extra_cost` models the recovery protocol of the active fault-tolerance design
    /// and must be identical on every rank. The elapsed time is charged to the current
    /// time category (drivers set [`TimeCategory::Recovery`]).
    ///
    /// `repair_hook` runs exactly once per recovery, by the last rank to arrive, while
    /// every rank is still inside the rendezvous, and receives the nodes that physically
    /// crashed in this epoch (see [`RankCtx::note_node_failure`]). Recovery drivers use
    /// it to erase crashed nodes' checkpoint storage at a point where no checkpoint
    /// write or read can race the erasure; callers with nothing to repair pass `|_| {}`.
    ///
    /// # Errors
    ///
    /// Only internal errors are possible. Process failures cannot interrupt the
    /// rendezvous itself: failure events fire at main-loop iteration boundaries (the
    /// injector's detection barrier), never between a rank's abort and its arrival
    /// here, so multi-failure traces produce *sequential* disruption epochs — each
    /// fully repaired before the next event can fire on the replayed iterations.
    pub fn recovery_rendezvous(
        &mut self,
        extra_cost: SimTime,
        repair_hook: impl FnOnce(&[usize]) + Send,
    ) -> Result<(), MpiError> {
        // Park first: this publishes the promise that this rank sends nothing more
        // until repair, which is what lets peers blocked in receives and collectives
        // decide deterministically that their operation can no longer complete.
        self.state.set_parked(self.rank);
        let state = &*self.state;
        let (finish_time, _) = self.run_round(
            &state.recovery_slot,
            self.rank,
            extra_cost,
            |_: &mut ()| (),
            |_, _| {
                let crashed_nodes = state.take_pending_node_failures();
                state.repair_all();
                repair_hook(&crashed_nodes);
            },
            || None,
        )?;
        self.advance_to(finish_time);
        self.stats.recoveries += 1;
        Ok(())
    }

    /// A completion rendezvous over all ranks with no added cost and no repair. Drivers
    /// call this as the final synchronization of a run (the analogue of
    /// `MPI_Finalize`); if a failure is detected instead, the driver goes through
    /// recovery once more.
    pub fn completion_barrier(&mut self) -> Result<(), MpiError> {
        self.check_health(&self.world())?;
        self.barrier(&self.world())
    }
}

/// Rejects a payload from communicator rank `src` that an `f64` operation cannot
/// decode: its length must be a multiple of 8 bytes.
fn check_f64_payload(payload: &[u8], src: usize) -> Result<(), MpiError> {
    if payload.len().is_multiple_of(8) {
        Ok(())
    } else {
        Err(MpiError::InvalidArgument(format!(
            "a {}-byte message from rank {src} is not a whole number of f64 values",
            payload.len()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::coop::CoopShared;
    use crate::state::ClusterState;
    use crate::topology::Topology;

    /// Rank 0's context on a cooperative job of `nprocs` ranks, outside any fiber:
    /// a test may use it for everything but a park.
    fn rank0_ctx(nprocs: usize) -> RankCtx {
        let topology = Topology::new(nprocs, 1);
        let state = ClusterState::new(nprocs, topology, MachineModel::default());
        let yielder = Yielder::Coop(CoopShared::for_job(&state));
        RankCtx::new(0, state, yielder)
    }

    fn single_rank_ctx() -> RankCtx {
        rank0_ctx(1)
    }

    #[test]
    fn compute_advances_clock_and_breakdown() {
        let mut ctx = single_rank_ctx();
        ctx.compute(1e6);
        assert!(ctx.now().as_secs() > 0.0);
        assert_eq!(ctx.breakdown().application, ctx.now());
        assert_eq!(ctx.breakdown().checkpoint_write, SimTime::ZERO);
    }

    #[test]
    fn category_switching_attributes_time() {
        let mut ctx = single_rank_ctx();
        ctx.compute(1e6);
        let prev = ctx.set_category(TimeCategory::CheckpointWrite);
        assert_eq!(prev, TimeCategory::Application);
        ctx.charge_storage_write(StorageTier::RamDisk, 1 << 20);
        ctx.set_category(TimeCategory::Recovery);
        ctx.elapse(SimTime::from_secs(1.0));
        let b = ctx.breakdown();
        assert!(b.application.as_secs() > 0.0);
        assert!(b.checkpoint_write.as_secs() > 0.0);
        assert_eq!(b.recovery.as_secs(), 1.0);
        assert_eq!(b.total(), ctx.now());
    }

    #[test]
    fn interference_slows_compute() {
        let mut a = single_rank_ctx();
        let mut b = single_rank_ctx();
        b.set_interference(0.5, 0.0);
        a.compute(1e6);
        b.compute(1e6);
        assert!((b.now().as_secs() / a.now().as_secs() - 1.5).abs() < 1e-9);
        assert_eq!(b.interference(), (0.5, 0.0));
    }

    #[test]
    fn self_kill_marks_failure() {
        let mut ctx = single_rank_ctx();
        assert_eq!(ctx.failed_count(), 0);
        let err = ctx.kill_self();
        assert_eq!(err, MpiError::SelfFailed);
        assert!(ctx.failed_count() > 0);
        assert_eq!(ctx.failed_ranks(), vec![0]);
        assert_eq!(ctx.stats().times_failed, 1);
    }

    #[test]
    fn single_rank_collectives_are_identity() {
        let mut ctx = single_rank_ctx();
        let world = ctx.world();
        assert_eq!(ctx.allreduce_sum_f64(&world, 5.0).unwrap(), 5.0);
        assert_eq!(ctx.allreduce_max_f64(&world, -1.0).unwrap(), -1.0);
        ctx.barrier(&world).unwrap();
        let g = ctx.allgather_u64(&world, &[9]).unwrap();
        assert_eq!(g.flat(), &[9]);
        let bc = ctx
            .bcast_payload(&world, 0, Payload::from(vec![1, 2]))
            .unwrap();
        assert_eq!(bc, vec![1, 2]);
    }

    #[test]
    fn invalid_ranks_are_rejected() {
        let mut ctx = single_rank_ctx();
        let world = ctx.world();
        assert!(matches!(
            ctx.send_f64(&world, 3, 0, &[1.0]),
            Err(MpiError::InvalidRank { .. })
        ));
        assert!(matches!(
            ctx.recv_payload(&world, 1, 0),
            Err(MpiError::InvalidRank { .. })
        ));
        assert!(matches!(
            ctx.bcast_payload(&world, 9, Payload::default()),
            Err(MpiError::InvalidRank { .. })
        ));
    }

    #[test]
    fn operations_after_failure_report_proc_failed() {
        let mut ctx = single_rank_ctx();
        ctx.fail_rank(0);
        let world = ctx.world();
        assert!(matches!(
            ctx.allreduce_sum_f64(&world, 1.0),
            Err(MpiError::ProcFailed { .. })
        ));
    }

    #[test]
    fn global_restart_declaration_poisons_unrelated_comms() {
        // Two ranks: rank 1 "fails" while rank 0 only ever talks to itself through a
        // self-communicator. Without the global-restart declaration that communicator
        // keeps working; with it, the operation reports the failure.
        let mut ctx = rank0_ctx(2);
        let world = ctx.world();
        ctx.fail_rank(1);
        // A communicator containing only rank 0 (build it directly to avoid needing
        // rank 1 for the collective creation path).
        let self_shared = crate::comm::CommShared::new(99, vec![0]);
        let self_comm = Comm::new(self_shared, 0);
        assert_eq!(ctx.allreduce_sum_f64(&self_comm, 2.0).unwrap(), 2.0);
        assert!(ctx.health_error(&world).is_some());
        ctx.declare_global_restart();
        assert!(matches!(
            ctx.allreduce_sum_f64(&self_comm, 2.0),
            Err(MpiError::ProcFailed { .. })
        ));
    }

    #[test]
    fn abort_poisons_operations() {
        let mut ctx = single_rank_ctx();
        let world = ctx.world();
        let _ = ctx.abort(3);
        assert_eq!(
            ctx.barrier(&world).unwrap_err(),
            MpiError::Aborted { code: 3 }
        );
    }

    #[test]
    fn recovery_rendezvous_repairs_single_rank() {
        let mut ctx = single_rank_ctx();
        let _ = ctx.kill_self();
        ctx.set_category(TimeCategory::Recovery);
        ctx.recovery_rendezvous(SimTime::from_secs(2.0), |_| {})
            .unwrap();
        assert_eq!(ctx.failed_count(), 0);
        assert_eq!(ctx.breakdown().recovery.as_secs(), 2.0);
        assert_eq!(ctx.stats().recoveries, 1);
    }

    #[test]
    fn reduce_ops_apply_elementwise() {
        let mut acc = vec![1.0, 5.0];
        ReduceOp::Sum.apply(&mut acc, &[2.0, 3.0]);
        assert_eq!(acc, vec![3.0, 8.0]);
        ReduceOp::Max.apply(&mut acc, &[10.0, 0.0]);
        assert_eq!(acc, vec![10.0, 8.0]);
        ReduceOp::Min.apply(&mut acc, &[4.0, 1.0]);
        assert_eq!(acc, vec![4.0, 1.0]);
        ReduceOp::Prod.apply(&mut acc, &[2.0, 2.0]);
        assert_eq!(acc, vec![8.0, 2.0]);
    }
}
