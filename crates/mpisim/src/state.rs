//! Cluster-wide shared state.
//!
//! One [`ClusterState`] is shared (via `Arc`) by every rank of a simulated job. It owns
//! the machine model, the topology, the per-rank mailboxes, the liveness table, the
//! world communicator, the registry of derived communicators (so they can be reset
//! during repair) and the global rendezvous used by recovery. It also holds the hook
//! into the job's scheduler through which every state transition that can change a
//! blocked operation's condition wakes the ranks parked on it.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use parking_lot::Mutex;

use crate::collective::CollSlot;
use crate::comm::CommShared;
use crate::error::MpiError;
use crate::machine::MachineModel;
use crate::mailbox::Mailbox;
use crate::sched::{JobWaker, WaitKey};
use crate::time::SimTime;
use crate::topology::Topology;

/// Liveness of a simulated process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    /// The process is alive and participating.
    Alive,
    /// The process has suffered a fail-stop failure and has not yet been replaced.
    Failed,
    /// The process failed and was permanently removed from the job by a shrinking
    /// recovery: it is never revived, owns no communicator membership anymore, and
    /// the job completes without it.
    Retired,
}

impl ProcState {
    fn from_bits(bits: u8) -> ProcState {
        match bits {
            0 => ProcState::Alive,
            1 => ProcState::Failed,
            _ => ProcState::Retired,
        }
    }
}

/// Bits of [`ClusterState::failures`] holding the failure-event total; the bits above
/// hold the number of currently failed ranks.
const EVENT_BITS: u32 = 40;
const EVENT_MASK: u64 = (1 << EVENT_BITS) - 1;

/// "No rank" sentinel of [`ClusterState::first_failed`].
const NO_RANK: usize = usize::MAX;
/// "Not aborted" sentinel of [`ClusterState::abort`] (abort codes are `i32`).
const NO_ABORT: i64 = i64::MIN;

/// The ranks that are not alive, each list ascending. Every liveness *transition*
/// happens under this lock, which serialises failure publication; liveness *queries*
/// read the per-rank atomics and the counters and only come here for the lists.
#[derive(Default)]
struct Casualties {
    failed: Vec<usize>,
    retired: Vec<usize>,
}

/// Cluster-wide shared state for one simulated job.
pub struct ClusterState {
    /// The machine model advancing virtual time.
    pub machine: MachineModel,
    /// Mapping of ranks onto nodes.
    pub topology: Topology,
    /// Number of processes in the job.
    pub nprocs: usize,
    /// Per-rank incoming message queues, indexed by global rank.
    pub mailboxes: Vec<Mailbox>,
    /// Per-rank liveness ([`ProcState`] as `u8`), indexed by global rank. Written only
    /// under the `casualties` lock; read lock-free.
    liveness: Vec<AtomicU8>,
    /// The failed and retired ranks as lists (see [`Casualties`]).
    casualties: Mutex<Casualties>,
    /// The number of currently failed processes (above [`EVENT_BITS`]; the fast path
    /// for health checks) and the monotonically increasing total of failure events
    /// (below) in one word, so that a failure burst publishes both with a single atomic
    /// add: no observer can see the one moved and the other not. (The injector's
    /// detection barrier is released by either, and which of its branches a released
    /// rank takes must not depend on catching the publication half-way.) Retired ranks
    /// are *not* counted as failed: once a shrinking recovery removes them from the
    /// job they no longer disturb the survivors' health checks.
    failures: AtomicU64,
    /// Number of ranks permanently retired by shrinking recoveries.
    nretired: AtomicUsize,
    /// How many liveness queries left the lock-free fast path and took the
    /// `casualties` lock. Host-side instrumentation: while nobody is failed or retired
    /// it must stay 0, which is what keeps per-iteration health checks O(1).
    slow_liveness_queries: AtomicU64,
    /// Per-rank value of the failure-event total at the instant the rank was last marked
    /// failed (0 while never killed). Failure events fire in a globally serialized
    /// order (the injector's detection barrier admits event *i+1* only after event
    /// *i* has fired), so this is a deterministic observable — unlike a live read of
    /// the counter by a casualty, which races with later events of the same
    /// iteration. Cleared on revival.
    death_events: Vec<AtomicU64>,
    /// Virtual-time stamp (IEEE-754 bits of seconds) of the *earliest* failure of the
    /// current disruption epoch, or [`u64::MAX`] when no failure is outstanding. This
    /// is what makes failure detection deterministic: a rank observes the failure only
    /// once its own virtual clock has reached this instant, and a rank aborted out of a
    /// blocked operation has its clock advanced to it — so detection latency is a pure
    /// function of the machine model, the failure event and the blocked operation, not
    /// of host thread scheduling.
    fail_time_bits: AtomicU64,
    /// The first rank marked failed in the current disruption epoch ([`NO_RANK`] when
    /// none): what a globally disrupted job blames in [`MpiError::ProcFailed`].
    first_failed: AtomicUsize,
    /// Ranks that have aborted their current attempt and are waiting at the recovery
    /// rendezvous. A parked rank sends nothing more until the job is repaired, which
    /// lets blocked receivers decide deterministically that no matching message can
    /// arrive anymore.
    parked: Vec<AtomicBool>,
    /// Number of set `parked` flags.
    nparked: AtomicUsize,
    /// Set when a global-restart recovery is in progress: every MPI operation on every
    /// communicator reports a process failure until the job is repaired. Recovery
    /// drivers set this so that ranks blocked in communicators that do not contain the
    /// failed process are also rolled back (global, backward, non-shrinking recovery).
    global_disruption: AtomicBool,
    /// Abort code if `MPI_Abort` was called, [`NO_ABORT`] otherwise.
    abort: AtomicI64,
    /// The world communicator shared object.
    pub world: Arc<CommShared>,
    /// Source of unique communicator identifiers.
    next_comm_id: AtomicU64,
    /// Registry of all live communicators (world and derived) so repair can reset them.
    comms: Mutex<Vec<Weak<CommShared>>>,
    /// Nodes whose local storage was destroyed by a crash in the current epoch. The
    /// recovery drivers drain this inside the repair rendezvous (while every rank is
    /// parked), so storage erasure never races in-flight checkpoint writes.
    pending_node_failures: Mutex<Vec<usize>>,
    /// Rendezvous over *all* ranks used by global-restart recovery and job completion.
    pub recovery_slot: CollSlot,
    /// Per source rank: the receivers currently blocked on a message from exactly that
    /// source. When the source parks, these — and nobody else's mailbox — are woken.
    source_watchers: Vec<Mutex<Vec<usize>>>,
    /// Receivers currently blocked on `ANY_SOURCE`, each with the number of ranks that
    /// must have quiesced before its abort predicate can possibly hold (its
    /// communicator's size minus itself).
    any_source_watchers: Mutex<Vec<(usize, usize)>>,
    /// Wake-up hook into the scheduler of the job this state belongs to, installed
    /// by every backend before its ranks start (unset only for a state no job runs
    /// on, where no rank can be parked and a wake has nothing to do).
    job_waker: OnceLock<Arc<dyn JobWaker>>,
}

impl std::fmt::Debug for ClusterState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterState")
            .field("nprocs", &self.nprocs)
            .field("nfailed", &self.failed_count())
            .field("aborted", &self.abort_code().is_some())
            .finish()
    }
}

impl ClusterState {
    /// Creates the shared state for a job of `nprocs` ranks.
    pub fn new(nprocs: usize, topology: Topology, machine: MachineModel) -> Arc<Self> {
        assert!(nprocs > 0, "a job needs at least one process");
        assert_eq!(topology.nranks(), nprocs, "topology size must match nprocs");
        assert!(
            (nprocs as u64) < 1 << (64 - EVENT_BITS),
            "the failed-rank count must fit above the event total"
        );
        let world = CommShared::new(0, (0..nprocs).collect());

        Arc::new(ClusterState {
            machine,
            topology,
            nprocs,
            mailboxes: (0..nprocs).map(|_| Mailbox::new()).collect(),
            liveness: (0..nprocs)
                .map(|_| AtomicU8::new(ProcState::Alive as u8))
                .collect(),
            casualties: Mutex::new(Casualties::default()),
            failures: AtomicU64::new(0),
            nretired: AtomicUsize::new(0),
            slow_liveness_queries: AtomicU64::new(0),
            death_events: (0..nprocs).map(|_| AtomicU64::new(0)).collect(),
            fail_time_bits: AtomicU64::new(u64::MAX),
            first_failed: AtomicUsize::new(NO_RANK),
            parked: (0..nprocs).map(|_| AtomicBool::new(false)).collect(),
            nparked: AtomicUsize::new(0),
            global_disruption: AtomicBool::new(false),
            abort: AtomicI64::new(NO_ABORT),
            world: Arc::clone(&world),
            next_comm_id: AtomicU64::new(1),
            comms: Mutex::new(vec![Arc::downgrade(&world)]),
            pending_node_failures: Mutex::new(Vec::new()),
            recovery_slot: CollSlot::new(nprocs),
            source_watchers: (0..nprocs).map(|_| Mutex::new(Vec::new())).collect(),
            any_source_watchers: Mutex::new(Vec::new()),
            job_waker: OnceLock::new(),
        })
    }

    /// Allocates a fresh communicator identifier.
    pub fn next_comm_id(&self) -> u64 {
        self.next_comm_id.fetch_add(1, Ordering::SeqCst)
    }

    /// Registers a derived communicator so that recovery can reset it.
    pub fn register_comm(&self, comm: &Arc<CommShared>) {
        let mut comms = self.comms.lock();
        comms.retain(|w| w.strong_count() > 0);
        comms.push(Arc::downgrade(comm));
    }

    fn proc_state(&self, rank: usize) -> ProcState {
        ProcState::from_bits(self.liveness[rank].load(Ordering::SeqCst))
    }

    /// Whether `rank` is currently alive.
    pub fn is_alive(&self, rank: usize) -> bool {
        self.proc_state(rank) == ProcState::Alive
    }

    /// Whether `rank` was permanently retired by a shrinking recovery.
    pub fn is_retired(&self, rank: usize) -> bool {
        self.proc_state(rank) == ProcState::Retired
    }

    /// Marks `rank` failed with an unspecified (immediately visible) failure time.
    /// Returns true if the rank was alive before the call.
    pub fn mark_failed(&self, rank: usize) -> bool {
        self.mark_failed_at(rank, SimTime::ZERO)
    }

    /// Marks `rank` failed at virtual time `at`. The earliest failure time of the
    /// epoch is retained (see [`ClusterState::fail_time`]). Returns true if the rank
    /// was alive before the call.
    pub fn mark_failed_at(&self, rank: usize, at: SimTime) -> bool {
        self.mark_failed_burst(&[rank], at) == 1
    }

    /// Marks every rank of `ranks` that is still alive failed at virtual time `at`, as
    /// **one** publication: the liveness flags of the whole burst are set before the
    /// counters move, and blocked operations are woken once for the burst, not once
    /// per victim. An observer that sees the failure count or the event counter move
    /// therefore sees every victim of the burst. Returns how many ranks were alive
    /// before the call.
    pub fn mark_failed_burst(&self, ranks: &[usize], at: SimTime) -> usize {
        let newly = {
            let mut casualties = self.casualties.lock();
            let events_before = self.failure_events();
            let mut newly = 0usize;
            for &rank in ranks {
                if !self.is_alive(rank) {
                    continue;
                }
                newly += 1;
                // Record the failure instant and the blamed rank *before* publishing
                // the liveness change, so any rank that observes the failure also
                // sees its timestamp.
                self.fail_time_bits
                    .fetch_min(at.as_secs().to_bits(), Ordering::SeqCst);
                let _ = self.first_failed.compare_exchange(
                    NO_RANK,
                    rank,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                self.death_events[rank].store(events_before + newly as u64, Ordering::SeqCst);
                self.liveness[rank].store(ProcState::Failed as u8, Ordering::SeqCst);
                let at_pos = casualties.failed.partition_point(|&r| r < rank);
                casualties.failed.insert(at_pos, rank);
            }
            let newly64 = newly as u64;
            self.failures
                .fetch_add(newly64 << EVENT_BITS | newly64, Ordering::SeqCst);
            newly
        };
        if newly > 0 {
            self.wake_all_waiters();
        }
        newly
    }

    /// The virtual time of the earliest failure of the current disruption epoch, or
    /// `None` while no failure is outstanding. Cleared by [`ClusterState::repair_all`].
    pub fn fail_time(&self) -> Option<SimTime> {
        let bits = self.fail_time_bits.load(Ordering::SeqCst);
        (bits != u64::MAX).then(|| SimTime::from_secs(f64::from_bits(bits)))
    }

    /// Marks `rank` as parked: its current attempt has aborted and it is waiting at
    /// the recovery rendezvous, so it will send nothing more until repair. Wakes the
    /// blocked operations whose abort predicate reads this rank's state — receivers
    /// waiting for a message from it and collectives it is a member of — and nothing
    /// else: in particular not the ranks already at the recovery rendezvous, which
    /// wait for slot progress only.
    pub fn set_parked(&self, rank: usize) {
        if self.parked[rank].swap(true, Ordering::SeqCst) {
            return;
        }
        let nparked = self.nparked.fetch_add(1, Ordering::SeqCst) + 1;
        for &receiver in self.source_watchers[rank].lock().iter() {
            self.wake_key(WaitKey::mailbox(receiver));
        }
        // An upper bound on the ranks that can no longer act (a rank both dead and
        // parked counts twice): an `ANY_SOURCE` receiver is woken only once every
        // other member of its communicator can possibly have quiesced.
        let quiesced = nparked + self.failed_count() + self.retired_count();
        for &(receiver, needed) in self.any_source_watchers.lock().iter() {
            if quiesced >= needed {
                self.wake_key(WaitKey::mailbox(receiver));
            }
        }
        for comm in self.comms.lock().iter().filter_map(Weak::upgrade) {
            if comm.rank_of(rank).is_some() {
                self.wake_key(WaitKey::object(&comm.slot));
            }
        }
    }

    /// Whether `rank` is parked at the recovery rendezvous.
    pub fn is_parked(&self, rank: usize) -> bool {
        self.parked[rank].load(Ordering::SeqCst)
    }

    /// Whether `rank` can still produce messages or collective contributions in the
    /// current epoch (alive and not parked at the recovery rendezvous).
    pub fn can_still_act(&self, rank: usize) -> bool {
        self.is_alive(rank) && !self.is_parked(rank)
    }

    /// Registers `receiver` as blocked on a message from `source` (`None`: from any
    /// member of a communicator of `nmembers` ranks), so that the source's parking
    /// wakes it. Must precede the quiescence check of the blocked receive: a park
    /// racing the check then either finds the registration or is seen by the check.
    pub(crate) fn watch_source(&self, receiver: usize, source: Option<usize>, nmembers: usize) {
        match source {
            Some(s) => self.source_watchers[s].lock().push(receiver),
            None => self
                .any_source_watchers
                .lock()
                .push((receiver, nmembers.saturating_sub(1))),
        }
    }

    /// Removes the registration made by [`ClusterState::watch_source`].
    pub(crate) fn unwatch_source(&self, receiver: usize, source: Option<usize>) {
        match source {
            Some(s) => {
                let mut watchers = self.source_watchers[s].lock();
                if let Some(pos) = watchers.iter().position(|&r| r == receiver) {
                    watchers.swap_remove(pos);
                }
            }
            None => {
                let mut watchers = self.any_source_watchers.lock();
                if let Some(pos) = watchers.iter().position(|&(r, _)| r == receiver) {
                    watchers.swap_remove(pos);
                }
            }
        }
    }

    /// Records that `node` physically crashed in this epoch (its local checkpoint
    /// storage is gone). Drained by [`ClusterState::take_pending_node_failures`].
    pub fn note_node_failure(&self, node: usize) {
        self.pending_node_failures.lock().push(node);
    }

    /// Drains the nodes that crashed in this epoch.
    pub fn take_pending_node_failures(&self) -> Vec<usize> {
        std::mem::take(&mut *self.pending_node_failures.lock())
    }

    /// Wakes the ranks parked on `key`: the receive of a mailbox's owner, or the
    /// members blocked in a round of a collective slot.
    fn wake_key(&self, key: WaitKey) {
        if let Some(waker) = self.job_waker.get() {
            waker.wake_key(key);
        }
    }

    /// Wakes every rank blocked in a receive, a collective, a survivor rendezvous or
    /// the detection barrier so it re-checks the cluster health immediately. Called on
    /// the cluster-wide condition changes that can alter *any* blocked operation's
    /// abort predicate — a failure burst, the first global-disruption declaration of
    /// an epoch, a revocation, an abort — each of which happens O(1) times per
    /// recovery; the per-rank transition ([`ClusterState::set_parked`]) is targeted
    /// instead. Ranks waiting at the recovery rendezvous are spared: they wait for
    /// slot progress only.
    pub fn wake_all_waiters(&self) {
        if let Some(waker) = self.job_waker.get() {
            waker.wake_all_except(WaitKey::object(&self.recovery_slot));
        }
    }

    /// Installs the scheduler's wake-up hook for the job this state was created for
    /// (see [`ClusterState::wake_all_waiters`]).
    pub(crate) fn set_job_waker(&self, waker: Arc<dyn JobWaker>) {
        assert!(
            self.job_waker.set(waker).is_ok(),
            "a cluster state runs exactly one job"
        );
    }

    /// Marks every *failed* rank alive again (non-shrinking recovery replaces failed
    /// processes). Retired ranks stay retired: a shrinking recovery removed them from
    /// the job for good, and a later non-shrinking repair of the survivors must not
    /// resurrect them.
    pub fn revive_all(&self) {
        let mut casualties = self.casualties.lock();
        for rank in casualties.failed.drain(..) {
            self.death_events[rank].store(0, Ordering::SeqCst);
            self.liveness[rank].store(ProcState::Alive as u8, Ordering::SeqCst);
        }
        self.failures.fetch_and(EVENT_MASK, Ordering::SeqCst);
    }

    /// Permanently retires every currently failed rank (shrinking recovery: the dead
    /// processes are not replaced). Returns the retired ranks in ascending order.
    pub fn retire_failed_ranks(&self) -> Vec<usize> {
        let mut casualties = self.casualties.lock();
        let retired = std::mem::take(&mut casualties.failed);
        for &rank in &retired {
            self.liveness[rank].store(ProcState::Retired as u8, Ordering::SeqCst);
        }
        casualties.retired.extend_from_slice(&retired);
        casualties.retired.sort_unstable();
        self.failures
            .fetch_sub((retired.len() as u64) << EVENT_BITS, Ordering::SeqCst);
        self.nretired.fetch_add(retired.len(), Ordering::SeqCst);
        retired
    }

    /// The casualty lists, for a query that found a nonzero counter.
    fn casualties_slow(&self) -> parking_lot::MutexGuard<'_, Casualties> {
        self.slow_liveness_queries.fetch_add(1, Ordering::Relaxed);
        self.casualties.lock()
    }

    /// How many liveness queries had to take the casualty-list lock so far. Stays 0
    /// while nobody is failed or retired: the per-iteration health checks of a
    /// healthy job are lock-free and independent of the rank count.
    pub fn slow_liveness_queries(&self) -> u64 {
        self.slow_liveness_queries.load(Ordering::Relaxed)
    }

    /// Number of ranks permanently retired by shrinking recoveries.
    pub fn retired_count(&self) -> usize {
        self.nretired.load(Ordering::SeqCst)
    }

    /// Number of currently failed processes (excluding retired ranks).
    pub fn failed_count(&self) -> usize {
        (self.failures.load(Ordering::SeqCst) >> EVENT_BITS) as usize
    }

    /// Total number of failure events injected so far.
    pub fn failure_events(&self) -> u64 {
        self.failures.load(Ordering::SeqCst) & EVENT_MASK
    }

    /// The value of the failure-event counter at the instant `rank` was last marked
    /// failed, or 0 while the rank has never been killed (cleared again on revival).
    /// Because failure events fire in a globally serialized order, this is
    /// deterministic even when several events share an injection iteration — the
    /// per-casualty observable a live [`ClusterState::failure_events`] read cannot
    /// provide.
    pub fn failure_events_at_death(&self, rank: usize) -> u64 {
        self.death_events[rank].load(Ordering::SeqCst)
    }

    /// Global ranks failed in the current epoch (not including permanently retired
    /// ranks of earlier shrink recoveries), ascending.
    pub fn failed_ranks(&self) -> Vec<usize> {
        if self.failed_count() == 0 {
            return Vec::new();
        }
        self.casualties_slow().failed.clone()
    }

    /// The dead (failed or retired) member of `comm` with the lowest communicator
    /// rank, if any.
    fn first_dead_member(&self, comm: &CommShared) -> Option<usize> {
        let casualties = self.casualties_slow();
        casualties
            .failed
            .iter()
            .chain(&casualties.retired)
            .filter_map(|&rank| comm.rank_of(rank))
            .min()
            .map(|index| comm.members[index])
    }

    /// Declares that a global-restart recovery is in progress (see
    /// [`ClusterState::health_error`]). Only the first declaration of an epoch changes
    /// anything, so only it wakes the blocked operations.
    pub fn declare_global_disruption(&self) {
        if !self.global_disruption.swap(true, Ordering::SeqCst) {
            self.wake_all_waiters();
        }
    }

    /// Whether a global-restart recovery is in progress.
    pub fn is_globally_disrupted(&self) -> bool {
        self.global_disruption.load(Ordering::SeqCst)
    }

    /// Records an `MPI_Abort` (the first abort code wins).
    pub fn set_abort(&self, code: i32) {
        let _ = self.abort.compare_exchange(
            NO_ABORT,
            i64::from(code),
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        self.wake_all_waiters();
    }

    /// The abort code, if the job was aborted.
    pub fn abort_code(&self) -> Option<i32> {
        match self.abort.load(Ordering::SeqCst) {
            NO_ABORT => None,
            code => Some(code as i32),
        }
    }

    /// The health error (if any) that an operation on `comm` should report.
    ///
    /// Failure notification follows ULFM semantics: an operation fails with
    /// [`MpiError::ProcFailed`] when the communicator contains a failed member, and
    /// with [`MpiError::Revoked`] when the communicator has been revoked. Operations on
    /// communicators made only of survivors (e.g. the result of a shrink) keep working.
    /// Additionally, while a *global-restart* recovery is in progress (see
    /// [`ClusterState::declare_global_disruption`]) every operation on every
    /// communicator reports the failure — blaming the first rank that failed in the
    /// epoch — which is how the Reinit and global ULFM/Restart designs roll back ranks
    /// that were not communicating with the failed process. A healthy job answers from
    /// three atomic loads, whatever its size.
    pub fn health_error(&self, comm: &CommShared) -> Option<MpiError> {
        if let Some(code) = self.abort_code() {
            return Some(MpiError::Aborted { code });
        }
        if comm.is_revoked() {
            return Some(MpiError::Revoked);
        }
        if self.failed_count() == 0 {
            return None;
        }
        let rank = if self.is_globally_disrupted() {
            // Unset only when a repair completed between the two loads above and this
            // one: the job is healthy again, nobody is to blame.
            match self.first_failed.load(Ordering::SeqCst) {
                NO_RANK => return None,
                rank => rank,
            }
        } else {
            self.first_dead_member(comm)?
        };
        Some(MpiError::ProcFailed { rank })
    }

    /// Like [`ClusterState::health_error`], but failure notification follows the
    /// deterministic virtual-time visibility rule: a process failure (or an ongoing
    /// global-restart disruption) is reported only once the observer's clock `now` has
    /// reached the failure instant. Abort and revocation are always visible (both are
    /// control-plane transitions, not modelled physical events).
    pub fn visible_health_error(&self, comm: &CommShared, now: SimTime) -> Option<MpiError> {
        match self.health_error(comm)? {
            err @ (MpiError::Aborted { .. } | MpiError::Revoked) => Some(err),
            err => match self.fail_time() {
                Some(t) if now >= t => Some(err),
                _ => None,
            },
        }
    }

    /// Ends the disruption epoch: no failure outstanding, nobody to blame, every
    /// in-flight message dropped.
    fn end_epoch(&self) {
        self.global_disruption.store(false, Ordering::SeqCst);
        self.fail_time_bits.store(u64::MAX, Ordering::SeqCst);
        self.first_failed.store(NO_RANK, Ordering::SeqCst);
        for mb in &self.mailboxes {
            mb.clear();
        }
    }

    /// Completes a *shrinking* repair: ends the disruption epoch without reviving
    /// anyone (the failed ranks were just retired by
    /// [`ClusterState::retire_failed_ranks`]), drops every in-flight message and
    /// unparks the survivors. Retired ranks stay parked — they can never act again.
    /// Called exactly once per shrink recovery by the last survivor to reach the
    /// shrink rendezvous, while every survivor is inside it.
    pub fn complete_shrink_repair(&self) {
        let mut still_parked = 0;
        for (rank, p) in self.parked.iter().enumerate() {
            if self.is_alive(rank) {
                p.store(false, Ordering::SeqCst);
            } else if p.load(Ordering::SeqCst) {
                still_parked += 1;
            }
        }
        self.nparked.store(still_parked, Ordering::SeqCst);
        self.end_epoch();
    }

    /// Repairs the job after a failure: revives all processes, drops every in-flight
    /// message, clears revocation flags and resets the collective state of every
    /// registered communicator. Called exactly once per recovery by the last rank to
    /// reach the recovery rendezvous.
    pub fn repair_all(&self) {
        self.revive_all();
        for p in &self.parked {
            p.store(false, Ordering::SeqCst);
        }
        self.nparked.store(0, Ordering::SeqCst);
        self.end_epoch();
        let mut comms = self.comms.lock();
        comms.retain(|w| w.strong_count() > 0);
        for weak in comms.iter() {
            if let Some(comm) = weak.upgrade() {
                comm.repair();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(n: usize) -> Arc<ClusterState> {
        ClusterState::new(n, Topology::new(n, 1), MachineModel::default())
    }

    #[test]
    fn initial_state_is_healthy() {
        let s = state(4);
        assert_eq!(s.failed_count(), 0);
        assert!(s.is_alive(0));
        assert!(s.health_error(&s.world).is_none());
        assert!((0..4).all(|r| s.is_alive(r)));
        assert!(s.failed_ranks().is_empty());
        assert_eq!(s.abort_code(), None);
    }

    #[test]
    fn failure_marks_and_health_error() {
        let s = state(4);
        assert!(s.mark_failed(2));
        assert!(!s.mark_failed(2), "double-failing is idempotent");
        assert_eq!(s.failed_count(), 1);
        assert_eq!(s.failed_ranks(), vec![2]);
        assert_eq!(
            s.health_error(&s.world),
            Some(MpiError::ProcFailed { rank: 2 })
        );
        s.revive_all();
        assert_eq!(s.failed_count(), 0);
        assert!(s.health_error(&s.world).is_none());
        assert_eq!(
            s.failure_events(),
            1,
            "revive does not erase the event count"
        );
    }

    #[test]
    fn revoked_comm_reports_revoked() {
        let s = state(2);
        s.world.revoke();
        assert_eq!(s.health_error(&s.world), Some(MpiError::Revoked));
        s.world.repair();
        assert!(s.health_error(&s.world).is_none());
    }

    #[test]
    fn abort_takes_priority() {
        let s = state(2);
        s.mark_failed(0);
        s.set_abort(13);
        s.set_abort(99); // first abort code wins
        assert_eq!(
            s.health_error(&s.world),
            Some(MpiError::Aborted { code: 13 })
        );
        assert_eq!(s.abort_code(), Some(13));
    }

    #[test]
    fn repair_clears_mailboxes_and_revocation() {
        use crate::msg::Message;
        use crate::time::SimTime;
        let s = state(2);
        s.mailboxes[1].push(Message {
            src: 0,
            tag: 0,
            comm_id: 0,
            payload: vec![1].into(),
            sent_at: SimTime::ZERO,
        });
        s.world.revoke();
        s.mark_failed(1);
        s.repair_all();
        assert!(s.mailboxes[1].is_empty());
        assert!(!s.world.is_revoked());
        assert_eq!(s.failed_count(), 0);
    }

    /// Records what the cluster state asks of the scheduler.
    #[derive(Default)]
    struct RecordingWaker {
        keys: Mutex<Vec<WaitKey>>,
        broadcasts: Mutex<Vec<WaitKey>>,
    }

    impl JobWaker for RecordingWaker {
        fn wake_key(&self, key: WaitKey) {
            self.keys.lock().push(key);
        }
        fn wake_all_except(&self, spared: WaitKey) {
            self.broadcasts.lock().push(spared);
        }
    }

    fn state_with_waker(n: usize) -> (Arc<ClusterState>, Arc<RecordingWaker>) {
        let s = state(n);
        let waker = Arc::new(RecordingWaker::default());
        s.set_job_waker(Arc::clone(&waker) as Arc<dyn JobWaker>);
        (s, waker)
    }

    #[test]
    fn parking_wakes_only_the_operations_waiting_on_the_parked_rank() {
        let (s, waker) = state_with_waker(8);
        s.mark_failed(7);
        waker.broadcasts.lock().clear();
        // Rank 0 waits for a message from rank 3, rank 1 for one from rank 4, rank 2
        // for one from anybody.
        s.watch_source(0, Some(3), 8);
        s.watch_source(1, Some(4), 8);
        s.watch_source(2, None, 8);
        s.set_parked(3);
        assert!(
            waker.broadcasts.lock().is_empty(),
            "parking must never wake everybody"
        );
        assert_eq!(
            *waker.keys.lock(),
            vec![WaitKey::mailbox(0), WaitKey::object(&s.world.slot)],
            "only rank 3's watcher and the collectives of its communicators"
        );
        // Parking twice changes nothing and wakes nobody.
        waker.keys.lock().clear();
        s.set_parked(3);
        assert!(waker.keys.lock().is_empty());
        // The ANY_SOURCE receiver is woken once every other rank may have quiesced:
        // 6 parked + 1 failed covers the 7 ranks other than itself.
        for rank in [4, 5, 6, 0] {
            s.set_parked(rank);
        }
        assert!(!waker.keys.lock().contains(&WaitKey::mailbox(2)));
        s.set_parked(1);
        assert!(waker.keys.lock().contains(&WaitKey::mailbox(2)));
        // A deregistered receiver is no longer woken.
        s.unwatch_source(2, None);
        waker.keys.lock().clear();
        s.set_parked(2);
        assert!(!waker.keys.lock().contains(&WaitKey::mailbox(2)));
    }

    #[test]
    fn cluster_wide_transitions_wake_everybody_once_and_spare_the_recovery_rendezvous() {
        let (s, waker) = state_with_waker(8);
        let spared = WaitKey::object(&s.recovery_slot);
        // A three-victim burst is one publication and one broadcast.
        assert_eq!(s.mark_failed_burst(&[2, 5, 6], SimTime::from_secs(1.0)), 3);
        assert_eq!(*waker.broadcasts.lock(), vec![spared]);
        assert_eq!(s.failed_ranks(), vec![2, 5, 6]);
        assert_eq!(s.failure_events(), 3);
        assert_eq!(
            [2, 5, 6].map(|r| s.failure_events_at_death(r)),
            [1, 2, 3],
            "victims of one burst keep their serialized event numbers"
        );
        // Only the first declaration of an epoch changes what blocked operations see.
        s.declare_global_disruption();
        s.declare_global_disruption();
        s.declare_global_disruption();
        assert_eq!(*waker.broadcasts.lock(), vec![spared, spared]);
        // Repair ends the epoch; the next declaration is an edge again.
        s.repair_all();
        s.mark_failed(1);
        s.declare_global_disruption();
        assert_eq!(waker.broadcasts.lock().len(), 4);
    }

    #[test]
    fn global_disruption_blames_the_first_rank_that_failed() {
        let s = state(8);
        s.mark_failed(5);
        s.mark_failed(2);
        // Without a declaration the communicator's lowest dead member is reported…
        assert_eq!(
            s.health_error(&s.world),
            Some(MpiError::ProcFailed { rank: 2 })
        );
        // …under global disruption the epoch's first failure, on every communicator.
        s.declare_global_disruption();
        let unrelated = CommShared::new(9, vec![0, 1]);
        for comm in [&s.world, &unrelated] {
            assert_eq!(s.health_error(comm), Some(MpiError::ProcFailed { rank: 5 }));
        }
        s.repair_all();
        assert_eq!(s.health_error(&unrelated), None);
        s.mark_failed(3);
        s.declare_global_disruption();
        assert_eq!(
            s.health_error(&unrelated),
            Some(MpiError::ProcFailed { rank: 3 })
        );
    }

    #[test]
    fn a_healthy_job_answers_liveness_queries_without_the_casualty_lock() {
        let s = state(64);
        for _ in 0..100 {
            assert!(s.failed_ranks().is_empty());
            assert_eq!(s.retired_count(), 0);
            assert!(s.health_error(&s.world).is_none());
            assert!(s.is_alive(17) && !s.is_retired(17));
        }
        assert_eq!(s.slow_liveness_queries(), 0);
        s.mark_failed(9);
        assert_eq!(s.failed_ranks(), vec![9]);
        assert!(s.health_error(&s.world).is_some());
        assert_eq!(s.slow_liveness_queries(), 2);
        assert_eq!(s.retire_failed_ranks(), vec![9]);
        assert!(s.is_retired(9));
        assert_eq!((s.failed_count(), s.retired_count()), (0, 1));
        // Retired ranks do not disturb the survivors' health checks.
        let before = s.slow_liveness_queries();
        assert!(s.health_error(&s.world).is_none());
        assert_eq!(s.slow_liveness_queries(), before);
    }

    #[test]
    fn comm_ids_are_unique() {
        let s = state(2);
        let a = s.next_comm_id();
        let b = s.next_comm_id();
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic]
    fn topology_mismatch_panics() {
        let _ = ClusterState::new(4, Topology::new(2, 1), MachineModel::default());
    }
}
