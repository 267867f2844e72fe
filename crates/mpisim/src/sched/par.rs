//! The parallel backend: the cooperative virtual-time run queue sharded over
//! `MATCH_WORKERS` OS threads.
//!
//! # How it works
//!
//! The job's rank range is split into **contiguous blocks**, one per worker
//! (`owner(rank) = rank * nworkers / nprocs`), and every rank's fiber is **pinned** to
//! its owning worker for the whole job. Each worker drives its own min-heap of
//! runnable owned ranks ordered by `(virtual clock bits, rank)` — exactly the `coop`
//! scheduler's policy applied per block — and context-switches into the lowest-clock
//! fiber until it parks or finishes.
//!
//! Pinning is what makes multi-threaded fiber switching sound: a fiber's saved
//! context slot is only ever *entered* by its owning worker's loop, and that loop only
//! regains control after the fiber's own switch has finished saving the slot. A
//! cross-worker wakeup therefore never resumes a context mid-save — it merely pushes
//! the rank onto the owner's heap, where it sits until the owner (which is, by
//! construction, currently executing that very fiber or some other owned fiber) comes
//! back around to pop it.
//!
//! # Why this is deterministic without a conservative PDES gate
//!
//! The simulator resolves every scheduling-sensitive decision in **virtual time**:
//! failure detection compares virtual timestamps, deliver-vs-abort consults virtual
//! quiescence, collective completion is `max(entry) + max(cost)` over all members.
//! Host interleaving can therefore change *when on the wall clock* a rank runs, but
//! never *what it computes* — the `threads` backend (maximally racy: one OS thread
//! per rank, no run queue at all) proves this property, and the backend-equivalence
//! suite enforces it. What a multi-worker scheduler must guarantee is the blocking
//! semantics: no lost wakeups, panics propagated, deadlocks diagnosed. It does **not**
//! need to emulate the single-threaded pop order across blocks, so workers run their
//! blocks freely and only synchronise at communication edges.
//!
//! A job whose worker count resolves to **one** never gets here: one block owning
//! every rank is the `coop` scheduler by definition, so `run_workers` hands such a
//! job to [`coop`](super::coop)'s loop on the calling thread. Everything below
//! describes jobs with at least two workers.
//!
//! # Token-validated parks (no lost wakeups)
//!
//! On one thread, `coop`'s check-then-park is atomic by construction. Across workers
//! it is not: between a rank observing "message not there yet" and its fiber parking,
//! another worker's rank can deposit the message and issue the wakeup — which would
//! find nobody parked and be lost. The fix is an eventcount per wait channel.
//!
//! **Where `seq` lives.** Channels are addressed through the
//! [`ChannelTable`](super::channels): a mailbox key indexes its rank's channel, an
//! object key hashes to a bucket and parks on the lane of the parking rank's owner.
//! Each [`Channel`] holds `seq` (bumped by every wake), `parked` (waiters listed or
//! about to be) and the waiter list behind a mutex. A [`WaitToken`] is two atomic
//! loads — the cluster-wide wake epoch and the channel's `seq` — taken *before* the
//! rank checks its wait condition. Channels live as long as the job and `seq` only
//! ever grows; there is nothing to create, look up or forget.
//!
//! **The pairing.** All four accesses are `SeqCst`, so they have one total order:
//!
//! ```text
//! park:  parked += 1     then   validate seq == token.seq  (and epoch == token.epoch)
//! wake:  seq    += 1     then   read parked                (epoch += 1 for wake-all)
//! ```
//!
//! Either the park's increment precedes the wake's read — the wake sees `parked > 0`,
//! takes the list lock and drains — or it follows it, and then the wake's bump
//! precedes the park's validation, which fails: the park returns without suspending
//! and the rank re-checks its condition (which the waker changed *before* bumping).
//! The validation and the push happen under the list lock, so a wake that does take
//! the lock either finds the waiter listed or runs before the validation and
//! invalidates it. A wake of a channel nobody is parked on is one `fetch_add` and one
//! load; no lock, no hash.
//!
//! **Collisions and address reuse are harmless.** Two keys in one bucket share `seq`:
//! a wake of one can at worst refuse a park on the other (which re-checks and parks
//! again), and it drains only waiters carrying its own key. An object freed and
//! another allocated at its address continue one channel: a token taken for the old
//! object still validates only if no wake came in between, in which case nothing was
//! there to lose.
//!
//! **Which channels are padded.** Object channels are per lane and cache-line
//! aligned: the 512 parks a worker issues in one collective round of a 1024-rank job
//! write `parked` and the list of its own lane only, and a wake pushes a lane's whole
//! batch onto its owner's heap under one queue lock. Mailbox channels need neither
//! lanes nor padding — only the mailbox's owner ever parks there, so a channel's
//! lines move between cores exactly when a message edge does.
//!
//! # Deadlock diagnosis
//!
//! If every worker is simultaneously quiet (heap empty, idle or exited) while
//! unfinished ranks remain parked, nothing can ever wake them — all wakeups originate
//! from running fibers — and the job is deadlocked. Idle workers re-run this census
//! each time their short timed wait expires; the worker that observes it panics with a
//! per-rank diagnosis (mirroring `coop`) after flagging the job abandoned so its
//! peers exit and the panic can propagate instead of hanging the join.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::ctx::RankCtx;
use crate::error::MpiError;
use crate::runtime::{ClusterConfig, RankOutcome};
use crate::state::ClusterState;
use crate::time::SimTime;

use super::channels::{ChannelTable, Waiter};
use super::{JobWaker, RankScheduler, SchedStats, WaitKey, WaitToken};

/// How long an idle worker sleeps before re-running the deadlock census. Workers add
/// a per-worker offset so their censuses don't lock-step.
const IDLE_WAIT: Duration = Duration::from_millis(5);

/// One wait channel: an eventcount (see the module docs for the pairing argument).
#[derive(Default)]
struct Channel {
    /// Bumped by every wake of the channel, before the wake reads `parked`.
    seq: AtomicU64,
    /// Waiters on the list plus ranks between announcing and validating their park.
    parked: AtomicUsize,
    waiters: Mutex<Vec<Waiter>>,
}

/// A worker's run queue: the min-heap of runnable owned ranks plus the idle/exited
/// flags the deadlock census reads.
struct WorkerQ {
    /// Min-heap ordered by `(virtual clock bits, rank)`.
    heap: BinaryHeap<std::cmp::Reverse<(u64, usize)>>,
    /// True while the worker sleeps in its timed idle wait.
    idle: bool,
    /// True once the worker's loop has returned.
    exited: bool,
    /// Owned ranks popped off the heap and switched into.
    resumes: u64,
    /// Owned ranks pushed onto the heap by a wake.
    wakes: u64,
}

/// Per-worker shared state, on its own cache lines: a worker's queue lock and park
/// counters are written on every scheduling step of that worker.
#[repr(align(128))]
struct Worker {
    q: Mutex<WorkerQ>,
    cv: Condvar,
    /// How many of the worker's owned ranks have finished.
    owned_done: AtomicUsize,
    /// How many ranks the worker owns.
    owned: usize,
    /// Suspensions of owned ranks, and how many of them followed a wake that had not
    /// satisfied the rank's wait. Written by the worker's own thread only (fibers are
    /// pinned), hence relaxed.
    parks: AtomicU64,
    spurious_wakes: AtomicU64,
}

/// Shared state of one parallel job.
pub(crate) struct ParShared {
    nprocs: usize,
    nworkers: usize,
    workers: Vec<Worker>,
    /// The job's wait channels, one lane per worker.
    channels: ChannelTable<Channel>,
    /// Cluster-wide wake epoch: bumped by `wake_all_except` *before* it reads any
    /// channel's `parked`, so a token issued before the bump can never park after it.
    epoch: AtomicU64,
    /// Set on rank panic or deadlock diagnosis: workers drain out instead of
    /// scheduling further.
    abandon: AtomicBool,
    finished: AtomicUsize,
    /// Raw context slots: `0..nworkers` are the workers' scheduler contexts,
    /// `nworkers + rank` is the rank's fiber context.
    ctxs: Vec<std::cell::UnsafeCell<usize>>,
}

// SAFETY: context slot `w` is only touched by worker thread `w`'s loop and the fibers
// it runs; slot `nworkers + rank` only by `owner(rank)`'s thread (the fiber is pinned
// — cross-worker wakeups go through the wait channels and the mutex-guarded heaps,
// never the context slots). Initial slot installation on the spawning thread
// happens-before the workers start.
unsafe impl Send for ParShared {}
// SAFETY: same pinned-owner discipline as the Send impl above — shared references
// only dereference a context slot from the one worker thread that owns it.
unsafe impl Sync for ParShared {}

impl ParShared {
    fn new(nprocs: usize, nworkers: usize) -> ParShared {
        let workers = (0..nworkers)
            .map(|w| {
                let heap: BinaryHeap<_> = (0..nprocs)
                    .filter(|&rank| owner_of(rank, nprocs, nworkers) == w)
                    .map(|rank| std::cmp::Reverse((0, rank)))
                    .collect();
                Worker {
                    owned: heap.len(),
                    q: Mutex::new(WorkerQ {
                        heap,
                        idle: false,
                        exited: false,
                        resumes: 0,
                        wakes: 0,
                    }),
                    cv: Condvar::new(),
                    owned_done: AtomicUsize::new(0),
                    parks: AtomicU64::new(0),
                    spurious_wakes: AtomicU64::new(0),
                }
            })
            .collect();
        ParShared {
            nprocs,
            nworkers,
            workers,
            channels: ChannelTable::new(nprocs, nworkers),
            epoch: AtomicU64::new(0),
            abandon: AtomicBool::new(false),
            finished: AtomicUsize::new(0),
            ctxs: (0..nworkers + nprocs)
                .map(|_| std::cell::UnsafeCell::new(0))
                .collect(),
        }
    }

    fn owner(&self, rank: usize) -> usize {
        owner_of(rank, self.nprocs, self.nworkers)
    }

    fn sched_ctx(&self, worker: usize) -> *mut usize {
        self.ctxs[worker].get()
    }

    fn task_ctx(&self, rank: usize) -> *mut usize {
        self.ctxs[self.nworkers + rank].get()
    }

    /// Snapshots the eventcount of the channel `rank` would park on for `key`; must
    /// precede the caller's condition check.
    fn wait_token(&self, rank: usize, key: WaitKey) -> WaitToken {
        let epoch = self.epoch.load(Ordering::SeqCst);
        let chan = self.channels.channel(key, self.owner(rank));
        let seq = chan.seq.load(Ordering::SeqCst);
        WaitToken { key, epoch, seq }
    }

    /// Lists `rank` as a waiter of the token's channel — unless the token no longer
    /// validates: a wake raced the caller's condition check, and this returns `false`.
    /// Announce first, validate second: the order the wake's "bump, then read
    /// `parked`" pairs with.
    fn enlist(&self, rank: usize, token: WaitToken, now: SimTime) -> bool {
        let chan = self.channels.channel(token.key, self.owner(rank));
        chan.parked.fetch_add(1, Ordering::SeqCst);
        let mut waiters = chan.waiters.lock();
        if chan.seq.load(Ordering::SeqCst) != token.seq
            || self.epoch.load(Ordering::SeqCst) != token.epoch
        {
            chan.parked.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        waiters.push(Waiter {
            key: token.key,
            rank,
            clock: now.as_secs().to_bits(),
        });
        true
    }

    /// Parks the calling rank's fiber on the token's channel and switches to its
    /// worker's scheduler (returns `true` once resumed) — unless the token no longer
    /// validates, in which case this returns `false` immediately.
    fn park(&self, rank: usize, token: WaitToken, now: SimTime, suspended_before: bool) -> bool {
        if !self.enlist(rank, token, now) {
            return false;
        }
        let worker = &self.workers[self.owner(rank)];
        worker.parks.fetch_add(1, Ordering::Relaxed);
        worker
            .spurious_wakes
            .fetch_add(u64::from(suspended_before), Ordering::Relaxed);
        self.switch_to_scheduler(rank);
        true
    }

    /// Suspends the calling rank's fiber: switches to its owning worker's scheduler
    /// loop and returns when that loop next resumes the rank.
    fn switch_to_scheduler(&self, rank: usize) {
        // SAFETY: pinned-fiber switch discipline (see ParShared's Sync rationale);
        // the owning worker's scheduler context was saved when it resumed this fiber.
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        unsafe {
            super::fiber::switch_context(self.task_ctx(rank), *self.sched_ctx(self.owner(rank)));
        }
        #[cfg(not(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )))]
        unreachable!("parallel tasks cannot exist without fiber support");
    }

    /// Wakes every rank parked on `key`, invalidating in-flight tokens first.
    fn wake(&self, key: WaitKey) {
        let lanes = match key.mailbox_rank().map(|rank| self.owner(rank)) {
            Some(owner) => owner..owner + 1,
            None => 0..self.nworkers,
        };
        for lane in lanes {
            let chan = self.channels.channel(key, lane);
            chan.seq.fetch_add(1, Ordering::SeqCst);
            self.drain(chan, lane, |waiter| waiter == key);
        }
    }

    /// Moves the waiters of `chan` that `select` picks onto the heap of `owner` (every
    /// waiter of one channel has the same owner), under one list lock and one queue
    /// lock. Lock order list → queue; nothing takes them the other way round.
    fn drain(&self, chan: &Channel, owner: usize, select: impl Fn(WaitKey) -> bool) {
        if chan.parked.load(Ordering::SeqCst) == 0 {
            return;
        }
        let mut waiters = chan.waiters.lock();
        if waiters.is_empty() {
            // Only ranks still validating: they will see what the caller bumped.
            return;
        }
        let worker = &self.workers[owner];
        let mut q = worker.q.lock();
        let listed = waiters.len();
        waiters.retain(|w| {
            let woken = select(w.key);
            if woken {
                q.heap.push(std::cmp::Reverse((w.clock, w.rank)));
            }
            !woken
        });
        let woken = listed - waiters.len();
        chan.parked.fetch_sub(woken, Ordering::SeqCst);
        q.wakes += woken as u64;
        let notify = q.idle && woken > 0;
        drop(q);
        drop(waiters);
        if notify {
            worker.cv.notify_one();
        }
    }

    /// Flags the job abandoned and wakes every idle worker so it notices.
    fn abandon_job(&self) {
        self.abandon.store(true, Ordering::SeqCst);
        for worker in &self.workers {
            worker.cv.notify_all();
        }
    }

    /// Marks the calling rank done and leaves its fiber for good.
    fn finish(&self, rank: usize) -> ! {
        let worker = self.owner(rank);
        self.workers[worker]
            .owned_done
            .fetch_add(1, Ordering::SeqCst);
        self.finished.fetch_add(1, Ordering::SeqCst);
        loop {
            // SAFETY: as in `park`; finished ranks are never re-enqueued, so the
            // owning worker never resumes this context and the loop body runs once.
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            unsafe {
                super::fiber::switch_context(self.task_ctx(rank), *self.sched_ctx(worker));
            }
            #[cfg(not(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            )))]
            unreachable!("parallel tasks cannot exist without fiber support");
        }
    }

    /// True iff the job can make no further progress: every heap empty, every other
    /// worker observably quiet, unfinished ranks remaining. Conservative — any
    /// concurrently *running* fiber makes its worker non-quiet and the census false.
    fn census_is_deadlocked(&self, me: usize) -> bool {
        if self.abandon.load(Ordering::SeqCst)
            || self.finished.load(Ordering::SeqCst) >= self.nprocs
        {
            return false;
        }
        // Lock every queue in ascending index order (concurrent censuses cannot
        // deadlock each other; wakers take one queue lock at a time).
        let guards: Vec<_> = self.workers.iter().map(|w| w.q.lock()).collect();
        let all_empty = guards.iter().all(|q| q.heap.is_empty());
        let others_quiet = guards
            .iter()
            .enumerate()
            .all(|(w, q)| w == me || q.exited || q.idle);
        all_empty && others_quiet && self.finished.load(Ordering::SeqCst) < self.nprocs
    }

    /// Abandons the job (so peers exit and the panic can propagate through the join)
    /// and panics with a per-rank diagnosis of what everyone is parked on.
    fn diagnose_deadlock(&self) -> ! {
        self.abandon_job();
        let stuck: Vec<Waiter> = (self.channels.iter())
            .flat_map(|chan| chan.waiters.lock().clone())
            .collect();
        panic!(
            "parallel scheduler deadlock: no runnable rank on any of {} worker(s) and {} \
             unfinished task(s) parked [{}] — a rank program must only block through \
             simulated operations",
            self.nworkers,
            stuck.len(),
            Waiter::listing(stuck)
        );
    }
}

/// Deterministic contiguous rank-block ownership.
fn owner_of(rank: usize, nprocs: usize, nworkers: usize) -> usize {
    rank * nworkers / nprocs
}

impl JobWaker for ParShared {
    fn wake_key(&self, key: WaitKey) {
        self.wake(key);
    }

    fn wake_all_except(&self, spared: WaitKey) {
        // Epoch first: it is the `seq` bump of every channel at once. A token read
        // before this line can no longer park after it, closing the race with ranks
        // mid-way between condition check and park. That also turns away a rank about
        // to park on the spared key, which merely re-checks its condition.
        self.epoch.fetch_add(1, Ordering::SeqCst);
        for (rank, chan) in self.channels.mailboxes().iter().enumerate() {
            self.drain(chan, self.owner(rank), |_| true);
        }
        for (lane, chan) in self.channels.objects() {
            self.drain(chan, lane, |waiter| waiter != spared);
        }
    }
}

/// The per-rank handle blocked operations use to park and to wake their peers. Held
/// by [`RankCtx`] when (and only when) the rank runs on the parallel backend.
#[derive(Clone)]
pub(crate) struct ParYielder {
    shared: Arc<ParShared>,
    rank: usize,
}

impl std::fmt::Debug for ParYielder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParYielder")
            .field("rank", &self.rank)
            .finish()
    }
}

impl ParYielder {
    /// Snapshots `key`'s eventcount; must precede the condition check it guards.
    pub(crate) fn wait_token(&self, key: WaitKey) -> WaitToken {
        self.shared.wait_token(self.rank, key)
    }

    /// Parks the calling rank on the token's channel (or returns `false`
    /// immediately if the token no longer validates). `now` orders the rank in its
    /// owner's heap.
    pub(crate) fn park(&self, token: WaitToken, now: SimTime, suspended_before: bool) -> bool {
        self.shared.park(self.rank, token, now, suspended_before)
    }

    /// Wakes every rank parked on `key`.
    pub(crate) fn wake(&self, key: WaitKey) {
        self.shared.wake(key);
    }
}

/// The parallel scheduler backend (see the module docs). On targets without fiber
/// support it transparently degrades to [`ThreadScheduler`](super::ThreadScheduler) —
/// results are identical by the [`RankScheduler`] contract, only the scaling differs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParScheduler;

impl RankScheduler for ParScheduler {
    fn run_job<R, F>(
        &self,
        config: &ClusterConfig,
        state: Arc<ClusterState>,
        body: &F,
    ) -> (Vec<RankOutcome<R>>, SchedStats)
    where
        R: Send,
        F: Fn(&mut RankCtx) -> Result<R, MpiError> + Sync,
    {
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        {
            run_workers(config, state, body)
        }
        #[cfg(not(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )))]
        {
            super::ThreadScheduler.run_job(config, state, body)
        }
    }
}

/// Everything one fiber needs, at a stable address for the fiber's whole lifetime.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
struct ParRankJob<R, F> {
    rank: usize,
    state: Arc<ClusterState>,
    shared: Arc<ParShared>,
    body: *const F,
    out: *mut Option<RankOutcome<R>>,
    panic_slot: *mut Option<Box<dyn std::any::Any + Send>>,
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
extern "C" fn fiber_main<R, F>(arg: *mut ()) -> !
where
    R: Send,
    F: Fn(&mut RankCtx) -> Result<R, MpiError> + Sync,
{
    // SAFETY: `arg` is the address of this fiber's ParRankJob, alive until the job
    // ends.
    let job = unsafe { &*(arg as *const ParRankJob<R, F>) };
    let rank = job.rank;
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let yielder = ParYielder {
            shared: Arc::clone(&job.shared),
            rank,
        };
        let mut ctx = RankCtx::new_par(rank, Arc::clone(&job.state), yielder);
        // SAFETY: `body` outlives the worker loops (it is a reference held by the
        // caller of run_workers); fibers never outlive that call.
        let result = unsafe { (*job.body)(&mut ctx) };
        RankOutcome {
            rank,
            result,
            finish_time: ctx.now(),
            breakdown: *ctx.breakdown(),
            stats: *ctx.stats(),
        }
    }));
    match outcome {
        // SAFETY: `out` points into a vector owned by run_workers, which only reads
        // it after the worker threads have joined; slot `rank` is written by this
        // fiber alone.
        Ok(o) => unsafe { *job.out = Some(o) },
        Err(p) => {
            // SAFETY: as for `out` — `panic_slot` is this rank's private slot in a
            // vector that outlives the worker threads.
            unsafe { *job.panic_slot = Some(p) };
            // A dead rank may leave peers parked on it forever: abandon the job so
            // every worker drains out and the panic propagates through the join.
            job.shared.abandon_job();
        }
    }
    job.shared.finish(rank)
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn run_workers<R, F>(
    config: &ClusterConfig,
    state: Arc<ClusterState>,
    body: &F,
) -> (Vec<RankOutcome<R>>, SchedStats)
where
    R: Send,
    F: Fn(&mut RankCtx) -> Result<R, MpiError> + Sync,
{
    use super::fiber::Fiber;

    let nprocs = state.nprocs;
    let nworkers = super::resolve_workers(config.workers).min(nprocs).max(1);
    if nworkers == 1 {
        // par(1) *is* coop: one worker owns every rank, so the sharded machinery (a
        // spawned thread, token-validated parks, atomics on every channel) would only
        // re-derive what the single-threaded loop has by construction.
        return super::coop::run_fibers(config, state, body);
    }
    let shared = Arc::new(ParShared::new(nprocs, nworkers));
    state.set_job_waker(Arc::clone(&shared) as Arc<dyn JobWaker>);

    let mut outcomes: Vec<Option<RankOutcome<R>>> = (0..nprocs).map(|_| None).collect();
    let mut panics: Vec<Option<Box<dyn std::any::Any + Send>>> =
        (0..nprocs).map(|_| None).collect();

    let jobs: Vec<ParRankJob<R, F>> = (0..nprocs)
        .map(|rank| ParRankJob {
            rank,
            state: Arc::clone(&state),
            shared: Arc::clone(&shared),
            body: body as *const F,
            // SAFETY: in-bounds (`rank < nprocs`, the vector's length); the vector
            // is never resized while fibers live.
            out: unsafe { outcomes.as_mut_ptr().add(rank) },
            // SAFETY: same in-bounds offset into the equally sized panics vector.
            panic_slot: unsafe { panics.as_mut_ptr().add(rank) },
        })
        .collect();

    let mut fibers: Vec<Fiber> = jobs
        .iter()
        .map(|job| {
            Fiber::new(
                config.stack_size,
                fiber_main::<R, F>,
                job as *const ParRankJob<R, F> as *mut (),
            )
        })
        .collect();
    for (rank, fiber) in fibers.iter_mut().enumerate() {
        // SAFETY: installing each fiber's initial context into its switch slot before
        // the workers spawn; the spawn synchronises the writes.
        unsafe { *shared.task_ctx(rank) = *fiber.context_slot() };
    }

    let mut worker_panic: Option<Box<dyn std::any::Any + Send>> = None;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(nworkers);
        for w in 0..nworkers {
            let shared = Arc::clone(&shared);
            let builder = std::thread::Builder::new().name(format!("par-worker-{w}"));
            let handle = builder
                .spawn_scoped(scope, move || worker_loop(&shared, w))
                .expect("failed to spawn par worker thread");
            handles.push(handle);
        }
        for handle in handles {
            if let Err(p) = handle.join() {
                // A worker died (deadlock diagnosis, or a bug): make sure its peers
                // drain out, keep the first payload, and re-raise it below.
                shared.abandon_job();
                worker_panic.get_or_insert(p);
            }
        }
    });

    if let Some(p) = panics.iter_mut().find_map(Option::take) {
        // Mirror the thread backend's join-propagation. Unfinished fibers are
        // abandoned: their stacks are unmapped without unwinding, which can leak
        // heap objects held by suspended frames — acceptable for a dying job.
        drop(fibers);
        std::panic::resume_unwind(p);
    }
    if let Some(p) = worker_panic {
        drop(fibers);
        std::panic::resume_unwind(p);
    }
    drop(fibers);
    let outcomes = outcomes
        .into_iter()
        .map(|o| o.expect("missing rank outcome"))
        .collect();
    let mut stats = SchedStats::default();
    for worker in &shared.workers {
        let q = worker.q.lock();
        stats.resumes += q.resumes;
        stats.wakes += q.wakes;
        stats.parks += worker.parks.load(Ordering::Relaxed);
        stats.spurious_wakes += worker.spurious_wakes.load(Ordering::Relaxed);
    }
    (outcomes, stats)
}

/// One worker's scheduler loop: pop the lowest-clock owned rank and switch into its
/// fiber; when the heap is empty, exit if all owned ranks finished, otherwise census
/// and idle-wait.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn worker_loop(shared: &ParShared, me: usize) {
    use super::fiber::switch_context;

    let worker = &shared.workers[me];
    loop {
        if shared.abandon.load(Ordering::SeqCst) {
            worker.q.lock().exited = true;
            return;
        }
        let next = {
            let mut q = worker.q.lock();
            let next = q.heap.pop();
            q.resumes += u64::from(next.is_some());
            next
        };
        match next {
            Some(std::cmp::Reverse((_, rank))) => {
                // SAFETY: `rank` is owned by this worker and suspended (fresh or
                // parked-then-woken; a woken rank's context was saved before its
                // owner — this thread — regained control, by pinning).
                unsafe { switch_context(shared.sched_ctx(me), *shared.task_ctx(rank)) };
            }
            None => {
                if worker.owned_done.load(Ordering::SeqCst) == worker.owned {
                    let mut q = worker.q.lock();
                    // Re-check under the lock: a wake cannot beat a finish (finished
                    // ranks never park), but a woken rank may have been pushed
                    // between the pop and here.
                    if q.heap.is_empty() {
                        q.exited = true;
                        return;
                    }
                    continue;
                }
                if shared.census_is_deadlocked(me) {
                    shared.diagnose_deadlock();
                }
                let mut q = worker.q.lock();
                if q.heap.is_empty() && !shared.abandon.load(Ordering::SeqCst) {
                    q.idle = true;
                    // Timed, with a per-worker offset so concurrent censuses don't
                    // lock-step: the census is re-run on every timeout, which makes
                    // deadlock detection eventually-certain without an untimed wait.
                    worker
                        .cv
                        .wait_for(&mut q, IDLE_WAIT + Duration::from_millis(me as u64));
                    q.idle = false;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn ownership_is_contiguous_and_covers_all_ranks() {
        for &(nprocs, nworkers) in &[(4usize, 2usize), (5, 2), (7, 3), (16, 4), (3, 8), (1, 1)] {
            let w = nworkers.min(nprocs);
            let owners: Vec<usize> = (0..nprocs).map(|r| owner_of(r, nprocs, w)).collect();
            // Non-decreasing (contiguous blocks), in range, and every worker owns at
            // least one rank when workers <= ranks.
            assert!(owners.windows(2).all(|p| p[0] <= p[1]), "{owners:?}");
            assert!(owners.iter().all(|&o| o < w));
            for worker in 0..w {
                assert!(owners.contains(&worker), "worker {worker} owns no rank");
            }
        }
    }

    /// A job whose every rank is "running": nothing on any heap, so a heap entry is a
    /// wake's doing.
    fn running_job(nprocs: usize, nworkers: usize) -> ParShared {
        let shared = ParShared::new(nprocs, nworkers);
        for worker in &shared.workers {
            worker.q.lock().heap.clear();
        }
        shared
    }

    /// Takes `rank` off its owner's heap if a wake put it there.
    fn claim(shared: &ParShared, rank: usize) -> bool {
        let mut q = shared.workers[shared.owner(rank)].q.lock();
        let before = q.heap.len();
        q.heap.retain(|entry| entry.0 .1 != rank);
        match before - q.heap.len() {
            0 => false,
            1 => true,
            n => panic!("rank {rank} was enqueued {n} times by one park"),
        }
    }

    /// Two object keys that share a bucket.
    fn colliding_keys() -> (WaitKey, WaitKey) {
        let a = WaitKey(8 << 10);
        let b = (1..)
            .map(|i| WaitKey((8 << 10) + 8 * i))
            .find(|k| k.bucket() == a.bucket())
            .expect("64 buckets");
        (a, b)
    }

    #[test]
    fn tokens_detect_wakes_between_check_and_park() {
        let shared = running_job(2, 2);
        let key = WaitKey::mailbox(0);
        let token = shared.wait_token(0, key);
        shared.wake(key); // bumps the seq: the token must no longer validate
        assert!(
            !shared.enlist(0, token, SimTime::ZERO),
            "a wake between token and park must invalidate it"
        );
        let chan = shared.channels.channel(key, 0);
        assert_eq!(
            chan.parked.load(Ordering::SeqCst),
            0,
            "a refused park leaves"
        );
        assert!(shared.enlist(0, shared.wait_token(0, key), SimTime::ZERO));
        shared.wake(key);
        assert!(claim(&shared, 0));
    }

    #[test]
    fn a_reused_key_neither_validates_a_stale_token_nor_loses_a_wake() {
        // Object channels are keyed by address and live as long as the job: a
        // communicator dropped in a recovery and another allocated where it was share
        // a key, and any two objects may share a bucket.
        let shared = running_job(4, 2);
        let (key, neighbour) = colliding_keys();
        // A token taken for the old object: the new object's first wake refuses it.
        let stale = shared.wait_token(0, key);
        shared.wake(key);
        assert!(!shared.enlist(0, stale, SimTime::ZERO));
        // A rank parked on the new object is found by the new object's wake...
        assert!(shared.enlist(0, shared.wait_token(0, key), SimTime::ZERO));
        // ...and by nothing else: the bucket's other key wakes only its own waiters,
        // on whichever lane they parked.
        assert!(shared.enlist(3, shared.wait_token(3, neighbour), SimTime::ZERO));
        shared.wake(neighbour);
        assert!(claim(&shared, 3) && !claim(&shared, 0));
        // The neighbour's wake shares the seq: it may refuse a park (a re-check),
        // never fake one.
        let token = shared.wait_token(1, key);
        shared.wake(neighbour);
        assert!(!shared.enlist(1, token, SimTime::ZERO));
        shared.wake(key);
        assert!(claim(&shared, 0));
        let q = shared.workers[0].q.lock();
        assert!(q.heap.is_empty() && q.wakes == 1);
    }

    #[test]
    fn wake_all_invalidates_every_token() {
        let shared = running_job(4, 2);
        let (spared, other) = colliding_keys();
        let tokens = [
            shared.wait_token(0, WaitKey::FAILURE_EVENTS),
            shared.wait_token(1, WaitKey::mailbox(1)),
            shared.wait_token(2, spared),
        ];
        assert!(shared.enlist(3, shared.wait_token(3, spared), SimTime::ZERO));
        assert!(shared.enlist(2, shared.wait_token(2, other), SimTime::ZERO));
        assert!(shared.enlist(0, shared.wait_token(0, WaitKey::mailbox(0)), SimTime::ZERO));
        shared.wake_all_except(spared);
        for (rank, token) in tokens.into_iter().enumerate() {
            assert!(!shared.enlist(rank, token, SimTime::ZERO));
        }
        assert!(claim(&shared, 0) && claim(&shared, 2));
        assert!(!claim(&shared, 3), "the spared key's waiters stay parked");
        shared.wake(spared);
        assert!(claim(&shared, 3));
    }

    // ----- eventcount stress: real threads, no fibers --------------------------------

    const ROUNDS: u64 = 100_000;

    /// A waker that serves every round alone.
    const EVERY: (u64, u64) = (0, 1);

    /// Spins until `cond` holds. A lost wake is a hang; the deadline turns it into a
    /// failure that names what was being waited for.
    fn spin_until(what: impl Fn() -> String, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(30);
        for spins in 0u64.. {
            if cond() {
                return;
            }
            // Busy first — the two sides must meet within nanoseconds for the race to
            // be a race — then polite: there are more threads than cores.
            if spins % 256 == 255 {
                assert!(Instant::now() < deadline, "gave up waiting for {}", what());
                std::thread::yield_now();
            }
            std::hint::spin_loop();
        }
    }

    /// One waiter/waker pair's shared condition: the round the waker has announced and
    /// the round the waiter has seen.
    #[derive(Default)]
    struct Rounds {
        announced: AtomicU64,
        seen: AtomicU64,
    }

    /// The blocking side of every operation: token, check, park — for [`ROUNDS`]
    /// rounds. Every park that validates must be handed to the owner's heap exactly
    /// once; returns how many did.
    fn wait_rounds(shared: &ParShared, rank: usize, key: WaitKey, rounds: &Rounds) -> u64 {
        let mut parks = 0;
        for round in 1..=ROUNDS {
            loop {
                let token = shared.wait_token(rank, key);
                if rounds.announced.load(Ordering::SeqCst) >= round {
                    break;
                }
                if shared.enlist(rank, token, SimTime::ZERO) {
                    parks += 1;
                    spin_until(
                        || format!("the wake of rank {rank} parked on {key:?} in round {round}"),
                        || claim(shared, rank),
                    );
                }
            }
            rounds.seen.store(round, Ordering::SeqCst);
        }
        parks
    }

    /// The publishing side: change the condition, then wake — in every round, or in
    /// every `of`-th when `of` wakers take turns.
    fn wake_rounds(rounds: &Rounds, (turn, of): (u64, u64), wake: impl Fn()) {
        for round in (1..=ROUNDS).filter(|round| round % of == turn) {
            spin_until(
                || format!("the waiter to see round {}", round - 1),
                || rounds.seen.load(Ordering::SeqCst) >= round - 1,
            );
            // Sweep the publication across the waiter's token-check-park sequence.
            for step in 0..round % 256 {
                std::hint::black_box(step);
            }
            rounds.announced.fetch_max(round, Ordering::SeqCst);
            wake();
        }
    }

    /// Nothing parked, nothing queued, and exactly one heap push per validated park.
    fn assert_settled(shared: &ParShared, parks: u64) {
        for chan in shared.channels.iter() {
            assert_eq!(chan.parked.load(Ordering::SeqCst), 0);
            assert!(chan.waiters.lock().is_empty());
        }
        let queues: Vec<_> = shared.workers.iter().map(|w| w.q.lock()).collect();
        assert!(queues.iter().all(|q| q.heap.is_empty()));
        assert_eq!(queues.iter().map(|q| q.wakes).sum::<u64>(), parks);
    }

    #[test]
    fn a_mailbox_channel_loses_no_wake_to_three_wakers_taking_turns() {
        let shared = running_job(4, 2);
        let key = WaitKey::mailbox(2);
        let rounds = Rounds::default();
        let parks = std::thread::scope(|scope| {
            for turn in 0..3 {
                let (shared, rounds) = (&shared, &rounds);
                scope.spawn(move || wake_rounds(rounds, (turn, 3), || shared.wake(key)));
            }
            wait_rounds(&shared, 2, key, &rounds)
        });
        assert_settled(&shared, parks);
    }

    #[test]
    fn two_keys_in_one_bucket_lose_no_wake_and_take_none_of_each_others() {
        let shared = running_job(4, 2);
        let (a, b) = colliding_keys();
        let (rounds_a, rounds_b) = (Rounds::default(), Rounds::default());
        // Ranks 0 and 1 share worker 0, so both waiters park on one lane's channel.
        let parks = std::thread::scope(|scope| {
            scope.spawn(|| wake_rounds(&rounds_a, EVERY, || shared.wake(a)));
            scope.spawn(|| wake_rounds(&rounds_b, EVERY, || shared.wake(b)));
            let on_b = scope.spawn(|| wait_rounds(&shared, 1, b, &rounds_b));
            wait_rounds(&shared, 0, a, &rounds_a) + on_b.join().expect("waiter on b")
        });
        assert_settled(&shared, parks);
    }

    #[test]
    fn wake_all_except_races_parks_on_the_spared_and_on_other_keys() {
        let shared = running_job(4, 2);
        let (spared, other) = colliding_keys();
        let mailbox = WaitKey::mailbox(3);
        // One broadcaster serves the mailbox and the object waiter; the spared key
        // needs a waker of its own, because no broadcast ever wakes it.
        let (bcast_mailbox, bcast_other, on_spared) =
            (Rounds::default(), Rounds::default(), Rounds::default());
        let parks = std::thread::scope(|scope| {
            scope.spawn(|| wake_rounds(&bcast_mailbox, EVERY, || shared.wake_all_except(spared)));
            scope.spawn(|| wake_rounds(&bcast_other, EVERY, || shared.wake_all_except(spared)));
            scope.spawn(|| wake_rounds(&on_spared, EVERY, || shared.wake(spared)));
            let a = scope.spawn(|| wait_rounds(&shared, 3, mailbox, &bcast_mailbox));
            let b = scope.spawn(|| wait_rounds(&shared, 1, other, &bcast_other));
            wait_rounds(&shared, 0, spared, &on_spared)
                + a.join().expect("mailbox waiter")
                + b.join().expect("object waiter")
        });
        assert_settled(&shared, parks);
    }
}
