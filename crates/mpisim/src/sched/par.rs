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
//! never *what it computes* — the backend-equivalence suite holds `par` at 1, 2, 4
//! and 8 workers to `coop`'s single-threaded schedule bit for bit. What a
//! multi-worker scheduler must guarantee is the blocking semantics: no lost wakeups,
//! panics propagated, deadlocks diagnosed. It does **not** need to emulate the
//! single-threaded pop order across blocks, so workers run their blocks freely and
//! only synchronise at communication edges.
//!
//! A job whose worker count resolves to **one** never gets here: one block owning
//! every rank is the `coop` scheduler by definition, so `run_job` hands such a job to
//! `coop`'s loop on the calling thread. Everything below describes jobs with at least
//! two workers.
//!
//! # Token-validated parks (no lost wakeups)
//!
//! On one thread, `coop`'s check-then-park is atomic by construction. Across workers
//! it is not, so `par` parks on the job's [`Eventcount`](super::channels) — the
//! token-validated wait channels whose module docs give the pairing argument — with
//! one lane per worker. A wake hands a lane's woken waiters to
//! [`ParShared::deliver`], which pushes them onto the heap of the worker that owns
//! the lane, under one queue lock per batch.
//!
//! # Deadlock diagnosis
//!
//! If every worker is simultaneously quiet (heap empty, idle or exited) while
//! unfinished ranks remain parked, nothing can ever wake them — all wakeups originate
//! from running fibers — and the job is deadlocked. Idle workers re-run this census
//! each time their short timed wait expires; the worker that observes it panics with a
//! per-rank diagnosis (mirroring `coop`) after flagging the job abandoned so its
//! peers exit and the panic can propagate instead of hanging the join.

#![allow(unsafe_code, reason = "audited boundary: fibers moved across workers")]

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

use super::channels::{Eventcount, Waiter};
use super::fiber::{switch_context, Fiber};
use super::{JobWaker, SchedStats, WaitKey, WaitToken, Yielder};

/// How long an idle worker sleeps before re-running the deadlock census. Workers add
/// a per-worker offset so their censuses don't lock-step.
const IDLE_WAIT: Duration = Duration::from_millis(5);

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
    events: Eventcount,
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
            events: Eventcount::new(nprocs, nworkers),
            abandon: AtomicBool::new(false),
            finished: AtomicUsize::new(0),
            ctxs: (0..nworkers + nprocs)
                .map(|_| std::cell::UnsafeCell::new(0))
                .collect(),
        }
    }

    /// The worker that owns `rank`: the one that runs its fiber, and whose lane of
    /// every object channel it parks on.
    pub(super) fn owner(&self, rank: usize) -> usize {
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
    pub(crate) fn wait_token(&self, rank: usize, key: WaitKey) -> WaitToken {
        self.events.wait_token(key, self.owner(rank))
    }

    /// Parks the calling rank's fiber on the token's channel and switches to its
    /// worker's scheduler (returns `true` once resumed) — unless the token no longer
    /// validates, in which case this returns `false` immediately.
    pub(crate) fn park(
        &self,
        rank: usize,
        token: WaitToken,
        now: SimTime,
        suspended_before: bool,
    ) -> bool {
        if !self.events.enlist(rank, self.owner(rank), token, now) {
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
        unsafe { switch_context(self.task_ctx(rank), *self.sched_ctx(self.owner(rank))) };
    }

    /// Wakes every rank parked on `key`, invalidating in-flight tokens first.
    pub(crate) fn wake(&self, key: WaitKey) {
        self.events.wake(key, self);
    }

    /// Makes every waiter `take` hands over — all listed on `lane` — runnable again:
    /// pushes them onto the heap of the lane's worker (every waiter of one channel
    /// lane has that owner) under one queue lock. Runs under the channel's list lock,
    /// so a listed waiter is handed over exactly once. Lock order list → queue;
    /// nothing takes them the other way round.
    pub(super) fn deliver(&self, lane: usize, take: impl FnOnce(&mut dyn FnMut(Waiter))) {
        let worker = &self.workers[lane];
        let mut q = worker.q.lock();
        let mut woken = 0;
        take(&mut |w| {
            q.heap.push(std::cmp::Reverse((w.clock, w.rank)));
            woken += 1;
        });
        q.wakes += woken;
        let notify = q.idle && woken > 0;
        drop(q);
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
            unsafe { switch_context(self.task_ctx(rank), *self.sched_ctx(worker)) };
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
        let stuck = self.events.listed();
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
        self.events.wake_all(Some(spared), self);
    }
}

/// Everything one fiber needs, at a stable address for the fiber's whole lifetime.
struct ParRankJob<R, F> {
    rank: usize,
    state: Arc<ClusterState>,
    shared: Arc<ParShared>,
    body: *const F,
    out: *mut Option<RankOutcome<R>>,
    panic_slot: *mut Option<Box<dyn std::any::Any + Send>>,
}

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
        let yielder = Yielder::Par(Arc::clone(&job.shared));
        let mut ctx = RankCtx::new(rank, Arc::clone(&job.state), yielder);
        // SAFETY: `body` outlives the worker loops (it is a reference held by the
        // caller of run_job); fibers never outlive that call.
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
        // SAFETY: `out` points into a vector owned by run_job, which only reads
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

/// Runs one job on the parallel backend (see the module docs); a job resolved to one
/// worker runs on `coop`'s loop instead. Returns the outcomes ordered by rank, with
/// the scheduler's counters.
pub(crate) fn run_job<R, F>(
    config: &ClusterConfig,
    state: Arc<ClusterState>,
    body: &F,
) -> (Vec<RankOutcome<R>>, SchedStats)
where
    R: Send,
    F: Fn(&mut RankCtx) -> Result<R, MpiError> + Sync,
{
    let nprocs = state.nprocs;
    let nworkers = super::resolve_workers(config.workers).min(nprocs).max(1);
    if nworkers == 1 {
        // par(1) *is* coop: one worker owns every rank, so the sharded machinery (a
        // spawned thread, token-validated parks, atomics on every channel) would only
        // re-derive what the single-threaded loop has by construction.
        return super::coop::run_job(config, state, body);
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
        // Mirror `JoinHandle::join`'s panic propagation. Unfinished fibers are
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
fn worker_loop(shared: &ParShared, me: usize) {
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
pub(crate) mod tests {
    use super::super::channels::tests::{assert_settled, colliding_keys, spin_until};
    use super::*;

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
    pub(crate) fn running_job(nprocs: usize, nworkers: usize) -> ParShared {
        let shared = ParShared::new(nprocs, nworkers);
        for worker in &shared.workers {
            worker.q.lock().heap.clear();
        }
        shared
    }

    /// Lists `rank` on its owner's lane, as its park would.
    fn enlist(shared: &ParShared, rank: usize, token: WaitToken) -> bool {
        (shared.events).enlist(rank, shared.owner(rank), token, SimTime::ZERO)
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

    /// `par`'s park without fibers: a validated park waits until its wake has put the
    /// rank on its owner's heap, and takes it off again; `false` if the token no
    /// longer validates.
    pub(crate) fn park_until_woken(shared: &ParShared, rank: usize, token: WaitToken) -> bool {
        if !enlist(shared, rank, token) {
            return false;
        }
        spin_until(
            || format!("the wake of rank {rank} parked on {:?}", token.key),
            || claim(shared, rank),
        );
        true
    }

    /// Nothing parked, nothing queued, and exactly one delivery per validated park.
    pub(crate) fn assert_delivered(shared: &ParShared, parks: u64) {
        assert_settled(&shared.events);
        let delivered: u64 = shared.workers.iter().map(|w| w.q.lock().wakes).sum();
        assert_eq!(delivered, parks);
    }

    #[test]
    fn tokens_detect_wakes_between_check_and_park() {
        let shared = running_job(2, 2);
        let key = WaitKey::mailbox(0);
        let token = shared.wait_token(0, key);
        shared.wake(key); // bumps the seq: the token must no longer validate
        assert!(
            !enlist(&shared, 0, token),
            "a wake between token and park must invalidate it"
        );
        assert_settled(&shared.events); // a refused park leaves
        assert!(enlist(&shared, 0, shared.wait_token(0, key)));
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
        assert!(!enlist(&shared, 0, stale));
        // A rank parked on the new object is found by the new object's wake...
        assert!(enlist(&shared, 0, shared.wait_token(0, key)));
        // ...and by nothing else: the bucket's other key wakes only its own waiters,
        // on whichever lane they parked.
        assert!(enlist(&shared, 3, shared.wait_token(3, neighbour)));
        shared.wake(neighbour);
        assert!(claim(&shared, 3) && !claim(&shared, 0));
        // The neighbour's wake shares the seq: it may refuse a park (a re-check),
        // never fake one.
        let token = shared.wait_token(1, key);
        shared.wake(neighbour);
        assert!(!enlist(&shared, 1, token));
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
        assert!(enlist(&shared, 3, shared.wait_token(3, spared)));
        assert!(enlist(&shared, 2, shared.wait_token(2, other)));
        assert!(enlist(
            &shared,
            0,
            shared.wait_token(0, WaitKey::mailbox(0))
        ));
        shared.wake_all_except(spared);
        for (rank, token) in tokens.into_iter().enumerate() {
            assert!(!enlist(&shared, rank, token));
        }
        assert!(claim(&shared, 0) && claim(&shared, 2));
        assert!(!claim(&shared, 3), "the spared key's waiters stay parked");
        shared.wake(spared);
        assert!(claim(&shared, 3));
    }
}
