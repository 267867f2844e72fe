//! The cooperative backend: all ranks of a job as fibers over a virtual-time run
//! queue in one OS thread.
//!
//! # How it works
//!
//! Every rank's program runs on its own [`fiber`](super::fiber) stack. The run queue
//! is a min-heap: the next rank to run is always the runnable rank with the **lowest
//! virtual clock** (ties broken by rank id, so the order — and with it memory
//! behaviour like mailbox depth — is fully deterministic). A fiber runs until its rank
//! either finishes or blocks in a simulated operation; a blocked operation *parks* the
//! fiber on a [`WaitKey`] channel. Either way the fiber pops the next rank itself and
//! switches straight into it; the scheduler loop, which owns the OS thread, runs only
//! to start the first rank and when no rank is runnable (the job is done, or
//! deadlocked).
//!
//! Wakeups are precise and event-driven:
//!
//! * a send wakes the destination's mailbox channel,
//! * a completed (or newly drained) collective round wakes the slot's channel,
//! * survivor-rendezvous progress wakes the rendezvous channel,
//! * a rank parking at the recovery rendezvous wakes the mailbox channels of the
//!   receivers waiting for it and the slot channels of its communicators,
//! * failure publication, the first global-disruption declaration of an epoch,
//!   revocation and abort wake **all** parked tasks but those already at the recovery
//!   rendezvous (via the [`JobWaker`] hook on the cluster state), so every blocked
//!   operation re-evaluates its deterministic abort predicate. These happen O(1) times
//!   per recovery, which keeps one recovery at N ranks at O(N) fiber resumes.
//!
//! Both backends run this one protocol; what is particular to `coop` is that
//! everything runs on one thread, so the check-then-park sequence is atomic by
//! construction: no condition can change between a task observing "not ready" and its
//! fiber being parked. Its wait channels are therefore plain waiter lists with no
//! atomics, its tokens carry nothing — the eventcount `par` parks on would only
//! re-derive what one thread has for free — and parking, waking and popping the run
//! queue take no lock.
//!
//! If the run queue empties while unfinished tasks remain parked (an application
//! deadlock — e.g. a receive nothing will ever send to), the scheduler panics with a
//! per-rank diagnosis instead of hanging.

use std::cell::UnsafeCell;
use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::ctx::RankCtx;
use crate::error::MpiError;
use crate::runtime::{ClusterConfig, RankOutcome};
use crate::state::ClusterState;
use crate::time::SimTime;

use super::channels::{ChannelTable, Waiter};
use super::fiber::{switch_context, Fiber};
use super::{JobWaker, SchedStats, WaitKey, Yielder};

/// Run-queue and wait-channel bookkeeping. Only the job's OS thread ever touches it —
/// the scheduler loop, its fibers, and the cluster state's [`JobWaker`] calls, which
/// rank programs make — so it lives in a plain cell (see [`CoopShared::queues`]), and
/// parking, waking and popping the run queue take no lock.
struct Queues {
    /// Min-heap of runnable ranks ordered by `(virtual clock bits, rank)` (IEEE-754
    /// bits of seconds; non-negative floats order identically to their bit patterns).
    runnable: BinaryHeap<std::cmp::Reverse<(u64, usize)>>,
    /// Parked ranks per wait channel: the table `par` uses, with one lane and plain
    /// lists — check-then-park is atomic on one thread, so there is no eventcount.
    waiting: ChannelTable<Vec<Waiter>>,
    finished: usize,
    stats: SchedStats,
}

impl Queues {
    /// Takes the runnable rank with the lowest virtual clock, counting its resume.
    fn pop_runnable(&mut self) -> Option<usize> {
        let next = self.runnable.pop();
        self.stats.resumes += u64::from(next.is_some());
        next.map(|std::cmp::Reverse((_, rank))| rank)
    }

    /// Makes the waiters `select` picks runnable: those of `only`'s channel, or of
    /// every channel.
    fn release(&mut self, only: Option<WaitKey>, select: impl Fn(WaitKey) -> bool) {
        let Queues {
            waiting,
            runnable,
            stats,
            ..
        } = self;
        let mut release = |chan: &mut Vec<Waiter>| {
            chan.retain(|w| {
                let woken = select(w.key);
                if woken {
                    runnable.push(std::cmp::Reverse((w.clock, w.rank)));
                    stats.wakes += 1;
                }
                !woken
            });
        };
        match only {
            Some(key) => release(waiting.channel_mut(key, 0)),
            None => waiting.iter_mut().for_each(release),
        }
    }
}

/// Shared state of one cooperative job: the queues plus the raw context slots used
/// for fiber switching (slot 0 is the scheduler, slot `1 + rank` is the rank's
/// fiber).
pub(crate) struct CoopShared {
    queues: UnsafeCell<Queues>,
    ctxs: Vec<UnsafeCell<usize>>,
    /// The job's OS thread, which alone may touch the cells (checked in debug builds).
    owner: std::thread::ThreadId,
}

// SAFETY: the UnsafeCell queues and context slots are only ever read or written by the
// single OS thread that runs the job (scheduler loop and all of its fibers). The handle
// stored in ClusterState is used through the `JobWaker` methods, which rank programs
// call on that same thread; `CoopShared::queues` asserts the thread in debug builds.
unsafe impl Send for CoopShared {}
// SAFETY: same single-thread discipline as the Send impl above — shared references
// only ever dereference the cells from the job's one OS thread.
unsafe impl Sync for CoopShared {}

impl CoopShared {
    fn new(nprocs: usize) -> CoopShared {
        let mut runnable = BinaryHeap::with_capacity(nprocs);
        for rank in 0..nprocs {
            runnable.push(std::cmp::Reverse((0, rank)));
        }
        CoopShared {
            queues: UnsafeCell::new(Queues {
                runnable,
                waiting: ChannelTable::new(nprocs, 1),
                finished: 0,
                stats: SchedStats::default(),
            }),
            ctxs: (0..nprocs + 1).map(|_| UnsafeCell::new(0)).collect(),
            owner: std::thread::current().id(),
        }
    }

    /// Runs `f` on the queues. Every access goes through here, and none nests in
    /// another or spans a fiber switch, so the exclusive borrow is the only one.
    fn queues<R>(&self, f: impl FnOnce(&mut Queues) -> R) -> R {
        debug_assert_eq!(
            std::thread::current().id(),
            self.owner,
            "a coop job's queues are touched only from its own thread"
        );
        // SAFETY: single-thread discipline (see the Send/Sync rationale): no other
        // thread reaches the cell, and on this thread `f` — which cannot call back
        // into the scheduler — holds the only borrow until it returns.
        f(unsafe { &mut *self.queues.get() })
    }

    /// The scheduler state of a cooperative job over `state`, installed as its waker.
    pub(crate) fn for_job(state: &ClusterState) -> Arc<CoopShared> {
        let shared = Arc::new(CoopShared::new(state.nprocs));
        state.set_job_waker(Arc::clone(&shared) as Arc<dyn JobWaker>);
        shared
    }

    fn sched_ctx(&self) -> *mut usize {
        self.ctxs[0].get()
    }

    fn task_ctx(&self, rank: usize) -> *mut usize {
        self.ctxs[rank + 1].get()
    }

    /// Where a fiber that stops running hands the thread: straight to the next
    /// runnable rank — the one the scheduler loop would pop — or, when nobody is
    /// runnable, back to the loop.
    fn successor(&self, next: Option<usize>) -> *mut usize {
        next.map_or_else(|| self.sched_ctx(), |rank| self.task_ctx(rank))
    }

    /// Parks the calling rank's fiber on `key` and switches to the next runnable rank
    /// (see [`CoopShared::successor`]). Returns when the rank is next resumed.
    pub(crate) fn park(&self, rank: usize, key: WaitKey, now: SimTime, suspended_before: bool) {
        let next = self.queues(|q| {
            let clock = now.as_secs().to_bits();
            q.waiting
                .channel_mut(key, 0)
                .push(Waiter { key, rank, clock });
            q.stats.parks += 1;
            q.stats.spurious_wakes += u64::from(suspended_before);
            q.pop_runnable()
        });
        // SAFETY: single-thread switch discipline (see CoopShared's Sync rationale);
        // the successor is the scheduler, suspended in its loop, or a runnable rank,
        // fresh or suspended in `park`.
        unsafe { switch_context(self.task_ctx(rank), *self.successor(next)) };
    }

    /// Makes every rank parked on `key` runnable.
    pub(crate) fn wake(&self, key: WaitKey) {
        self.queues(|q| q.release(Some(key), |k| k == key));
    }

    /// Marks the calling rank done and leaves its fiber for good.
    fn finish(&self, rank: usize) -> ! {
        let next = self.queues(|q| {
            q.finished += 1;
            q.pop_runnable()
        });
        loop {
            // SAFETY: as in `park`; nobody resumes a Done task, so the loop body runs
            // exactly once.
            unsafe { switch_context(self.task_ctx(rank), *self.successor(next)) };
        }
    }
}

impl JobWaker for CoopShared {
    fn wake_key(&self, key: WaitKey) {
        self.wake(key);
    }

    fn wake_all_except(&self, spared: WaitKey) {
        self.queues(|q| q.release(None, |k| k != spared));
    }
}

/// Everything one fiber needs, at a stable address for the fiber's whole lifetime.
struct RankJob<R, F> {
    rank: usize,
    state: Arc<ClusterState>,
    shared: Arc<CoopShared>,
    body: *const F,
    out: *mut Option<RankOutcome<R>>,
    panic_slot: *mut Option<Box<dyn std::any::Any + Send>>,
}

extern "C" fn fiber_main<R, F>(arg: *mut ()) -> !
where
    R: Send,
    F: Fn(&mut RankCtx) -> Result<R, MpiError> + Sync,
{
    // SAFETY: `arg` is the address of this fiber's RankJob, alive until the job ends.
    let job = unsafe { &*(arg as *const RankJob<R, F>) };
    let rank = job.rank;
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let yielder = Yielder::Coop(Arc::clone(&job.shared));
        let mut ctx = RankCtx::new(rank, Arc::clone(&job.state), yielder);
        // SAFETY: `body` outlives the scheduler loop (it is a reference held by the
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
        // it after this fiber is Done; slot `rank` is written by this fiber alone.
        Ok(o) => unsafe { *job.out = Some(o) },
        // SAFETY: as for `out` — `panic_slot` is this rank's private slot in a
        // vector that outlives every fiber of the job.
        Err(p) => unsafe { *job.panic_slot = Some(p) },
    }
    job.shared.finish(rank)
}

/// Runs one job on the cooperative backend: every rank a fiber over a virtual-time
/// run queue on the calling thread. Returns the outcomes ordered by rank, with the
/// scheduler's counters.
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
    let shared = CoopShared::for_job(&state);

    let mut outcomes: Vec<Option<RankOutcome<R>>> = (0..nprocs).map(|_| None).collect();
    let mut panics: Vec<Option<Box<dyn std::any::Any + Send>>> =
        (0..nprocs).map(|_| None).collect();

    let jobs: Vec<RankJob<R, F>> = (0..nprocs)
        .map(|rank| RankJob {
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
                job as *const RankJob<R, F> as *mut (),
            )
        })
        .collect();
    for (rank, fiber) in fibers.iter_mut().enumerate() {
        // SAFETY: installing each fiber's initial context into its switch slot;
        // nothing runs yet.
        unsafe { *shared.task_ctx(rank) = *fiber.context_slot() };
    }

    // The scheduler loop: resume the runnable rank with the lowest virtual clock.
    // Ranks hand the thread to each other while any is runnable, so a switch returns
    // here only when a rank parks or finishes with the run queue empty.
    loop {
        let next = shared.queues(Queues::pop_runnable);
        match next {
            Some(rank) => {
                // SAFETY: `rank` is suspended (fresh or parked-then-woken) and its
                // stack is alive; we run on the job's only thread.
                unsafe { switch_context(shared.sched_ctx(), *shared.task_ctx(rank)) };
            }
            None => {
                if shared.queues(|q| q.finished) == nprocs {
                    break;
                }
                let any_panic = panics.iter().any(Option::is_some);
                if any_panic {
                    // A rank died by panic; its peers may be parked on it forever.
                    // Abandon the job and propagate the panic below.
                    break;
                }
                let stuck: Vec<Waiter> =
                    shared.queues(|q| q.waiting.iter_mut().flat_map(|c| c.clone()).collect());
                panic!(
                    "cooperative scheduler deadlock: no runnable rank and {} unfinished \
                     task(s) parked [{}] — a cooperative rank program must only block \
                     through simulated operations",
                    stuck.len(),
                    Waiter::listing(stuck)
                );
            }
        }
    }

    if let Some(p) = panics.iter_mut().find_map(Option::take) {
        // Mirror `JoinHandle::join`'s panic propagation. Unfinished fibers are
        // abandoned: their stacks are unmapped without unwinding, which can leak
        // heap objects held by suspended frames — acceptable for a dying job.
        drop(fibers);
        std::panic::resume_unwind(p);
    }
    drop(fibers);
    let outcomes = outcomes
        .into_iter()
        .map(|o| o.expect("missing rank outcome"))
        .collect();
    let stats = shared.queues(|q| q.stats);
    (outcomes, stats)
}
