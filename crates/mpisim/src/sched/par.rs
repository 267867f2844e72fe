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
//! find nobody parked and be lost. The classic fix is an eventcount, and that is what
//! [`WaitToken`] implements: before checking its condition the rank snapshots the wait
//! channel's sequence number and the cluster-wide wake epoch; the park then
//! re-validates both under the channel registry's shard lock and returns *without
//! suspending* if either moved. Wakes bump the sequence (or, for cluster-wide
//! transitions, the epoch) before draining waiters, so the raced wake always either
//! finds the parked rank or invalidates its token. A channel's sequence starts at a
//! value no other channel incarnation ever had, so the registry may forget an idle
//! channel at any time: a token issued before the forgetting cannot validate against
//! the channel's next incarnation.
//!
//! # Virtual-time watermarks
//!
//! Every worker publishes the virtual clock of the rank it is currently running (or
//! `u64::MAX` while its heap is empty) as an atomic **watermark**; cross-worker
//! wakeups lower the target's watermark to the woken rank's clock before it is
//! enqueued. The watermarks make the sharded schedule observable — `match-bench`
//! reports skew, and the deadlock census uses the all-idle condition — and they
//! optionally *pace* it: setting `MATCH_HORIZON` (simulated seconds) stops a worker
//! from running more than that far ahead of the slowest non-idle worker, bounding
//! mailbox growth on pathological workloads. The gate is off by default because it is
//! never needed for correctness (see above); parked ranks are deliberately excluded
//! from watermarks, since gating on a rank that cannot run until its gated peer
//! progresses would deadlock.
//!
//! # Deadlock diagnosis
//!
//! If every worker is simultaneously quiet (heap empty, idle or exited) while
//! unfinished ranks remain parked, nothing can ever wake them — all wakeups originate
//! from running fibers — and the job is deadlocked. Idle workers re-run this census
//! each time their short timed wait expires; the worker that observes it panics with a
//! per-rank diagnosis (mirroring `coop`) after flagging the job abandoned so its
//! peers exit and the panic can propagate instead of hanging the join.

use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::ctx::RankCtx;
use crate::error::MpiError;
use crate::runtime::{ClusterConfig, RankOutcome};
use crate::state::ClusterState;
use crate::time::SimTime;

use super::{JobWaker, RankScheduler, SchedStats, WaitKey, WaitToken};

/// Shard count of the wait-channel registry (power of two; keys are spread with a
/// 64-bit mix so address-derived keys don't collide into one shard).
const REGISTRY_SHARDS: usize = 64;

/// How long an idle worker sleeps before re-running the deadlock census. Workers add
/// a per-worker offset so their censuses don't lock-step.
const IDLE_WAIT: Duration = Duration::from_millis(5);

/// One wait channel: its eventcount sequence plus the parked ranks (with the clock
/// bits that order them in their owner's heap on wakeup).
struct WaitChannel {
    seq: u64,
    waiting: Vec<(usize, u64)>,
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

/// Per-worker shared state.
struct Worker {
    q: Mutex<WorkerQ>,
    cv: Condvar,
    /// Virtual clock bits of the rank the worker is running (`u64::MAX` while its
    /// heap is empty), lowered by incoming wakeups. Pacing/diagnostics only — a pop's
    /// `store` can race a concurrent `fetch_min` and transiently overestimate, which
    /// is harmless because nothing correctness-critical gates on it.
    watermark: AtomicU64,
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
    /// The wait-channel registry, sharded to keep cross-block wakeups from
    /// serialising on one lock.
    shards: Vec<Mutex<HashMap<usize, WaitChannel>>>,
    /// Cluster-wide wake epoch: bumped by `wake_all_except` *before* draining the
    /// shards, so a token issued before the bump can never park after it.
    epoch: AtomicU64,
    /// Source of initial channel sequence numbers, spaced so that no two channel
    /// incarnations ever share a sequence value (see the module docs).
    next_seq_base: AtomicU64,
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
// — cross-worker wakeups go through the mutex-guarded registry and heaps, never the
// context slots). Initial slot installation on the spawning thread happens-before the
// workers start.
unsafe impl Send for ParShared {}
// SAFETY: same pinned-owner discipline as the Send impl above — shared references
// only dereference a context slot from the one worker thread that owns it.
unsafe impl Sync for ParShared {}

impl ParShared {
    fn new(nprocs: usize, nworkers: usize) -> ParShared {
        let workers = (0..nworkers)
            .map(|w| {
                let owned = (0..nprocs)
                    .filter(|&r| owner_of(r, nprocs, nworkers) == w)
                    .count();
                let mut heap = BinaryHeap::with_capacity(owned);
                for rank in 0..nprocs {
                    if owner_of(rank, nprocs, nworkers) == w {
                        heap.push(std::cmp::Reverse((0, rank)));
                    }
                }
                Worker {
                    q: Mutex::new(WorkerQ {
                        heap,
                        idle: false,
                        exited: false,
                        resumes: 0,
                        wakes: 0,
                    }),
                    cv: Condvar::new(),
                    watermark: AtomicU64::new(0),
                    owned_done: AtomicUsize::new(0),
                    owned,
                    parks: AtomicU64::new(0),
                    spurious_wakes: AtomicU64::new(0),
                }
            })
            .collect();
        ParShared {
            nprocs,
            nworkers,
            workers,
            shards: (0..REGISTRY_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            epoch: AtomicU64::new(0),
            next_seq_base: AtomicU64::new(0),
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

    fn shard_of(&self, key: WaitKey) -> &Mutex<HashMap<usize, WaitChannel>> {
        // splitmix64 finalizer: spreads address-derived keys (8-aligned, shared high
        // bits) uniformly over the shards.
        let mut h = key.0 as u64;
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        &self.shards[(h as usize) & (REGISTRY_SHARDS - 1)]
    }

    /// A fresh channel. Its sequence starts 2^32 above the previous incarnation's
    /// start: no channel is woken that often between two epoch ends.
    fn new_channel(&self) -> WaitChannel {
        WaitChannel {
            seq: self.next_seq_base.fetch_add(1 << 32, Ordering::Relaxed),
            waiting: Vec::new(),
        }
    }

    /// Snapshots `key`'s eventcount; must precede the caller's condition check.
    fn wait_token(&self, key: WaitKey) -> WaitToken {
        let epoch = self.epoch.load(Ordering::SeqCst);
        let seq = self
            .shard_of(key)
            .lock()
            .entry(key.0)
            .or_insert_with(|| self.new_channel())
            .seq;
        WaitToken { key, epoch, seq }
    }

    /// Parks the calling rank's fiber on the token's channel and switches to its
    /// worker's scheduler (returns `true` once resumed) — unless the token no longer
    /// validates, in which case a wake raced the caller's condition check and this
    /// returns `false` immediately.
    fn park(&self, rank: usize, token: WaitToken, now: SimTime, suspended_before: bool) -> bool {
        {
            let mut shard = self.shard_of(token.key).lock();
            let chan = shard
                .entry(token.key.0)
                .or_insert_with(|| self.new_channel());
            if chan.seq != token.seq || self.epoch.load(Ordering::SeqCst) != token.epoch {
                return false;
            }
            chan.waiting.push((rank, now.as_secs().to_bits()));
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
        let woken = {
            let mut shard = self.shard_of(key).lock();
            match shard.get_mut(&key.0) {
                // No entry means no token of the channel's current incarnation was
                // issued, so no rank can be mid-park on it: a later token is read
                // before its condition check, which will observe the state change
                // this wake announces, and an earlier one cannot validate anymore.
                None => return,
                Some(chan) => {
                    chan.seq += 1;
                    std::mem::take(&mut chan.waiting)
                }
            }
        };
        for (rank, clock) in woken {
            self.make_runnable(rank, clock);
        }
    }

    /// Pushes a woken rank onto its owner's heap (lowering the owner's watermark
    /// first, so pacing and the census see it before it is popped).
    fn make_runnable(&self, rank: usize, clock: u64) {
        let worker = &self.workers[self.owner(rank)];
        worker.watermark.fetch_min(clock, Ordering::SeqCst);
        let notify = {
            let mut q = worker.q.lock();
            q.heap.push(std::cmp::Reverse((clock, rank)));
            q.wakes += 1;
            q.idle
        };
        if notify {
            worker.cv.notify_all();
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
        let mut stuck: Vec<(usize, WaitKey)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock();
            for (key, chan) in shard.iter() {
                for &(rank, _) in &chan.waiting {
                    stuck.push((rank, WaitKey(*key)));
                }
            }
        }
        stuck.sort_by_key(|&(rank, _)| rank);
        let listing: Vec<String> = stuck
            .iter()
            .map(|(rank, key)| format!("rank {rank} on {key:?}"))
            .collect();
        panic!(
            "parallel scheduler deadlock: no runnable rank on any of {} worker(s) and {} \
             unfinished task(s) parked [{}] — a rank program must only block through \
             simulated operations",
            self.nworkers,
            stuck.len(),
            listing.join(", ")
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
        // Epoch first: a token read before this line can no longer park after it,
        // closing the race with ranks mid-way between condition check and park. That
        // also turns away a rank about to park on the spared channel, which merely
        // re-checks its condition.
        self.epoch.fetch_add(1, Ordering::SeqCst);
        let mut woken: Vec<(usize, u64)> = Vec::new();
        for shard in &self.shards {
            let mut shard = shard.lock();
            for (_, chan) in shard.iter_mut().filter(|(key, _)| **key != spared.0) {
                chan.seq += 1;
                woken.append(&mut chan.waiting);
            }
        }
        for (rank, clock) in woken {
            self.make_runnable(rank, clock);
        }
    }

    fn forget_idle_channels(&self) {
        for shard in &self.shards {
            shard.lock().retain(|_, chan| !chan.waiting.is_empty());
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
        self.shared.wait_token(key)
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

/// Reads the optional `MATCH_HORIZON` pacing bound (simulated seconds).
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn horizon_from_env() -> Option<f64> {
    let s = std::env::var(super::HORIZON_ENV_VAR).ok()?;
    match s.trim().parse::<f64>() {
        Ok(h) if h.is_finite() && h >= 0.0 => Some(h),
        _ => {
            eprintln!(
                "warning: {}='{s}' is not a non-negative horizon in seconds; ignoring",
                super::HORIZON_ENV_VAR
            );
            None
        }
    }
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
        // spawned thread, token-validated parks, the channel registry's locks) would
        // only re-derive what the single-threaded loop has by construction.
        return super::coop::run_fibers(config, state, body);
    }
    let horizon = horizon_from_env();
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
                .spawn_scoped(scope, move || worker_loop(&shared, w, horizon))
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

/// One worker's scheduler loop: pop the lowest-clock owned rank, publish its clock as
/// the watermark, optionally pace against the slowest peer, switch into the fiber;
/// when the heap is empty, exit if all owned ranks finished, otherwise census and
/// idle-wait.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn worker_loop(shared: &ParShared, me: usize, horizon: Option<f64>) {
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
            Some(std::cmp::Reverse((clock, rank))) => {
                worker.watermark.store(clock, Ordering::SeqCst);
                if let Some(h) = horizon {
                    pace(shared, me, clock, h);
                }
                // SAFETY: `rank` is owned by this worker and suspended (fresh or
                // parked-then-woken; a woken rank's context was saved before its
                // owner — this thread — regained control, by pinning).
                unsafe { switch_context(shared.sched_ctx(me), *shared.task_ctx(rank)) };
            }
            None => {
                worker.watermark.store(u64::MAX, Ordering::SeqCst);
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

/// The optional pacing gate: spin (yielding) while this worker's next rank is more
/// than `horizon` simulated seconds ahead of the slowest *non-idle* peer. Idle peers
/// publish `u64::MAX` and exert no back-pressure — their parked ranks cannot run
/// until someone (possibly this worker) progresses, so gating on them would deadlock.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn pace(shared: &ParShared, me: usize, clock: u64, horizon: f64) {
    let mine = f64::from_bits(clock);
    loop {
        if shared.abandon.load(Ordering::SeqCst) {
            return;
        }
        let min_other = shared
            .workers
            .iter()
            .enumerate()
            .filter(|&(w, _)| w != me)
            .map(|(_, ws)| ws.watermark.load(Ordering::SeqCst))
            .filter(|&bits| bits != u64::MAX)
            .map(f64::from_bits)
            .fold(f64::INFINITY, f64::min);
        if mine <= min_other + horizon {
            return;
        }
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
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

    #[test]
    fn tokens_detect_wakes_between_check_and_park() {
        let shared = ParShared::new(2, 2);
        let key = WaitKey::mailbox(0);
        let token = shared.wait_token(key);
        shared.wake(key); // bumps the seq: the token must no longer validate
        assert!(
            !shared.park(0, token, SimTime::ZERO, false),
            "a wake between token and park must invalidate it"
        );
    }

    #[test]
    fn forgotten_channels_cannot_validate_old_tokens() {
        // An epoch end forgets idle channels. A token of the forgotten incarnation
        // must not validate against the next one — otherwise the wake that found no
        // entry (and did nothing) would be lost.
        let shared = ParShared::new(2, 2);
        let key = WaitKey::mailbox(0);
        let token = shared.wait_token(key);
        shared.forget_idle_channels();
        assert!(shared.shard_of(key).lock().is_empty());
        shared.wake(key);
        assert!(!shared.park(0, token, SimTime::ZERO, false));
    }

    #[test]
    fn wake_all_invalidates_every_token() {
        let shared = ParShared::new(2, 2);
        let a = shared.wait_token(WaitKey::FAILURE_EVENTS);
        let b = shared.wait_token(WaitKey::mailbox(1));
        shared.wake_all_except(WaitKey::mailbox(0));
        let epoch = shared.epoch.load(Ordering::SeqCst);
        assert_ne!(epoch, a.epoch);
        assert_ne!(epoch, b.epoch);
    }
}
