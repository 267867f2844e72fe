//! The thread backend: one OS thread per rank, parked on the shared eventcount.
//!
//! The portable reference implementation — what the fiber backends degrade to on
//! targets without the fiber runtime, and what the equivalence tests compare against.
//! A blocked operation runs the token → check → park loop it runs everywhere, over the
//! [`Eventcount`] `par` parks on, with one lane. Only the [`Drain`] differs: a wake
//! sets the woken rank's `woken` flag and unparks its thread, and a parked thread
//! loops on `thread::park` until that flag is set, so a spurious unpark never returns
//! while the rank is still listed. No timeouts, no polling.
//!
//! A rank that panics abandons the job: every parked rank is woken, a park on an
//! abandoned job unwinds its own thread, and after the join the first real panic is
//! re-raised, as on `coop` and `par`. There is no deadlock census: a rank program that
//! waits for a message nobody will send hangs here, where the fiber backends diagnose
//! it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;

use parking_lot::Mutex;

use crate::ctx::RankCtx;
use crate::error::MpiError;
use crate::runtime::{ClusterConfig, RankOutcome};
use crate::state::ClusterState;
use crate::time::SimTime;

use super::channels::{Drain, Eventcount, Waiter};
use super::{JobWaker, RankScheduler, SchedStats, WaitKey, WaitToken, Yielder};

/// One rank's thread, registered by its first park (before it is ever listed), and
/// the flag the drain that takes it off its list sets.
#[derive(Default)]
struct Parker {
    thread: OnceLock<Thread>,
    woken: AtomicBool,
}

/// The payload a park on an abandoned job unwinds its thread with.
struct Abandoned;

/// Shared state of one thread-backend job.
pub(crate) struct ThreadShared {
    pub(super) events: Eventcount,
    ranks: Vec<Parker>,
    /// Set when a rank panicked: parks unwind instead of waiting for peers that may
    /// never act again.
    abandoned: AtomicBool,
    /// Every rank thread's start counts as a resume, and so does every park that
    /// returns.
    stats: Mutex<SchedStats>,
}

impl ThreadShared {
    pub(crate) fn new(nprocs: usize) -> ThreadShared {
        ThreadShared {
            events: Eventcount::new(nprocs, 1),
            ranks: (0..nprocs).map(|_| Parker::default()).collect(),
            abandoned: AtomicBool::new(false),
            stats: Mutex::new(SchedStats {
                resumes: nprocs as u64,
                ..SchedStats::default()
            }),
        }
    }

    /// The scheduler state of a thread-backend job over `state`, installed as its
    /// waker.
    pub(crate) fn for_job(state: &ClusterState) -> Arc<ThreadShared> {
        let shared = Arc::new(ThreadShared::new(state.nprocs));
        state.set_job_waker(Arc::clone(&shared) as Arc<dyn JobWaker>);
        shared
    }

    /// Parks the calling thread, as `rank`, on the token's channel until a wake takes
    /// it off (returns `true`) — unless the token no longer validates, in which case
    /// this returns `false` at once. On an abandoned job, unwinds the calling thread
    /// with a payload the scheduler discards.
    pub(crate) fn park(
        &self,
        rank: usize,
        token: WaitToken,
        now: SimTime,
        suspended_before: bool,
    ) -> bool {
        let me = &self.ranks[rank];
        me.thread.get_or_init(std::thread::current);
        if !self.events.enlist(rank, 0, token, now) {
            return false;
        }
        {
            let mut stats = self.stats.lock();
            stats.parks += 1;
            stats.spurious_wakes += u64::from(suspended_before);
        }
        while !me.woken.swap(false, Ordering::Acquire) {
            // Abandonment drains every channel after setting the flag, so a rank
            // listed before it is woken and one listed after it sees it here.
            if self.abandoned.load(Ordering::SeqCst) {
                std::panic::resume_unwind(Box::new(Abandoned));
            }
            std::thread::park();
        }
        self.stats.lock().resumes += 1;
        true
    }

    /// Wakes every rank parked on `key`.
    pub(crate) fn wake(&self, key: WaitKey) {
        self.events.wake(key, self);
    }

    /// Flags the job abandoned and wakes every parked rank, so that each one's next
    /// park unwinds.
    pub(crate) fn abandon(&self) {
        self.abandoned.store(true, Ordering::SeqCst);
        self.events.wake_all(None, self);
    }

    pub(crate) fn sched_stats(&self) -> SchedStats {
        *self.stats.lock()
    }
}

impl Drain for ThreadShared {
    fn lane(&self, _rank: usize) -> usize {
        0
    }

    fn deliver(&self, _lane: usize, take: impl FnOnce(&mut dyn FnMut(Waiter))) {
        take(&mut |waiter| {
            let rank = &self.ranks[waiter.rank];
            self.stats.lock().wakes += 1;
            rank.woken.store(true, Ordering::Release);
            (rank.thread.get())
                .expect("a rank registers its thread before it is listed")
                .unpark();
        });
    }
}

impl JobWaker for ThreadShared {
    fn wake_key(&self, key: WaitKey) {
        self.wake(key);
    }

    fn wake_all_except(&self, spared: WaitKey) {
        self.events.wake_all(Some(spared), self);
    }
}

/// The thread-per-rank backend, the portable reference (see the
/// [module docs](super)).
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadScheduler;

impl RankScheduler for ThreadScheduler {
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
        let nprocs = state.nprocs;
        let shared = ThreadShared::for_job(&state);
        let joined: Vec<std::thread::Result<RankOutcome<R>>> = std::thread::scope(|scope| {
            let spawn = |rank: usize| {
                let (state, job) = (Arc::clone(&state), Arc::clone(&shared));
                let builder = std::thread::Builder::new()
                    .name(format!("rank-{rank}"))
                    .stack_size(config.stack_size);
                let spawned = builder.spawn_scoped(scope, move || {
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let mut ctx = RankCtx::new(rank, state, Yielder::Threads(job.clone()));
                        let result = body(&mut ctx);
                        RankOutcome {
                            rank,
                            result,
                            finish_time: ctx.now(),
                            breakdown: *ctx.breakdown(),
                            stats: *ctx.stats(),
                        }
                    }));
                    if outcome.is_err() {
                        // A dead rank may leave peers parked on it forever.
                        job.abandon();
                    }
                    outcome
                });
                spawned.unwrap_or_else(|error| {
                    // The host ran out of threads mid-job: the ranks already spawned
                    // must not wait forever for peers that will never exist.
                    shared.abandon();
                    panic!("failed to spawn rank thread for a {nprocs}-rank job: {error}")
                })
            };
            let handles: Vec<_> = (0..nprocs).map(spawn).collect();
            (handles.into_iter())
                .map(|h| h.join().unwrap_or_else(Err))
                .collect()
        });
        let mut outcomes = Vec::with_capacity(nprocs);
        for outcome in joined {
            match outcome {
                Ok(o) => outcomes.push(o),
                // Mirror `coop`/`par`: the lowest rank's own panic, not the unwinds
                // it caused.
                Err(p) if !p.is::<Abandoned>() => std::panic::resume_unwind(p),
                Err(_) => {}
            }
        }
        (outcomes, shared.sched_stats())
    }
}
