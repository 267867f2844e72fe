//! Scheduler backends: how simulated ranks are mapped onto host execution.
//!
//! A simulated job is `nprocs` rank programs that block on each other through
//! simulated MPI operations. *How* those programs are interleaved on the host is a
//! backend decision with no observable effect on results: since every run is a pure
//! function of virtual time (failure detection, message deliver-vs-abort decisions and
//! collective completion are all resolved by virtual-time rules, never by host
//! timing), any schedule that respects the blocking semantics produces bit-identical
//! [`RunOutcome`](crate::RunOutcome)s. That property is the contract of the
//! [`RankScheduler`] trait, and the backend-equivalence test suite enforces it.
//!
//! Three backends implement the trait:
//!
//! * [`ThreadScheduler`] (**`threads`**) — one OS thread per rank, true host
//!   parallelism, blocking implemented with condition variables plus explicit
//!   failure-transition wakeups. The portable reference implementation — what the
//!   fiber backends degrade to on targets without the fiber runtime and what the
//!   equivalence tests compare against — and the slow one: on the 2-core host of
//!   `benchmark/baseline.json` the 64-rank HPCCG cell costs 41 ms on it
//!   (`mpisim.cell_ms.threads`) against 4.9 ms on `coop`, and the gap widens with
//!   the rank count until the host runs out of threads around 2k ranks.
//!   `benchmark/README.md` says how these rows are measured.
//! * [`CoopScheduler`] (**`coop`**) — all ranks of a job multiplexed as stackful
//!   fibers over **one** OS thread, driven by a virtual-time run queue: the scheduler
//!   always resumes the runnable rank with the lowest virtual clock, and a blocked
//!   receive/collective/rendezvous parks its fiber on a wait channel until the event
//!   it needs (message arrival, round completion, failure publication) wakes it. No
//!   mailbox polling, no condition variables and no fallback heartbeats exist on this
//!   path, which removes the per-rank host-thread cost entirely and lifts the
//!   practical rank ceiling from hundreds to tens of thousands.
//! * [`ParScheduler`] (**`par`**) — the multi-core variant of `coop`: the virtual-time
//!   run queue is sharded over `MATCH_WORKERS` worker threads with deterministic
//!   contiguous rank-block ownership, each worker driving its own `(clock, rank)`
//!   min-heap of pinned fibers, with token-validated park/wake channels (lock-free
//!   eventcounts) at every communication edge. **The default backend.** A `par` job
//!   whose worker count resolves to one *is* a `coop` job: it runs
//!   [`CoopScheduler`]'s loop inline on the calling thread, with no worker thread
//!   spawned and no atomic on any wait channel.
//!
//! # When `par` gets more than one worker
//!
//! The worker count of a `par` job is the first of: an explicit
//! [`ClusterConfig::workers`](crate::ClusterConfig), the `MATCH_WORKERS`
//! environment variable, the per-job share the suite engine published
//! ([`set_default_par_workers`]: `max(1, MATCH_CORES / MATCH_JOBS)`), and the host's
//! available parallelism — capped at the rank count. Under the engine's defaults
//! (`jobs` = `cores` = the host's parallelism) every cell therefore gets one worker
//! and cells run side by side, one per core: job-level parallelism carries a sweep.
//! A job gets several workers when there are fewer concurrent jobs than cores — an
//! engine with `--jobs 1` (one wide cell at a time gets the whole budget), a
//! `Cluster` run outside any engine, or an explicit `--workers` / `MATCH_WORKERS`.
//!
//! The fiber backends count what they do — [`SchedStats`] on every
//! [`RunOutcome`](crate::RunOutcome) — so that the host cost of a job can be asserted
//! on counts (one recovery at N ranks resumes O(N) fibers), not on wall-clock.
//!
//! The backend is selected per job through
//! [`ClusterConfig::backend`](crate::ClusterConfig) (defaulting to the
//! `MATCH_BACKEND` environment variable, then to `par`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Once};

use crate::ctx::RankCtx;
use crate::error::MpiError;
use crate::runtime::{ClusterConfig, RankOutcome};
use crate::state::ClusterState;
use crate::time::SimTime;

pub(crate) mod channels;
pub(crate) mod coop;
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub(crate) mod fiber;
pub(crate) mod par;

pub use coop::CoopScheduler;
pub use par::ParScheduler;

/// Whether the cooperative backend's fiber runtime is available on this target
/// (Linux on x86-64 or AArch64). Elsewhere [`CoopScheduler`] degrades to the thread
/// backend — results are bit-identical either way, only the scaling differs.
pub const COOP_SUPPORTED: bool = cfg!(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
));

/// Environment variable selecting the default scheduler backend (`threads`, `coop` or
/// `par`).
pub const BACKEND_ENV_VAR: &str = "MATCH_BACKEND";

/// Environment variable selecting the default worker-thread count of the `par`
/// backend. Explicit [`ClusterConfig::workers`](crate::ClusterConfig) settings win
/// over it; when neither is set, the process-wide default published by the suite
/// engine's core-budget arithmetic (see [`set_default_par_workers`]) applies, and
/// failing that the host's available parallelism.
pub const WORKERS_ENV_VAR: &str = "MATCH_WORKERS";

/// Process-wide default `par` worker count published by the suite engine (0 = unset).
static DEFAULT_PAR_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Publishes a process-wide default worker count for `par` jobs whose configuration
/// does not pin one explicitly. The suite engine calls this with its core-budget
/// arithmetic (`MATCH_CORES / MATCH_JOBS`) so that concurrently running experiments
/// do not oversubscribe the host; the `MATCH_WORKERS` environment variable still
/// overrides it when the user pins a count by hand.
pub fn set_default_par_workers(workers: usize) {
    DEFAULT_PAR_WORKERS.store(workers, Ordering::Relaxed);
}

/// Resolves the worker count of a `par` job: an explicit per-job setting, then the
/// `MATCH_WORKERS` environment variable, then the engine-published process default,
/// then the host's available parallelism.
pub(crate) fn resolve_workers(explicit: usize) -> usize {
    if explicit > 0 {
        return explicit;
    }
    let env = std::env::var(WORKERS_ENV_VAR).ok();
    let pinned = env.as_deref().and_then(|s| s.trim().parse::<usize>().ok());
    if let Some(n) = pinned.filter(|&n| n > 0) {
        return n;
    }
    let fallback = match DEFAULT_PAR_WORKERS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        engine_default => engine_default,
    };
    if let Some(s) = env {
        // Warn once: this runs per job, hundreds of times in one figure sweep.
        static WARNED: Once = Once::new();
        WARNED.call_once(|| {
            eprintln!(
                "warning: {WORKERS_ENV_VAR}='{s}' is not a positive worker count; \
                 using {fallback}"
            );
        });
    }
    fallback
}

/// Which scheduler backend a job runs on (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedBackend {
    /// One OS thread per simulated rank (the reference implementation).
    Threads,
    /// All ranks as cooperative fibers over a virtual-time run queue in one OS thread.
    Coop,
    /// The virtual-time run queue sharded over `MATCH_WORKERS` worker threads, each
    /// owning a contiguous rank block of pinned fibers; with one worker, the `coop`
    /// loop on the calling thread (the default).
    #[default]
    Par,
}

impl SchedBackend {
    /// Every backend, in the order benches sweep them.
    pub const ALL: [SchedBackend; 3] =
        [SchedBackend::Threads, SchedBackend::Coop, SchedBackend::Par];

    /// Reads the backend from the `MATCH_BACKEND` environment variable, defaulting to
    /// [`SchedBackend::default`] (`par`). Unrecognized values fall back to the default
    /// (with one warning per process on stderr) rather than aborting a long bench run.
    pub fn from_env() -> SchedBackend {
        match std::env::var(BACKEND_ENV_VAR) {
            Err(_) => SchedBackend::default(),
            Ok(s) => s.parse().unwrap_or_else(|_| {
                let fallback = SchedBackend::default();
                // Warn once: this runs per job, hundreds of times in one figure sweep.
                static WARNED: Once = Once::new();
                WARNED.call_once(|| {
                    eprintln!(
                        "warning: {BACKEND_ENV_VAR}='{s}' is not a backend \
                         (threads|coop|par); using {fallback}"
                    );
                });
                fallback
            }),
        }
    }

    /// The backend's canonical name (`"threads"` / `"coop"` / `"par"`).
    pub fn name(self) -> &'static str {
        match self {
            SchedBackend::Threads => "threads",
            SchedBackend::Coop => "coop",
            SchedBackend::Par => "par",
        }
    }
}

impl std::str::FromStr for SchedBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "threads" | "thread" => Ok(SchedBackend::Threads),
            "coop" | "fiber" | "fibers" => Ok(SchedBackend::Coop),
            "par" | "parallel" => Ok(SchedBackend::Par),
            other => Err(format!("unknown scheduler backend '{other}'")),
        }
    }
}

impl std::fmt::Display for SchedBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Host-side scheduler counters of one job: how often rank fibers were switched into,
/// suspended and made runnable again. Filled by the fiber backends (`coop`, `par`) and
/// all zero on `threads`, whose blocking is done by the host kernel. The counts
/// describe host work only — they are no part of the simulated result and are exact
/// run to run only on `coop`, whose schedule is deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Switches into a rank fiber (its first start included).
    pub resumes: u64,
    /// Suspensions of a rank fiber on a wait channel.
    pub parks: u64,
    /// Suspended ranks made runnable again by a wake.
    pub wakes: u64,
    /// Wakes after which the woken rank found its wait still unsatisfied and
    /// suspended again: work a more precise wake would have avoided.
    pub spurious_wakes: u64,
}

/// A scheduler backend: executes one simulated job over a shared
/// [`ClusterState`] and returns every rank's outcome, ordered by rank, with the
/// scheduler's own counters.
///
/// # Contract
///
/// Implementations must deliver **bit-identical** outcomes for the same
/// `(state, body)` pair, with and without injected failures. This is achievable
/// because the simulator resolves every scheduling-sensitive decision in virtual
/// time; a backend's job is purely to find *an* execution order consistent with the
/// blocking semantics:
///
/// * a rank blocked in a receive may only proceed when a matching message is queued
///   or the deterministic abort rule fires;
/// * a rank blocked in a collective may only proceed when the round has completed or
///   the abort rule fires;
/// * a rank parked at the recovery rendezvous proceeds when all ranks have arrived.
///
/// Backends must also propagate rank panics to the caller (after all other ranks have
/// finished or been abandoned), mirroring `std::thread::JoinHandle::join`.
pub trait RankScheduler {
    /// Runs one job: executes `body` once per rank over `state` and collects the
    /// per-rank outcomes ordered by rank.
    fn run_job<R, F>(
        &self,
        config: &ClusterConfig,
        state: Arc<ClusterState>,
        body: &F,
    ) -> (Vec<RankOutcome<R>>, SchedStats)
    where
        R: Send,
        F: Fn(&mut RankCtx) -> Result<R, MpiError> + Sync;
}

/// The thread-per-rank backend: every rank is an OS thread; blocked operations wait
/// on condition variables and are woken explicitly on failure transitions (with a
/// long timeout as a pure fallback). See the module docs for when to prefer it.
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
        let mut outcomes: Vec<Option<RankOutcome<R>>> = (0..nprocs).map(|_| None).collect();
        let mut spawn_error: Option<std::io::Error> = None;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(nprocs);
            for rank in 0..nprocs {
                let rank_state = Arc::clone(&state);
                let builder = std::thread::Builder::new()
                    .name(format!("rank-{rank}"))
                    .stack_size(config.stack_size);
                let spawned = builder.spawn_scoped(scope, move || {
                    let mut ctx = RankCtx::new(rank, rank_state);
                    let result = body(&mut ctx);
                    RankOutcome {
                        rank,
                        result,
                        finish_time: ctx.now(),
                        breakdown: *ctx.breakdown(),
                        stats: *ctx.stats(),
                    }
                });
                match spawned {
                    Ok(handle) => handles.push(handle),
                    Err(error) => {
                        // The host ran out of threads mid-job. Abort the cluster so
                        // the already-spawned ranks drain out of their blocked
                        // operations (the abort wakes every waiter) instead of
                        // waiting forever for peers that will never exist; the
                        // spawn failure is reported after they have been joined.
                        state.set_abort(-1);
                        spawn_error = Some(error);
                        break;
                    }
                }
            }
            for handle in handles {
                let outcome = handle.join().expect("rank thread panicked");
                let rank = outcome.rank;
                outcomes[rank] = Some(outcome);
            }
        });
        if let Some(error) = spawn_error {
            panic!("failed to spawn rank thread for a {nprocs}-rank job: {error}");
        }
        let outcomes = outcomes
            .into_iter()
            .map(|o| o.expect("missing rank outcome"))
            .collect();
        (outcomes, SchedStats::default())
    }
}

/// Identifies what a cooperatively scheduled rank is parked on: a wait channel.
///
/// Keys are plain integers carved out of disjoint ranges so they can never collide:
/// per-rank mailbox keys are odd, the failure-event channel is the constant `2`, and
/// object channels (collective slots, survivor-rendezvous state) use the object's
/// address, which is 8-aligned and far above small constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct WaitKey(pub(crate) usize);

impl WaitKey {
    /// The cluster-wide failure-event channel ([`RankCtx::wait_for_failure_events`]
    /// parks here; every failure publication wakes it).
    pub(crate) const FAILURE_EVENTS: WaitKey = WaitKey(2);

    /// The channel of `rank`'s mailbox (receives park here; sends to `rank` wake it).
    pub(crate) fn mailbox(rank: usize) -> WaitKey {
        WaitKey((rank << 2) | 1)
    }

    /// The rank whose mailbox this key names, if it is a mailbox key.
    pub(crate) fn mailbox_rank(self) -> Option<usize> {
        (self.0 & 1 == 1).then_some(self.0 >> 2)
    }

    /// A channel identified by a shared object's address (the object must stay alive
    /// while any task is parked on it, which the simulator's `Arc`s guarantee).
    pub(crate) fn object<T>(obj: &T) -> WaitKey {
        WaitKey(obj as *const T as usize)
    }
}

/// Hook through which [`ClusterState`](crate::state::ClusterState) reaches the fiber
/// scheduler of the job it belongs to, to wake the tasks whose abort or quiescence
/// predicate a state transition changed — the fiber analogue of the thread backend's
/// condvar notifications.
pub(crate) trait JobWaker: Send + Sync {
    /// Makes the tasks parked on `key` runnable again (a per-rank transition: the
    /// parking of a rank concerns only the operations that wait on that rank).
    fn wake_key(&self, key: WaitKey);
    /// Makes every parked task runnable again, except those parked on `spared` (a
    /// cluster-wide transition: failure publication, global-disruption declaration,
    /// revocation, abort; `spared` is the recovery rendezvous, whose waiters wait for
    /// slot progress only).
    fn wake_all_except(&self, spared: WaitKey);
}

/// A snapshot of a wait channel's state, read **before** the caller checks its wait
/// condition and consumed by the park that follows a failed check.
///
/// On the single-threaded `coop` backend the check-then-park sequence is atomic by
/// construction and the token carries no information. On the multi-worker `par`
/// backend it is an eventcount: the park announces itself on the channel and then
/// validates that neither the channel's sequence number nor the cluster-wide wake epoch
/// has moved since the token was read, and returns *without suspending* if either
/// did. A wake that raced between the condition check and the park therefore can
/// never be lost; the caller's retry loop simply re-checks its condition.
#[derive(Debug, Clone, Copy)]
pub struct WaitToken {
    pub(crate) key: WaitKey,
    pub(crate) epoch: u64,
    pub(crate) seq: u64,
}

impl WaitToken {
    /// A token that always validates (thread/coop backends, where validation is
    /// unnecessary: threads sleep on condvars, coop parks atomically).
    pub(crate) fn immediate(key: WaitKey) -> WaitToken {
        WaitToken {
            key,
            epoch: 0,
            seq: 0,
        }
    }
}

/// The per-rank park/wake handle of whichever fiber backend the rank runs on. Held by
/// [`RankCtx`] when (and only when) the rank runs on the `coop` or `par` backend.
#[derive(Debug, Clone)]
pub(crate) enum Yielder {
    /// Single-threaded cooperative scheduling: parks are unconditional (the
    /// check-then-park sequence is atomic on one OS thread).
    Coop(coop::CoopYielder),
    /// Sharded multi-worker scheduling: parks are token-validated (see [`WaitToken`]).
    Par(par::ParYielder),
}

impl Yielder {
    /// Reads a wait token for `key`; must be called before the caller checks the
    /// condition it would park on.
    pub(crate) fn wait_token(&self, key: WaitKey) -> WaitToken {
        match self {
            Yielder::Coop(_) => WaitToken::immediate(key),
            Yielder::Par(y) => y.wait_token(key),
        }
    }

    /// Parks the calling rank on the token's channel; returns `true` when a wakeup
    /// resumed it, or `false` immediately if the token no longer validates. `now` is
    /// the rank's virtual clock, which orders it in the run queue on wakeup;
    /// `suspended_before` says that the caller's wait loop was already suspended and
    /// woken without its condition having become true (counted as a spurious wake).
    pub(crate) fn park(&self, token: WaitToken, now: SimTime, suspended_before: bool) -> bool {
        match self {
            Yielder::Coop(y) => y.park(token.key, now, suspended_before),
            Yielder::Par(y) => y.park(token, now, suspended_before),
        }
    }

    /// Wakes every rank parked on `key`.
    pub(crate) fn wake(&self, key: WaitKey) {
        match self {
            Yielder::Coop(y) => y.wake(key),
            Yielder::Par(y) => y.wake(key),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_parses_and_prints() {
        assert_eq!("threads".parse::<SchedBackend>(), Ok(SchedBackend::Threads));
        assert_eq!("Coop".parse::<SchedBackend>(), Ok(SchedBackend::Coop));
        assert_eq!("fibers".parse::<SchedBackend>(), Ok(SchedBackend::Coop));
        assert_eq!("par".parse::<SchedBackend>(), Ok(SchedBackend::Par));
        assert_eq!("parallel".parse::<SchedBackend>(), Ok(SchedBackend::Par));
        assert!("green-threads".parse::<SchedBackend>().is_err());
        assert_eq!(SchedBackend::Coop.to_string(), "coop");
        assert_eq!(SchedBackend::Par.to_string(), "par");
        assert_eq!(SchedBackend::default(), SchedBackend::Par);
        assert_eq!(SchedBackend::ALL.len(), 3);
    }

    #[test]
    fn wait_keys_never_collide() {
        let slot = 0u64;
        let addr = WaitKey::object(&slot);
        for rank in 0..64 {
            let mb = WaitKey::mailbox(rank);
            assert_eq!(mb.0 & 1, 1, "mailbox keys are odd");
            assert_ne!(mb, WaitKey::FAILURE_EVENTS);
            assert_ne!(mb, addr);
        }
        assert_ne!(addr, WaitKey::FAILURE_EVENTS);
    }
}
