//! Scheduler backends: how simulated ranks are mapped onto host execution.
//!
//! A simulated job is `nprocs` rank programs that block on each other through
//! simulated MPI operations. *How* those programs are interleaved on the host is a
//! backend decision with no observable effect on results: since every run is a pure
//! function of virtual time (failure detection, message deliver-vs-abort decisions and
//! collective completion are all resolved by virtual-time rules, never by host
//! timing), any schedule that respects the blocking semantics produces bit-identical
//! [`RunOutcome`](crate::RunOutcome)s. That property is the contract of
//! [`SchedBackend`], and the backend-equivalence test suite enforces it.
//!
//! Both backends run every rank as a stackful fiber and block the same way. A
//! blocked receive, collective, rendezvous or detection barrier reads a [`WaitToken`]
//! for its wait channel, checks its condition, and parks on the channel if the
//! condition does not hold; the event it needs (message arrival, round completion,
//! failure publication) wakes the channel. A backend only decides what "park" and
//! "wake" mean — `sched/channels.rs` says where the channels live and why parks across
//! worker threads lose no wake. No backend polls, sleeps on a timeout or reads host
//! time while a rank waits.
//!
//! The two backends:
//!
//! * **`coop`** — all ranks of a job multiplexed as fibers over **one** OS
//!   thread, driven by a virtual-time run queue: the scheduler always resumes the
//!   runnable rank with the lowest virtual clock, and a parked fiber is a saved stack
//!   pointer on a plain waiter list until a wake makes it runnable again. There is no
//!   per-rank host thread, so the practical rank ceiling is tens of thousands. It is
//!   the reference the equivalence tests compare `par` against.
//! * **`par`** — the multi-core variant of `coop`: the virtual-time run
//!   queue is sharded over `MATCH_WORKERS` worker threads with deterministic
//!   contiguous rank-block ownership, each worker driving its own `(clock, rank)`
//!   min-heap of pinned fibers, with token-validated park/wake channels (lock-free
//!   eventcounts) at every communication edge. **The default backend.** A `par` job
//!   whose worker count resolves to one *is* a `coop` job: it runs `coop`'s loop
//!   inline on the calling thread, with no worker thread spawned and no atomic on any
//!   wait channel.
//!
//! The fiber runtime exists for Linux on x86-64 and AArch64 only, which is therefore
//! what the crate builds for.
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
//! Every backend counts what it does — [`SchedStats`] on every
//! [`RunOutcome`](crate::RunOutcome) — so that the host cost of a job can be asserted
//! on counts (one recovery at N ranks resumes O(N) fibers), not on wall-clock.
//!
//! The backend is selected per job through
//! [`ClusterConfig::backend`](crate::ClusterConfig) (defaulting to the
//! `MATCH_BACKEND` environment variable, then to `par`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Once};

use crate::time::SimTime;

pub(crate) mod channels;
pub(crate) mod coop;
pub(crate) mod fiber;
pub(crate) mod par;

/// Environment variable selecting the default scheduler backend (`coop` or `par`).
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
///
/// # Contract
///
/// Both backends deliver **bit-identical** outcomes for the same job, with and
/// without injected failures. This is achievable because the simulator resolves every
/// scheduling-sensitive decision in virtual time; a backend's job is purely to find
/// *an* execution order consistent with the blocking semantics:
///
/// * a rank blocked in a receive may only proceed when a matching message is queued
///   or the deterministic abort rule fires;
/// * a rank blocked in a collective may only proceed when the round has completed or
///   the abort rule fires;
/// * a rank parked at the recovery rendezvous proceeds when all ranks have arrived.
///
/// Both also propagate rank panics to the caller (after all other ranks have finished
/// or been abandoned), mirroring `std::thread::JoinHandle::join`, and diagnose a job
/// in which every unfinished rank is parked with a panic instead of hanging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedBackend {
    /// All ranks as cooperative fibers over a virtual-time run queue in one OS thread
    /// (the reference).
    Coop,
    /// The virtual-time run queue sharded over `MATCH_WORKERS` worker threads, each
    /// owning a contiguous rank block of pinned fibers; with one worker, the `coop`
    /// loop on the calling thread (the default).
    #[default]
    Par,
}

impl SchedBackend {
    /// Reads the backend from the `MATCH_BACKEND` environment variable, defaulting to
    /// [`SchedBackend::default`] (`par`). Unrecognized values fall back to the default
    /// (with one warning per process on stderr) rather than aborting a long bench run.
    pub fn from_env() -> SchedBackend {
        match std::env::var(BACKEND_ENV_VAR) {
            Err(_) => SchedBackend::default(),
            Ok(s) => s.parse().unwrap_or_else(|error| {
                let fallback = SchedBackend::default();
                // Warn once: this runs per job, hundreds of times in one figure sweep.
                static WARNED: Once = Once::new();
                WARNED.call_once(|| {
                    eprintln!("warning: {BACKEND_ENV_VAR}: {error}; using {fallback}");
                });
                fallback
            }),
        }
    }

    /// The backend's canonical name (`"coop"` / `"par"`).
    pub fn name(self) -> &'static str {
        match self {
            SchedBackend::Coop => "coop",
            SchedBackend::Par => "par",
        }
    }
}

impl std::str::FromStr for SchedBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "coop" | "fiber" | "fibers" => Ok(SchedBackend::Coop),
            "par" | "parallel" => Ok(SchedBackend::Par),
            "threads" | "thread" => Err("the threads backend was removed; use coop or par".into()),
            other => Err(format!("unknown scheduler backend '{other}' (coop|par)")),
        }
    }
}

impl std::fmt::Display for SchedBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Host-side scheduler counters of one job: how often rank fibers were started or
/// resumed, suspended and made runnable again. The counts describe host work only —
/// they are no part of the simulated result and are exact run to run only on `coop`,
/// whose schedule is deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Switches into a rank fiber (each rank's first start included).
    pub resumes: u64,
    /// Suspensions of a rank on a wait channel.
    pub parks: u64,
    /// Suspended ranks made runnable again by a wake.
    pub wakes: u64,
    /// Wakes after which the woken rank found its wait still unsatisfied and
    /// suspended again: work a more precise wake would have avoided.
    pub spurious_wakes: u64,
}

/// Identifies what a blocked rank is parked on: a wait channel.
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

/// Hook through which [`ClusterState`](crate::state::ClusterState) reaches the
/// scheduler of the job it belongs to, to wake the ranks whose abort or quiescence
/// predicate a state transition changed.
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
/// construction and the token carries no information. On `par`, whose ranks park from
/// several worker threads, it is an eventcount: the park announces itself
/// on the channel and then validates that neither the channel's sequence number nor
/// the cluster-wide wake epoch has moved since the token was read, and returns
/// *without suspending* if either did. A wake that raced between the condition check
/// and the park therefore can never be lost; the caller's retry loop simply re-checks
/// its condition.
#[derive(Debug, Clone, Copy)]
pub struct WaitToken {
    pub(crate) key: WaitKey,
    pub(crate) epoch: u64,
    pub(crate) seq: u64,
}

impl WaitToken {
    /// A token that always validates (`coop`, whose check-then-park is atomic).
    pub(crate) fn immediate(key: WaitKey) -> WaitToken {
        WaitToken {
            key,
            epoch: 0,
            seq: 0,
        }
    }
}

/// The park/wake handle of the backend a job runs on — its shared scheduler state —
/// held by every [`RankCtx`] of the job.
pub(crate) enum Yielder {
    /// Single-threaded cooperative scheduling: parks are unconditional (the
    /// check-then-park sequence is atomic on one OS thread).
    Coop(Arc<coop::CoopShared>),
    /// Sharded multi-worker scheduling: parks are token-validated (see [`WaitToken`]).
    Par(Arc<par::ParShared>),
}

impl Yielder {
    /// Reads `rank`'s wait token for `key`; must be called before the caller checks
    /// the condition it would park on.
    pub(crate) fn wait_token(&self, rank: usize, key: WaitKey) -> WaitToken {
        match self {
            Yielder::Coop(_) => WaitToken::immediate(key),
            Yielder::Par(job) => job.wait_token(rank, key),
        }
    }

    /// Parks `rank` — the caller — on the token's channel; returns `true` when a
    /// wakeup resumed it, or `false` immediately if the token no longer validates.
    /// `now` is the rank's virtual clock, which orders it in the run queue on wakeup;
    /// `suspended_before` says that the caller's wait loop was already suspended and
    /// woken without its condition having become true (counted as a spurious wake).
    pub(crate) fn park(
        &self,
        rank: usize,
        token: WaitToken,
        now: SimTime,
        suspended_before: bool,
    ) -> bool {
        match self {
            Yielder::Coop(job) => {
                job.park(rank, token.key, now, suspended_before);
                true
            }
            Yielder::Par(job) => job.park(rank, token, now, suspended_before),
        }
    }

    /// Wakes every rank parked on `key`.
    pub(crate) fn wake(&self, key: WaitKey) {
        match self {
            Yielder::Coop(job) => job.wake(key),
            Yielder::Par(job) => job.wake(key),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_parses_and_prints() {
        let removed = "threads".parse::<SchedBackend>().unwrap_err();
        assert!(removed.contains("removed"), "{removed}");
        assert_eq!("Coop".parse::<SchedBackend>(), Ok(SchedBackend::Coop));
        assert_eq!("fibers".parse::<SchedBackend>(), Ok(SchedBackend::Coop));
        assert_eq!("par".parse::<SchedBackend>(), Ok(SchedBackend::Par));
        assert_eq!("parallel".parse::<SchedBackend>(), Ok(SchedBackend::Par));
        assert!("green-threads".parse::<SchedBackend>().is_err());
        assert_eq!(SchedBackend::Coop.to_string(), "coop");
        assert_eq!(SchedBackend::Par.to_string(), "par");
        assert_eq!(SchedBackend::default(), SchedBackend::Par);
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
