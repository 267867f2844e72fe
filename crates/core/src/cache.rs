//! Content-addressed result caching for the [`SuiteEngine`](crate::engine::SuiteEngine).
//!
//! The paper's evaluation matrices overlap heavily: Fig. 7 re-reports the Fig. 6 runs,
//! the Section V-C findings re-derive from the Fig. 6 matrix, and repeated bench
//! invocations re-run identical cells. The cache keys every run by an
//! [`ExperimentId`] — a canonical encoding of *every* field of an
//! [`Experiment`], including the execution scale and seed — so two
//! experiments collide exactly when they describe the same simulation. A
//! failure-free cell's design is keyed by its healthy runtime's representative
//! ([`Experiment::representative`]): before a failure a design acts only through
//! its runtime's background interference, so REINIT and RESTART (and SHRINK and
//! ULFM) simulate the same failure-free run, and the engine answers both twins
//! from one simulation. Every run —
//! failure-free or with injected failures — is bit-deterministic (failure detection
//! resolves in virtual time), so the cache contract is exact: a recall equals a
//! recompute, bit-identical, always. That is also why the scheduler backend and
//! worker count deliberately do not enter the key.
//!
//! The cache is thread-safe and deduplicates *in-flight* computation: when two engine
//! workers ask for the same cell concurrently, one computes while the other blocks on
//! the cell's condition variable and receives the finished report, so no cell is ever
//! simulated twice within a process.
//!
//! A cache may additionally be backed by a persistent content-addressed
//! [`DiskCache`]: lookups then go memory → disk → compute, and computed reports are
//! written through, so a *fresh process* recalls everything an earlier one computed
//! (see [`crate::persist`] for the on-disk format and crash-safety rules). Only
//! successful reports persist — errors and contained panics stay in-process.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use recovery::RunReport;

use crate::engine::SuiteError;
use crate::experiment::Experiment;
use crate::persist::{DiskCache, DiskLookup};

/// Canonical cache key derived from every field of an [`Experiment`].
///
/// Two ids collide exactly when they describe the same simulation. A failure-free
/// cell is keyed by its healthy runtime's first design, because that runtime's
/// interference is all a design changes before the first failure.
///
/// Floating-point fields (the execution scale's `linear_fraction`) are encoded through
/// their IEEE-754 bit patterns so the key is `Eq + Hash` without rounding surprises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExperimentId {
    app: u8,
    input: u8,
    strategy: u8,
    nprocs: usize,
    /// The `(nnodes, nracks)` failure-domain layout the experiment runs on. Derived
    /// deterministically from `nprocs` today (the paper layout), but part of the
    /// identity: rack-correlated scenarios and the domain-split cost model make the
    /// simulated result a function of the topology, not just the process count.
    topology: (usize, usize),
    /// Canonical encoding of the failure scenario:
    /// `(tag, node_mtbf_iterations, node_crash_pct, rack_neighbor_pct, recovery_window_pct)`.
    scenario: (u8, u32, u8, u8, u8),
    scale_linear_fraction_bits: u64,
    scale_iteration_cap: u64,
    scale_min_extent: usize,
    repetitions: u32,
    seed: u64,
}

impl ExperimentId {
    /// Derives the canonical id of an experiment.
    pub fn of(experiment: &Experiment) -> Self {
        use proxies::ProxyKind;

        let app = match experiment.app {
            ProxyKind::Amg => 0,
            ProxyKind::Comd => 1,
            ProxyKind::Hpccg => 2,
            ProxyKind::Lulesh => 3,
            ProxyKind::MiniFe => 4,
            ProxyKind::MiniVite => 5,
        };
        let input = match experiment.input {
            proxies::InputSize::Small => 0,
            proxies::InputSize::Medium => 1,
            proxies::InputSize::Large => 2,
        };
        let strategy = crate::persist::strategy_tag(experiment.representative().strategy);
        let scenario = match experiment.scenario {
            crate::experiment::FailureScenario::None => (0, 0, 0, 0, 0),
            crate::experiment::FailureScenario::SingleRandom => (1, 0, 0, 0, 0),
            crate::experiment::FailureScenario::Mtbf {
                node_mtbf_iterations,
                node_crash_pct,
                rack_neighbor_pct,
                recovery_window_pct,
            } => (
                2,
                node_mtbf_iterations,
                node_crash_pct,
                rack_neighbor_pct,
                recovery_window_pct,
            ),
        };
        // The layout `run_single` lays its cluster out by, so the key can never
        // diverge from the simulated topology. Invalid experiments (nprocs = 0) must
        // still key cleanly: the engine caches their error instead of panicking here.
        let topology = match experiment.nprocs {
            0 => (0, 0),
            nprocs => crate::runner::experiment_layout(nprocs),
        };
        ExperimentId {
            app,
            input,
            strategy,
            nprocs: experiment.nprocs,
            topology,
            scenario,
            scale_linear_fraction_bits: experiment.scale.linear_fraction.to_bits(),
            scale_iteration_cap: experiment.scale.iteration_cap,
            scale_min_extent: experiment.scale.min_extent,
            repetitions: experiment.repetitions.max(1),
            seed: experiment.seed,
        }
    }

    /// The canonical little-endian byte encoding of this id: every field, in
    /// declaration order, with `usize` widened to 8 bytes. This — not
    /// `std::hash::Hash`, whose state is unstable across releases and processes —
    /// is what the persistent cache digests into a content address and stores in
    /// each entry's header for verification (see [`crate::persist`]).
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut enc = crate::persist::Enc::new();
        enc.u8(self.app);
        enc.u8(self.input);
        enc.u8(self.strategy);
        enc.usize(self.nprocs);
        enc.usize(self.topology.0);
        enc.usize(self.topology.1);
        enc.u8(self.scenario.0);
        enc.u32(self.scenario.1);
        enc.u8(self.scenario.2);
        enc.u8(self.scenario.3);
        enc.u8(self.scenario.4);
        enc.u64(self.scale_linear_fraction_bits);
        enc.u64(self.scale_iteration_cap);
        enc.usize(self.scale_min_extent);
        enc.u32(self.repetitions);
        enc.u64(self.seed);
        enc.into_bytes()
    }
}

/// Snapshot of the cache's hit/miss counters.
///
/// The memory-level counters (`hits`/`misses`) keep their historical meaning: a
/// "miss" is a lookup the in-memory map could not answer. The `disk_*` counters
/// break those misses down by what happened next: answered from the persistent
/// store (`disk_hits`) or actually simulated (`disk_misses` — this is the "how
/// many simulations ran" counter, and it counts computes even when the disk
/// layer is disabled).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from a finished or in-flight in-memory entry.
    pub hits: u64,
    /// Lookups the in-memory map could not answer.
    pub misses: u64,
    /// Number of cached cells in memory.
    pub entries: usize,
    /// Memory misses answered from the persistent disk store.
    pub disk_hits: u64,
    /// Memory misses that fell through to an actual simulation (disk miss, disk
    /// layer disabled, or a corrupt entry).
    pub disk_misses: u64,
    /// Reports written through to the persistent store.
    pub disk_writes: u64,
    /// Disk entries that were present but corrupt/unreadable (each one degraded
    /// to a recompute and was rewritten). Stale entries from another simulator
    /// build or layout version count as plain disk misses, not errors.
    pub disk_read_errors: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0 when there were none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits, {} misses, {} entries ({:.0}% hit rate); disk: {} hits, {} misses, \
             {} writes, {} read errors",
            self.hits,
            self.misses,
            self.entries,
            self.hit_rate() * 100.0,
            self.disk_hits,
            self.disk_misses,
            self.disk_writes,
            self.disk_read_errors,
        )
    }
}

/// One cache cell: empty while its first requester computes, then holds the result.
#[derive(Debug)]
struct Cell {
    slot: Mutex<Option<Result<RunReport, SuiteError>>>,
    ready: Condvar,
}

impl Cell {
    fn new() -> Self {
        Cell {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn wait(&self) -> Result<RunReport, SuiteError> {
        let mut slot = self.slot.lock().expect("cache cell lock");
        while slot.is_none() {
            slot = self.ready.wait(slot).expect("cache cell wait");
        }
        slot.as_ref().expect("filled cell").clone()
    }

    fn fill(&self, value: Result<RunReport, SuiteError>) {
        *self.slot.lock().expect("cache cell lock") = Some(value);
        self.ready.notify_all();
    }
}

/// A thread-safe, in-memory map from [`ExperimentId`] to finished run reports,
/// optionally backed by a persistent [`DiskCache`].
#[derive(Debug, Default)]
pub struct ResultCache {
    cells: Mutex<HashMap<ExperimentId, Arc<Cell>>>,
    disk: Option<Arc<DiskCache>>,
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    disk_writes: AtomicU64,
    disk_read_errors: AtomicU64,
}

impl ResultCache {
    /// Creates an empty in-memory cache with no persistent backing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache backed by `disk` (when `Some`): memory misses
    /// consult the store before computing, and computed reports are written
    /// through.
    pub fn with_disk(disk: Option<Arc<DiskCache>>) -> Self {
        ResultCache {
            disk,
            ..Self::default()
        }
    }

    /// Returns the cached result for `id`, computing it with `compute` on first
    /// request. Concurrent requests for the same id block until the first finishes
    /// and then share its result; they are counted as hits. `label` yields the
    /// experiment's human-readable name, used to contextualise a contained panic;
    /// it is only called when `compute` panics.
    pub fn get_or_compute<L, F>(
        &self,
        id: ExperimentId,
        label: L,
        compute: F,
    ) -> Result<RunReport, SuiteError>
    where
        L: FnOnce() -> String,
        F: FnOnce() -> Result<RunReport, SuiteError>,
    {
        let (cell, is_owner) = {
            let mut cells = self.cells.lock().expect("cache map lock");
            match cells.get(&id) {
                Some(cell) => (Arc::clone(cell), false),
                None => {
                    let cell = Arc::new(Cell::new());
                    cells.insert(id, Arc::clone(&cell));
                    (cell, true)
                }
            }
        };
        if is_owner {
            self.misses.fetch_add(1, Ordering::Relaxed);
            // Memory missed; the persistent layer answers next. A corrupt entry is
            // a silent miss (counted) — the recompute below rewrites it.
            if let Some(disk) = &self.disk {
                match disk.load(&id) {
                    DiskLookup::Hit(report) => {
                        self.disk_hits.fetch_add(1, Ordering::Relaxed);
                        let result = Ok(report);
                        cell.fill(result.clone());
                        return result;
                    }
                    DiskLookup::Miss => {}
                    DiskLookup::Corrupt => {
                        self.disk_read_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            self.disk_misses.fetch_add(1, Ordering::Relaxed);
            // Convert a panicking compute into an error so waiters are not stranded
            // on a cell that will never fill.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(compute))
                .unwrap_or_else(|payload| Err(SuiteError::panicked_experiment(&label(), payload)));
            // Write-through: only successful reports persist (errors and contained
            // panics are process-local), and a failed write never fails the run.
            if let (Some(disk), Ok(report)) = (&self.disk, &result) {
                if disk.store(&id, report).is_ok() {
                    self.disk_writes.fetch_add(1, Ordering::Relaxed);
                }
            }
            cell.fill(result.clone());
            result
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
            cell.wait()
        }
    }

    /// How many of `ids` have no in-memory cell, finished or in flight (does not
    /// count as a hit or miss).
    pub(crate) fn count_absent<'a>(
        &self,
        ids: impl IntoIterator<Item = &'a ExperimentId>,
    ) -> usize {
        let cells = self.cells.lock().expect("cache map lock");
        ids.into_iter().filter(|id| !cells.contains_key(id)).count()
    }

    /// Current hit/miss counters and entry count.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.cells.lock().expect("cache map lock").len(),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_misses: self.disk_misses.load(Ordering::Relaxed),
            disk_writes: self.disk_writes.load(Ordering::Relaxed),
            disk_read_errors: self.disk_read_errors.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{FailureScenario, SuiteOptions};
    use proxies::{InputSize, ProxyKind};
    use recovery::RecoveryStrategy;

    fn experiment() -> Experiment {
        Experiment::new(
            ProxyKind::Hpccg,
            InputSize::Small,
            4,
            RecoveryStrategy::Reinit,
        )
        .with_options(&SuiteOptions::smoke())
    }

    fn report(nprocs: usize) -> RunReport {
        RunReport {
            strategy: RecoveryStrategy::Reinit,
            nprocs,
            failure_injected: false,
            breakdown: mpisim::TimeBreakdown::new(),
            total_time: mpisim::SimTime::from_secs(1.0),
            stats: mpisim::RankStats::new(),
            restarts: 0,
            attempts: 1,
            failure_events: 0,
            attempt_log: Vec::new(),
        }
    }

    #[test]
    fn id_is_stable_and_distinguishes_every_field() {
        let base = experiment();
        assert_eq!(ExperimentId::of(&base), ExperimentId::of(&base.clone()));
        let mut other = base;
        other.seed ^= 1;
        assert_ne!(ExperimentId::of(&base), ExperimentId::of(&other));
        let mut other = base;
        other = other.with_failure(true);
        assert_ne!(ExperimentId::of(&base), ExperimentId::of(&other));
        let mtbf = base.with_scenario(FailureScenario::Mtbf {
            node_mtbf_iterations: 500,
            node_crash_pct: 10,
            rack_neighbor_pct: 0,
            recovery_window_pct: 0,
        });
        assert_ne!(ExperimentId::of(&base), ExperimentId::of(&mtbf));
        let mtbf2 = base.with_scenario(FailureScenario::Mtbf {
            node_mtbf_iterations: 250,
            node_crash_pct: 10,
            rack_neighbor_pct: 0,
            recovery_window_pct: 0,
        });
        assert_ne!(ExperimentId::of(&mtbf), ExperimentId::of(&mtbf2));
        let mut other = base;
        other.scale.linear_fraction += 0.001;
        assert_ne!(ExperimentId::of(&base), ExperimentId::of(&other));
        let mut other = base;
        other.nprocs += 1;
        assert_ne!(ExperimentId::of(&base), ExperimentId::of(&other));
        let mut other = base;
        other.strategy = RecoveryStrategy::Ulfm;
        assert_ne!(ExperimentId::of(&base), ExperimentId::of(&other));
    }

    fn id_of(strategy: RecoveryStrategy, scenario: FailureScenario) -> ExperimentId {
        let experiment = Experiment {
            strategy,
            ..experiment().with_scenario(scenario)
        };
        ExperimentId::of(&experiment)
    }

    #[test]
    fn failure_free_twins_share_an_id_and_keep_their_runtimes_bytes() {
        let none = FailureScenario::None;
        let restart = id_of(RecoveryStrategy::Restart, none);
        let ulfm = id_of(RecoveryStrategy::Ulfm, none);
        assert_eq!(id_of(RecoveryStrategy::Reinit, none), restart);
        assert_eq!(id_of(RecoveryStrategy::Shrink, none), ulfm);
        assert_ne!(restart, ulfm);
        // The representatives keep their own strategy byte (RESTART 0, ULFM 1), so
        // the disk entries they stored before twins were merged stay addressable.
        assert_eq!(restart.canonical_bytes()[2], 0);
        assert_eq!(ulfm.canonical_bytes()[2], 1);
    }

    #[test]
    fn cells_with_failures_never_collide_across_designs() {
        let mtbf = FailureScenario::Mtbf {
            node_mtbf_iterations: 16,
            node_crash_pct: 60,
            rack_neighbor_pct: 80,
            recovery_window_pct: 10,
        };
        for scenario in [FailureScenario::SingleRandom, mtbf] {
            let ids: std::collections::BTreeSet<ExperimentId> = RecoveryStrategy::ALL
                .into_iter()
                .map(|s| id_of(s, scenario))
                .collect();
            assert_eq!(ids.len(), RecoveryStrategy::ALL.len(), "{scenario:?}");
        }
    }

    #[test]
    fn repetition_floor_is_canonicalised() {
        // `run_experiment` treats 0 repetitions as 1, so the ids must collide.
        let mut zero = experiment();
        zero.repetitions = 0;
        let one = experiment().with_repetitions(1);
        assert_eq!(ExperimentId::of(&zero), ExperimentId::of(&one));
    }

    #[test]
    fn second_lookup_is_a_hit_and_skips_compute() {
        let cache = ResultCache::new();
        let id = ExperimentId::of(&experiment());
        let first = cache
            .get_or_compute(id, || "t".into(), || Ok(report(4)))
            .unwrap();
        let second = cache
            .get_or_compute(
                id,
                || "t".into(),
                || panic!("must not recompute a cached cell"),
            )
            .unwrap();
        assert_eq!(first, second);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!(stats.hit_rate() > 0.49 && stats.hit_rate() < 0.51);
    }

    #[test]
    fn errors_are_cached_too() {
        let cache = ResultCache::new();
        let id = ExperimentId::of(&experiment());
        let err = SuiteError::RankFailures {
            label: "test".into(),
            errors: vec![(0, mpisim::MpiError::Revoked)],
        };
        let e = err.clone();
        assert!(cache
            .get_or_compute(id, || "t".into(), move || Err(e))
            .is_err());
        let again = cache.get_or_compute(id, || "t".into(), || panic!("must not recompute"));
        assert_eq!(again.unwrap_err(), err);
    }

    #[test]
    fn concurrent_requests_compute_once() {
        let cache = Arc::new(ResultCache::new());
        let id = ExperimentId::of(&experiment());
        let computations = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let computations = Arc::clone(&computations);
                scope.spawn(move || {
                    let r = cache.get_or_compute(
                        id,
                        || "t".into(),
                        || {
                            computations.fetch_add(1, Ordering::Relaxed);
                            // Give the other threads time to pile onto the in-flight cell.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok(report(4))
                        },
                    );
                    assert!(r.is_ok());
                });
            }
        });
        assert_eq!(computations.load(Ordering::Relaxed), 1);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7);
    }

    #[test]
    fn ids_are_equal_whatever_the_backend_knob_says() {
        let saved = std::env::var_os(mpisim::BACKEND_ENV_VAR);
        std::env::remove_var(mpisim::BACKEND_ENV_VAR);
        let unset = ExperimentId::of(&experiment());
        for backend in ["coop", "par"] {
            std::env::set_var(mpisim::BACKEND_ENV_VAR, backend);
            assert_eq!(ExperimentId::of(&experiment()), unset, "{backend}");
        }
        match saved {
            Some(value) => std::env::set_var(mpisim::BACKEND_ENV_VAR, value),
            None => std::env::remove_var(mpisim::BACKEND_ENV_VAR),
        }
        assert_eq!(unset.topology, crate::runner::experiment_layout(4));
    }
}
