//! # match-explorer — coverage-guided fault-space exploration with trace shrinking
//!
//! The figure matrices sample the fault space the way the paper does: one seeded
//! random failure per run. This crate searches it instead. A [`search::Explorer`]
//! mutates explicit failure traces ([`genome::TraceGenome`]: event kinds, victim
//! rank/node/rack, iteration alignment against checkpoint and recovery windows,
//! multi-event chains) and runs each candidate through the uncached
//! [`match_core::run_trace`] entry point. The feedback signal is *structured
//! recovery-path coverage*: every attempt of a run reports the
//! [`recovery::CoveragePath`](match_core::recovery::CoveragePath) it exercised
//! (which checkpoint level actually served the restore, through which redundancy
//! mechanism, whether the world shrank, how many erasures were absorbed), and a
//! mutation is kept exactly when its run reaches a path signature no earlier run of
//! the same design did.
//!
//! While searching, every run is checked against the explorer's properties (see
//! [`search::Property`]): the closed-form failure-free oracle for the non-shrinking
//! designs, survivability of configurations whose checkpoints live on storage the
//! injected failures cannot destroy, and — for runs reaching a novel signature —
//! bit-identical replay. Each trace is simulated once and every property is judged
//! on that run; only the replay of a novel trace simulates it again. On a
//! violation, the trace is shrunk to a minimal reproducer by deterministic
//! event-removal and value-bisection (routed through the workspace `proptest`
//! shim's [`proptest::shrink`] module) and emitted as a replayable JSON artifact
//! ([`replay`]).
//!
//! Everything is deterministic: the mutation RNG is seeded, `run_trace` results
//! are bit-identical across scheduler backends and worker counts, and all
//! aggregation is over ordered containers — so the coverage report is
//! byte-identical across `MATCH_JOBS`, `MATCH_BACKEND` and `MATCH_WORKERS`.
//!
//! The `MATCH_EXPLORE_*` knobs are rows of the knob table
//! ([`match_core::knobs`]); [`ExploreConfig::from_env`] reads them.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod corpus;
pub mod genome;
pub mod replay;
pub mod report;
pub mod search;

use std::path::PathBuf;

use match_core::knobs;

pub use genome::TraceGenome;
pub use report::ExploreReport;
pub use search::{ExploreOutcome, Explorer, Property, Violation};

/// The explorer's run configuration, typically built [`from_env`](ExploreConfig::from_env).
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Ranks per explored trace.
    pub nprocs: usize,
    /// Main-loop iterations per trace.
    pub iterations: u64,
    /// Traces evaluated per design (seed traces included).
    pub budget: u32,
    /// Mutation RNG seed.
    pub seed: u64,
    /// Corpus directory; `None` keeps the corpus in memory only.
    pub corpus: Option<PathBuf>,
    /// Label substring asserted unreachable (see [`knobs::EXPLORE_ASSERT`]).
    pub assert_label: Option<String>,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            nprocs: 8,
            iterations: 12,
            budget: 48,
            seed: 20,
            corpus: None,
            assert_label: None,
        }
    }
}

impl ExploreConfig {
    /// Builds the configuration the `MATCH_EXPLORE_*` knobs describe
    /// ([`knobs::EXPLORE_PROCS`] and its neighbours). An unset knob keeps its
    /// default; the corpus persists only when [`knobs::EXPLORE_CORPUS`] names a
    /// directory, and [`knobs::EXPLORE_ASSERT`] seeds a label violation (how CI
    /// drives the find → shrink → replay pipeline).
    ///
    /// # Errors
    ///
    /// A set numeric knob that does not parse, or lies outside its range, is an
    /// error naming the knob, the value and what it accepts — never a silently
    /// different search.
    pub fn from_env() -> Result<Self, String> {
        let default = ExploreConfig::default();
        Ok(ExploreConfig {
            nprocs: knobs::EXPLORE_PROCS.get()?.unwrap_or(default.nprocs),
            iterations: knobs::EXPLORE_ITERS.get()?.unwrap_or(default.iterations),
            budget: knobs::EXPLORE_BUDGET.get()?.unwrap_or(default.budget),
            seed: knobs::EXPLORE_SEED.get()?.unwrap_or(default.seed),
            corpus: knobs::EXPLORE_CORPUS.get()?.flatten(),
            assert_label: knobs::EXPLORE_ASSERT.get()?.flatten(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let config = ExploreConfig::default();
        assert!(config.nprocs >= 2);
        assert!(config.iterations >= 2);
        assert!(config.budget > 0);
        assert!(config.corpus.is_none());
        assert!(config.assert_label.is_none());
    }

    /// Asserts `knob` rejects `value` with an error naming it.
    fn names<T: std::fmt::Debug>(knob: &knobs::Knob<T>, value: &str) {
        let error = knob.parse(value).expect_err("malformed value accepted");
        assert!(error.contains(knob.name), "{error}");
    }

    #[test]
    fn procs_parser_accepts_two_or_more_ranks() {
        assert_eq!(knobs::EXPLORE_PROCS.parse(" 16 "), Ok(16));
        assert_eq!(knobs::EXPLORE_PROCS.parse("2"), Ok(2));
        for bad in ["1", "0", "-4", "abc", "", "8,16"] {
            names(&knobs::EXPLORE_PROCS, bad);
        }
    }

    #[test]
    fn iters_parser_accepts_two_or_more_iterations() {
        assert_eq!(knobs::EXPLORE_ITERS.parse("12"), Ok(12));
        assert_eq!(knobs::EXPLORE_ITERS.parse("2"), Ok(2));
        for bad in ["1", "0", "twelve", "1.5"] {
            names(&knobs::EXPLORE_ITERS, bad);
        }
    }

    #[test]
    fn budget_parser_accepts_positive_budgets() {
        assert_eq!(knobs::EXPLORE_BUDGET.parse("48"), Ok(48));
        assert_eq!(knobs::EXPLORE_BUDGET.parse("1"), Ok(1));
        for bad in ["0", "abc", "-1", "4294967296"] {
            names(&knobs::EXPLORE_BUDGET, bad);
        }
    }

    #[test]
    fn seed_parser_accepts_any_u64() {
        assert_eq!(knobs::EXPLORE_SEED.parse("0"), Ok(0));
        assert_eq!(
            knobs::EXPLORE_SEED.parse(&u64::MAX.to_string()),
            Ok(u64::MAX)
        );
        for bad in ["-1", "seed", "18446744073709551616"] {
            names(&knobs::EXPLORE_SEED, bad);
        }
    }
}
