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
//! Knobs (all optional; a set numeric knob outside its range is an error, see
//! [`ExploreConfig::from_env`]):
//!
//! | variable | default | meaning |
//! |----------|---------|---------|
//! | `MATCH_EXPLORE_BUDGET` | 48 | traces evaluated per design (≥ 1) |
//! | `MATCH_EXPLORE_SEED` | 20 | mutation RNG seed (any `u64`) |
//! | `MATCH_EXPLORE_PROCS` | 8 | ranks per explored trace (≥ 2) |
//! | `MATCH_EXPLORE_ITERS` | 12 | main-loop iterations per trace (≥ 2) |
//! | `MATCH_EXPLORE_CORPUS` | off | corpus directory (persistence is opt-in) |
//! | `MATCH_EXPLORE_ASSERT` | unset | label substring asserted unreachable |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod corpus;
pub mod genome;
pub mod replay;
pub mod report;
pub mod search;

use std::path::PathBuf;

pub use genome::TraceGenome;
pub use report::ExploreReport;
pub use search::{ExploreOutcome, Explorer, Property, Violation};

/// Environment variable: traces evaluated per design (default 48).
pub const BUDGET_ENV_VAR: &str = "MATCH_EXPLORE_BUDGET";

/// Environment variable: the mutation RNG seed (default 20).
pub const SEED_ENV_VAR: &str = "MATCH_EXPLORE_SEED";

/// Environment variable: ranks per explored trace (default 8).
pub const PROCS_ENV_VAR: &str = "MATCH_EXPLORE_PROCS";

/// Environment variable: main-loop iterations per trace (default 12).
pub const ITERS_ENV_VAR: &str = "MATCH_EXPLORE_ITERS";

/// Environment variable: the corpus directory. Persistence is opt-in — unset (or
/// `off`) keeps the corpus in memory only, so repeated invocations stay
/// byte-identical; a path both reloads surviving entries as extra seeds and saves
/// every novel genome.
pub const CORPUS_ENV_VAR: &str = "MATCH_EXPLORE_CORPUS";

/// Environment variable: a label substring asserted unreachable. When a run
/// reaches a recovery-path label containing the substring, the explorer treats it
/// as a property violation, shrinks the trace and emits a replayable artifact —
/// the mechanism CI uses to prove the whole find → shrink → replay pipeline on a
/// seeded "violation".
pub const ASSERT_ENV_VAR: &str = "MATCH_EXPLORE_ASSERT";

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
    /// Label substring asserted unreachable (see [`ASSERT_ENV_VAR`]).
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
    /// Builds the configuration the `MATCH_EXPLORE_*` environment describes. An
    /// unset knob keeps its default.
    ///
    /// # Errors
    ///
    /// A set numeric knob that does not parse, or lies outside its range, is an
    /// error naming the knob, the value and what it accepts — never a silently
    /// different search.
    pub fn from_env() -> Result<Self, String> {
        let mut config = ExploreConfig::default();
        if let Ok(value) = std::env::var(PROCS_ENV_VAR) {
            config.nprocs = parse_procs(&value)?;
        }
        if let Ok(value) = std::env::var(ITERS_ENV_VAR) {
            config.iterations = parse_iters(&value)?;
        }
        if let Ok(value) = std::env::var(BUDGET_ENV_VAR) {
            config.budget = parse_budget(&value)?;
        }
        if let Ok(value) = std::env::var(SEED_ENV_VAR) {
            config.seed = parse_seed(&value)?;
        }
        if let Ok(dir) = std::env::var(CORPUS_ENV_VAR) {
            let dir = dir.trim();
            if !dir.is_empty() && !dir.eq_ignore_ascii_case("off") {
                config.corpus = Some(PathBuf::from(dir));
            }
        }
        if let Ok(label) = std::env::var(ASSERT_ENV_VAR) {
            let label = label.trim();
            if !label.is_empty() {
                config.assert_label = Some(label.to_string());
            }
        }
        Ok(config)
    }
}

/// Parses knob `name`'s `value` as an integer of at least `min`; `what` names the
/// quantity in the error.
fn parse_at_least<T: std::str::FromStr + PartialOrd + std::fmt::Display>(
    name: &str,
    value: &str,
    min: T,
    what: &str,
) -> Result<T, String> {
    value
        .trim()
        .parse::<T>()
        .ok()
        .filter(|n| *n >= min)
        .ok_or_else(|| format!("{name}='{value}' is not {what} (expected an integer >= {min})"))
}

/// Parses a `MATCH_EXPLORE_PROCS` value: ranks per explored trace, at least 2.
fn parse_procs(value: &str) -> Result<usize, String> {
    parse_at_least(PROCS_ENV_VAR, value, 2, "a rank count")
}

/// Parses a `MATCH_EXPLORE_ITERS` value: main-loop iterations per trace, at least 2.
fn parse_iters(value: &str) -> Result<u64, String> {
    parse_at_least(ITERS_ENV_VAR, value, 2, "an iteration count")
}

/// Parses a `MATCH_EXPLORE_BUDGET` value: traces per design, at least 1.
fn parse_budget(value: &str) -> Result<u32, String> {
    parse_at_least(BUDGET_ENV_VAR, value, 1, "a trace budget")
}

/// Parses a `MATCH_EXPLORE_SEED` value: any `u64`.
fn parse_seed(value: &str) -> Result<u64, String> {
    value.trim().parse().map_err(|_| {
        format!("{SEED_ENV_VAR}='{value}' is not a seed (expected an unsigned 64-bit integer)")
    })
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

    /// Asserts `result` is an error naming `knob`.
    fn names<T: std::fmt::Debug>(result: Result<T, String>, knob: &str) {
        let error = result.expect_err("malformed value accepted");
        assert!(error.contains(knob), "{error}");
    }

    #[test]
    fn procs_parser_accepts_two_or_more_ranks() {
        assert_eq!(parse_procs(" 16 "), Ok(16));
        assert_eq!(parse_procs("2"), Ok(2));
        for bad in ["1", "0", "-4", "abc", "", "8,16"] {
            names(parse_procs(bad), PROCS_ENV_VAR);
        }
    }

    #[test]
    fn iters_parser_accepts_two_or_more_iterations() {
        assert_eq!(parse_iters("12"), Ok(12));
        assert_eq!(parse_iters("2"), Ok(2));
        for bad in ["1", "0", "twelve", "1.5"] {
            names(parse_iters(bad), ITERS_ENV_VAR);
        }
    }

    #[test]
    fn budget_parser_accepts_positive_budgets() {
        assert_eq!(parse_budget("48"), Ok(48));
        assert_eq!(parse_budget("1"), Ok(1));
        for bad in ["0", "abc", "-1", "4294967296"] {
            names(parse_budget(bad), BUDGET_ENV_VAR);
        }
    }

    #[test]
    fn seed_parser_accepts_any_u64() {
        assert_eq!(parse_seed("0"), Ok(0));
        assert_eq!(parse_seed(&u64::MAX.to_string()), Ok(u64::MAX));
        for bad in ["-1", "seed", "18446744073709551616"] {
            names(parse_seed(bad), SEED_ENV_VAR);
        }
    }
}
