//! The single declared registry of every `MATCH_*` environment knob the workspace
//! reads. The `knob-registry` rule enforces three invariants against this table:
//!
//! 1. every `MATCH_*` string literal in the workspace names a registered knob
//!    (a typo'd read can never silently fork a knob);
//! 2. every registered knob is actually read somewhere outside this crate
//!    (a deleted read leaves no dead documentation behind);
//! 3. every registered knob appears in the top-level `README.md`
//!    (the user-facing table can not drift from the code).
//!
//! To add a knob: add a row here, read it in code, and document it in the README —
//! the lint fails until all three agree.

/// One registered environment knob.
#[derive(Debug, Clone, Copy)]
pub struct Knob {
    /// The environment variable name (`MATCH_…`).
    pub name: &'static str,
    /// The effective default when unset, as prose.
    pub default: &'static str,
    /// One-line description.
    pub doc: &'static str,
}

/// Every `MATCH_*` knob the workspace reads, alphabetically.
pub const KNOBS: &[Knob] = &[
    Knob {
        name: "MATCH_APPS",
        default: "all six",
        doc: "subset of proxy applications to run",
    },
    Knob {
        name: "MATCH_BACKEND",
        default: "par",
        doc: "rank scheduler backend: par or coop",
    },
    Knob {
        name: "MATCH_CACHE",
        default: "on",
        doc: "off disables the persistent result cache",
    },
    Knob {
        name: "MATCH_CACHE_DIR",
        default: "target/match-cache",
        doc: "root directory of the persistent result cache",
    },
    Knob {
        name: "MATCH_CACHE_MAX_MB",
        default: "unlimited",
        doc: "cache size cap enabling mtime-LRU garbage collection",
    },
    Knob {
        name: "MATCH_CORES",
        default: "available parallelism",
        doc: "total core budget split between jobs and per-job par workers",
    },
    Knob {
        name: "MATCH_EXPLORE_ASSERT",
        default: "unset",
        doc: "substring asserted unreachable in any explorer path label (seeds a violation)",
    },
    Knob {
        name: "MATCH_EXPLORE_BUDGET",
        default: "48",
        doc: "traces the explorer evaluates per design (integer >= 1)",
    },
    Knob {
        name: "MATCH_EXPLORE_CORPUS",
        default: "off",
        doc: "directory persisting the explorer corpus across runs (off disables)",
    },
    Knob {
        name: "MATCH_EXPLORE_ITERS",
        default: "12",
        doc: "main-loop iterations per explored trace (integer >= 2)",
    },
    Knob {
        name: "MATCH_EXPLORE_PROCS",
        default: "8",
        doc: "ranks per explored trace (integer >= 2)",
    },
    Knob {
        name: "MATCH_EXPLORE_SEED",
        default: "20",
        doc: "mutation RNG seed of the explorer (any u64)",
    },
    Knob {
        name: "MATCH_JOBS",
        default: "core budget",
        doc: "concurrent experiments in the SuiteEngine",
    },
    Knob {
        name: "MATCH_MTBF",
        default: "8x..1x the iteration cap",
        doc: "node-MTBF ladder (iterations) for the mtbf target",
    },
    Knob {
        name: "MATCH_MTBF_CRASH_PCT",
        default: "0",
        doc: "percent of MTBF events escalated to node crashes",
    },
    Knob {
        name: "MATCH_MTBF_RACK_PCT",
        default: "0",
        doc: "percent of node crashes cascading to the rack neighbour",
    },
    Knob {
        name: "MATCH_PROCS",
        default: "4,8,16,32",
        doc: "comma-separated process-count ladder",
    },
    Knob {
        name: "MATCH_RACKS",
        default: "derived from node count",
        doc: "rack count override of the simulated topology",
    },
    Knob {
        name: "MATCH_REPS",
        default: "1",
        doc: "repetitions averaged per matrix cell",
    },
    Knob {
        name: "MATCH_SCALE",
        default: "smoke",
        doc: "input scaling preset: smoke, bench or paper",
    },
    Knob {
        name: "MATCH_SHRINK",
        default: "1",
        doc: "set to 0/off/false/no to drop SHRINK-FTI and sweep only the paper's three designs",
    },
    Knob {
        name: "MATCH_SOURCE_FINGERPRINT",
        default: "set by crates/core/build.rs",
        doc: "build-time source digest baked into persistent cache entries (not user-set)",
    },
    Knob {
        name: "MATCH_WORKERS",
        default: "max(1, MATCH_CORES / jobs)",
        doc: "worker threads of the par backend",
    },
];

/// Looks a knob up by name.
pub fn find(name: &str) -> Option<&'static Knob> {
    KNOBS.iter().find(|k| k.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        for pair in KNOBS.windows(2) {
            assert!(
                pair[0].name < pair[1].name,
                "registry must stay alphabetical and duplicate-free: {} vs {}",
                pair[0].name,
                pair[1].name
            );
        }
    }

    #[test]
    fn every_entry_is_a_match_knob_with_docs() {
        for k in KNOBS {
            assert!(k.name.starts_with("MATCH_"), "{}", k.name);
            assert!(!k.doc.is_empty(), "{} needs a doc line", k.name);
            assert!(!k.default.is_empty(), "{} needs a default", k.name);
        }
    }
}
