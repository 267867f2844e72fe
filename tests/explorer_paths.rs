//! Golden recovery-path coverage: the fault-space explorer must reach every
//! named recovery path within a fixed deterministic budget, for all four
//! designs, and its report must be byte-identical across the `coop` and `par`
//! scheduler backends.
//!
//! The golden sets encode a structural fact worth pinning: the three respawn
//! designs reach the full taxonomy (primary restores at every level, the L2
//! partner copy, L3 Reed–Solomon decode, the L4 PFS read-back, and scratch),
//! while `SHRINK-FTI` reaches exactly six labels — survivors of a shrink never
//! lose their local checkpoints, so the partner/decode/pfs sources are
//! unreachable by construction.

use match_core::mpisim::BACKEND_ENV_VAR;
use match_core::recovery::RecoveryStrategy;
use match_explorer::{ExploreConfig, Explorer};

/// The seed corpus alone covers the taxonomy; budget 10 runs exactly the seeds.
fn config() -> ExploreConfig {
    ExploreConfig {
        nprocs: 8,
        iterations: 12,
        budget: 10,
        seed: 7,
        corpus: None,
        assert_label: None,
    }
}

/// Labels every respawn design must reach within the seed budget.
const RESPAWN_GOLDEN: [&str; 8] = [
    "fresh",
    "scratch",
    "L1",
    "L2",
    "L2-partner",
    "L3",
    "L4",
    "L4-pfs",
];

/// The complete reachable label set of `SHRINK-FTI` (exact, not a subset).
const SHRINK_GOLDEN: [&str; 6] = [
    "L1+shrink",
    "L2+shrink",
    "L3+shrink",
    "L4+shrink",
    "fresh",
    "scratch+shrink",
];

// One test function on purpose: it flips `MATCH_BACKEND` between runs, and a
// single sequential body keeps the env mutation trivially race-free.
#[test]
fn golden_paths_reachable_on_every_backend_and_byte_identical() {
    let mut reports = Vec::new();
    for backend in ["coop", "par"] {
        std::env::set_var(BACKEND_ENV_VAR, backend);
        let outcome = Explorer::new(config()).run();
        assert!(
            outcome.violations.is_empty(),
            "{backend}: seed corpus must violate nothing: {:?}",
            outcome.violations
        );
        for design in &outcome.report.designs {
            assert_eq!(design.dead_ends, 0, "{backend}/{}", design.design);
            if design.design == RecoveryStrategy::Shrink.design_name() {
                assert_eq!(
                    design.paths, SHRINK_GOLDEN,
                    "{backend}: SHRINK-FTI reaches exactly its six labels"
                );
            } else {
                for label in RESPAWN_GOLDEN {
                    assert!(
                        design.paths.iter().any(|p| p == label),
                        "{backend}/{}: missing {label} in {:?}",
                        design.design,
                        design.paths
                    );
                }
                assert!(
                    design.paths.iter().any(|p| p.starts_with("L3-decode@")),
                    "{backend}/{}: no L3 decode path in {:?}",
                    design.design,
                    design.paths
                );
                assert!(
                    design.paths.len() >= 8,
                    "{backend}/{}: only {} distinct paths",
                    design.design,
                    design.paths.len()
                );
            }
        }
        reports.push((backend, outcome.report.to_json()));
    }
    std::env::remove_var(BACKEND_ENV_VAR);
    let (_, reference) = &reports[0];
    for (backend, json) in &reports[1..] {
        assert_eq!(
            json, reference,
            "explore report must be byte-identical on the {backend} backend"
        );
    }
}
