//! The design registry: the single enumeration of the fault-tolerance design axis.
//!
//! Every consumer that sweeps "all designs" — the experiment matrices
//! ([`crate::matrix`]), the figure generators ([`crate::figures`]), the MTBF sweep
//! ([`crate::mtbf`]), [`crate::engine::SuiteEngine::run_all_designs`] and the
//! findings ([`crate::findings`]) — enumerates the axis through
//! [`enabled_designs`]. A design added to [`recovery::RecoveryStrategy::ALL`] then
//! shows up in every figure at once, and a figure can never silently drop one: the
//! registry tests (and the coverage test in [`crate::figures`]) compare figure rows
//! against this list.
//!
//! The beyond-the-paper `SHRINK-FTI` design is part of the axis by default.
//! Switching the [`knobs::SHRINK`] knob (`MATCH_SHRINK`) off restricts the suite
//! to the paper's original three designs ([`recovery::RecoveryStrategy::PAPER`]),
//! reproducing the published figures verbatim. The choice does
//! not enter the cache key: disabling a design only stops scheduling it, and the
//! per-design results that do run are bit-identical either way.

use recovery::RecoveryStrategy;

use crate::knobs;

/// The designs the suite currently sweeps, in figure order (the paper's three
/// first, `SHRINK-FTI` last when enabled). Honours [`knobs::SHRINK`].
pub fn enabled_designs() -> &'static [RecoveryStrategy] {
    match knobs::SHRINK.read() {
        Some(false) => &RecoveryStrategy::PAPER,
        _ => &RecoveryStrategy::ALL,
    }
}

/// The figure names of the enabled designs (`"RESTART-FTI"`, ...), in the same
/// order as [`enabled_designs`].
pub fn enabled_design_names() -> Vec<&'static str> {
    enabled_designs().iter().map(|s| s.design_name()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_axis_is_all_four_designs_with_shrink_last() {
        // The test environment does not set MATCH_SHRINK, so the registry exposes
        // the full axis: the paper's prefix untouched, the shrinking design last
        // (figure ordering of the first three bars never changes).
        let designs = enabled_designs();
        assert_eq!(designs.len(), 4);
        assert_eq!(designs[..3], RecoveryStrategy::PAPER);
        assert_eq!(designs[3], RecoveryStrategy::Shrink);
        assert_eq!(
            enabled_design_names(),
            vec!["RESTART-FTI", "ULFM-FTI", "REINIT-FTI", "SHRINK-FTI"]
        );
    }

    #[test]
    fn off_values_restrict_to_the_paper_axis() {
        for off in ["0", "off", "OFF", " Off ", "false", "no"] {
            assert_eq!(
                knobs::SHRINK.parse(off),
                Ok(false),
                "{off:?} disables SHRINK-FTI"
            );
        }
        for on in ["1", "on", "yes", "true"] {
            assert_eq!(knobs::SHRINK.parse(on), Ok(true), "{on:?} keeps SHRINK-FTI");
        }
        // Anything else is malformed: `match-bench` exits 2, and the library warns
        // and keeps the default, all four designs.
        for bad in ["", "shrink", "maybe"] {
            assert!(knobs::SHRINK.parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn every_enabled_design_has_a_distinct_name_and_protocol() {
        // The registry is the single enumeration the figures trust; duplicate or
        // colliding names would silently merge bars.
        let names = enabled_design_names();
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        // Exactly one design shrinks the world.
        assert_eq!(
            enabled_designs()
                .iter()
                .filter(|s| s.shrinks_world())
                .count(),
            1
        );
    }
}
