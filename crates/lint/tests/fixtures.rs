//! Per-rule fixture tests: every rule proves it detects its violation, passes
//! clean code, honours a reasoned waiver, and rejects a reason-less one. All
//! fixture sources live in string literals, so nothing here trips the linter
//! when it scans this file as part of the workspace.

use match_lint::{check_knobs, lint_source, KnobRef, Rule, KNOB_TABLE};

fn rules_of(path: &str, src: &str) -> Vec<Rule> {
    lint_source(path, src)
        .violations
        .iter()
        .map(|v| v.rule)
        .collect()
}

// ---------------------------------------------------------------- no-wall-clock

#[test]
fn wall_clock_detected_in_simulation_code() {
    let src = r#"
        fn bad() {
            let t = std::time::Instant::now();
            let s = std::time::SystemTime::now();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    "#;
    let rules = rules_of("crates/mpisim/src/foo.rs", src);
    assert_eq!(
        rules.iter().filter(|r| **r == Rule::NoWallClock).count(),
        3,
        "Instant, SystemTime and sleep should each fire once: {rules:?}"
    );
}

#[test]
fn wall_clock_ignored_in_test_regions() {
    let src = r#"
        #[cfg(test)]
        mod tests {
            #[test]
            fn busy_wait() {
                std::thread::sleep(std::time::Duration::from_millis(1));
                let _ = std::time::Instant::now();
            }
        }
    "#;
    assert!(rules_of("crates/mpisim/src/foo.rs", src).is_empty());
}

#[test]
fn wall_clock_legal_outside_simulation_crates() {
    let src = "fn time_it() { let _ = std::time::Instant::now(); }";
    assert!(rules_of("crates/bench/src/main.rs", src).is_empty());
}

#[test]
fn wall_clock_allowlisted_in_cache_gc() {
    let src = "fn mtime(m: &std::fs::Metadata) -> std::time::SystemTime { m.modified().unwrap() }";
    assert!(rules_of("crates/core/src/persist.rs", src).is_empty());
}

// ------------------------------------------------------------- no-unstable-hash

#[test]
fn unstable_hash_detected_in_persistence_code() {
    let src = r#"
        use std::collections::hash_map::DefaultHasher;
        use std::hash::Hasher;
    "#;
    let rules = rules_of("crates/fti/src/store.rs", src);
    assert_eq!(
        rules.iter().filter(|r| **r == Rule::NoUnstableHash).count(),
        2,
        "{rules:?}"
    );
}

#[test]
fn unstable_hash_out_of_scope_elsewhere() {
    let src = "use std::collections::hash_map::DefaultHasher;";
    assert!(!rules_of("crates/mpisim/src/foo.rs", src).contains(&Rule::NoUnstableHash));
}

// ----------------------------------------------------------- ordered-iteration

#[test]
fn hash_collections_detected_in_report_modules() {
    let src = "use std::collections::HashMap;";
    assert_eq!(
        rules_of("crates/core/src/figures.rs", src),
        vec![Rule::OrderedIteration]
    );
}

#[test]
fn hash_collections_legal_in_non_report_modules() {
    let src = "use std::collections::HashMap;";
    assert!(rules_of("crates/mpisim/src/topo.rs", src).is_empty());
}

#[test]
fn hash_collections_legal_in_report_module_tests() {
    let src = r#"
        #[cfg(test)]
        mod tests {
            use std::collections::HashSet;
        }
    "#;
    assert!(rules_of("crates/core/src/figures.rs", src).is_empty());
}

// -------------------------------------------------------- float-reduction-order

#[test]
fn float_reduction_over_unordered_values_detected() {
    let src = r#"
        use std::collections::HashMap;
        fn total(m: &HashMap<u32, f64>) -> f64 {
            m.values().sum()
        }
    "#;
    assert_eq!(
        rules_of("crates/core/src/cost.rs", src),
        vec![Rule::FloatReductionOrder]
    );
}

#[test]
fn float_reduction_over_ordered_map_is_clean() {
    let src = r#"
        use std::collections::BTreeMap;
        fn total(m: &BTreeMap<u32, f64>) -> f64 {
            m.values().sum()
        }
    "#;
    assert!(rules_of("crates/core/src/cost.rs", src).is_empty());
}

#[test]
fn float_reduction_chain_through_map_detected() {
    let src = r#"
        use std::collections::HashMap;
        fn total(m: &HashMap<u32, f64>) -> f64 {
            m.values().map(|v| v * 2.0).fold(0.0, |a, b| a + b)
        }
    "#;
    assert!(rules_of("crates/core/src/cost.rs", src).contains(&Rule::FloatReductionOrder));
}

// ----------------------------------------------------------- unsafe-containment

#[test]
fn unsafe_outside_containment_modules_detected() {
    let src = r#"
        fn zero(p: *mut u8) {
            // SAFETY: p is valid for writes per the caller's contract.
            unsafe { *p = 0 }
        }
    "#;
    assert_eq!(
        rules_of("crates/core/src/runner.rs", src),
        vec![Rule::UnsafeContainment]
    );
}

#[test]
fn unsafe_detected_even_in_test_code() {
    let src = r#"
        #[cfg(test)]
        mod tests {
            #[test]
            fn t() {
                // SAFETY: fixture.
                unsafe { std::hint::unreachable_unchecked() }
            }
        }
    "#;
    assert_eq!(
        rules_of("crates/mpisim/src/topo.rs", src),
        vec![Rule::UnsafeContainment]
    );
}

#[test]
fn unsafe_legal_in_containment_modules() {
    let src = r#"
        fn zero(p: *mut u8) {
            // SAFETY: p is valid for writes per the caller's contract.
            unsafe { *p = 0 }
        }
    "#;
    assert!(rules_of("crates/mpisim/src/sched/fiber.rs", src).is_empty());
}

// -------------------------------------------------------------- safety-comment

#[test]
fn uncommented_unsafe_block_detected() {
    let src = r#"
        fn zero(p: *mut u8) {
            unsafe { *p = 0 }
        }
    "#;
    assert_eq!(
        rules_of("crates/mpisim/src/sched/fiber.rs", src),
        vec![Rule::SafetyComment]
    );
}

#[test]
fn safety_doc_heading_accepted_for_unsafe_fn() {
    let src = r#"
        /// Zeroes one byte.
        ///
        /// # Safety
        /// `p` must be valid for writes.
        pub unsafe fn zero(p: *mut u8) {
            // SAFETY: the fn-level contract guarantees validity.
            unsafe { *p = 0 }
        }
    "#;
    assert!(rules_of("crates/mpisim/src/sched/fiber.rs", src).is_empty());
}

#[test]
fn safety_comment_must_be_adjacent() {
    let src = r#"
        fn zero(p: *mut u8) {
            // SAFETY: p is valid for writes.
            let gap = 1;
            unsafe { *p = gap }
        }
    "#;
    assert_eq!(
        rules_of("crates/mpisim/src/sched/fiber.rs", src),
        vec![Rule::SafetyComment]
    );
}

// --------------------------------------------------------------- knob-registry

/// A two-row knob table: one row named by a literal, one through an alias
/// defined in another crate, as `match_core::knobs` names `MATCH_BACKEND`.
const TABLE: &str = r#"
    pub static JOBS: Knob<usize> = Knob { name: "MATCH_JOBS", default: "1", doc: "d", parser: positive };
    pub static BACKEND: Knob<B> = Knob { name: BACKEND_ENV_VAR, default: "par", doc: "d", parser: str::parse };
"#;

const README: &str = "| `MATCH_JOBS` | d | 1 |\n| `MATCH_BACKEND` | d | par |\n";

/// The knob checks over `files` (path, source) and the table above.
fn knob_violations(files: &[(&str, &str)], readme: &str) -> Vec<String> {
    let mut refs: Vec<(String, Vec<KnobRef>)> = files
        .iter()
        .map(|(path, src)| (path.to_string(), lint_source(path, src).knobs))
        .collect();
    refs.push((KNOB_TABLE.to_string(), lint_source(KNOB_TABLE, TABLE).knobs));
    check_knobs(&refs, readme)
        .iter()
        .inspect(|v| assert_eq!(v.rule, Rule::KnobRegistry))
        .map(|v| format!("{}:{}", v.file, v.line))
        .collect()
}

/// A workspace where both rows are defined, read and documented.
const ALIAS: (&str, &str) = (
    "crates/mpisim/src/sched/mod.rs",
    r#"pub const BACKEND_ENV_VAR: &str = "MATCH_BACKEND";"#,
);
const READER: (&str, &str) = (
    "crates/bench/src/main.rs",
    "fn f() { knobs::JOBS.read(); knobs::BACKEND.read(); }",
);

#[test]
fn unregistered_knob_literal_detected() {
    assert!(knob_violations(&[ALIAS, READER], README).is_empty());
    let typo = (
        "crates/core/src/runner.rs",
        r#"fn f() { let _ = std::env::var("MATCH_TYPO_KNOB"); }"#,
    );
    assert_eq!(
        knob_violations(&[ALIAS, READER, typo], README),
        vec!["crates/core/src/runner.rs:1"]
    );
    // An alias of an unregistered name is a typo too.
    let alias_typo = (
        "crates/fti/src/lib.rs",
        r#"const X: &str = "MATCH_TYPO_KNOB";"#,
    );
    assert_eq!(
        knob_violations(&[ALIAS, READER, alias_typo], README),
        vec!["crates/fti/src/lib.rs:1"]
    );
}

#[test]
fn registered_knob_literal_is_clean_and_counted() {
    let src = r#"fn f() { let _ = std::env::var("MATCH_JOBS"); }"#;
    let report = lint_source("crates/core/src/runner.rs", src);
    assert!(report.violations.is_empty());
    assert_eq!(
        report.knobs,
        vec![KnobRef::Literal {
            name: "MATCH_JOBS".to_string(),
            line: 1,
            in_test: false,
        }]
    );
    // A literal read keeps a row alive as well as a `knobs::ROW` read does.
    let literal_reader = ("crates/core/src/runner.rs", src);
    let row_reader = (
        "crates/bench/src/main.rs",
        "fn f() { knobs::BACKEND.read(); }",
    );
    assert!(knob_violations(&[ALIAS, literal_reader, row_reader], README).is_empty());
}

#[test]
fn registered_knob_read_nowhere_detected() {
    // Only BACKEND is read; the table's JOBS row (line 2) is dead. The alias
    // definition and the table's own literal are no reads.
    let reader = (
        "crates/bench/src/main.rs",
        "fn f() { knobs::BACKEND.read(); }",
    );
    assert_eq!(
        knob_violations(&[ALIAS, reader], README),
        vec![format!("{KNOB_TABLE}:2")]
    );
    // A read in test code keeps no row alive.
    let test_reader = (
        "crates/core/src/designs.rs",
        "#[cfg(test)]\nmod tests {\n    fn f() { knobs::JOBS.read(); std::env::var(\"MATCH_JOBS\"); }\n}\n",
    );
    assert_eq!(
        knob_violations(&[ALIAS, reader, test_reader], README),
        vec![format!("{KNOB_TABLE}:2")]
    );
    // The same for a row named through its alias (line 3).
    let reader = ("crates/bench/src/main.rs", "fn f() { knobs::JOBS.read(); }");
    assert_eq!(
        knob_violations(&[ALIAS, reader], README),
        vec![format!("{KNOB_TABLE}:3")]
    );
}

#[test]
fn knob_missing_from_readme_detected() {
    assert_eq!(
        knob_violations(&[ALIAS, READER], "| `MATCH_JOBS` | d | 1 |\n"),
        vec!["README.md:1"]
    );
}

#[test]
fn knob_row_naming_an_undefined_alias_detected() {
    // Without the alias definition the BACKEND row cannot be resolved.
    assert_eq!(
        knob_violations(&[READER], README),
        vec![format!("{KNOB_TABLE}:3")]
    );
}

// --------------------------------------------------------------------- waivers

#[test]
fn standalone_waiver_with_reason_suppresses() {
    let src = r#"
        fn pace() {
            // match-lint: allow(no-wall-clock) -- fixture: paces a host-side poll loop
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    "#;
    let report = lint_source("crates/mpisim/src/foo.rs", src);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.waivers_used, 1);
}

#[test]
fn trailing_waiver_covers_its_own_line() {
    let src = "fn pace(d: std::time::Duration) { std::thread::sleep(d) } \
               // match-lint: allow(no-wall-clock) -- fixture reason";
    let report = lint_source("crates/mpisim/src/foo.rs", src);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.waivers_used, 1);
}

#[test]
fn waiver_without_reason_rejected_and_violation_kept() {
    let src = r#"
        fn pace(d: std::time::Duration) {
            // match-lint: allow(no-wall-clock)
            std::thread::sleep(d);
        }
    "#;
    let rules = rules_of("crates/mpisim/src/foo.rs", src);
    assert!(rules.contains(&Rule::WaiverSyntax), "{rules:?}");
    assert!(rules.contains(&Rule::NoWallClock), "{rules:?}");
}

#[test]
fn waiver_naming_unknown_rule_rejected() {
    let src = r#"
        // match-lint: allow(no-such-rule) -- a reason does not save it
        fn f() {}
    "#;
    assert_eq!(
        rules_of("crates/mpisim/src/foo.rs", src),
        vec![Rule::WaiverSyntax]
    );
}

#[test]
fn waiver_for_a_different_rule_does_not_suppress() {
    let src = r#"
        fn pace(d: std::time::Duration) {
            // match-lint: allow(ordered-iteration) -- wrong rule entirely
            std::thread::sleep(d);
        }
    "#;
    let rules = rules_of("crates/mpisim/src/foo.rs", src);
    assert!(rules.contains(&Rule::NoWallClock), "{rules:?}");
}

#[test]
fn waiver_syntax_itself_cannot_be_waived() {
    assert!(!Rule::WaiverSyntax.waivable());
    for rule in Rule::ALL {
        if rule != Rule::WaiverSyntax {
            assert!(rule.waivable(), "{rule} should be waivable");
        }
    }
}
