//! Integration tests against the live tree: the workspace must be lint-clean,
//! and seeding a known hazard back into a simulation module must be caught.
//! These run under plain `cargo test`, so the contracts are enforced on every
//! developer machine, not only in the CI lint job.

use std::path::{Path, PathBuf};

use match_lint::{lint_source, lint_workspace, Rule, UNSAFE_ALLOWED};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_is_lint_clean() {
    let report = lint_workspace(&repo_root()).expect("workspace walk");
    assert!(report.files_scanned > 50, "suspiciously small scan");
    let rendered: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
    assert!(
        report.is_clean(),
        "the workspace must stay lint-clean:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn seeding_wall_clock_into_a_simulation_module_is_caught() {
    // Take a real mpisim module, append an Instant::now() read, and lint the
    // doctored copy under its real path: the hazard the linter exists for must
    // not be able to slip back in unnoticed.
    let rel = "crates/mpisim/src/machine.rs";
    let clean = std::fs::read_to_string(repo_root().join(rel)).expect("read machine.rs");
    assert!(
        !lint_source(rel, &clean)
            .violations
            .iter()
            .any(|v| v.rule == Rule::NoWallClock),
        "machine.rs must start clean for this test to mean anything"
    );

    let seeded = format!(
        "{clean}\nfn seeded_hazard() -> std::time::Duration {{ \
         std::time::Instant::now().elapsed() }}\n"
    );
    let report = lint_source(rel, &seeded);
    let hit = report
        .violations
        .iter()
        .find(|v| v.rule == Rule::NoWallClock)
        .expect("seeded Instant::now() must be flagged");
    assert!(
        hit.line > clean.lines().count(),
        "flagged line {} should be in the appended code",
        hit.line
    );
}

#[test]
fn deleting_a_safety_comment_is_caught() {
    // Strip every `// SAFETY:` lead line from each audited module and re-lint:
    // at least one uncommented unsafe site must surface per file that has any
    // standalone SAFETY comments.
    for rel in UNSAFE_ALLOWED {
        let src = std::fs::read_to_string(repo_root().join(rel)).expect(rel);
        let stripped: String = src
            .lines()
            .filter(|l| !l.trim_start().starts_with("// SAFETY:"))
            .map(|l| format!("{l}\n"))
            .collect();
        if stripped.len() == src.len() {
            continue;
        }
        let report = lint_source(rel, &stripped);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.rule == Rule::SafetyComment),
            "{rel}: stripping SAFETY comments must trip the safety-comment rule"
        );
    }
}

#[test]
fn moving_unsafe_outside_the_boundary_is_caught() {
    // The same unsafe code that is legal inside the containment boundary is a
    // violation under any other path.
    let src = "fn f(p: *mut u8) {\n    // SAFETY: fixture.\n    unsafe { *p = 0 }\n}\n";
    assert!(lint_source(UNSAFE_ALLOWED[0], src).violations.is_empty());
    let report = lint_source("crates/core/src/runner.rs", src);
    assert!(report
        .violations
        .iter()
        .any(|v| v.rule == Rule::UnsafeContainment));
}

#[test]
fn workspace_has_no_reasonless_waivers() {
    // `lint_workspace` already rejects reason-less waivers as waiver-syntax
    // violations; assert the stronger statement that the tree uses none. A waiver
    // is a documented debt: relax this only consciously, with the debt it records.
    let report = lint_workspace(&repo_root()).expect("workspace walk");
    assert_eq!(
        report.waivers_used, 0,
        "the tree uses waivers again; add them deliberately"
    );
}
