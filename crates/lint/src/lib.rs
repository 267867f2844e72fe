//! `match-lint`: in-tree static analysis enforcing the workspace's determinism and
//! unsafe-containment contracts.
//!
//! Everything this reproduction publishes rests on one invariant: the same
//! `ExperimentId` yields a bit-identical `RunReport` across `MATCH_JOBS`, all three
//! scheduler backends, any `par` worker count, and cache recall vs. recompute. The
//! CI byte-diff jobs prove that invariant *dynamically*; this crate rejects the
//! known hazard classes *statically*, before they cost a debugging session against
//! a 16k-rank run. See [`rules`] for the rule set and the waiver syntax, and
//! [`check_knobs`] for the checks against the `MATCH_*` knob table.
//!
//! The analyzer is zero-dependency and token-level: a real lexer ([`lexer`])
//! strips comments, strings and char literals so rules never fire on prose, but
//! there is no parser — rules are token-pattern matchers scoped by path. That is
//! the sweet spot for an in-tree linter: precise enough to have zero false
//! positives on this tree, simple enough that adding a rule is an afternoon, not
//! a project.

pub mod lexer;
pub mod rules;

pub use rules::{lint_source, FileReport, KnobRef, UNSAFE_ALLOWED};

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// The rules `match-lint` enforces. `WaiverSyntax` is synthetic: it reports
/// malformed waiver comments and cannot itself be waived.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    NoWallClock,
    NoUnstableHash,
    OrderedIteration,
    FloatReductionOrder,
    UnsafeContainment,
    SafetyComment,
    KnobRegistry,
    WaiverSyntax,
}

impl Rule {
    pub const ALL: [Rule; 8] = [
        Rule::NoWallClock,
        Rule::NoUnstableHash,
        Rule::OrderedIteration,
        Rule::FloatReductionOrder,
        Rule::UnsafeContainment,
        Rule::SafetyComment,
        Rule::KnobRegistry,
        Rule::WaiverSyntax,
    ];

    /// The kebab-case name used in output and in waiver comments.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoWallClock => "no-wall-clock",
            Rule::NoUnstableHash => "no-unstable-hash",
            Rule::OrderedIteration => "ordered-iteration",
            Rule::FloatReductionOrder => "float-reduction-order",
            Rule::UnsafeContainment => "unsafe-containment",
            Rule::SafetyComment => "safety-comment",
            Rule::KnobRegistry => "knob-registry",
            Rule::WaiverSyntax => "waiver-syntax",
        }
    }

    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }

    /// Whether an in-source waiver may suppress this rule.
    pub fn waivable(self) -> bool {
        self != Rule::WaiverSyntax
    }

    /// One-line description for `--list-rules` and the README.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::NoWallClock => {
                "host wall-clock (Instant/SystemTime/thread::sleep) forbidden in simulation code"
            }
            Rule::NoUnstableHash => {
                "std::hash machinery forbidden in persistence/cache-key code (in-tree FNV only)"
            }
            Rule::OrderedIteration => {
                "HashMap/HashSet forbidden in report/figure/serialization modules"
            }
            Rule::FloatReductionOrder => {
                "f64 sum/fold over an unordered collection's values flagged in cost accounting"
            }
            Rule::UnsafeContainment => "unsafe only legal inside the five audited files",
            Rule::SafetyComment => "every unsafe site needs a // SAFETY: comment stating its invariant",
            Rule::KnobRegistry => {
                "every MATCH_* literal must be a knob-table row, every row read somewhere and in the README"
            }
            Rule::WaiverSyntax => "malformed or reason-less match-lint waiver comments",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding: a file, a 1-based line, the rule that fired, and prose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub file: String,
    pub line: usize,
    pub rule: Rule,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The aggregated result of linting a workspace tree.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    pub violations: Vec<Violation>,
    pub files_scanned: usize,
    pub waivers_used: usize,
}

impl WorkspaceReport {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The file holding the knob table, workspace-relative: every `name:` field in
/// it is a registered knob, given as a `"MATCH_…"` literal or as the path of a
/// `const IDENT: &str = "MATCH_…"` defined elsewhere in the workspace.
pub const KNOB_TABLE: &str = "crates/core/src/knobs.rs";

/// Lints the workspace rooted at `root`: every `.rs` file under `crates/`,
/// `tests/` and `examples/` (skipping `target/`), plus the workspace-level knob
/// checks against [`KNOB_TABLE`] and `README.md`.
pub fn lint_workspace(root: &Path) -> io::Result<WorkspaceReport> {
    let mut files = Vec::new();
    for top in ["crates", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();

    let mut report = WorkspaceReport::default();
    let mut knobs: Vec<(String, Vec<KnobRef>)> = Vec::new();
    for path in &files {
        let rel = relative_slash(root, path);
        let src = std::fs::read_to_string(path)?;
        let file_report = lint_source(&rel, &src);
        report.violations.extend(file_report.violations);
        report.waivers_used += file_report.waivers_used;
        knobs.push((rel, file_report.knobs));
        report.files_scanned += 1;
    }

    let readme = std::fs::read_to_string(root.join("README.md")).unwrap_or_default();
    report.violations.extend(check_knobs(&knobs, &readme));
    report
        .violations
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// The `knob-registry` checks of one workspace: `files` holds the knob mentions
/// of every linted file ([`KNOB_TABLE`] among them) and `readme` the top-level
/// README. Three invariants:
///
/// 1. every `MATCH_*` literal names a row of the table (a typo can never fork a
///    knob);
/// 2. every row is read outside the table file and outside test code, through
///    `knobs::ROW` or by its literal name (a deleted read leaves no dead row
///    behind);
/// 3. every row appears in the README as `` `MATCH_…` `` (the user-facing table
///    cannot drift from the code).
pub fn check_knobs(files: &[(String, Vec<KnobRef>)], readme: &str) -> Vec<Violation> {
    let violation = |file: &str, line: usize, message: String| Violation {
        file: file.to_string(),
        line,
        rule: Rule::KnobRegistry,
        message,
    };
    let refs = || {
        files
            .iter()
            .flat_map(|(file, refs)| refs.iter().map(move |r| (file, r)))
    };
    let mut out = Vec::new();
    // The rows, `(item, knob name, line)`, with their aliases resolved.
    let mut rows: Vec<(&str, &str, usize)> = Vec::new();
    for (_, r) in refs() {
        let KnobRef::Field {
            item,
            name,
            alias,
            line,
        } = r
        else {
            continue;
        };
        let resolved = refs().find_map(|(_, r)| match r {
            KnobRef::Alias {
                ident, name: knob, ..
            } if ident == name => Some(knob.as_str()),
            _ => None,
        });
        match (alias, resolved) {
            (false, _) => rows.push((item, name, *line)),
            (true, Some(knob)) => rows.push((item, knob, *line)),
            (true, None) => out.push(violation(
                KNOB_TABLE,
                *line,
                format!("row `{item}` is named by `{name}`, which is no `const {name}: &str`"),
            )),
        }
    }

    for (file, r) in refs() {
        let (KnobRef::Literal { name, line, .. } | KnobRef::Alias { name, line, .. }) = r else {
            continue;
        };
        if !rows.iter().any(|(_, row, _)| row == name) {
            out.push(violation(
                file,
                *line,
                format!(
                    "`{name}` is not in the knob table; add a row to {KNOB_TABLE} \
                     (name, default, doc, parser) and to the README knob table — \
                     or fix the typo"
                ),
            ));
        }
    }
    for (item, name, line) in rows {
        let read = refs().any(|(file, r)| {
            file != KNOB_TABLE
                && match r {
                    KnobRef::Literal {
                        name: used,
                        in_test,
                        ..
                    } => used == name && !in_test,
                    KnobRef::Row { ident } => ident == item,
                    _ => false,
                }
        });
        if !read {
            out.push(violation(
                KNOB_TABLE,
                line,
                format!(
                    "knob `{name}` (row `{item}`) is read nowhere in the workspace; delete \
                     the row or restore the read"
                ),
            ));
        }
        if !readme.contains(&format!("`{name}`")) {
            out.push(violation(
                "README.md",
                1,
                format!("knob `{name}` is missing from README.md's knob table"),
            ));
        }
    }
    out
}

/// Locates the workspace root: `explicit` if given, else the nearest ancestor of
/// `cwd` whose `Cargo.toml` declares `[workspace]`, else this crate's parent
/// workspace (useful when invoked via `cargo run` from anywhere).
pub fn find_root(explicit: Option<&Path>, cwd: &Path) -> PathBuf {
    if let Some(r) = explicit {
        return r.to_path_buf();
    }
    let mut dir = Some(cwd);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(s) = std::fs::read_to_string(&manifest) {
            if s.contains("[workspace]") {
                return d.to_path_buf();
            }
        }
        dir = d.parent();
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name != "target" && name != ".git" {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative_slash(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}
