//! The rule set. Every rule here is derived from a contract the repo already
//! depends on (and in most cases from a bug it already paid for — see the README's
//! "Static analysis" section for the per-rule rationale):
//!
//! * `no-wall-clock` — host time in simulation code breaks bit-determinism.
//! * `no-unstable-hash` — `std::hash` output is unstable across releases; persisted
//!   bytes must use the in-tree FNV.
//! * `ordered-iteration` — `HashMap`/`HashSet` iteration order leaks into anything
//!   it is allowed to touch; report/figure/serialization modules must not name them.
//! * `float-reduction-order` — f64 accumulation is order-sensitive; reducing an
//!   unordered map's values is a silent determinism hazard.
//! * `unsafe-containment` — `unsafe` is only legal in the five audited files.
//! * `safety-comment` — every `unsafe` site carries its invariant in a `// SAFETY:`
//!   comment immediately above it.
//! * `knob-registry` — every `MATCH_*` literal names a row of the knob table
//!   ([`crate::KNOB_TABLE`]), every row is read somewhere, and the README documents
//!   all of them. The rule is workspace-level ([`crate::check_knobs`]); per file,
//!   [`lint_source`] only collects the [`KnobRef`]s it needs.
//!
//! Violations can be waived in-source, narrowly, with a mandatory reason:
//!
//! ```text
//! // match-lint: allow(no-wall-clock) -- log-only timing, never read into a result
//! ```
//!
//! A standalone waiver comment covers the next code line; a trailing waiver covers
//! its own line. A waiver without a ` -- reason` (or naming an unknown rule) is
//! itself a violation, and that violation cannot be waived.

use crate::lexer::{lex, TokKind, Token};
use crate::{Rule, Violation};

/// Files in which the `unsafe` keyword is legal. Everything else in the workspace
/// must stay safe Rust — these five files are the audited containment boundary
/// (fiber context switching and stack mapping, the two fiber schedulers built on it,
/// the GFNI SIMD kernels, and the counting global allocator of the allocation
/// regression test, which `GlobalAlloc` makes an `unsafe impl`).
pub const UNSAFE_ALLOWED: &[&str] = &[
    "crates/fti/src/rs_code.rs",
    "crates/mpisim/src/sched/coop.rs",
    "crates/mpisim/src/sched/fiber.rs",
    "crates/mpisim/src/sched/par.rs",
    "crates/mpisim/tests/steady_state_allocations.rs",
];

/// Simulation source trees where host wall-clock (`Instant`, `SystemTime`,
/// `thread::sleep`) is forbidden outside `#[cfg(test)]` regions.
const WALL_CLOCK_SCOPE: &[&str] = &[
    "crates/core/src/",
    "crates/deptrace/src/",
    "crates/fti/src/",
    "crates/mpisim/src/",
    "crates/proxies/src/",
    "crates/recovery/src/",
    "crates/suite/src/",
];

/// Wall-clock allowlist: benchmark timing is the bench crate's whole job, and the
/// persistent cache's mtime-LRU GC is inherently host-time (it never feeds results).
const WALL_CLOCK_ALLOWED: &[&str] = &["crates/core/src/persist.rs"];

/// Persistence and cache-key code where `std::hash` machinery is forbidden
/// (in-tree FNV only — `std::hash` output may change between Rust releases).
const UNSTABLE_HASH_SCOPE: &[&str] = &["crates/core/", "crates/fti/"];

/// Report-, figure- and serialization-producing modules where naming a `HashMap` or
/// `HashSet` at all is an error: iteration order would leak into emitted bytes.
const ORDERED_ITER_SCOPE: &[&str] = &[
    "crates/bench/benches/",
    "crates/bench/src/",
    "crates/core/src/experiment.rs",
    "crates/core/src/figures.rs",
    "crates/core/src/findings.rs",
    "crates/core/src/matrix.rs",
    "crates/core/src/mtbf.rs",
    "crates/core/src/persist.rs",
    "crates/core/src/runner.rs",
    "crates/core/src/table.rs",
    "crates/core/src/table1.rs",
    "crates/deptrace/src/analysis.rs",
    "crates/deptrace/src/report.rs",
    "crates/recovery/src/report.rs",
];

/// Cost-accounting code where reducing an unordered collection's values with an
/// order-sensitive f64 fold is flagged.
const FLOAT_SCOPE: &[&str] = &[
    "crates/core/src/",
    "crates/fti/src/",
    "crates/mpisim/src/machine.rs",
    "crates/mpisim/src/stats.rs",
    "crates/recovery/src/",
];

fn in_scope(path: &str, scope: &[&str]) -> bool {
    scope
        .iter()
        .any(|p| path == *p || (p.ends_with('/') && path.starts_with(p)))
}

/// Per-file analysis result, aggregated by [`crate::lint_workspace`].
#[derive(Debug, Default)]
pub struct FileReport {
    /// Violations that survived waiver filtering, in line order.
    pub violations: Vec<Violation>,
    /// Every `MATCH_*` knob mention, for the workspace-level knob checks.
    pub knobs: Vec<KnobRef>,
    /// Waivers that actually suppressed a violation.
    pub waivers_used: usize,
}

/// Lints one file. `rel_path` must be workspace-relative with `/` separators — the
/// rule scoping is path-based.
pub fn lint_source(rel_path: &str, source: &str) -> FileReport {
    let tokens = lex(source);
    let file = FileCtx::new(rel_path, &tokens);
    let mut raw: Vec<Violation> = Vec::new();

    if in_scope(rel_path, WALL_CLOCK_SCOPE) && !in_scope(rel_path, WALL_CLOCK_ALLOWED) {
        no_wall_clock(&file, &mut raw);
    }
    if in_scope(rel_path, UNSTABLE_HASH_SCOPE) {
        no_unstable_hash(&file, &mut raw);
    }
    if in_scope(rel_path, ORDERED_ITER_SCOPE) {
        ordered_iteration(&file, &mut raw);
    }
    if in_scope(rel_path, FLOAT_SCOPE) {
        float_reduction_order(&file, &mut raw);
    }
    if !UNSAFE_ALLOWED.contains(&rel_path) {
        unsafe_containment(&file, &mut raw);
    }
    safety_comment(&file, &mut raw);

    let knobs = if rel_path.starts_with("crates/lint") {
        Vec::new()
    } else {
        knob_refs(&file)
    };

    let (waivers, mut violations) = parse_waivers(&file);
    let mut waivers_used = 0;
    for v in raw {
        let waived = waivers
            .iter()
            .any(|w| w.reason_ok && w.rules.contains(&v.rule) && w.target_line == v.line);
        if waived {
            waivers_used += 1;
        } else {
            violations.push(v);
        }
    }
    violations.sort_by_key(|v| (v.line, v.rule.name()));
    FileReport {
        violations,
        knobs,
        waivers_used,
    }
}

// -------------------------------------------------------------------------------
// File context: code tokens, test regions, attribute lines, comments by line
// -------------------------------------------------------------------------------

struct FileCtx<'a> {
    path: &'a str,
    tokens: &'a [Token],
    /// Indices (into `tokens`) of the non-comment tokens.
    code: Vec<usize>,
    /// `(first_line, last_line)` of `#[cfg(test)] mod`/`#[test] fn` bodies.
    test_spans: Vec<(usize, usize)>,
    /// `(first_line, last_line)` of every outer attribute (`#[…]`).
    attr_spans: Vec<(usize, usize)>,
}

impl<'a> FileCtx<'a> {
    fn new(path: &'a str, tokens: &'a [Token]) -> FileCtx<'a> {
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.kind.is_comment())
            .map(|(i, _)| i)
            .collect();
        let mut ctx = FileCtx {
            path,
            tokens,
            code,
            test_spans: Vec::new(),
            attr_spans: Vec::new(),
        };
        ctx.scan_attributes();
        ctx
    }

    fn code_tok(&self, ci: usize) -> &Token {
        &self.tokens[self.code[ci]]
    }

    fn code_ident(&self, ci: usize) -> Option<&str> {
        match &self.tokens[*self.code.get(ci)?].kind {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    fn code_punct(&self, ci: usize, c: char) -> bool {
        self.code
            .get(ci)
            .is_some_and(|&i| self.tokens[i].kind == TokKind::Punct(c))
    }

    /// Whether `line` falls inside a `#[cfg(test)]`/`#[test]` item body (or the whole
    /// file is an integration test/bench/example target).
    fn in_test(&self, line: usize) -> bool {
        self.path.starts_with("tests/")
            || self.path.starts_with("examples/")
            || self.path.contains("/benches/")
            || self
                .test_spans
                .iter()
                .any(|&(a, b)| (a..=b).contains(&line))
    }

    fn in_attr(&self, line: usize) -> bool {
        self.attr_spans
            .iter()
            .any(|&(a, b)| (a..=b).contains(&line))
    }

    /// Finds attributes and, for the test-marking ones, the brace-delimited body
    /// that follows (module or function — either way, the next matched `{…}`).
    fn scan_attributes(&mut self) {
        let mut ci = 0;
        while ci + 1 < self.code.len() {
            if self.code_punct(ci, '#') && self.code_punct(ci + 1, '[') {
                let start_line = self.code_tok(ci).line;
                let mut depth = 0usize;
                let mut idents: Vec<String> = Vec::new();
                let mut end = ci + 1;
                for cj in ci + 1..self.code.len() {
                    match &self.code_tok(cj).kind {
                        TokKind::Punct('[') => depth += 1,
                        TokKind::Punct(']') => {
                            depth -= 1;
                            if depth == 0 {
                                end = cj;
                                break;
                            }
                        }
                        TokKind::Ident(s) => idents.push(s.clone()),
                        _ => {}
                    }
                }
                self.attr_spans.push((start_line, self.code_tok(end).line));
                let is_test_attr = idents.iter().any(|s| s == "test")
                    && (idents.len() == 1 || idents.iter().any(|s| s == "cfg"));
                if is_test_attr {
                    if let Some(span) = self.body_span_after(end + 1) {
                        self.test_spans.push(span);
                    }
                }
                ci = end + 1;
            } else {
                ci += 1;
            }
        }
    }

    /// The line span of the next `{…}` body starting at code index `ci`, stopping
    /// at a `;` (no body) at brace depth zero.
    fn body_span_after(&self, ci: usize) -> Option<(usize, usize)> {
        let mut cj = ci;
        // Skip any further attributes between the test attribute and the item.
        while cj + 1 < self.code.len() && self.code_punct(cj, '#') && self.code_punct(cj + 1, '[') {
            let mut depth = 0usize;
            for ck in cj + 1..self.code.len() {
                match self.code_tok(ck).kind {
                    TokKind::Punct('[') => depth += 1,
                    TokKind::Punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            cj = ck + 1;
                            break;
                        }
                    }
                    _ => {}
                }
            }
        }
        let start = self
            .code_tok(ci.min(self.code.len().saturating_sub(1)))
            .line;
        let mut depth = 0usize;
        for ck in cj..self.code.len() {
            match self.code_tok(ck).kind {
                TokKind::Punct(';') if depth == 0 => return None,
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return Some((start, self.code_tok(ck).line));
                    }
                }
                _ => {}
            }
        }
        None
    }

    /// Concatenated comment text of every comment token on `line`, or on a line if
    /// `before` limits to comments appearing before that token index.
    fn comments_on_line(&self, line: usize, before: Option<usize>) -> String {
        let mut out = String::new();
        for (i, t) in self.tokens.iter().enumerate() {
            if t.line == line && before.is_none_or(|b| i < b) {
                if let Some(text) = t.kind.comment_text() {
                    out.push_str(text);
                    out.push('\n');
                }
            }
        }
        out
    }

    /// Whether `line` holds any non-comment token.
    fn line_has_code(&self, line: usize) -> bool {
        self.code.iter().any(|&i| self.tokens[i].line == line)
    }

    fn violation(&self, out: &mut Vec<Violation>, rule: Rule, line: usize, message: String) {
        out.push(Violation {
            file: self.path.to_string(),
            line,
            rule,
            message,
        });
    }
}

// -------------------------------------------------------------------------------
// Rules
// -------------------------------------------------------------------------------

fn no_wall_clock(f: &FileCtx<'_>, out: &mut Vec<Violation>) {
    for ci in 0..f.code.len() {
        let tok = f.code_tok(ci);
        if f.in_test(tok.line) {
            continue;
        }
        let flagged = match f.code_ident(ci) {
            Some("Instant") => Some("`Instant`"),
            Some("SystemTime") => Some("`SystemTime`"),
            Some("sleep") if ci + 1 < f.code.len() && f.code_punct(ci + 1, '(') => {
                Some("`thread::sleep`")
            }
            _ => None,
        };
        if let Some(what) = flagged {
            f.violation(
                out,
                Rule::NoWallClock,
                tok.line,
                format!(
                    "{what} reads host wall-clock in simulation code; every \
                     scheduling-visible decision must be resolved in virtual time \
                     (SimTime) or the bit-determinism contract breaks"
                ),
            );
        }
    }
}

fn no_unstable_hash(f: &FileCtx<'_>, out: &mut Vec<Violation>) {
    for ci in 0..f.code.len() {
        let Some(id) = f.code_ident(ci) else { continue };
        if id == "DefaultHasher"
            || id == "RandomState"
            || id == "Hasher"
            || id.starts_with("SipHasher")
        {
            let line = f.code_tok(ci).line;
            f.violation(
                out,
                Rule::NoUnstableHash,
                line,
                format!(
                    "`{id}` (std::hash machinery) is unstable across Rust releases; \
                     persisted bytes and cache keys must use the in-tree FNV-1a \
                     (crates/core/src/persist.rs)"
                ),
            );
        }
    }
}

fn ordered_iteration(f: &FileCtx<'_>, out: &mut Vec<Violation>) {
    for ci in 0..f.code.len() {
        let Some(id) = f.code_ident(ci) else { continue };
        if id == "HashMap" || id == "HashSet" {
            let line = f.code_tok(ci).line;
            if f.in_test(line) {
                continue;
            }
            f.violation(
                out,
                Rule::OrderedIteration,
                line,
                format!(
                    "`{id}` in a report/figure/serialization module: its iteration \
                     order is nondeterministic and leaks into emitted bytes; use \
                     `BTreeMap`/`BTreeSet` or collect-and-sort"
                ),
            );
        }
    }
}

/// Unordered-source method names whose results must not feed an order-sensitive
/// float reduction.
const UNORDERED_SOURCES: &[&str] = &["values", "into_values", "keys", "into_keys", "drain"];
const FLOAT_REDUCERS: &[&str] = &["sum", "fold", "product"];

fn float_reduction_order(f: &FileCtx<'_>, out: &mut Vec<Violation>) {
    // Only meaningful in files that actually use unordered collections; BTreeMap's
    // `values()` is ordered and fine.
    let uses_hash = (0..f.code.len()).any(|ci| {
        matches!(f.code_ident(ci), Some("HashMap") | Some("HashSet"))
            && !f.in_test(f.code_tok(ci).line)
    });
    if !uses_hash {
        return;
    }
    for ci in 0..f.code.len() {
        let line = f.code_tok(ci).line;
        if f.in_test(line) || !f.code_punct(ci, '.') {
            continue;
        }
        let Some(src) = f.code_ident(ci + 1) else {
            continue;
        };
        if !UNORDERED_SOURCES.contains(&src) {
            continue;
        }
        if ci + 2 >= f.code.len() || !f.code_punct(ci + 2, '(') {
            continue;
        }
        // Scan the rest of the method chain (bounded, stopping at a statement
        // boundary) for an order-sensitive reducer.
        let mut depth = 0i32;
        for cj in ci + 2..(ci + 50).min(f.code.len()) {
            match f.code_tok(cj).kind {
                TokKind::Punct('(') => depth += 1,
                TokKind::Punct(')') => depth -= 1,
                TokKind::Punct(';') if depth <= 0 => break,
                TokKind::Punct('.') if depth == 0 => {
                    if let Some(red) = f.code_ident(cj + 1) {
                        if FLOAT_REDUCERS.contains(&red) {
                            f.violation(
                                out,
                                Rule::FloatReductionOrder,
                                line,
                                format!(
                                    "`.{src}()…{red}()` reduces an unordered \
                                     collection; f64 accumulation is \
                                     order-sensitive — sort the items (or use an \
                                     ordered map) before folding"
                                ),
                            );
                            break;
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

fn unsafe_containment(f: &FileCtx<'_>, out: &mut Vec<Violation>) {
    for ci in 0..f.code.len() {
        if f.code_ident(ci) == Some("unsafe") {
            let line = f.code_tok(ci).line;
            f.violation(
                out,
                Rule::UnsafeContainment,
                line,
                format!(
                    "`unsafe` outside the audited containment modules ({}); move \
                     the unsafe operation behind one of their safe interfaces",
                    UNSAFE_ALLOWED.join(", ")
                ),
            );
        }
    }
}

fn safety_comment(f: &FileCtx<'_>, out: &mut Vec<Violation>) {
    for ci in 0..f.code.len() {
        if f.code_ident(ci) != Some("unsafe") {
            continue;
        }
        let tok_idx = f.code[ci];
        let line = f.code_tok(ci).line;
        let kind = match f.code_ident(ci + 1) {
            Some("impl") => "unsafe impl",
            Some("fn") => "unsafe fn",
            Some("trait") => "unsafe trait",
            Some("extern") => "unsafe extern",
            _ => "unsafe block",
        };
        // Same-line comment before the keyword?
        if has_safety_marker(&f.comments_on_line(line, Some(tok_idx))) {
            continue;
        }
        // Otherwise scan upward through the contiguous run of comment-only and
        // attribute-only lines immediately above.
        let mut ok = false;
        let mut l = line;
        while l > 1 {
            l -= 1;
            let comments = f.comments_on_line(l, None);
            if has_safety_marker(&comments) {
                ok = true;
                break;
            }
            let comment_only = !comments.is_empty() && !f.line_has_code(l);
            if comment_only || f.in_attr(l) {
                continue;
            }
            break;
        }
        if !ok {
            f.violation(
                out,
                Rule::SafetyComment,
                line,
                format!(
                    "{kind} without a `// SAFETY:` comment immediately above it; \
                     state the invariant that makes this sound"
                ),
            );
        }
    }
}

/// A mention of a `MATCH_*` knob in code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KnobRef {
    /// A `MATCH_*` word in a string literal: a read (unless `in_test`), or text
    /// naming the knob.
    Literal {
        name: String,
        line: usize,
        in_test: bool,
    },
    /// `const IDENT: &str = "MATCH_…";` — `IDENT` stands for the knob's name.
    Alias {
        ident: String,
        name: String,
        line: usize,
    },
    /// `knobs::IDENT` outside test code: a read through the table's row `IDENT`.
    Row { ident: String },
    /// In [`crate::KNOB_TABLE`], the `name:` field of row `item`: a knob name, or
    /// (`alias`) the identifier of a [`KnobRef::Alias`].
    Field {
        item: String,
        name: String,
        alias: bool,
        line: usize,
    },
}

fn knob_refs(f: &FileCtx<'_>) -> Vec<KnobRef> {
    let mut refs = Vec::new();
    // The `static`/`const` item whose definition the scan is in.
    let mut item = String::new();
    for ci in 0..f.code.len() {
        let line = f.code_tok(ci).line;
        match &f.code_tok(ci).kind {
            TokKind::Ident(s) if s == "static" || s == "const" => {
                item = f.code_ident(ci + 1).unwrap_or_default().to_string();
            }
            TokKind::Str(s) => {
                let defines = ci >= 5
                    && f.code_ident(ci - 5) == Some(item.as_str())
                    && f.code_punct(ci - 1, '=')
                    && f.code_ident(ci - 2) == Some("str")
                    && f.code_punct(ci - 3, '&')
                    && f.code_punct(ci - 4, ':');
                for name in extract_knob_names(s) {
                    refs.push(if defines && *s == name {
                        let ident = item.clone();
                        KnobRef::Alias { ident, name, line }
                    } else {
                        let in_test = f.in_test(line);
                        KnobRef::Literal {
                            name,
                            line,
                            in_test,
                        }
                    });
                }
            }
            TokKind::Ident(s)
                if s == "knobs"
                    && f.code_punct(ci + 1, ':')
                    && f.code_punct(ci + 2, ':')
                    && !f.in_test(line) =>
            {
                if let Some(ident) = f.code_ident(ci + 3) {
                    let ident = ident.to_string();
                    refs.push(KnobRef::Row { ident });
                }
            }
            TokKind::Ident(s)
                if s == "name"
                    && f.path == crate::KNOB_TABLE
                    && !item.is_empty()
                    && f.code_punct(ci + 1, ':')
                    && !f.code_punct(ci + 2, ':') =>
            {
                let (name, alias) = match f.code.get(ci + 2).map(|_| &f.code_tok(ci + 2).kind) {
                    Some(TokKind::Str(name)) => (name.clone(), false),
                    Some(TokKind::Ident(ident)) => (ident.clone(), true),
                    _ => continue,
                };
                let item = item.clone();
                refs.push(KnobRef::Field {
                    item,
                    name,
                    alias,
                    line,
                });
            }
            _ => {}
        }
    }
    refs
}

/// Extracts every `MATCH_[A-Z0-9_]+` word from `s` (word-boundary on both sides).
pub fn extract_knob_names(s: &str) -> Vec<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(rel) = s[i..].find("MATCH_") {
        let start = i + rel;
        let boundary_ok =
            start == 0 || !(bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_');
        let mut end = start + "MATCH_".len();
        while end < bytes.len()
            && (bytes[end].is_ascii_uppercase()
                || bytes[end].is_ascii_digit()
                || bytes[end] == b'_')
        {
            end += 1;
        }
        if boundary_ok {
            let name = s[start..end].trim_end_matches('_');
            if name.len() > "MATCH_".len() {
                out.push(name.to_string());
            }
        }
        i = end;
    }
    out
}

// -------------------------------------------------------------------------------
// Waivers
// -------------------------------------------------------------------------------

struct Waiver {
    rules: Vec<Rule>,
    target_line: usize,
    reason_ok: bool,
}

/// Parses every waiver comment (the `allow(...)` form behind the tool-name marker);
/// syntax errors come back as (unwaivable) violations.
fn parse_waivers(f: &FileCtx<'_>) -> (Vec<Waiver>, Vec<Violation>) {
    let mut waivers = Vec::new();
    let mut violations = Vec::new();
    for (i, t) in f.tokens.iter().enumerate() {
        let Some(text) = t.kind.comment_text() else {
            continue;
        };
        let Some(pos) = text.find("match-lint:") else {
            continue;
        };
        let rest = text[pos + "match-lint:".len()..].trim_start();
        let mut fail = |msg: String| {
            violations.push(Violation {
                file: f.path.to_string(),
                line: t.line,
                rule: Rule::WaiverSyntax,
                message: msg,
            });
        };
        let Some(body) = rest.strip_prefix("allow(") else {
            fail(format!(
                "malformed waiver; expected `match-lint: allow(<rule>) -- <reason>`, \
                 got `{}`",
                rest.trim()
            ));
            continue;
        };
        let Some(close) = body.find(')') else {
            fail("unterminated waiver rule list: missing `)`".to_string());
            continue;
        };
        let mut rules = Vec::new();
        let mut bad_rule = false;
        for name in body[..close].split(',') {
            let name = name.trim();
            match Rule::from_name(name) {
                Some(Rule::WaiverSyntax) | None => {
                    fail(format!(
                        "waiver names unknown rule `{name}`; known rules: {}",
                        Rule::ALL
                            .iter()
                            .filter(|r| r.waivable())
                            .map(|r| r.name())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ));
                    bad_rule = true;
                }
                Some(r) => rules.push(r),
            }
        }
        if bad_rule {
            continue;
        }
        let after = body[close + 1..].trim();
        let reason = after.strip_prefix("--").map(str::trim).unwrap_or("");
        let reason_ok = !reason.is_empty();
        if !reason_ok {
            fail(
                "waiver without a reason; write \
                 `match-lint: allow(<rule>) -- <why this site is sound>`"
                    .to_string(),
            );
        }
        // A standalone waiver comment covers the next code line; a trailing waiver
        // covers its own line.
        let standalone = !f
            .tokens
            .iter()
            .take(i)
            .any(|p| p.line == t.line && !p.kind.is_comment());
        let target_line = if standalone {
            f.tokens[i + 1..]
                .iter()
                .find(|n| !n.kind.is_comment())
                .map(|n| n.line)
                .unwrap_or(t.line)
        } else {
            t.line
        };
        waivers.push(Waiver {
            rules,
            target_line,
            reason_ok,
        });
    }
    (waivers, violations)
}

fn has_safety_marker(text: &str) -> bool {
    text.contains("SAFETY:") || text.contains("# Safety")
}
