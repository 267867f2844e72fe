//! The knob table: every `MATCH_*` environment variable, defined once as a
//! [`Knob`] row holding its name, default, one-line doc and single parser.
//!
//! Library code reads a knob leniently ([`Knob::read`]: a malformed value warns
//! once and runs the default); `match-bench` checks every row at start-up
//! ([`check_all`], exit 2 on a malformed value) and reads its own knobs strictly
//! ([`Knob::get`]). `--help` prints [`help_section`], the README's knob table is
//! [`markdown_table`] (a test diffs the two), and a test holds every `MATCH_…`
//! name in the workspace's sources to a row and every row to a read. The parsers
//! are built from a few primitives: a positive count
//! ([`mpisim::knob::positive`]), an integer at least some bound, a percentage, an
//! on/off switch, a comma list and a name from a set.

use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;

use mpisim::knob::{error, positive};
use mpisim::{SchedBackend, BACKEND_ENV_VAR, WORKERS_ENV_VAR};
use proxies::registry::ExecutionScale;
use proxies::ProxyKind;

/// One environment knob: its name, default, doc line and parser.
#[derive(Debug)]
pub struct Knob<T> {
    /// The environment variable (`MATCH_…`).
    pub name: &'static str,
    /// The effective default when unset, as (Markdown) prose.
    pub default: &'static str,
    /// One-line description (Markdown).
    pub doc: &'static str,
    /// Parses a set value; the error says what the value should have been.
    pub parser: fn(&str) -> Result<T, String>,
}

impl<T> Knob<T> {
    /// Parses `value` as this knob.
    ///
    /// # Errors
    ///
    /// A malformed value is an error naming the knob, the value and what the knob
    /// accepts.
    pub fn parse(&self, value: &str) -> Result<T, String> {
        (self.parser)(value).map_err(|reason| error(self.name, value, &reason))
    }

    /// Reads the knob strictly: `Ok(None)` when unset.
    ///
    /// # Errors
    ///
    /// A set, malformed value is [`Knob::parse`]'s error; a value that is not
    /// Unicode is malformed too.
    pub fn get(&self) -> Result<Option<T>, String> {
        let value = mpisim::knob::var(self.name);
        value.map(|value| self.parse(&value?)).transpose()
    }

    /// Reads the knob leniently, for library code: `None` when unset, and also when
    /// malformed, after one warning per knob and process (see
    /// [`mpisim::knob::read`]).
    pub fn read(&self) -> Option<T> {
        mpisim::knob::read(self.name, self.parser)
    }
}

/// A [`Knob`] of any value type, as the table holds it.
pub trait AnyKnob: Sync {
    /// The environment variable.
    fn name(&self) -> &'static str;
    /// The effective default when unset.
    fn default(&self) -> &'static str;
    /// One-line description.
    fn doc(&self) -> &'static str;
    /// Whether `value` parses, with [`Knob::parse`]'s error when it does not.
    ///
    /// # Errors
    ///
    /// A malformed value.
    fn check(&self, value: &str) -> Result<(), String>;
}

impl<T> AnyKnob for Knob<T> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn default(&self) -> &'static str {
        self.default
    }

    fn doc(&self) -> &'static str {
        self.doc
    }

    fn check(&self, value: &str) -> Result<(), String> {
        self.parse(value).map(drop)
    }
}

/// Defines each knob as a `pub static`, documented by its doc line, and lists
/// them all in [`TABLE`], in the order given.
macro_rules! knob_table {
    ($(pub static $row:ident: Knob<$t:ty> = Knob {
        name: $name:expr,
        default: $default:literal,
        doc: $doc:literal,
        parser: $parser:expr,
    };)*) => {
        $(
            #[doc = $doc]
            pub static $row: Knob<$t> = Knob {
                name: $name,
                default: $default,
                doc: $doc,
                parser: $parser,
            };
        )*

        /// Every knob a user sets, alphabetically.
        pub static TABLE: &[&dyn AnyKnob] = &[$(&$row),*];
    };
}

knob_table! {
    pub static APPS: Knob<Vec<ProxyKind>> = Knob {
        name: "MATCH_APPS",
        default: "all six",
        doc: "comma-separated subset of AMG, CoMD, HPCCG, LULESH, miniFE, miniVite, in any letter case",
        parser: apps,
    };

    pub static BACKEND: Knob<SchedBackend> = Knob {
        name: BACKEND_ENV_VAR,
        default: "`par`",
        doc: "rank scheduler backend: `par` or `coop` (also `--backend`)",
        parser: str::parse,
    };

    pub static CACHE: Knob<bool> = Knob {
        name: "MATCH_CACHE",
        default: "`on`",
        doc: "`off` disables the persistent result cache",
        parser: switch,
    };

    pub static CACHE_DIR: Knob<Option<PathBuf>> = Knob {
        name: "MATCH_CACHE_DIR",
        default: "`target/match-cache`",
        doc: "root directory of the persistent result cache",
        parser: |value| Ok((!value.is_empty()).then(|| PathBuf::from(value))),
    };

    pub static CACHE_MAX_MB: Knob<u64> = Knob {
        name: "MATCH_CACHE_MAX_MB",
        default: "unlimited",
        doc: "cache size cap in MiB, enabling mtime-LRU garbage collection",
        parser: |value| at_least(value, 0),
    };

    pub static CORES: Knob<usize> = Knob {
        name: "MATCH_CORES",
        default: "available parallelism",
        doc: "total core budget split between jobs and per-job `par` workers",
        parser: positive,
    };

    pub static EXPLORE_ASSERT: Knob<Option<String>> = Knob {
        name: "MATCH_EXPLORE_ASSERT",
        default: "unset",
        doc: "substring asserted unreachable in any explorer path label (seeds a violation)",
        parser: |value| {
            Ok(Some(value.trim())
                .filter(|label| !label.is_empty())
                .map(str::to_string))
        },
    };

    pub static EXPLORE_BUDGET: Knob<u32> = Knob {
        name: "MATCH_EXPLORE_BUDGET",
        default: "`48`",
        doc: "traces the explorer evaluates per design (integer ≥ 1)",
        parser: |value| at_least(value, 1),
    };

    pub static EXPLORE_CORPUS: Knob<Option<PathBuf>> = Knob {
        name: "MATCH_EXPLORE_CORPUS",
        default: "off",
        doc: "directory persisting the explorer corpus across runs (`off` disables)",
        parser: |value| {
            let dir = value.trim();
            Ok((!dir.is_empty() && switch(dir) != Ok(false)).then(|| PathBuf::from(dir)))
        },
    };

    pub static EXPLORE_ITERS: Knob<u64> = Knob {
        name: "MATCH_EXPLORE_ITERS",
        default: "`12`",
        doc: "main-loop iterations per explored trace (integer ≥ 2)",
        parser: |value| at_least(value, 2),
    };

    pub static EXPLORE_PROCS: Knob<usize> = Knob {
        name: "MATCH_EXPLORE_PROCS",
        default: "`8`",
        doc: "ranks per explored trace (integer ≥ 2)",
        parser: |value| at_least(value, 2),
    };

    pub static EXPLORE_SEED: Knob<u64> = Knob {
        name: "MATCH_EXPLORE_SEED",
        default: "`20`",
        doc: "mutation RNG seed of the explorer (any `u64`)",
        parser: |value| at_least(value, 0),
    };

    pub static JOBS: Knob<usize> = Knob {
        name: "MATCH_JOBS",
        default: "core budget",
        doc: "concurrent experiments in the `SuiteEngine` (also `--jobs N`)",
        parser: positive,
    };

    pub static MTBF: Knob<Vec<u32>> = Knob {
        name: "MATCH_MTBF",
        default: "`8×..1×` the iteration cap",
        doc: "comma-separated node-MTBF ladder (iterations) of the `mtbf` target",
        parser: |value| list(value, positive),
    };

    pub static MTBF_CRASH_PCT: Knob<u8> = Knob {
        name: "MATCH_MTBF_CRASH_PCT",
        default: "`0`",
        doc: "percent (0–100) of MTBF events escalated to node crashes",
        parser: percent,
    };

    pub static MTBF_RACK_PCT: Knob<u8> = Knob {
        name: "MATCH_MTBF_RACK_PCT",
        default: "`0`",
        doc: "percent (0–100) of node crashes cascading to the rack neighbour",
        parser: percent,
    };

    pub static PROCS: Knob<Vec<usize>> = Knob {
        name: "MATCH_PROCS",
        default: "`4,8,16,32` (paper: `64,128,256,512`)",
        doc: "comma-separated process-count ladder",
        parser: |value| list(value, positive),
    };

    pub static RACKS: Knob<usize> = Knob {
        name: "MATCH_RACKS",
        default: "derived from node count",
        doc: "rack count of the simulated topology (also `--racks N`); must divide the \
              node count of every process count simulated",
        parser: positive,
    };

    pub static REPS: Knob<u32> = Knob {
        name: "MATCH_REPS",
        default: "`1` (paper: `5`)",
        doc: "repetitions averaged per matrix cell",
        parser: positive,
    };

    pub static SCALE: Knob<ExecutionScale> = Knob {
        name: "MATCH_SCALE",
        default: "`smoke`",
        doc: "input scaling: `smoke`, `bench` or `paper`, in any letter case",
        parser: |value| {
            one_of(
                value,
                &[
                    ("smoke", ExecutionScale::smoke()),
                    ("bench", ExecutionScale::bench()),
                    ("paper", ExecutionScale::paper()),
                ],
            )
        },
    };

    pub static SHRINK: Knob<bool> = Knob {
        name: "MATCH_SHRINK",
        default: "`on`",
        doc: "`off` drops `SHRINK-FTI` and sweeps only the paper's three designs",
        parser: switch,
    };

    pub static WORKERS: Knob<usize> = Knob {
        name: WORKERS_ENV_VAR,
        default: "`max(1, MATCH_CORES / jobs)`",
        doc: "worker threads of a `par` job (also `--workers N`)",
        parser: positive,
    };
}

/// `MATCH_SOURCE_FINGERPRINT`: documented with the others, but set by the build
/// script and read with `env!` at compile time, never at run time.
pub static SOURCE_FINGERPRINT: Knob<()> = Knob {
    name: "MATCH_SOURCE_FINGERPRINT",
    default: "set by `crates/core/build.rs`",
    doc: "build-time source digest baked into persistent cache entries; not user-set",
    parser: |_| Err("set at build time, not at run time".to_string()),
};

/// Checks every set knob of [`TABLE`] against its parser.
///
/// # Errors
///
/// The first malformed value, as [`Knob::parse`] words it.
pub fn check_all() -> Result<(), String> {
    TABLE
        .iter()
        .try_for_each(|knob| match mpisim::knob::var(knob.name()) {
            Some(value) => knob.check(&value?),
            None => Ok(()),
        })
}

/// The README's knob table: every row of [`TABLE`], then [`SOURCE_FINGERPRINT`].
pub fn markdown_table() -> String {
    let rows = TABLE
        .iter()
        .copied()
        .chain([&SOURCE_FINGERPRINT as &dyn AnyKnob]);
    rows.fold(
        String::from("| Variable | Meaning | Default |\n|---|---|---|\n"),
        |out, k| out + &format!("| `{}` | {} | {} |\n", k.name(), k.doc(), k.default()),
    )
}

/// The environment section of `match-bench --help`: one line per row of [`TABLE`].
pub fn help_section() -> String {
    TABLE.iter().fold(
        String::from("environment (a malformed value exits 2 naming the knob):\n"),
        |out, k| {
            let line = format!("  {:<22}{} (default: {})\n", k.name(), k.doc(), k.default());
            out + &line.replace('`', "")
        },
    )
}

/// Parses an integer of at least `min` (surrounding whitespace allowed).
fn at_least<T: FromStr + PartialOrd + Display>(value: &str, min: T) -> Result<T, String> {
    value
        .trim()
        .parse::<T>()
        .ok()
        .filter(|n| *n >= min)
        .ok_or_else(|| format!("expected an integer >= {min}"))
}

/// Parses a percentage: an integer from 0 to 100.
fn percent(value: &str) -> Result<u8, String> {
    let pct = at_least(value, 0).ok().filter(|&p| p <= 100);
    pct.ok_or_else(|| "expected a percentage from 0 to 100".to_string())
}

/// Parses an on/off switch, in any letter case: `on`/`1`/`true`/`yes` or
/// `off`/`0`/`false`/`no`.
fn switch(value: &str) -> Result<bool, String> {
    match value.trim().to_ascii_lowercase().as_str() {
        "on" | "1" | "true" | "yes" => Ok(true),
        "off" | "0" | "false" | "no" => Ok(false),
        _ => Err("expected on or off (or 1/0, true/false, yes/no)".to_string()),
    }
}

/// Parses a comma list whose every entry `entry` accepts.
fn list<T>(value: &str, entry: impl Fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
    value
        .split(',')
        .map(|item| entry(item).map_err(|reason| format!("entry '{}': {reason}", item.trim())))
        .collect()
}

/// Parses one of `options`' names, in any letter case.
fn one_of<T: Copy>(value: &str, options: &[(&str, T)]) -> Result<T, String> {
    let value = value.trim();
    options
        .iter()
        .find(|(name, _)| value.eq_ignore_ascii_case(name))
        .map(|&(_, option)| option)
        .ok_or_else(|| {
            let names: Vec<&str> = options.iter().map(|(name, _)| *name).collect();
            format!("expected one of {}", names.join(", "))
        })
}

/// Parses a `MATCH_APPS` list: application names in any letter case. The result
/// follows [`ProxyKind::ALL`]'s order, whatever order the names come in, and
/// names each application once.
fn apps(value: &str) -> Result<Vec<ProxyKind>, String> {
    let options = ProxyKind::ALL.map(|kind| (kind.name(), kind));
    let wanted = list(value, |name| one_of(name, &options))?;
    Ok(ProxyKind::ALL
        .into_iter()
        .filter(|kind| wanted.contains(kind))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every row, the build-time one included.
    fn all_rows() -> impl Iterator<Item = &'static dyn AnyKnob> {
        TABLE
            .iter()
            .copied()
            .chain([&SOURCE_FINGERPRINT as &dyn AnyKnob])
    }

    #[test]
    fn registry_is_sorted_and_unique() {
        for pair in TABLE.windows(2) {
            assert!(
                pair[0].name() < pair[1].name(),
                "the table must stay alphabetical and duplicate-free: {} vs {}",
                pair[0].name(),
                pair[1].name()
            );
        }
        assert!(TABLE.iter().all(|k| k.name() != SOURCE_FINGERPRINT.name));
    }

    #[test]
    fn every_entry_is_a_match_knob_with_docs() {
        for k in all_rows() {
            assert!(k.name().starts_with("MATCH_"), "{}", k.name());
            assert!(!k.doc().is_empty(), "{} needs a doc line", k.name());
            assert!(!k.default().is_empty(), "{} needs a default", k.name());
            assert!(!k.doc().contains('|'), "{} breaks the table", k.name());
        }
    }

    #[test]
    fn readme_knob_table_is_the_rendered_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
        let readme = std::fs::read_to_string(path).expect("read README.md");
        let start = "<!-- knob table: rendered by match_core::knobs::markdown_table -->\n";
        let end = "<!-- end of knob table -->";
        let from = readme.find(start).expect("README has the start marker") + start.len();
        let to = from + readme[from..].find(end).expect("README has the end marker");
        assert_eq!(
            readme[from..to],
            markdown_table(),
            "README.md's knob table differs from the rendered one; paste \
             match_core::knobs::markdown_table() between the markers"
        );
    }

    /// The words of `text`: runs of ASCII letters, digits, `_` and `::` paths.
    fn words(text: &str) -> impl Iterator<Item = &str> {
        text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
            .map(|word| word.trim_matches(':'))
    }

    /// The `MATCH_…` names in `text`. A word ending in `_` (as in `MATCH_EXPLORE_*`)
    /// names a family of knobs, not one.
    fn knob_names(text: &str) -> impl Iterator<Item = &str> {
        words(text).filter(|word| word.starts_with("MATCH_") && !word.ends_with('_'))
    }

    /// Every `.rs` file under `crates/`, `tests/` and `examples/`: its path from the
    /// workspace root, and its text.
    fn workspace_sources() -> Vec<(String, String)> {
        fn walk(dir: &std::path::Path, root: &std::path::Path, out: &mut Vec<(String, String)>) {
            for entry in std::fs::read_dir(dir).expect("read a source directory") {
                let path = entry.expect("read a directory entry").path();
                if path.is_dir() && !path.ends_with("target") {
                    walk(&path, root, out);
                } else if path.extension().is_some_and(|ext| ext == "rs") {
                    let text = std::fs::read_to_string(&path).expect("read a source file");
                    let relative = path.strip_prefix(root).expect("under the root");
                    out.push((relative.to_string_lossy().replace('\\', "/"), text));
                }
            }
        }
        let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
        let mut sources = Vec::new();
        for top in ["crates", "tests", "examples"] {
            walk(&root.join(top), root, &mut sources);
        }
        sources
    }

    /// The knob-registry invariants over `sources` and `readme`, one line per
    /// problem: every `MATCH_…` name in a source is one of `rows`; every row is
    /// read in the library code of some `crates/*/src` file other than this one
    /// (by name, or as `knobs::ROW`); `readme` lists every row.
    fn registry_problems(rows: &[&str], sources: &[(String, String)], readme: &str) -> Vec<String> {
        let mut problems = Vec::new();
        for (path, text) in sources {
            for name in knob_names(text).filter(|name| !rows.contains(name)) {
                problems.push(format!("{path}: `{name}` is no row of the knob table"));
            }
        }
        for &row in rows {
            let path = format!("knobs::{}", &row["MATCH_".len()..]);
            let read = sources
                .iter()
                .filter(|(file, _)| file.contains("/src/") && !file.ends_with("core/src/knobs.rs"))
                .any(|(_, text)| {
                    // Library code: up to the file's first test item, comment lines out.
                    let code = text.split("\n#[cfg(test)]\n").next().unwrap_or_default();
                    code.lines()
                        .filter(|line| !line.trim_start().starts_with("//"))
                        .flat_map(words)
                        .any(|word| word == row || word.ends_with(&path))
                });
            if !read {
                problems.push(format!("`{row}` is read nowhere outside the knob table"));
            }
            if !readme.contains(&format!("`{row}`")) {
                problems.push(format!("`{row}` is missing from README.md"));
            }
        }
        problems
    }

    #[test]
    fn every_knob_name_is_a_row_and_every_row_is_read_and_documented() {
        let rows: Vec<&str> = all_rows().map(|k| k.name()).collect();
        assert_eq!(rows.len(), 23);
        let readme =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
                .expect("read README.md");
        let problems = registry_problems(&rows, &workspace_sources(), &readme);
        assert!(problems.is_empty(), "{}", problems.join("\n"));
    }

    #[test]
    fn each_registry_invariant_has_a_failing_case() {
        // Names are assembled at run time so this file's own text names no
        // unregistered knob.
        let typo = format!("{}_JBOS", "MATCH");
        let unread = format!("{}_UNREAD", "MATCH");
        let lib = |text: String| vec![("crates/x/src/lib.rs".to_string(), text)];
        let readme = format!("`{}` `{unread}`", JOBS.name);

        let reads_jobs = lib(format!("knobs::JOBS.get(); var(\"{typo}\")"));
        assert_eq!(
            registry_problems(&[JOBS.name], &reads_jobs, &readme),
            [format!(
                "crates/x/src/lib.rs: `{typo}` is no row of the knob table"
            )]
        );
        let reads_nothing = lib("knobs::JOBS.get()".to_string());
        assert_eq!(
            registry_problems(&[&unread], &reads_nothing, &readme),
            [format!("`{unread}` is read nowhere outside the knob table")]
        );
        let reads_jobs = lib(format!("var(\"{}\")", JOBS.name));
        assert_eq!(
            registry_problems(&[JOBS.name], &reads_jobs, ""),
            [format!("`{}` is missing from README.md", JOBS.name)]
        );
    }

    #[test]
    fn help_lists_every_user_set_knob_without_markdown() {
        let help = help_section();
        for knob in TABLE {
            assert!(help.contains(knob.name()), "{}", knob.name());
        }
        assert!(!help.contains(SOURCE_FINGERPRINT.name));
        assert!(!help.contains('`'));
    }

    #[test]
    fn every_error_names_the_knob_and_the_value() {
        let free_form = [CACHE_DIR.name, EXPLORE_ASSERT.name, EXPLORE_CORPUS.name];
        for knob in TABLE {
            match knob.check("bogus") {
                Ok(()) => assert!(free_form.contains(&knob.name()), "{}", knob.name()),
                Err(error) => {
                    assert!(error.starts_with(&format!("{}='bogus': ", knob.name())));
                    assert!(!free_form.contains(&knob.name()), "{error}");
                }
            }
        }
    }

    #[test]
    fn integers_at_least_a_bound_parse_and_nothing_else_does() {
        assert_eq!(at_least(" 2 ", 2), Ok(2usize));
        assert_eq!(at_least("0", 0), Ok(0u64));
        assert_eq!(
            EXPLORE_SEED.parse(&u64::MAX.to_string()),
            Ok(u64::MAX),
            "any u64 is a seed"
        );
        for value in ["1", "0", "-1", "2.5", "1,2", "", "abc"] {
            assert_eq!(
                at_least::<usize>(value, 2),
                Err("expected an integer >= 2".to_string()),
                "{value:?}"
            );
        }
        // Out of the type's range is out of range.
        assert!(at_least::<u32>("4294967296", 1).is_err());
        assert!(at_least::<u64>("18446744073709551616", 0).is_err());
        assert_eq!(
            CACHE_MAX_MB.parse("64MB"),
            Err("MATCH_CACHE_MAX_MB='64MB': expected an integer >= 0".to_string())
        );
    }

    #[test]
    fn percentages_parse_from_0_to_100_and_nothing_else_does() {
        assert_eq!(percent("0"), Ok(0));
        assert_eq!(percent(" 100 "), Ok(100));
        for value in ["", "x", "101", "150", "-5", "12.5", "60%"] {
            assert!(percent(value).is_err(), "{value:?}");
            let error = MTBF_RACK_PCT.parse(value).unwrap_err();
            assert!(
                error.starts_with(&format!("MATCH_MTBF_RACK_PCT='{value}'")),
                "{error}"
            );
            assert!(error.ends_with("0 to 100"), "{error}");
        }
    }

    #[test]
    fn switches_parse_on_and_off_words_and_nothing_else_does() {
        for on in ["on", "1", "true", "yes", " ON ", "Yes"] {
            assert_eq!(switch(on), Ok(true), "{on:?}");
        }
        for off in ["off", "0", "false", "no", " Off ", "OFF"] {
            assert_eq!(switch(off), Ok(false), "{off:?}");
        }
        for bad in ["", "of", "maybe", "2", "shrink", "disabled"] {
            assert!(switch(bad).is_err(), "{bad:?}");
        }
        // The corpus treats the switch's "off" words as "no directory".
        for off in ["off", "OFF", "no", ""] {
            assert_eq!(EXPLORE_CORPUS.parse(off), Ok(None), "{off:?}");
        }
        assert_eq!(
            EXPLORE_CORPUS.parse(" corpus-dir "),
            Ok(Some(PathBuf::from("corpus-dir")))
        );
    }

    #[test]
    fn lists_parse_every_entry_or_name_the_bad_one() {
        assert_eq!(PROCS.parse("4,8,16,32"), Ok(vec![4, 8, 16, 32]));
        assert_eq!(PROCS.parse(" 2 , 4 "), Ok(vec![2, 4]));
        assert_eq!(MTBF.parse(" 4096 "), Ok(vec![4096]));
        for (value, entry) in [
            ("", ""),
            ("2,x", "x"),
            ("0", "0"),
            ("2,0", "0"),
            ("4,8,", ""),
            ("16,,8", ""),
            ("-4", "-4"),
            ("2.5", "2.5"),
            ("1e3", "1e3"),
        ] {
            assert_eq!(
                PROCS.parse(value),
                Err(format!(
                    "MATCH_PROCS='{value}': entry '{entry}': expected a positive integer"
                ))
            );
        }
    }

    #[test]
    fn names_parse_from_their_set_in_any_case() {
        for (value, want) in [
            ("smoke", ExecutionScale::smoke()),
            ("Paper", ExecutionScale::paper()),
            (" BENCH ", ExecutionScale::bench()),
        ] {
            assert_eq!(SCALE.parse(value), Ok(want), "{value:?}");
        }
        for value in ["", "papr", "paper2", "smoke,bench", "1.0", "full"] {
            assert_eq!(
                SCALE.parse(value),
                Err(format!(
                    "MATCH_SCALE='{value}': expected one of smoke, bench, paper"
                ))
            );
        }
        assert_eq!(BACKEND.parse(" PAR "), Ok(SchedBackend::Par));
        assert_eq!(BACKEND.parse("coop"), Ok(SchedBackend::Coop));
        assert_eq!(
            BACKEND.parse("threads"),
            Err(
                "MATCH_BACKEND='threads': the threads backend was removed; use coop or par"
                    .to_string()
            )
        );
        assert!(BACKEND.parse("fast").is_err());
    }

    #[test]
    fn app_lists_follow_registry_order_and_name_each_app_once() {
        assert_eq!(APPS.parse("HPCCG"), Ok(vec![ProxyKind::Hpccg]));
        assert_eq!(
            APPS.parse("miniVite, hpccg"),
            Ok(vec![ProxyKind::Hpccg, ProxyKind::MiniVite])
        );
        assert_eq!(APPS.parse("HPCCG,MiniVite,hpccg").unwrap().len(), 2);
        assert_eq!(
            APPS.parse("amg,comd,hpccg,lulesh,minife,minivite"),
            Ok(ProxyKind::ALL.to_vec())
        );
        for value in ["", "hpcg", "HPCCG,hpcg", "HPCCG,", "all", "HPCCG;miniVite"] {
            let error = APPS.parse(value).unwrap_err();
            assert!(
                error.starts_with(&format!("MATCH_APPS='{value}'")),
                "{error}"
            );
            assert!(
                error.ends_with("expected one of AMG, CoMD, HPCCG, LULESH, miniFE, miniVite"),
                "{error}"
            );
        }
    }

    /// Fragments the knob-check property strings together: the empty string, list
    /// separators, signs, words every parser knows, control characters, non-ASCII
    /// text and integers beyond `u32` and `u64`.
    const ATOMS: [&str; 28] = [
        "",
        ",",
        ", ",
        " ",
        "-",
        "+",
        ".",
        "0",
        "1",
        "2",
        "100",
        "%",
        "MB",
        "on",
        "off",
        "paper",
        "HPCCG",
        "miniVite",
        "coop",
        "\0",
        "\t",
        "\n",
        "\u{7f}",
        "é",
        "日本",
        "🦀",
        "4294967296",
        "18446744073709551616",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Every row's `check` answers `Ok` or `Err` for any string, and never panics.
        #[test]
        fn every_knob_check_returns_instead_of_panicking(
            atoms in proptest::collection::vec(0..ATOMS.len(), 0..10),
            raw in proptest::collection::vec(proptest::any::<u32>(), 0..6),
        ) {
            let listed: String = atoms.iter().map(|&i| ATOMS[i]).collect();
            let arbitrary: String = raw.iter().filter_map(|&c| char::from_u32(c % 0x11_0000)).collect();
            for value in [listed.clone(), arbitrary.clone(), listed + &arbitrary] {
                for knob in all_rows() {
                    let _ = knob.check(&value);
                }
            }
        }
    }
}
