//! A small CLI that regenerates any table or figure of the MATCH paper on demand.
//!
//! ```text
//! match-bench [--help] [--jobs N] [--json] [--backend coop|par] [--workers N] \
//!             [--racks N] [--expect-warm] \
//!             [table1|fig5|...|fig10|mtbf|findings|explore|all ...]
//! match-bench cache stats|gc|clear
//! match-bench --replay <artifact.json>
//! ```
//!
//! Results persist across invocations in the content-addressed disk store, so a
//! rerun of the same figures in a fresh process performs zero simulations (the
//! `disk` counters on each target's cache line show it); `--expect-warm` exits
//! nonzero if any figure cell had to be simulated, and the `cache` subcommand
//! prints, garbage-collects or clears the store. All targets of one invocation
//! share one [`SuiteEngine`], so overlapping targets (`fig6 fig7 findings`, or
//! `all`) are answered from its result cache. Each `figN` target is the
//! [`Figure`] of that name; `mtbf` runs the MTBF sweep. With `--json`, figure
//! targets also write `<target>.json` in canonical form — byte-identical across
//! runs exactly when the simulated times are bit-identical, across both scheduler
//! backends (`--backend`) and any worker count (`--workers`).
//!
//! The `explore` target (not part of `all`) runs the coverage-guided fault-space
//! explorer ([`match_explorer`]) and writes any property violation, shrunk, as
//! the replayable artifact `explore-repro.json`; `--replay <file>` verifies such
//! an artifact reproduces bit-for-bit. `MATCH_EXPLORE_ASSERT` seeds a deliberate
//! violation, which is how CI drives the find → shrink → replay pipeline.
//!
//! Every knob is a row of [`match_core::knobs`]; `--help` lists them. A malformed
//! value of any knob, or a `--racks` count that does not divide the node count of
//! every process count the run simulates, exits 2 naming the knob before anything
//! runs. `--jobs`, `--backend`, `--workers` and `--racks` set the knob of the same
//! name (`--flag VALUE` or `--flag=VALUE`) through its parser.
//!
//! Host-time measurement is not this CLI's job: the `match-perf` benchmark package
//! (`benchmark/`) times the data-plane kernels, the cold and warm cache paths and
//! the figure matrices.

use std::path::Path;
use std::time::Instant;

use match_bench::{
    check_racks, exit_usage, figure_to_json, mtbf_options_from_env, mtbf_to_json, options_from_env,
    print_engine_line, print_figure, print_recovery_series,
};
use match_core::findings::Findings;
use match_core::knobs::{self, AnyKnob};
use match_core::matrix::{full_suite_matrix, MatrixOptions};
use match_core::mtbf::mtbf_sweep;
use match_core::persist::{atomic_write, DiskCache};
use match_core::table1::table1;
use match_core::{Figure, MtbfSweepOptions, SuiteEngine};

/// Every valid target, in the order `all` runs them.
const TARGETS: [&str; 9] = [
    "table1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "mtbf", "findings",
];

/// What `--help` prints.
const USAGE: &str = "\
Regenerates the tables and figures of the MATCH paper on the simulated cluster.

usage: match-bench [flags] [target ...]        (no target: all)
       match-bench cache stats|gc|clear
       match-bench --replay <artifact.json>

targets:
  table1            Table I, the experimentation configuration (no simulation)
  fig5 fig6 fig7    scaling in the process count: failure-free, with a failure,
                    recovery time
  fig8 fig9 fig10   scaling in the input size: failure-free, with a failure,
                    recovery time
  mtbf              efficiency against the failure rate, per design
  findings          the Section V-C findings, derived from the Fig. 6 matrix
  all               every target above, as one scheduled matrix
  explore           the coverage-guided fault-space explorer (not part of all)

flags:
";

/// The `--help` lines of the flags that set no knob.
const PLAIN_FLAGS: &str =
    "  --json            also write <target>.json, byte-identical for identical results
  --expect-warm     exit 1 if any figure cell had to be simulated
  --replay FILE     re-run an explorer repro and verify it reproduces
  -h, --help        print this and exit
";

/// The flags that set a knob, as `--flag VALUE` or `--flag=VALUE`, with their
/// `--help` label: the value is checked by the knob's parser and handed to the
/// library through the knob's variable (`-j` is `--jobs`).
static KNOB_FLAGS: [(&str, &str, &dyn AnyKnob); 4] = [
    ("--jobs", "-j, --jobs N", &knobs::JOBS),
    ("--backend", "--backend NAME", &knobs::BACKEND),
    ("--workers", "--workers N", &knobs::WORKERS),
    ("--racks", "--racks N", &knobs::RACKS),
];

/// Prints `--help`: the usage, the flags and the environment section; the knob
/// flags and the environment come from the knob table.
fn print_help() {
    print!("{USAGE}");
    for (_, label, knob) in &KNOB_FLAGS {
        println!("  {label:<16}  sets {}", knob.name());
    }
    print!("{PLAIN_FLAGS}\n{}", knobs::help_section());
}

/// Writes `json` as the file `path` in the working directory (used by the CI
/// determinism job, which byte-diffs the output of two runs, and by `--replay`).
/// The write is atomic, so a killed run never leaves a torn file behind.
fn dump_json(path: &str, json: &str) {
    if let Err(error) = atomic_write(Path::new("."), path, json.as_bytes()) {
        eprintln!("failed to write {path}: {error}");
        std::process::exit(1);
    }
    println!("[wrote {path}]");
}

fn run_target(
    name: &str,
    engine: &SuiteEngine,
    options: &MatrixOptions,
    sweep_options: Option<&MtbfSweepOptions>,
    json: bool,
) {
    let result = match name {
        "table1" => {
            println!(
                "Table I: experimentation configuration\n{}",
                table1().render()
            );
            if json {
                eprintln!("note: --json has no effect on the 'table1' target");
            }
            return;
        }
        "mtbf" => {
            let t = Instant::now();
            let sweep_options = sweep_options.expect("main reads the sweep options for mtbf");
            mtbf_sweep(engine, sweep_options).map(|sweep| {
                println!("{}", sweep.render());
                println!(
                    "[swept {} cells in {:.1}s wall-clock]",
                    sweep.rows.len(),
                    t.elapsed().as_secs_f64()
                );
                if json {
                    dump_json(&format!("{name}.json"), &mtbf_to_json(&sweep));
                }
            })
        }
        "findings" => {
            let t = Instant::now();
            Findings::compute(engine, options).map(|findings| {
                println!("Section V-C findings (derived from the Fig. 6 matrix)");
                println!("{}", findings.to_table().render());
                println!("[derived in {:.1}s wall-clock]", t.elapsed().as_secs_f64());
                if json {
                    eprintln!("note: --json has no effect on the 'findings' target");
                }
            })
        }
        other => {
            let Some(figure) = Figure::from_name(other) else {
                unreachable!("target '{other}' was validated against TARGETS in main")
            };
            let t = Instant::now();
            figure.generate(engine, options).map(|data| {
                if figure.recovery_only() {
                    print_recovery_series(&data, t);
                } else {
                    print_figure(&data, t);
                }
                if json {
                    dump_json(&format!("{name}.json"), &figure_to_json(&data));
                }
            })
        }
    };
    match result {
        Ok(()) => print_engine_line(engine),
        Err(error) => {
            eprintln!("target '{name}' failed: {error}");
            std::process::exit(1);
        }
    }
}

/// The `match-bench cache stats|gc|clear` maintenance subcommand. Never returns.
fn run_cache_command(args: &[String]) -> ! {
    let sub = match args {
        [one] => one.as_str(),
        _ => exit_usage("usage: match-bench cache stats|gc|clear"),
    };
    let Some(disk) = DiskCache::global() else {
        println!("persistent cache is disabled (MATCH_CACHE=off)");
        std::process::exit(0);
    };
    match sub {
        "stats" => {
            let usage = disk.usage();
            println!("root:    {}", disk.root().display());
            println!("entries: {}", usage.entries);
            println!("bytes:   {}", usage.bytes);
            match disk.max_bytes() {
                Some(max) => println!("cap:     {max} bytes ({})", knobs::CACHE_MAX_MB.name),
                None => println!("cap:     none ({} unset)", knobs::CACHE_MAX_MB.name),
            }
        }
        "gc" => match disk.max_bytes() {
            Some(max) => {
                let outcome = disk.gc(max);
                println!(
                    "evicted {} entries ({} bytes); {} entries / {} bytes remain under the \
                     {max}-byte cap",
                    outcome.evicted,
                    outcome.bytes_freed,
                    outcome.remaining.entries,
                    outcome.remaining.bytes,
                );
            }
            None => exit_usage(&format!(
                "cache gc needs a cap: set {}",
                knobs::CACHE_MAX_MB.name
            )),
        },
        "clear" => {
            let removed = disk.clear();
            println!("removed {removed} entries from {}", disk.root().display());
        }
        other => exit_usage(&format!(
            "unknown cache subcommand '{other}' (expected stats, gc or clear)"
        )),
    }
    std::process::exit(0);
}

/// Runs the coverage-guided fault-space explorer; with `json`, also writes
/// `explore.json`. Violations are shrunk and written to `explore-repro.json`.
/// With `MATCH_EXPLORE_ASSERT` set, finding (and shrinking) the seeded
/// assertion violation is the success path; organic violations always fail.
fn run_explore(config: match_explorer::ExploreConfig, json: bool) {
    let asserting = config.assert_label.is_some();
    let outcome = match_explorer::Explorer::new(config).run();
    print!("{}", outcome.report.render());
    if json {
        dump_json("explore.json", &outcome.report.to_json());
    }
    let mut organic = 0usize;
    let mut asserted = 0usize;
    for violation in &outcome.violations {
        let seeded = violation.property == match_explorer::Property::AssertLabel;
        if seeded {
            asserted += 1;
        } else {
            organic += 1;
        }
        eprintln!(
            "{} violation under {}: {} (minimal repro: {} event(s), {} iterations)",
            violation.property.name(),
            violation.strategy.design_name(),
            violation.detail,
            violation.genome.events.len(),
            violation.genome.iterations,
        );
        // First artifact wins; one repro is what the replay step consumes.
        if organic + asserted == 1 {
            dump_json(
                "explore-repro.json",
                &match_explorer::replay::to_artifact(violation),
            );
        }
    }
    if organic > 0 {
        eprintln!("explore: {organic} organic property violation(s)");
        std::process::exit(1);
    }
    if asserting && asserted == 0 {
        eprintln!(
            "explore: {} was set but no path label matched it",
            knobs::EXPLORE_ASSERT.name
        );
        std::process::exit(1);
    }
    println!();
}

/// Replays a minimal-repro artifact and verifies the recorded violation and
/// path labels reproduce bit-for-bit. Never returns.
fn run_replay(path: &str) -> ! {
    let artifact = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(error) => exit_usage(&format!("failed to read {path}: {error}")),
    };
    match match_explorer::replay::replay(&artifact) {
        Ok(outcome) => {
            println!(
                "replayed {} under {}: reproduced={} labels_match={} (paths: {})",
                outcome.property.name(),
                outcome.design,
                outcome.reproduced,
                outcome.labels_match,
                outcome.labels.join(" "),
            );
            if outcome.verified() {
                println!("[replay verified]");
                std::process::exit(0);
            }
            eprintln!(
                "replay mismatch: expected paths {}",
                outcome.expected_labels.join(" ")
            );
            std::process::exit(1);
        }
        Err(error) => exit_usage(&format!("bad artifact {path}: {error}")),
    }
}

fn main() {
    let mut json = false;
    let mut expect_warm = false;
    let mut replay: Option<String> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) => (flag, Some(value.to_string())),
            None => (arg.as_str(), None),
        };
        let flag = if flag == "-j" { "--jobs" } else { flag };
        if let Some((_, _, knob)) = KNOB_FLAGS.iter().find(|(name, ..)| *name == flag) {
            let value = inline.or_else(|| args.next()).unwrap_or_default();
            if let Err(error) = knob.check(&value) {
                exit_usage(&format!("{flag}: {error}"));
            }
            // Simulated jobs read their knobs from the environment when they are
            // configured; set here, before any job starts (single-threaded), the
            // value reaches every target.
            std::env::set_var(knob.name(), value);
            continue;
        }
        match arg.as_str() {
            "--help" | "-h" => {
                print_help();
                return;
            }
            "--json" => json = true,
            "--expect-warm" => expect_warm = true,
            "--replay" => {
                let value = args.next().unwrap_or_default();
                if value.is_empty() {
                    exit_usage("--replay needs an artifact path");
                }
                replay = Some(value);
            }
            target => targets.push(target.to_string()),
        }
    }
    if let Err(error) = knobs::check_all() {
        exit_usage(&error);
    }
    if let Some(path) = replay {
        run_replay(&path);
    }
    if targets.first().is_some_and(|t| t == "cache") {
        run_cache_command(&targets[1..]);
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }

    let engine = SuiteEngine::new();
    let options = options_from_env();

    let expanded: Vec<&str> = targets
        .iter()
        .flat_map(|t| {
            if t == "all" {
                TARGETS.to_vec()
            } else {
                vec![t.as_str()]
            }
        })
        .collect();

    // Reject typos before any simulation runs — a bad name at the end of the list
    // must not surface only after minutes of matrix work.
    for name in &expanded {
        if !TARGETS.contains(name) && *name != "explore" {
            exit_usage(&format!(
                "unknown target '{name}' (expected table1, fig5..fig10, mtbf, findings, \
                 explore, all; or the 'cache stats|gc|clear' subcommand)"
            ));
        }
    }
    let sweep_options = expanded
        .contains(&"mtbf")
        .then(|| mtbf_options_from_env(&options));
    let explore_config = expanded.contains(&"explore").then(|| {
        match_explorer::ExploreConfig::from_env().unwrap_or_else(|error| exit_usage(&error))
    });
    // A rack override must divide the node count of every job size the run builds.
    let mut job_sizes = options.process_counts.clone();
    job_sizes.extend(explore_config.as_ref().map(|config| config.nprocs));
    check_racks(&job_sizes);

    // When the whole evaluation is requested, schedule the full experiment union as
    // one wave first: it saturates the worker pool once, and every figure below then
    // renders from cache.
    if targets.iter().any(|t| t == "all") {
        let t = Instant::now();
        let matrix = full_suite_matrix(&options);
        if let Err(error) = engine.run_matrix(&matrix) {
            eprintln!("experiment matrix failed: {error}");
            std::process::exit(1);
        }
        println!(
            "[ran the full {}-cell matrix in {:.1}s wall-clock with {} job(s)]\n",
            matrix.len(),
            t.elapsed().as_secs_f64(),
            engine.jobs()
        );
    }

    for name in expanded {
        if let (Some(config), "explore") = (&explore_config, name) {
            run_explore(config.clone(), json);
        } else {
            run_target(name, &engine, &options, sweep_options.as_ref(), json);
        }
    }

    // The warm-start contract check: with a populated cache directory, a rerun
    // must have answered every figure cell without simulating.
    if expect_warm {
        let stats = engine.cache_stats();
        if stats.disk_misses > 0 {
            eprintln!(
                "--expect-warm: {} cell(s) were simulated instead of recalled \
                 (cache: {stats})",
                stats.disk_misses
            );
            std::process::exit(1);
        }
        println!("[warm start confirmed: every cell recalled, zero simulations]");
    }
}
