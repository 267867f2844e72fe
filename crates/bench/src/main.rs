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
//! Results persist across invocations: unless `MATCH_CACHE=off`, every simulated
//! cell is written through to the content-addressed disk store (root
//! `MATCH_CACHE_DIR`, default `target/match-cache`), so a rerun of the same
//! figures in a fresh process performs zero simulations — the `disk` counters on
//! each target's cache line show the reuse. `--expect-warm` turns that into a
//! contract: the process exits nonzero if any figure cell had to be simulated
//! (the CI warm-cache job runs figures twice and passes this on the second run).
//! The `cache` subcommand inspects and maintains the store: `stats` prints the
//! root/entry/byte counts, `gc` runs one mtime-LRU sweep down to
//! `MATCH_CACHE_MAX_MB`, and `clear` removes every entry.
//!
//! `--backend` selects the scheduler backend simulated jobs run on (equivalent to
//! `MATCH_BACKEND`; default `par`): `par` runs the ranks of a job as fibers sharded
//! across a small pool of worker threads (`--workers N`, equivalent to
//! `MATCH_WORKERS`; default `max(1, MATCH_CORES / jobs)`, and a job with one worker
//! runs inline on the engine thread that picked it up), `coop` multiplexes all
//! ranks of a job as fibers over one OS thread. Figure output is bit-identical
//! across both and any worker count. A malformed `MATCH_BACKEND` or `MATCH_WORKERS`
//! exits 2 naming the knob, like the flags.
//! `--racks N` regroups the experiment topology's nodes into `N` racks (equivalent
//! to `MATCH_RACKS`); a count that does not divide the paper-layout node count of
//! every process count the run simulates exits 2 naming the knob.
//!
//! The `explore` target runs the coverage-guided fault-space explorer (see
//! [`match_explorer`]): per enabled design it searches the failure-trace space
//! under a fixed budget (`MATCH_EXPLORE_BUDGET` traces of `MATCH_EXPLORE_PROCS`
//! ranks × `MATCH_EXPLORE_ITERS` iterations, mutation seed `MATCH_EXPLORE_SEED`,
//! optional on-disk corpus `MATCH_EXPLORE_CORPUS`) and prints the recovery-path
//! coverage matrix (with `--json`: written to `explore.json`). Any property
//! violation is shrunk to a minimal trace and written as a replayable artifact
//! `explore-repro.json`; `--replay <file>` re-runs such an artifact and verifies
//! it reproduces its recorded violation and path labels bit-for-bit.
//! `MATCH_EXPLORE_ASSERT=<substring>` seeds a deliberate violation (asserting the
//! substring unreachable in any path label) — with it set, finding and shrinking
//! that violation is the *success* path, which is how CI drives the whole
//! shrink → replay pipeline. `explore` is not part of `all`. A malformed or
//! out-of-range numeric explorer knob exits 2 naming the knob, before any target runs.
//!
//! The `mtbf` target runs the MTBF sweep (efficiency vs. failure rate per design, an
//! MTBF-driven multi-failure arrival process; knobs: `MATCH_MTBF`,
//! `MATCH_MTBF_CRASH_PCT`, `MATCH_MTBF_RACK_PCT`). With `--json`, figure targets also
//! write `<target>.json` in canonical form — byte-identical across runs exactly when
//! the simulated times are bit-identical, which is what the CI determinism job diffs.
//!
//! The matrix is controlled by the `MATCH_PROCS`, `MATCH_SCALE`, `MATCH_APPS`,
//! `MATCH_REPS` and `MATCH_JOBS` environment variables (see the crate documentation);
//! a malformed value of any of them, or of `MATCH_CORES` or
//! `MATCH_MTBF_{CRASH,RACK}_PCT`, exits 2 naming the knob before anything runs.
//! `--jobs N` overrides `MATCH_JOBS`. All
//! targets of one invocation share one [`SuiteEngine`], so overlapping targets
//! (`fig6 fig7 findings`, or `all`) are answered from the result cache instead of
//! re-running their experiments — the engine/cache line printed after each target
//! shows the reuse. Each `figN` target is the [`Figure`] of that name.
//!
//! Host-time measurement is not this CLI's job: the `match-perf` benchmark package
//! (`benchmark/`) times the data-plane kernels, the cold and warm cache paths and
//! the figure matrices.

use std::time::Instant;

use match_bench::{
    check_env, check_racks, figure_to_json, mtbf_options_from_env, mtbf_to_json, options_from_env,
    print_engine_line, print_figure, print_recovery_series,
};
use match_core::findings::Findings;
use match_core::matrix::{full_suite_matrix, MatrixOptions};
use match_core::mtbf::mtbf_sweep;
use match_core::persist::{DiskCache, CACHE_MAX_MB_ENV_VAR};
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
  -j, --jobs N      experiments run concurrently (MATCH_JOBS; default: host cores)
  --backend NAME    scheduler backend: coop or par (MATCH_BACKEND; par)
  --workers N       worker threads of a par job (MATCH_WORKERS; cores / jobs)
  --racks N         racks of the simulated topology (MATCH_RACKS)
  --json            also write <target>.json, byte-identical for identical results
  --expect-warm     exit 1 if any figure cell had to be simulated
  --replay FILE     re-run an explorer repro and verify it reproduces
  -h, --help        print this and exit

environment:
  MATCH_PROCS       process-count ladder (default 4,8,16,32; the paper: 64,128,256,512)
  MATCH_SCALE       smoke, bench or paper input scaling (default smoke)
  MATCH_APPS        subset of AMG,CoMD,HPCCG,LULESH,miniFE,miniVite (default: all)
  MATCH_REPS        repetitions per configuration (default 1; the paper: 5)
  MATCH_SHRINK      0 drops the SHRINK-FTI design from every sweep
  MATCH_MTBF, MATCH_MTBF_CRASH_PCT, MATCH_MTBF_RACK_PCT
                    the mtbf target's ladder and failure correlation
  MATCH_CACHE, MATCH_CACHE_DIR, MATCH_CACHE_MAX_MB
                    the persistent result cache: off, its root, its size cap
  (the README's knob table lists every MATCH_* variable)
";

/// Writes a target's canonical JSON next to the working directory (used by the CI
/// determinism job, which byte-diffs the output of two runs).
fn dump_json(name: &str, json: String) {
    let path = format!("{name}.json");
    if let Err(error) = std::fs::write(&path, json) {
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
                    dump_json(name, mtbf_to_json(&sweep));
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
                    dump_json(name, figure_to_json(&data));
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
        _ => {
            eprintln!("usage: match-bench cache stats|gc|clear");
            std::process::exit(2);
        }
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
                Some(max) => println!("cap:     {max} bytes ({CACHE_MAX_MB_ENV_VAR})"),
                None => println!("cap:     none ({CACHE_MAX_MB_ENV_VAR} unset)"),
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
            None => {
                eprintln!("cache gc needs a cap: set {CACHE_MAX_MB_ENV_VAR}");
                std::process::exit(2);
            }
        },
        "clear" => {
            let removed = disk.clear();
            println!("removed {removed} entries from {}", disk.root().display());
        }
        other => {
            eprintln!("unknown cache subcommand '{other}' (expected stats, gc or clear)");
            std::process::exit(2);
        }
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
        dump_json("explore", outcome.report.to_json());
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
            let path = "explore-repro.json";
            if let Err(error) = std::fs::write(path, match_explorer::replay::to_artifact(violation))
            {
                eprintln!("failed to write {path}: {error}");
                std::process::exit(1);
            }
            println!("[wrote {path}]");
        }
    }
    if organic > 0 {
        eprintln!("explore: {organic} organic property violation(s)");
        std::process::exit(1);
    }
    if asserting && asserted == 0 {
        eprintln!(
            "explore: {} was set but no path label matched it",
            match_explorer::ASSERT_ENV_VAR
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
        Err(error) => {
            eprintln!("failed to read {path}: {error}");
            std::process::exit(2);
        }
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
        Err(error) => {
            eprintln!("bad artifact {path}: {error}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let mut jobs: Option<usize> = None;
    let mut json = false;
    let mut expect_warm = false;
    let mut replay: Option<String> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                return;
            }
            "--json" => json = true,
            "--expect-warm" => expect_warm = true,
            "--replay" => {
                let value = args.next().unwrap_or_default();
                if value.is_empty() {
                    eprintln!("--replay needs an artifact path");
                    std::process::exit(2);
                }
                replay = Some(value);
            }
            "--jobs" | "-j" => {
                let value = args.next().unwrap_or_default();
                match value.parse::<usize>() {
                    Ok(n) if n > 0 => jobs = Some(n),
                    _ => {
                        eprintln!("--jobs needs a positive integer, got '{value}'");
                        std::process::exit(2);
                    }
                }
            }
            flag if flag.starts_with("--jobs=") => match flag["--jobs=".len()..].parse::<usize>() {
                Ok(n) if n > 0 => jobs = Some(n),
                _ => {
                    eprintln!("--jobs needs a positive integer, got '{flag}'");
                    std::process::exit(2);
                }
            },
            "--backend" => {
                let value = args.next().unwrap_or_default();
                match value.parse::<match_core::mpisim::SchedBackend>() {
                    // Simulated jobs read the backend from the environment at
                    // cluster-configuration time; setting it here (before any job
                    // starts, single-threaded) routes every target through it.
                    Ok(b) => std::env::set_var(match_core::mpisim::BACKEND_ENV_VAR, b.name()),
                    Err(error) => {
                        eprintln!("--backend: {error}");
                        std::process::exit(2);
                    }
                }
            }
            "--workers" => {
                let value = args.next().unwrap_or_default();
                match value.parse::<usize>() {
                    // Like --backend: resolved from the environment at
                    // cluster-configuration time, set here before any job starts.
                    Ok(n) if n > 0 => {
                        std::env::set_var(match_core::mpisim::WORKERS_ENV_VAR, n.to_string())
                    }
                    _ => {
                        eprintln!("--workers needs a positive integer, got '{value}'");
                        std::process::exit(2);
                    }
                }
            }
            "--racks" => {
                let value = args.next().unwrap_or_default();
                match value.parse::<usize>() {
                    Ok(n) if n > 0 => {
                        std::env::set_var(match_core::runner::RACKS_ENV_VAR, n.to_string())
                    }
                    _ => {
                        eprintln!("--racks needs a positive integer, got '{value}'");
                        std::process::exit(2);
                    }
                }
            }
            target => targets.push(target.to_string()),
        }
    }
    check_env();
    if let Some(path) = replay {
        run_replay(&path);
    }
    if targets.first().is_some_and(|t| t == "cache") {
        run_cache_command(&targets[1..]);
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }

    let engine = jobs.map(SuiteEngine::with_jobs).unwrap_or_default();
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
            eprintln!(
                "unknown target '{name}' (expected table1, fig5..fig10, mtbf, findings, \
                 explore, all; or the 'cache stats|gc|clear' subcommand)"
            );
            std::process::exit(2);
        }
    }
    // Like the matrix knobs, a malformed MTBF ladder or explorer knob exits before
    // anything runs.
    let sweep_options = expanded
        .contains(&"mtbf")
        .then(|| mtbf_options_from_env(&options));
    let explore_config = expanded.contains(&"explore").then(|| {
        match_explorer::ExploreConfig::from_env().unwrap_or_else(|error| {
            eprintln!("{error}");
            std::process::exit(2);
        })
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
