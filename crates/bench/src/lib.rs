//! Shared helpers of the `match-bench` CLI.
//!
//! Every figure/table target prints the regenerated rows as a text table of *virtual*
//! time (the simulator's deterministic clock). The helpers here read the environment
//! knobs that shape the matrix:
//!
//! * `MATCH_PROCS` — comma-separated process-count ladder (default `4,8,16,32`;
//!   the paper uses `64,128,256,512`),
//! * `MATCH_SCALE` — `smoke`, `bench` or `paper` input scaling, in any letter case
//!   (default `smoke`),
//! * `MATCH_APPS` — comma-separated subset of applications, in any letter case
//!   (default: all six),
//! * `MATCH_REPS` — repetitions per configuration (default 1; the paper uses 5),
//! * `MATCH_MTBF` — the `mtbf` target's comma-separated node-MTBF ladder,
//! * `MATCH_JOBS` — number of experiments run concurrently by the
//!   [`SuiteEngine`] (default: the host's available parallelism; the `match-bench`
//!   CLI also accepts `--jobs N`),
//! * `MATCH_BACKEND` — the scheduler backend simulated jobs run on (`par` or `coop`;
//!   results are bit-identical, only host scaling differs; the CLI also accepts
//!   `--backend NAME`),
//! * `MATCH_WORKERS` — worker threads of a `par` job (the CLI also accepts
//!   `--workers N`),
//! * `MATCH_RACKS` — rack-count override for the experiment topology (the `nracks`
//!   sweep knob; must divide the paper-layout node count; the CLI also accepts
//!   `--racks N`),
//! * `MATCH_CACHE` / `MATCH_CACHE_DIR` / `MATCH_CACHE_MAX_MB` — the persistent
//!   result cache: `off` disables the disk layer, the dir overrides its root
//!   (default `target/match-cache`), and the cap enables mtime-LRU garbage
//!   collection (see `match_core::persist`; the CLI's `cache stats|gc|clear`
//!   subcommand inspects and maintains the store).
//!
//! An unset matrix knob takes its default. A set one must parse completely: a
//! malformed `MATCH_PROCS`, `MATCH_SCALE`, `MATCH_APPS`, `MATCH_REPS` or `MATCH_MTBF`
//! is an error naming the knob (exit status 2), never a silently different matrix.
//! So is a malformed `MATCH_BACKEND`, `MATCH_WORKERS`, `MATCH_JOBS`, `MATCH_CORES`,
//! `MATCH_RACKS` or `MATCH_MTBF_{CRASH,RACK}_PCT` ([`check_env`]), where the
//! simulator library alone would warn or ignore the value and run its default, and
//! a rack count that does not divide the node count of every process count the run
//! simulates ([`check_racks`]), where the library would panic.

use std::str::FromStr;

use match_core::matrix::MatrixOptions;
use match_core::mpisim::{SchedBackend, Topology, BACKEND_ENV_VAR, WORKERS_ENV_VAR};
use match_core::mtbf::MtbfSweep;
use match_core::proxies::registry::ExecutionScale;
use match_core::proxies::ProxyKind;
use match_core::runner::RACKS_ENV_VAR;
use match_core::{FigureData, MtbfSweepOptions, SuiteEngine, SuiteOptions};
use match_core::{CORES_ENV_VAR, JOBS_ENV_VAR};

/// Reads knob `name` with `parse`, or returns `default()` when it is unset. A value
/// `parse` rejects ends the process with exit status 2 and the parser's message.
fn knob<T>(
    name: &str,
    parse: impl FnOnce(&str) -> Result<T, String>,
    default: impl FnOnce() -> T,
) -> T {
    match std::env::var(name) {
        Err(_) => default(),
        Ok(value) => parse(&value).unwrap_or_else(|error| {
            eprintln!("{error}");
            std::process::exit(2);
        }),
    }
}

/// Reads the benchmark matrix options from the environment (see the module docs).
pub fn options_from_env() -> MatrixOptions {
    let procs = knob("MATCH_PROCS", parse_procs, || vec![4, 8, 16, 32]);
    let scale = knob("MATCH_SCALE", parse_scale, ExecutionScale::smoke);
    let apps = knob("MATCH_APPS", parse_apps, || ProxyKind::ALL.to_vec());
    let repetitions = knob("MATCH_REPS", parse_reps, || 1);
    let default_procs = procs[0];
    MatrixOptions {
        process_counts: procs,
        default_procs,
        apps,
        suite: SuiteOptions {
            scale,
            repetitions,
            seed: 2020,
        },
    }
}

/// The knobs of the MTBF sweep's failure correlation.
const MTBF_CRASH_PCT: &str = "MATCH_MTBF_CRASH_PCT";
const MTBF_RACK_PCT: &str = "MATCH_MTBF_RACK_PCT";

/// Exits 2 naming the knob if a knob the simulator library reads leniently is set
/// to a value it would not accept: `MATCH_BACKEND`, `MATCH_WORKERS`, `MATCH_JOBS`,
/// `MATCH_CORES`, `MATCH_RACKS` and `MATCH_MTBF_{CRASH,RACK}_PCT`. Unchecked, the
/// library would warn or stay silent and run its default instead: a figure of
/// another backend, worker count, concurrency, rack layout or failure correlation,
/// under the name the user asked for.
pub fn check_env() {
    knob(BACKEND_ENV_VAR, parse_backend, SchedBackend::default);
    knob(WORKERS_ENV_VAR, parse_workers, || 0);
    knob(
        JOBS_ENV_VAR,
        |v| parse_count(JOBS_ENV_VAR, v, "job count"),
        || 0usize,
    );
    knob(
        CORES_ENV_VAR,
        |v| parse_count(CORES_ENV_VAR, v, "core budget"),
        || 0usize,
    );
    knob(RACKS_ENV_VAR, |v| parse_racks(v, &[]), || 0);
    knob(MTBF_CRASH_PCT, |v| parse_pct(MTBF_CRASH_PCT, v), || 0);
    knob(MTBF_RACK_PCT, |v| parse_pct(MTBF_RACK_PCT, v), || 0);
}

/// Exits 2 naming `MATCH_RACKS` if it is set to a rack count that does not divide
/// the paper-layout node count of every process count in `procs`; building such a
/// cluster would panic.
pub fn check_racks(procs: &[usize]) {
    knob(RACKS_ENV_VAR, |v| parse_racks(v, procs), || 0);
}

/// Parses a positive count for knob `name`; `what` names the count in the error.
fn parse_count<T: FromStr + PartialOrd + Default>(
    name: &str,
    value: &str,
    what: &str,
) -> Result<T, String> {
    value
        .trim()
        .parse::<T>()
        .ok()
        .filter(|n| *n > T::default())
        .ok_or_else(|| format!("{name}='{value}' is not a {what} (expected a positive integer)"))
}

/// Parses a `MATCH_RACKS` value (also what `--racks` sets): a positive rack count
/// that divides the paper-layout node count of every process count in `procs`.
///
/// # Errors
///
/// Anything else is an error naming the knob, the value and, for a count that
/// does not divide, the first layout it does not divide.
fn parse_racks(value: &str, procs: &[usize]) -> Result<usize, String> {
    let racks = parse_count(RACKS_ENV_VAR, value, "rack count")?;
    for &nprocs in procs {
        let nnodes = Topology::paper_layout(nprocs).nnodes();
        if !nnodes.is_multiple_of(racks) {
            return Err(format!(
                "{RACKS_ENV_VAR}='{value}' (or --racks) does not divide the {nnodes} \
                 nodes of the {nprocs}-rank layout; pick a divisor of every rung's \
                 node count"
            ));
        }
    }
    Ok(racks)
}

/// Parses a percentage knob `name`: an integer from 0 to 100.
///
/// # Errors
///
/// Anything else is an error naming the knob, the value and the accepted range.
fn parse_pct(name: &str, value: &str) -> Result<u8, String> {
    value
        .trim()
        .parse::<u8>()
        .ok()
        .filter(|&p| p <= 100)
        .ok_or_else(|| format!("{name}='{value}' is not a percentage (expected 0-100)"))
}

/// Parses a `MATCH_BACKEND` value: a scheduler backend name, in any letter case.
///
/// # Errors
///
/// Any other name is an error naming the knob and the value; the retired `threads`
/// backend is named as removed.
pub fn parse_backend(value: &str) -> Result<SchedBackend, String> {
    value
        .parse()
        .map_err(|error| format!("MATCH_BACKEND='{value}': {error}"))
}

/// Parses a `MATCH_WORKERS` value: a positive worker count of a `par` job.
///
/// # Errors
///
/// Anything else is an error naming the knob and the value.
pub fn parse_workers(value: &str) -> Result<usize, String> {
    parse_count(WORKERS_ENV_VAR, value, "positive worker count")
}

/// Parses a `MATCH_SCALE` value: `smoke`, `bench` or `paper`, in any letter case.
///
/// # Errors
///
/// Any other value is an error naming the knob and the accepted values — a
/// misspelt scale must not regenerate smoke numbers under another label.
pub fn parse_scale(value: &str) -> Result<ExecutionScale, String> {
    match value.trim().to_ascii_lowercase().as_str() {
        "smoke" => Ok(ExecutionScale::smoke()),
        "bench" => Ok(ExecutionScale::bench()),
        "paper" => Ok(ExecutionScale::paper()),
        _ => Err(format!(
            "MATCH_SCALE='{value}' is not a scale (expected smoke, bench or paper)"
        )),
    }
}

/// Parses a comma-separated list of positive integers for knob `name`; `accepts`
/// describes the valid values in the error.
fn parse_positive_list<T: FromStr + PartialOrd + Default>(
    name: &str,
    value: &str,
    accepts: &str,
) -> Result<Vec<T>, String> {
    value
        .split(',')
        .map(|entry| {
            entry
                .trim()
                .parse::<T>()
                .ok()
                .filter(|n| *n > T::default())
                .ok_or_else(|| format!("{name}='{value}': '{}' is not {accepts}", entry.trim()))
        })
        .collect()
}

/// Parses a `MATCH_PROCS` value: comma-separated positive process counts, the
/// first of which is also the input-size sweep's process count.
///
/// # Errors
///
/// An entry that is not a positive integer is an error naming the knob, the value
/// and what it accepts.
pub fn parse_procs(value: &str) -> Result<Vec<usize>, String> {
    parse_positive_list(
        "MATCH_PROCS",
        value,
        "a process count (expected comma-separated positive integers, e.g. 4,8,16,32)",
    )
}

/// Parses a `MATCH_APPS` value: comma-separated application names in any letter
/// case. The result follows [`ProxyKind::ALL`]'s order, whatever order the names
/// come in, and names each application once.
///
/// # Errors
///
/// A name that is no application is an error naming the knob, the value and the
/// accepted names.
pub fn parse_apps(value: &str) -> Result<Vec<ProxyKind>, String> {
    let mut wanted = Vec::new();
    for name in value.split(',').map(str::trim) {
        match ProxyKind::ALL
            .into_iter()
            .find(|k| name.eq_ignore_ascii_case(k.name()))
        {
            Some(kind) => wanted.push(kind),
            None => {
                let names: Vec<&str> = ProxyKind::ALL.iter().map(|k| k.name()).collect();
                return Err(format!(
                    "MATCH_APPS='{value}': '{name}' is not an application (expected \
                     comma-separated names from {})",
                    names.join(", ")
                ));
            }
        }
    }
    Ok(ProxyKind::ALL
        .into_iter()
        .filter(|k| wanted.contains(k))
        .collect())
}

/// Parses a `MATCH_REPS` value: a positive number of repetitions per cell.
///
/// # Errors
///
/// Anything else is an error naming the knob, the value and what it accepts.
pub fn parse_reps(value: &str) -> Result<u32, String> {
    parse_count("MATCH_REPS", value, "repetition count")
}

/// Parses a `MATCH_MTBF` value: comma-separated positive node MTBFs, in main-loop
/// iterations.
///
/// # Errors
///
/// An entry that is not a positive integer is an error naming the knob, the value
/// and what it accepts.
pub fn parse_mtbf_ladder(value: &str) -> Result<Vec<u32>, String> {
    parse_positive_list(
        "MATCH_MTBF",
        value,
        "a node MTBF (expected comma-separated positive iteration counts, e.g. 64,16,8)",
    )
}

/// Reads the MTBF-sweep options from the environment: the matrix options plus
/// `MATCH_MTBF` (comma-separated node-MTBF ladder in iterations; the default scales
/// with the execution scale's iteration cap) and `MATCH_MTBF_CRASH_PCT` /
/// `MATCH_MTBF_RACK_PCT` (correlated node-crash and rack-cascade percentages,
/// default 0). The rack percentage is real rack correlation over the topology's
/// rack dimension: the cascade victim is another node of the crashed node's rack,
/// and sweeps with cascades checkpoint at the erasure-coded L3 level.
pub fn mtbf_options_from_env(options: &MatrixOptions) -> MtbfSweepOptions {
    let mut sweep = MtbfSweepOptions::from_matrix(options);
    // A parsed ladder is never empty, so the empty default means "unset".
    let ladder = knob("MATCH_MTBF", parse_mtbf_ladder, Vec::new);
    if !ladder.is_empty() {
        sweep = sweep.with_ladder(ladder);
    }
    let pct = |name| knob(name, |v| parse_pct(name, v), || 0);
    sweep.with_correlation(pct(MTBF_CRASH_PCT), pct(MTBF_RACK_PCT))
}

/// Serializes a figure into canonical JSON. Floats are rendered with Rust's
/// shortest-round-trip formatting, so two outputs are byte-identical exactly when the
/// underlying values are bit-identical — the property the determinism CI job diffs.
pub fn figure_to_json(data: &FigureData) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"title\": {:?},\n", data.title));
    out.push_str(&format!("  \"with_failure\": {},\n", data.with_failure));
    out.push_str("  \"rows\": [\n");
    for (i, row) in data.rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"app\": {:?}, \"group\": {:?}, \"design\": {:?}, \"application\": {}, \"checkpoint_write\": {}, \"recovery\": {}}}{}\n",
            row.app.name(),
            row.group,
            row.design,
            row.application,
            row.checkpoint_write,
            row.recovery,
            if i + 1 < data.rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Serializes an MTBF sweep into canonical JSON (same float convention as
/// [`figure_to_json`]).
pub fn mtbf_to_json(sweep: &MtbfSweep) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"title\": {:?},\n", sweep.title));
    out.push_str("  \"rows\": [\n");
    for (i, row) in sweep.rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"design\": {:?}, \"node_mtbf_iterations\": {}, \"failures\": {}, \"restarts\": {}, \"application\": {}, \"checkpoint_write\": {}, \"recovery\": {}, \"total\": {}, \"efficiency\": {}}}{}\n",
            row.design,
            row.node_mtbf_iterations,
            row.failures,
            row.restarts,
            row.application,
            row.checkpoint_write,
            row.recovery,
            row.total,
            row.efficiency,
            if i + 1 < sweep.rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Prints a figure with a standard banner, reporting the wall-clock time the
/// regeneration took.
pub fn print_figure(data: &FigureData, started: std::time::Instant) {
    println!("{}", data.render());
    println!(
        "[regenerated {} rows in {:.1}s wall-clock; times above are simulated seconds]",
        data.rows.len(),
        started.elapsed().as_secs_f64()
    );
}

/// Prints only the recovery-time series of a figure (Figs. 7 and 10 report recovery
/// time alone).
pub fn print_recovery_series(data: &FigureData, started: std::time::Instant) {
    let mut table =
        match_core::table::TextTable::new(vec!["Application", "Group", "Design", "Recovery (s)"]);
    for row in &data.rows {
        table.add_row(vec![
            row.app.name().to_string(),
            row.group.clone(),
            row.design.clone(),
            format!("{:.3}", row.recovery),
        ]);
    }
    println!("{}", data.title);
    println!("{}", table.render());
    println!(
        "[regenerated {} rows in {:.1}s wall-clock]",
        data.rows.len(),
        started.elapsed().as_secs_f64()
    );
}

/// Prints the engine's scheduling and cache counters — the line every harness emits
/// after its tables so cache reuse (e.g. `fig6` answering `findings` for free) is
/// visible in the output.
pub fn print_engine_line(engine: &SuiteEngine) {
    println!(
        "[engine: jobs={}; cache: {}]\n",
        engine.jobs(),
        engine.cache_stats()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_are_sane() {
        // Note: runs without the MATCH_* variables set in the test environment.
        let opts = options_from_env();
        assert!(!opts.process_counts.is_empty());
        assert!(!opts.apps.is_empty());
        assert!(opts.suite.repetitions >= 1);
    }

    #[test]
    fn scheduler_knobs_parse_backends_and_positive_counts_only() {
        assert_eq!(parse_backend("coop"), Ok(SchedBackend::Coop));
        assert_eq!(parse_backend(" PAR "), Ok(SchedBackend::Par));
        let removed = parse_backend("threads").unwrap_err();
        assert!(removed.contains("MATCH_BACKEND='threads'"), "{removed}");
        assert!(
            removed.contains("the threads backend was removed; use coop or par"),
            "{removed}"
        );
        let unknown = parse_backend("fast").unwrap_err();
        assert!(unknown.contains("MATCH_BACKEND='fast'"), "{unknown}");
        assert_eq!(parse_workers("4"), Ok(4));
        for value in ["0", "abc", "", "-1", "2.5"] {
            let error = parse_workers(value).unwrap_err();
            assert!(
                error.contains(&format!("MATCH_WORKERS='{value}'")),
                "{error}"
            );
            assert!(error.contains("not a positive worker count"), "{error}");
        }
    }

    #[test]
    fn scale_names_parse_in_any_case_and_nothing_else_does() {
        for (value, want) in [
            ("smoke", ExecutionScale::smoke()),
            ("bench", ExecutionScale::bench()),
            ("paper", ExecutionScale::paper()),
            ("Paper", ExecutionScale::paper()),
            ("BENCH", ExecutionScale::bench()),
            (" smoke ", ExecutionScale::smoke()),
        ] {
            assert_eq!(parse_scale(value), Ok(want), "{value:?}");
        }
        for value in ["", "papr", "paper2", "smoke,bench", "1.0", "full"] {
            let error = parse_scale(value).unwrap_err();
            assert!(error.contains("MATCH_SCALE"), "{error}");
            assert!(error.contains(&format!("'{value}'")), "{error}");
            assert!(error.contains("smoke, bench or paper"), "{error}");
        }
    }

    /// Checks that `error` names the knob, the whole bad value and what it accepts.
    fn assert_names(error: &str, knob: &str, value: &str, accepts: &str) {
        assert!(error.contains(knob), "{error}");
        assert!(error.contains(&format!("'{value}'")), "{error}");
        assert!(error.contains(accepts), "{error}");
    }

    #[test]
    fn process_ladders_parse_positive_integers_and_nothing_else_does() {
        assert_eq!(parse_procs("4,8,16,32"), Ok(vec![4, 8, 16, 32]));
        assert_eq!(parse_procs(" 2 , 4 "), Ok(vec![2, 4]));
        assert_eq!(parse_procs("64"), Ok(vec![64]));
        for value in ["", "2,x", "garbage", "0", "2,0", "4,8,", "-4", "2.5"] {
            let error = parse_procs(value).unwrap_err();
            assert_names(
                &error,
                "MATCH_PROCS",
                value,
                "comma-separated positive integers",
            );
        }
    }

    #[test]
    fn app_names_parse_in_any_case_in_registry_order_and_nothing_else_does() {
        assert_eq!(parse_apps("HPCCG"), Ok(vec![ProxyKind::Hpccg]));
        assert_eq!(
            parse_apps("miniVite, hpccg"),
            Ok(vec![ProxyKind::Hpccg, ProxyKind::MiniVite])
        );
        assert_eq!(parse_apps("HPCCG,MiniVite,hpccg").unwrap().len(), 2);
        assert_eq!(
            parse_apps("amg,comd,hpccg,lulesh,minife,minivite"),
            Ok(ProxyKind::ALL.to_vec())
        );
        for value in ["", "hpcg", "HPCCG,hpcg", "HPCCG,", "all", "HPCCG;miniVite"] {
            let error = parse_apps(value).unwrap_err();
            assert_names(
                &error,
                "MATCH_APPS",
                value,
                "AMG, CoMD, HPCCG, LULESH, miniFE, miniVite",
            );
        }
    }

    #[test]
    fn repetition_counts_parse_positive_integers_and_nothing_else_does() {
        assert_eq!(parse_reps("1"), Ok(1));
        assert_eq!(parse_reps(" 5 "), Ok(5));
        for value in ["", "five", "0", "-1", "2.0", "1,2"] {
            let error = parse_reps(value).unwrap_err();
            assert_names(&error, "MATCH_REPS", value, "a positive integer");
        }
    }

    #[test]
    fn lenient_library_knobs_parse_strictly_here() {
        assert_eq!(parse_count(JOBS_ENV_VAR, " 3 ", "job count"), Ok(3usize));
        for (name, what) in [(JOBS_ENV_VAR, "job count"), (CORES_ENV_VAR, "core budget")] {
            for value in ["", "abc", "0", "-1", "2.5"] {
                let error = parse_count::<usize>(name, value, what).unwrap_err();
                assert_names(&error, name, value, "a positive integer");
            }
        }
        for name in [MTBF_CRASH_PCT, MTBF_RACK_PCT] {
            assert_eq!(parse_pct(name, "0"), Ok(0));
            assert_eq!(parse_pct(name, " 100 "), Ok(100));
            for value in ["", "x", "101", "150", "-5", "12.5", "60%"] {
                let error = parse_pct(name, value).unwrap_err();
                assert_names(&error, name, value, "0-100");
            }
        }
    }

    #[test]
    fn rack_counts_must_divide_every_rungs_node_count() {
        // The paper layout puts 64 ranks on 32 nodes, and fewer than 32 ranks one
        // per node.
        assert_eq!(parse_racks("4", &[8, 64]), Ok(4));
        assert_eq!(parse_racks("3", &[]), Ok(3));
        for value in ["abc", "0", "", "-2"] {
            let error = parse_racks(value, &[]).unwrap_err();
            assert_names(&error, "MATCH_RACKS", value, "a positive integer");
        }
        let error = parse_racks("3", &[64]).unwrap_err();
        assert_names(&error, "MATCH_RACKS", "3", "does not divide the 32 nodes");
        let error = parse_racks("8", &[64, 4]).unwrap_err();
        assert_names(&error, "MATCH_RACKS", "8", "the 4-rank layout");
    }

    #[test]
    fn mtbf_ladders_parse_positive_integers_and_nothing_else_does() {
        assert_eq!(parse_mtbf_ladder("16,8"), Ok(vec![16, 8]));
        assert_eq!(parse_mtbf_ladder(" 4096 "), Ok(vec![4096]));
        for value in ["", "8,x", "0", "16,,8", "-8", "1e3"] {
            let error = parse_mtbf_ladder(value).unwrap_err();
            assert_names(
                &error,
                "MATCH_MTBF",
                value,
                "comma-separated positive iteration counts",
            );
        }
    }
}
