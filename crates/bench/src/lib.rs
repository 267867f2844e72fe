//! Shared helpers for the MATCH-RS benchmark harnesses.
//!
//! Every figure/table of the paper has a `harness = false` bench target that prints the
//! regenerated rows as a text table of *virtual* time (the simulator's deterministic
//! clock). The helpers here read the environment knobs shared by all of them:
//!
//! * `MATCH_PROCS` — comma-separated process-count ladder (default `4,8,16,32`;
//!   the paper uses `64,128,256,512`),
//! * `MATCH_SCALE` — `smoke`, `bench` or `paper` input scaling, in any letter case
//!   (default `smoke`; any other value is an error, exit status 2),
//! * `MATCH_APPS` — comma-separated subset of applications (default: all six),
//! * `MATCH_REPS` — repetitions per configuration (default 1; the paper uses 5),
//! * `MATCH_JOBS` — number of experiments run concurrently by the
//!   [`SuiteEngine`] (default: the host's available parallelism; the `match-bench`
//!   CLI also accepts `--jobs N`),
//! * `MATCH_BACKEND` — the scheduler backend simulated jobs run on (`threads` or
//!   `coop`; results are bit-identical, only host scaling differs; the CLI also
//!   accepts `--backend NAME`),
//! * `MATCH_RACKS` — rack-count override for the experiment topology (the `nracks`
//!   sweep knob; must divide the paper-layout node count; the CLI also accepts
//!   `--racks N`),
//! * `MATCH_CACHE` / `MATCH_CACHE_DIR` / `MATCH_CACHE_MAX_MB` — the persistent
//!   result cache: `off` disables the disk layer, the dir overrides its root
//!   (default `target/match-cache`), and the cap enables mtime-LRU garbage
//!   collection (see `match_core::persist`; the CLI's `cache stats|gc|clear`
//!   subcommand inspects and maintains the store).

pub mod micro;
pub mod scale;
pub mod warm;

use match_core::matrix::MatrixOptions;
use match_core::mtbf::MtbfSweep;
use match_core::proxies::registry::ExecutionScale;
use match_core::proxies::ProxyKind;
use match_core::{FigureData, MtbfSweepOptions, SuiteEngine, SuiteOptions};

/// Reads the benchmark matrix options from the environment (see the module docs).
pub fn options_from_env() -> MatrixOptions {
    let procs: Vec<usize> = std::env::var("MATCH_PROCS")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|p| p.trim().parse().ok())
                .filter(|&p| p > 0)
                .collect()
        })
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![4, 8, 16, 32]);

    let scale = match std::env::var("MATCH_SCALE") {
        Err(_) => ExecutionScale::smoke(),
        Ok(value) => parse_scale(&value).unwrap_or_else(|error| {
            eprintln!("{error}");
            std::process::exit(2);
        }),
    };

    let apps: Vec<ProxyKind> = std::env::var("MATCH_APPS")
        .ok()
        .map(|s| {
            ProxyKind::ALL
                .into_iter()
                .filter(|k| {
                    s.split(',')
                        .any(|name| name.trim().eq_ignore_ascii_case(k.name()))
                })
                .collect()
        })
        .filter(|v: &Vec<ProxyKind>| !v.is_empty())
        .unwrap_or_else(|| ProxyKind::ALL.to_vec());

    let repetitions: u32 = std::env::var("MATCH_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);

    let default_procs = *procs.first().expect("non-empty process ladder");
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

/// Reads the MTBF-sweep options from the environment: the matrix options plus
/// `MATCH_MTBF` (comma-separated node-MTBF ladder in iterations; the default scales
/// with the execution scale's iteration cap) and `MATCH_MTBF_CRASH_PCT` /
/// `MATCH_MTBF_RACK_PCT` (correlated node-crash and rack-cascade percentages,
/// default 0). The rack percentage is real rack correlation over the topology's
/// rack dimension: the cascade victim is another node of the crashed node's rack,
/// and sweeps with cascades checkpoint at the erasure-coded L3 level.
pub fn mtbf_options_from_env(options: &MatrixOptions) -> MtbfSweepOptions {
    let mut sweep = MtbfSweepOptions::from_matrix(options);
    if let Some(ladder) = std::env::var("MATCH_MTBF").ok().map(|s| {
        s.split(',')
            .filter_map(|p| p.trim().parse().ok())
            .filter(|&p| p > 0)
            .collect::<Vec<u32>>()
    }) {
        if !ladder.is_empty() {
            sweep = sweep.with_ladder(ladder);
        }
    }
    let pct = |var: &str| match std::env::var(var) {
        Err(_) => 0u8,
        // Parse wide and clamp so "150" means 100, and complain loudly about
        // unparseable values instead of silently running an uncorrelated sweep.
        Ok(s) => match s.trim().parse::<u32>() {
            Ok(v) => v.min(100) as u8,
            Err(_) => {
                eprintln!("warning: {var}='{s}' is not a percentage (0-100); using 0");
                0
            }
        },
    };
    sweep.with_correlation(pct("MATCH_MTBF_CRASH_PCT"), pct("MATCH_MTBF_RACK_PCT"))
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
}
