//! Shared helpers of the `match-bench` CLI.
//!
//! Every figure/table target prints the regenerated rows as a text table of *virtual*
//! time (the simulator's deterministic clock). The helpers here read the knobs that
//! shape the matrix and the MTBF sweep; every knob is a row of
//! [`match_core::knobs`], where its default, meaning and accepted values live.

use match_core::json;
use match_core::knobs::{self, Knob};
use match_core::matrix::MatrixOptions;
use match_core::mpisim::Topology;
use match_core::mtbf::MtbfSweep;
use match_core::proxies::registry::ExecutionScale;
use match_core::proxies::ProxyKind;
use match_core::{FigureData, MtbfSweepOptions, SuiteEngine, SuiteOptions};

/// Reads `knob` strictly: `None` when unset. A malformed value ends the process
/// with exit status 2 and a message naming the knob.
fn strict<T>(knob: &Knob<T>) -> Option<T> {
    knob.get().unwrap_or_else(|error| exit_usage(&error))
}

/// Prints `error` and ends the process with exit status 2 (a usage error).
pub fn exit_usage(error: &str) -> ! {
    eprintln!("{error}");
    std::process::exit(2);
}

/// Reads the benchmark matrix options from the environment: [`knobs::PROCS`],
/// [`knobs::SCALE`], [`knobs::APPS`] and [`knobs::REPS`].
pub fn options_from_env() -> MatrixOptions {
    let procs = strict(&knobs::PROCS).unwrap_or_else(|| vec![4, 8, 16, 32]);
    let scale = strict(&knobs::SCALE).unwrap_or_else(ExecutionScale::smoke);
    let apps = strict(&knobs::APPS).unwrap_or_else(|| ProxyKind::ALL.to_vec());
    let repetitions = strict(&knobs::REPS).unwrap_or(1);
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

/// Exits 2 naming [`knobs::RACKS`] if it is set to a rack count that does not
/// divide the paper-layout node count of every process count in `procs`; building
/// such a cluster would panic.
pub fn check_racks(procs: &[usize]) {
    if let Some(racks) = strict(&knobs::RACKS) {
        racks_divide(racks, procs).unwrap_or_else(|error| exit_usage(&error));
    }
}

/// Whether `racks` divides the paper-layout node count of every process count in
/// `procs`.
///
/// # Errors
///
/// The first layout `racks` does not divide, named with the knob.
fn racks_divide(racks: usize, procs: &[usize]) -> Result<(), String> {
    for &nprocs in procs {
        let nnodes = Topology::paper_layout(nprocs).nnodes();
        if !nnodes.is_multiple_of(racks) {
            return Err(format!(
                "{}='{racks}' (or --racks) does not divide the {nnodes} nodes of the \
                 {nprocs}-rank layout; pick a divisor of every rung's node count",
                knobs::RACKS.name
            ));
        }
    }
    Ok(())
}

/// Reads the MTBF-sweep options from the environment: the matrix options plus
/// [`knobs::MTBF`] (the node-MTBF ladder in iterations; the default scales with
/// the execution scale's iteration cap) and [`knobs::MTBF_CRASH_PCT`] /
/// [`knobs::MTBF_RACK_PCT`] (correlated node-crash and rack-cascade percentages,
/// default 0). The rack percentage is real rack correlation over the topology's
/// rack dimension: the cascade victim is another node of the crashed node's rack,
/// and sweeps with cascades checkpoint at the erasure-coded L3 level.
pub fn mtbf_options_from_env(options: &MatrixOptions) -> MtbfSweepOptions {
    let mut sweep = MtbfSweepOptions::from_matrix(options);
    if let Some(ladder) = strict(&knobs::MTBF) {
        sweep = sweep.with_ladder(ladder);
    }
    sweep.with_correlation(
        strict(&knobs::MTBF_CRASH_PCT).unwrap_or(0),
        strict(&knobs::MTBF_RACK_PCT).unwrap_or(0),
    )
}

/// Serializes a figure into canonical JSON ([`json::document`] layout). Floats are
/// rendered with Rust's shortest-round-trip formatting, so two outputs are
/// byte-identical exactly when the underlying values are bit-identical — the
/// property the determinism CI job diffs.
pub fn figure_to_json(data: &FigureData) -> String {
    let rows = json::rows(data.rows.iter().map(|row| {
        json::row(&[
            ("app", &json::string(row.app.name())),
            ("group", &json::string(&row.group)),
            ("design", &json::string(&row.design)),
            ("application", &row.application),
            ("checkpoint_write", &row.checkpoint_write),
            ("recovery", &row.recovery),
        ])
    }));
    json::document(&[
        ("title", &json::string(&data.title)),
        ("with_failure", &data.with_failure),
        ("rows", &rows),
    ])
}

/// Serializes an MTBF sweep into canonical JSON (same layout and float convention
/// as [`figure_to_json`]).
pub fn mtbf_to_json(sweep: &MtbfSweep) -> String {
    let rows = json::rows(sweep.rows.iter().map(|row| {
        json::row(&[
            ("design", &json::string(&row.design)),
            ("node_mtbf_iterations", &row.node_mtbf_iterations),
            ("failures", &row.failures),
            ("restarts", &row.restarts),
            ("application", &row.application),
            ("checkpoint_write", &row.checkpoint_write),
            ("recovery", &row.recovery),
            ("total", &row.total),
            ("efficiency", &row.efficiency),
        ])
    }));
    json::document(&[("title", &json::string(&sweep.title)), ("rows", &rows)])
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
    use match_core::mpisim::SchedBackend;

    #[test]
    fn default_options_are_sane() {
        // Note: runs without the MATCH_* variables set in the test environment.
        let opts = options_from_env();
        assert!(!opts.process_counts.is_empty());
        assert!(!opts.apps.is_empty());
        assert!(opts.suite.repetitions >= 1);
    }

    /// Checks that `error` names the knob, the whole bad value and what it accepts.
    fn assert_names(error: &str, knob: &str, value: &str, accepts: &str) {
        assert!(error.starts_with(&format!("{knob}='{value}': ")), "{error}");
        assert!(error.contains(accepts), "{error}");
    }

    #[test]
    fn scheduler_knobs_parse_backends_and_positive_counts_only() {
        assert_eq!(knobs::BACKEND.parse("coop"), Ok(SchedBackend::Coop));
        assert_eq!(knobs::BACKEND.parse(" PAR "), Ok(SchedBackend::Par));
        let removed = knobs::BACKEND.parse("threads").unwrap_err();
        assert_names(
            &removed,
            "MATCH_BACKEND",
            "threads",
            "the threads backend was removed; use coop or par",
        );
        let unknown = knobs::BACKEND.parse("fast").unwrap_err();
        assert_names(&unknown, "MATCH_BACKEND", "fast", "coop");
        assert_eq!(knobs::WORKERS.parse("4"), Ok(4));
        for value in ["0", "abc", "", "-1", "2.5"] {
            let error = knobs::WORKERS.parse(value).unwrap_err();
            assert_names(&error, "MATCH_WORKERS", value, "a positive integer");
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
            assert_eq!(knobs::SCALE.parse(value), Ok(want), "{value:?}");
        }
        for value in ["", "papr", "paper2", "smoke,bench", "1.0", "full"] {
            let error = knobs::SCALE.parse(value).unwrap_err();
            assert_names(&error, "MATCH_SCALE", value, "smoke, bench, paper");
        }
    }

    #[test]
    fn process_ladders_parse_positive_integers_and_nothing_else_does() {
        assert_eq!(knobs::PROCS.parse("4,8,16,32"), Ok(vec![4, 8, 16, 32]));
        assert_eq!(knobs::PROCS.parse(" 2 , 4 "), Ok(vec![2, 4]));
        assert_eq!(knobs::PROCS.parse("64"), Ok(vec![64]));
        for value in ["", "2,x", "garbage", "0", "2,0", "4,8,", "-4", "2.5"] {
            let error = knobs::PROCS.parse(value).unwrap_err();
            assert_names(&error, "MATCH_PROCS", value, "a positive integer");
        }
    }

    #[test]
    fn mtbf_ladders_parse_positive_integers_and_nothing_else_does() {
        assert_eq!(knobs::MTBF.parse("16,8"), Ok(vec![16, 8]));
        assert_eq!(knobs::MTBF.parse(" 4096 "), Ok(vec![4096]));
        for value in ["", "8,x", "0", "16,,8", "-8", "1e3"] {
            let error = knobs::MTBF.parse(value).unwrap_err();
            assert_names(&error, "MATCH_MTBF", value, "a positive integer");
        }
    }

    #[test]
    fn rack_counts_must_divide_every_rungs_node_count() {
        // The paper layout puts 64 ranks on 32 nodes, and fewer than 32 ranks one
        // per node.
        assert_eq!(racks_divide(4, &[8, 64]), Ok(()));
        assert_eq!(racks_divide(3, &[]), Ok(()));
        let error = racks_divide(3, &[64]).unwrap_err();
        assert!(error.contains("MATCH_RACKS='3'"), "{error}");
        assert!(error.contains("does not divide the 32 nodes"), "{error}");
        let error = racks_divide(8, &[64, 4]).unwrap_err();
        assert!(error.contains("the 4-rank layout"), "{error}");
    }
}
