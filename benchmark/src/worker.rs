//! The child-process side of a run: one workload (or the layer probes) measured in a
//! process of its own, so `VmHWM` and CPU time belong to that workload alone and no
//! `MATCH_*` variable of the caller reaches the simulator.
//!
//! A worker prints progress to stderr and exactly one `@detail {json}` line to
//! stdout; `cli` parses it and builds the result line, the results file and the
//! trace file from it.

use std::time::Instant;

use match_core::proxies::ProxyKind;

use crate::host::{peak_rss_mib, process_cpu_ms};
use crate::json::Json;
use crate::probes;
use crate::stats::{median, tail_percentile, Summary};
use crate::trace::{chrome_events, leaf_spans, self_ms_by_layer, Tracer};
use crate::workloads::{PassOutcome, Scratch, Workload};

/// The marker in front of a worker's one stdout line.
pub const DETAIL_PREFIX: &str = "@detail ";

/// How many times an untraced run sets the workload up (the median is `setup_s`).
const SETUPS: usize = 3;

/// What a worker is asked to do.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerArgs {
    /// The workload's name.
    pub workload: String,
    /// The input seed.
    pub seed: u64,
    /// How long to measure, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// One pass over shrunk inputs (schema smoke only; numbers mean nothing).
    pub quick: bool,
    /// The `pid` the workload's spans carry in the merged trace file.
    pub trace_pid: u64,
}

/// Failure bookkeeping shared by both kinds of run.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    digest: Option<u128>,
}

impl Tally {
    fn add(&mut self, pass: &PassOutcome) {
        self.attempted += pass.ops;
        self.failed += pass.failed;
        self.failures.extend(pass.failures.iter().cloned());
        match self.digest {
            None => self.digest = Some(pass.sim_digest),
            // A simulator that answers differently from pass to pass has failed every
            // operation of the pass, whatever the operations themselves reported.
            Some(first) if first != pass.sim_digest => {
                self.failed += pass.ops - pass.failed.min(pass.ops);
                self.failures.push(format!(
                    "sim_digest changed between passes: {first:032x} then {:032x}",
                    pass.sim_digest
                ));
            }
            Some(_) => {}
        }
    }

    fn fields(&self) -> Vec<(&'static str, Json)> {
        let shown = self
            .failures
            .iter()
            .take(16)
            .cloned()
            .map(Json::Str)
            .collect();
        vec![
            ("attempted", Json::Int(self.attempted.max(1))),
            ("failed", Json::Int(self.failed)),
            ("failures", Json::Arr(shown)),
            (
                "sim_digest",
                Json::str(format!("{:032x}", self.digest.unwrap_or(0))),
            ),
        ]
    }
}

/// A timed pass: wall-clock seconds and process CPU milliseconds.
fn timed_pass(workload: &Workload, tracer: Option<&Tracer>) -> (PassOutcome, f64, f64) {
    let cpu = process_cpu_ms().unwrap_or(0.0);
    let began = Instant::now();
    let outcome = workload.pass(tracer);
    let secs = began.elapsed().as_secs_f64();
    (outcome, secs, process_cpu_ms().unwrap_or(0.0) - cpu)
}

fn set_up(
    args: &WorkerArgs,
    scratch: &Scratch,
    tally: &mut Tally,
) -> Result<(Workload, f64), String> {
    let began = Instant::now();
    let workload = Workload::prepare(&args.workload, args.seed, args.quick, scratch.path())?;
    let warm = workload.warm_up();
    let secs = began.elapsed().as_secs_f64();
    // Warm-up operations are checked like any other but are not part of a pass, so
    // their digest (a subset's) is not compared with the passes'.
    tally.attempted += warm.ops;
    tally.failed += warm.failed;
    tally.failures.extend(warm.failures);
    Ok((workload, secs))
}

fn untraced(args: &WorkerArgs) -> Result<Json, String> {
    let scratch = Scratch::create(&args.workload).map_err(|e| format!("scratch dir: {e}"))?;
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut prepared = None;
    for i in 0..if args.quick { 1 } else { SETUPS } {
        // The previous set-up's inputs are dropped first: peak memory is that of one
        // prepared workload, as a user's run would have it.
        drop(prepared.take());
        let (workload, secs) = set_up(args, &scratch, &mut tally)?;
        eprintln!("[{}] set-up {}: {secs:.3} s", args.workload, i + 1);
        setups.push(secs);
        prepared = Some(workload);
    }
    let workload = prepared.expect("at least one set-up ran");

    let (mut pass_secs, mut pass_rates, mut pass_cpu) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cpu_ms, mut ops, mut paper_err) = (0.0, 0u64, None);
    let began = Instant::now();
    loop {
        let (pass, secs, cpu) = timed_pass(&workload, None);
        eprintln!(
            "[{}] pass {}: {} ops in {secs:.3} s",
            args.workload,
            pass_secs.len() + 1,
            pass.ops
        );
        tally.add(&pass);
        pass_secs.push(secs);
        pass_rates.push(pass.ops as f64 / secs);
        pass_cpu.push(cpu / pass.ops.max(1) as f64);
        cpu_ms += cpu;
        ops += pass.ops;
        paper_err = pass.paper_err_pct.or(paper_err);
        if args.quick || began.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    let ops_per_pass = ops / pass_secs.len() as u64;
    let rate = Summary::of(&pass_rates).expect("at least one pass ran");
    let cpu = Summary {
        median: cpu_ms / ops.max(1) as f64,
        ..Summary::of(&pass_cpu).expect("at least one pass ran")
    };
    let mut metrics = vec![
        (
            "setup_s",
            Summary::of(&setups)
                .expect("at least one set-up ran")
                .to_json("s"),
        ),
        ("ops_per_s", rate.to_json("1/s")),
        ("cpu_ms_per_op", cpu.to_json("ms")),
        (
            "peak_rss_mib",
            Summary::single(peak_rss_mib().unwrap_or(0.0)).to_json("MiB"),
        ),
        (
            "fail_ratio",
            Summary::single(tally.failed as f64 / tally.attempted.max(1) as f64).to_json("ratio"),
        ),
    ];
    if let Some(err) = paper_err {
        metrics.push(("paper_err_pct", Summary::single(err).to_json("%")));
    }
    let mut doc = vec![
        ("workload", Json::str(args.workload.clone())),
        ("seed", Json::Int(args.seed)),
        ("trace", Json::Int(0)),
        ("ops_per_pass", Json::Int(ops_per_pass)),
        (
            "pass_s",
            Summary::of(&pass_secs).expect("passes").to_json("s"),
        ),
    ];
    doc.extend(tally.fields());
    doc.push(("metrics", Json::obj(metrics)));
    Ok(Json::obj(doc))
}

fn traced(args: &WorkerArgs) -> Result<Json, String> {
    let scratch = Scratch::create(&args.workload).map_err(|e| format!("scratch dir: {e}"))?;
    let mut tally = Tally::default();
    let (workload, _) = set_up(args, &scratch, &mut tally)?;

    // Pairs of an untraced and a traced pass, until half the run's time is spent (at
    // least one pair): the difference between the two is what tracing costs.
    let tracer = Tracer::new();
    let (mut plain_secs, mut traced_secs) = (Vec::new(), Vec::new());
    let mut plain_cpu_ms = 0.0;
    // Every pass of a seed simulates the same thing; the last one's counts stand for all.
    let (mut sim_ops, mut ops): (u64, u64);
    let mut traced_passes = 0u64;
    let began = Instant::now();
    loop {
        let (plain, secs, cpu) = timed_pass(&workload, None);
        tally.add(&plain);
        plain_secs.push(secs);
        plain_cpu_ms += cpu;
        (sim_ops, ops) = (plain.sim_ops, plain.ops);
        let (spanned, secs, _) = timed_pass(&workload, Some(&tracer));
        tally.add(&spanned);
        traced_secs.push(secs);
        traced_passes += 1;
        eprintln!(
            "[{}] pair {traced_passes}: untraced {:.3} s, traced {secs:.3} s",
            args.workload,
            plain_secs[plain_secs.len() - 1]
        );
        if args.quick || began.elapsed().as_secs_f64() >= args.seconds / 2.0 {
            break;
        }
    }
    let plain = median(&plain_secs).expect("one pair ran");
    let spanned = median(&traced_secs).expect("one pair ran");
    let spans = tracer.spans();
    let traced_ops = (ops * traced_passes).max(1) as f64;

    let mut layers: Vec<(String, f64)> = Vec::new();
    layers.push(("trace.overhead_pct".into(), 100.0 * (spanned / plain - 1.0)));
    let by_layer = self_ms_by_layer(&spans);
    for layer in ["core", "fti", "mpisim", "recovery", "explorer"] {
        let self_ms = by_layer.get(layer).copied().unwrap_or(0.0);
        layers.push((format!("{layer}.span_self_ms_per_op"), self_ms / traced_ops));
    }
    let leaves: Vec<f64> = leaf_spans(&spans).iter().map(|s| s.ms()).collect();
    layers.push(("trace.span_ms.p50".into(), median(&leaves).unwrap_or(0.0)));
    let max = leaves.iter().copied().fold(0.0, f64::max);
    let (tail_pct, tail) = tail_percentile(&leaves, 10).unwrap_or((100.0, max));
    layers.push(("trace.span_ms.tail".into(), tail));
    layers.push(("trace.tail_pct".into(), tail_pct));

    // Each application's share of the cell time: how far that application's numerics
    // can move this workload.
    let cells: Vec<_> = spans
        .iter()
        .filter(|s| s.name.starts_with("engine.run "))
        .collect();
    let cell_ms: f64 = cells.iter().map(|s| s.ms()).sum();
    for app in ProxyKind::ALL {
        let prefix = format!("engine.run {}/", app.name());
        let app_ms: f64 = cells
            .iter()
            .filter(|s| s.name.starts_with(&prefix))
            .map(|s| s.ms())
            .sum();
        let share = if cell_ms > 0.0 {
            100.0 * app_ms / cell_ms
        } else {
            0.0
        };
        layers.push((
            format!("proxies.share_pct.{}", app.name().to_ascii_lowercase()),
            share,
        ));
    }

    let passes = plain_secs.len() as f64;
    layers.push(("mpisim.sim_ops".into(), sim_ops as f64));
    layers.push(("mpisim.sim_ops_per_s".into(), sim_ops as f64 / plain));
    let per_op = if sim_ops > 0 {
        plain_cpu_ms * 1e6 / passes / sim_ops as f64
    } else {
        0.0
    };
    layers.push(("mpisim.host_ns_per_sim_op".into(), per_op));

    let events = chrome_events(args.trace_pid, &args.workload, &spans);
    let mut doc = vec![
        ("workload", Json::str(args.workload.clone())),
        ("seed", Json::Int(args.seed)),
        ("trace", Json::Int(1)),
        ("ops_per_pass", Json::Int(ops)),
        ("spans", Json::Int(spans.len() as u64)),
    ];
    doc.extend(tally.fields());
    doc.push((
        "layers",
        Json::obj(layers.into_iter().map(|(k, v)| (k, Json::Num(v)))),
    ));
    doc.push(("trace_events", Json::Arr(events)));
    Ok(Json::obj(doc))
}

/// Measures one workload in this process and prints its detail line.
pub fn run_workload(args: &WorkerArgs) -> Result<(), String> {
    let doc = if args.trace {
        traced(args)?
    } else {
        untraced(args)?
    };
    println!("{DETAIL_PREFIX}{}", doc.compact());
    Ok(())
}

/// Runs the layer probes in this process and prints their detail line.
pub fn run_probes(seed: u64, quick: bool) -> Result<(), String> {
    let scratch = Scratch::create("probes").map_err(|e| format!("scratch dir: {e}"))?;
    let outcome = probes::run_all(seed, quick, scratch.path());
    let attempted = outcome.values.len() as u64;
    let doc = Json::obj([
        ("workload", Json::str("probes")),
        ("seed", Json::Int(seed)),
        ("attempted", Json::Int(attempted)),
        (
            "failed",
            Json::Int((outcome.failures.len() as u64).min(attempted)),
        ),
        (
            "failures",
            Json::Arr(
                outcome
                    .failures
                    .iter()
                    .take(16)
                    .cloned()
                    .map(Json::Str)
                    .collect(),
            ),
        ),
        (
            "layers",
            Json::obj(outcome.values.iter().map(|(k, v)| (*k, Json::Num(*v)))),
        ),
    ]);
    println!("{DETAIL_PREFIX}{}", doc.compact());
    Ok(())
}
