//! The parent side of `match-perf`: argument parsing, one hermetic child process per
//! workload, the result line of the driver contract, the `match-perf-v1` results
//! file, and the `compare` and `selfcheck` commands.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use match_core::mpisim::SchedBackend;

use crate::host::{package_dir, Fingerprint};
use crate::json::{as_array, as_f64, as_str, get, get_path, parse_json, Json, Value};
use crate::spec::{self, Better, EndToEndDef, END_TO_END, LAYERS, WORKLOADS};
use crate::stats::Summary;
use crate::trace::chrome_doc;
use crate::worker::{self, WorkerArgs, DETAIL_PREFIX};

/// The command line recorded in `BENCHMARK.json` and in every results file.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

const USAGE: &str = "\
usage: match-perf run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--quick]
       match-perf compare OLD.json NEW.json
       match-perf selfcheck [--seed N] [--seconds S]

run        without --workload: every workload untraced and traced plus the layer probes;
           prints every metric, writes the results file (default benchmark/out/results.json)
           and benchmark/out/trace.json, exits 1 if any operation failed.
           with --workload: that workload only; the last stdout line is the result object
           {correct, attempted, failed, metrics}: end-to-end metrics with --trace 0, per-layer
           metrics with --trace 1.
compare    one row per workload and end-to-end metric; exits 1 on any `worse`.
selfcheck  two sets of runs of this build; exits 1 unless they agree within the bounds.";

/// Parsed `--flag value` options of one subcommand.
#[derive(Debug, Default)]
struct Options {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
    positional: Vec<String>,
}

impl Options {
    fn parse(args: &[String], valued: &[&str], flags: &[&str]) -> Result<Options, String> {
        let mut out = Options::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if valued.contains(&arg.as_str()) {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                out.values.insert(arg.clone(), value.clone());
            } else if flags.contains(&arg.as_str()) {
                out.flags.push(arg.clone());
            } else if arg.starts_with("--") {
                return Err(format!("unknown option {arg}"));
            } else {
                out.positional.push(arg.clone());
            }
        }
        Ok(out)
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.values.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name}: {v:?} is not a valid number")),
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }
}

const DEFAULT_SEED: u64 = 2020;
const DEFAULT_SECONDS: f64 = RUN_SECONDS as f64;

/// Measuring a debug build says nothing about the shipped code; only the `--quick`
/// schema smoke (which measures nothing) may run under `debug_assertions`.
fn refuse_debug_build(quick: bool) -> Result<(), String> {
    if cfg!(debug_assertions) && !quick {
        return Err("refusing to measure a debug build: run with `cargo run --release`".into());
    }
    Ok(())
}

/// What a child process reported.
struct Detail {
    doc: Value,
}

impl Detail {
    fn u64(&self, key: &str) -> u64 {
        get(&self.doc, key).and_then(as_f64).unwrap_or(0.0) as u64
    }

    fn str(&self, key: &str) -> &str {
        get(&self.doc, key).and_then(as_str).unwrap_or("")
    }

    fn failures(&self) -> Vec<String> {
        get(&self.doc, "failures")
            .and_then(as_array)
            .map(|items| items.iter().filter_map(as_str).map(String::from).collect())
            .unwrap_or_default()
    }

    fn summary(&self, metric: &str) -> Option<Summary> {
        Summary::from_value(get_path(&self.doc, &["metrics", metric])?)
    }

    fn layers(&self) -> BTreeMap<String, f64> {
        match get(&self.doc, "layers") {
            Some(Value::Object(map)) => map
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), as_f64(v)?)))
                .collect(),
            _ => BTreeMap::new(),
        }
    }
}

/// Starts this executable again as a child with every `MATCH_*` variable removed
/// (plus `MATCH_BACKEND` when the workload names a backend this build can parse),
/// waits for it, and returns its detail line.
fn spawn_child(args: &[String], backend: Option<&str>) -> Result<Detail, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MATCH_") {
            command.env_remove(key);
        }
    }
    // By name through `FromStr`, never by variant: a backend a later change deletes
    // leaves the workload on the library default instead of breaking the benchmark.
    match backend {
        Some(name) if name.parse::<SchedBackend>().is_ok() => {
            command.env(match_core::mpisim::BACKEND_ENV_VAR, name);
        }
        Some(name) => eprintln!("backend {name:?} is unknown to this build; using the default"),
        None => {}
    }
    let output = command
        .output()
        .map_err(|e| format!("spawning a worker: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("worker {args:?} exited with {}", output.status));
    }
    let line = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .ok_or_else(|| format!("worker {args:?} printed no detail line"))?;
    let doc = parse_json(line).map_err(|e| format!("worker detail line: {e}"))?;
    Ok(Detail { doc })
}

fn worker_args(w: &WorkerArgs) -> Vec<String> {
    let mut args = vec![
        "worker".to_string(),
        "--workload".into(),
        w.workload.clone(),
        "--seed".into(),
        w.seed.to_string(),
        "--seconds".into(),
        w.seconds.to_string(),
        "--trace".into(),
        u8::from(w.trace).to_string(),
        "--trace-pid".into(),
        w.trace_pid.to_string(),
    ];
    if w.quick {
        args.push("--quick".into());
    }
    args
}

fn spawn_worker(w: &WorkerArgs) -> Result<Detail, String> {
    let def = spec::workload(&w.workload).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {:?}; one of {names:?}", w.workload)
    })?;
    spawn_child(&worker_args(w), def.backend)
}

fn spawn_probes(seed: u64, quick: bool) -> Result<Detail, String> {
    let mut args = vec!["probes".to_string(), "--seed".into(), seed.to_string()];
    if quick {
        args.push("--quick".into());
    }
    spawn_child(&args, None)
}

fn metric_entry(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// Re-emits a parsed value (object keys come back in alphabetical order).
fn from_value(value: &Value) -> Json {
    match value {
        Value::Null => Json::Null,
        Value::Bool(b) => Json::Bool(*b),
        Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 9e15 => Json::Int(*n as u64),
        Value::Number(n) => Json::Num(*n),
        Value::String(s) => Json::Str(s.clone()),
        Value::Array(items) => Json::Arr(items.iter().map(from_value).collect()),
        Value::Object(map) => Json::Obj(
            map.iter()
                .map(|(k, v)| (k.clone(), from_value(v)))
                .collect(),
        ),
    }
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_trace(events: Vec<Json>) -> Result<PathBuf, String> {
    let path = package_dir().join("out").join("trace.json");
    write_file(&path, &chrome_doc(events).pretty())?;
    Ok(path)
}

fn trace_events(detail: &Detail) -> Vec<Json> {
    get(&detail.doc, "trace_events")
        .and_then(as_array)
        .map(|events| events.iter().map(from_value).collect())
        .unwrap_or_default()
}

/// `run --workload NAME`: the driver contract. The last stdout line is the result.
fn run_one(w: &WorkerArgs) -> Result<i32, String> {
    let detail = spawn_worker(w)?;
    let (mut attempted, mut failed) = (detail.u64("attempted"), detail.u64("failed"));
    let mut failures = detail.failures();
    let mut missing = Vec::new();
    let mut metrics = Vec::new();
    if w.trace {
        let probes = spawn_probes(w.seed, w.quick)?;
        attempted += probes.u64("attempted");
        failed += probes.u64("failed");
        failures.extend(probes.failures());
        let mut values = probes.layers();
        values.extend(detail.layers());
        for def in LAYERS {
            match values.get(def.name) {
                Some(v) if v.is_finite() => metrics.push((def.name, metric_entry(*v, def.unit))),
                _ => missing.push(def.name),
            }
        }
        let path = write_trace(trace_events(&detail))?;
        println!(
            "{} spans written to {}",
            detail.u64("spans"),
            path.display()
        );
    } else {
        for def in END_TO_END.iter().filter(|m| m.contract) {
            match detail.summary(def.name) {
                Some(s) if s.median.is_finite() => {
                    metrics.push((def.name, metric_entry(s.median, def.unit)))
                }
                _ => missing.push(def.name),
            }
        }
        if let Some(s) = detail.summary("paper_err_pct") {
            println!(
                "paper_err_pct {} = {} % (virtual time, exact)",
                w.workload, s.median
            );
        }
    }
    println!("sim_digest {} {}", w.workload, detail.str("sim_digest"));
    for line in &failures {
        println!("failed: {line}");
    }
    for name in &missing {
        println!("missing metric: {name}");
    }
    let correct = failed == 0 && missing.is_empty();
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted.max(1))),
        ("failed", Json::Int(failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", result.compact());
    Ok(i32::from(!correct))
}

/// How long one run measures, as `BENCHMARK.json` tells the driver.
pub const RUN_SECONDS: u64 = 12;

/// The driver contract, `BENCHMARK.json`, generated from the definition tables (a
/// test keeps the committed file equal to this).
pub fn manifest() -> Json {
    let named = |name: &str, unit: &str, better: Better| {
        vec![
            ("name", Json::str(name)),
            ("unit", Json::str(unit)),
            ("better", Json::str(better.name())),
        ]
    };
    Json::obj([
        (
            "command",
            Json::Arr(COMMAND.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .filter(|m| m.contract)
                    .map(|m| {
                        let mut fields = named(m.name, m.unit, m.better);
                        fields.push(("bound", Json::Num(m.bound)));
                        Json::obj(fields)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                LAYERS
                    .iter()
                    .map(|l| Json::obj(named(l.name, l.unit, l.better)))
                    .collect(),
            ),
        ),
    ])
}

fn end_to_end_json(def: &EndToEndDef) -> Json {
    Json::obj([
        ("name", Json::str(def.name)),
        ("unit", Json::str(def.unit)),
        ("better", Json::str(def.better.name())),
        ("bound", Json::Num(def.bound)),
        (
            "bound_kind",
            Json::str(if def.absolute { "absolute" } else { "share" }),
        ),
        ("contract", Json::Bool(def.contract)),
        ("what", Json::str(def.what)),
    ])
}

/// The fixed part of a results file: schema, host and the definition tables.
fn results_header(seed: u64, seconds: f64, quick: bool) -> Vec<(&'static str, Json)> {
    let host = Fingerprint::read();
    vec![
        ("schema", Json::str("match-perf-v1")),
        ("claim", Json::Null),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("command", Json::Arr(COMMAND.iter().map(|s| Json::str(*s)).collect())),
        (
            "host",
            Json::obj([
                ("nproc", Json::Int(host.nproc as u64)),
                ("cpu_model", Json::str(host.cpu_model)),
                ("rustc", Json::str(host.rustc)),
                ("git_commit", Json::str(host.git_commit)),
                ("default_backend", Json::str(host.default_backend)),
            ]),
        ),
        ("seed", Json::Int(seed)),
        ("run_seconds", Json::Num(seconds)),
        ("quick", Json::Bool(quick)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::str(w.name)),
                            ("why", Json::str(w.why)),
                            ("op", Json::str(w.op)),
                            ("backend", w.backend.map_or(Json::str("default"), Json::str)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", Json::Arr(END_TO_END.iter().map(end_to_end_json).collect())),
        (
            "per_layer",
            Json::Arr(
                LAYERS
                    .iter()
                    .map(|l| {
                        Json::obj([
                            ("name", Json::str(l.name)),
                            ("unit", Json::str(l.unit)),
                            ("better", Json::str(l.better.name())),
                            ("moves", Json::str(l.moves)),
                            ("what", Json::str(l.what)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "exclusions",
            Json::Arr(vec![
                Json::str("CoMD/Large is left out of input-sweep: 40 s a cell at bench scale"),
                Json::str("the persistent result cache is detached on every workload but warm-rerun"),
                Json::str("deptrace, lint and the match-bench CLI are on no measured path and have no metric"),
            ]),
        ),
    ]
}

fn unit_of_layer(name: &str) -> &'static str {
    spec::layer_def(name).map_or("", |l| l.unit)
}

/// `run` without `--workload`: everything, printed and written to the results file.
fn run_all(seed: u64, seconds: f64, quick: bool, out: &Path) -> Result<i32, String> {
    let mut results = Vec::new();
    let mut events = Vec::new();
    let mut total_failed = 0;
    for (i, def) in WORKLOADS.iter().enumerate() {
        let mut args = WorkerArgs {
            workload: def.name.to_string(),
            seed,
            seconds,
            trace: false,
            quick,
            trace_pid: i as u64 + 1,
        };
        println!("== {} — {}", def.name, def.why);
        let plain = spawn_worker(&args)?;
        args.trace = true;
        let traced = spawn_worker(&args)?;
        if plain.str("sim_digest") != traced.str("sim_digest") {
            total_failed += 1;
            println!(
                "failed: {}: sim_digest differs between the untraced and the traced run",
                def.name
            );
        }
        let mut e2e = Vec::new();
        for m in &END_TO_END {
            if let Some(s) = plain.summary(m.name) {
                println!(
                    "{:<14} {:<14} {:>14.6} {:<6} (q1 {:.6}, q3 {:.6}, n {})",
                    def.name, m.name, s.median, m.unit, s.q1, s.q3, s.n
                );
                e2e.push((m.name, s.to_json(m.unit)));
            }
        }
        let layers = traced.layers();
        for (name, value) in &layers {
            println!(
                "{:<14} {:<34} {:>14.6} {}",
                def.name,
                name,
                value,
                unit_of_layer(name)
            );
        }
        println!("{:<14} sim_digest {}", def.name, plain.str("sim_digest"));
        for detail in [&plain, &traced] {
            total_failed += detail.u64("failed");
            for line in detail.failures() {
                println!("failed: {}: {line}", def.name);
            }
        }
        events.extend(trace_events(&traced));
        results.push((
            def.name,
            Json::obj([
                ("sim_digest", Json::str(plain.str("sim_digest"))),
                (
                    "attempted",
                    Json::Int(plain.u64("attempted") + traced.u64("attempted")),
                ),
                (
                    "failed",
                    Json::Int(plain.u64("failed") + traced.u64("failed")),
                ),
                ("ops_per_pass", Json::Int(plain.u64("ops_per_pass"))),
                (
                    "pass_s",
                    get(&plain.doc, "pass_s").map_or(Json::Null, from_value),
                ),
                ("end_to_end", Json::obj(e2e)),
                (
                    "per_layer",
                    Json::obj(layers.iter().map(|(k, v)| (k.clone(), Json::Num(*v)))),
                ),
                ("spans", Json::Int(traced.u64("spans"))),
            ]),
        ));
    }
    println!("== layer probes (do not depend on the workload)");
    let probes = spawn_probes(seed, quick)?;
    total_failed += probes.u64("failed");
    let probe_values = probes.layers();
    for (name, value) in &probe_values {
        println!(
            "{:<14} {:<34} {:>14.6} {}",
            "probes",
            name,
            value,
            unit_of_layer(name)
        );
    }
    for line in probes.failures() {
        println!("failed: probes: {line}");
    }

    let mut doc = results_header(seed, seconds, quick);
    doc.push(("results", Json::obj(results)));
    doc.push((
        "probes",
        Json::obj(probe_values.iter().map(|(k, v)| (k.clone(), Json::Num(*v)))),
    ));
    write_file(out, &Json::obj(doc).pretty())?;
    let trace = write_trace(events)?;
    println!("results: {}\ntrace:   {}", out.display(), trace.display());
    if total_failed > 0 {
        println!("{total_failed} operation(s) failed");
    }
    Ok(i32::from(total_failed > 0))
}

/// One side of a comparison: per workload, the digest and the metric summaries.
type Side = BTreeMap<String, (String, BTreeMap<String, Summary>)>;

fn read_side(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
    if get(&doc, "schema").and_then(as_str) != Some("match-perf-v1") {
        return Err(format!("{path}: not a match-perf-v1 results file"));
    }
    let Some(Value::Object(results)) = get(&doc, "results") else {
        return Err(format!("{path}: no results"));
    };
    let mut side = Side::new();
    for (workload, result) in results {
        let digest = get(result, "sim_digest")
            .and_then(as_str)
            .unwrap_or("")
            .to_string();
        let mut metrics = BTreeMap::new();
        if let Some(Value::Object(e2e)) = get(result, "end_to_end") {
            for (name, m) in e2e {
                if let Some(summary) = Summary::from_value(m) {
                    metrics.insert(name.clone(), summary);
                }
            }
        }
        side.insert(workload.clone(), (digest, metrics));
    }
    Ok(side)
}

/// How one metric moved between two results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Worsened by more than the bound.
    Worse,
    /// Moved by no more than the bound.
    WithinBound,
    /// Either side's inter-quartile range exceeds the bound: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `new` against `old` by the metric's own bound.
pub fn verdict(def: &EndToEndDef, old: Summary, new: Summary) -> Verdict {
    // How much worse `new` is: a share of the old median, or absolute.
    let raw = match def.better {
        Better::Lower => new.median - old.median,
        Better::Higher => old.median - new.median,
    };
    let worse_by = if def.absolute {
        raw
    } else if old.median == 0.0 {
        if raw == 0.0 {
            0.0
        } else {
            raw.signum() * f64::INFINITY
        }
    } else {
        raw / old.median.abs()
    };
    if !def.absolute && (old.spread() > def.bound || new.spread() > def.bound) {
        Verdict::Unresolved
    } else if worse_by > def.bound {
        Verdict::Worse
    } else if worse_by < -def.bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// What a comparison table found.
#[derive(Debug, Default)]
struct Tally {
    worse: usize,
    better: usize,
    unresolved: usize,
    /// Workloads whose `sim_digest` differs.
    changed: usize,
}

/// Prints the comparison table and counts its verdicts.
fn print_comparison(old: &Side, new: &Side) -> Tally {
    let mut tally = Tally::default();
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>9}  {:<13} verdict",
        "workload", "metric", "old (base)", "new", "new/old", "spread o|n"
    );
    for def in WORKLOADS.iter() {
        let (Some((old_digest, old_metrics)), Some((new_digest, new_metrics))) =
            (old.get(def.name), new.get(def.name))
        else {
            println!("{:<14} missing on one side", def.name);
            tally.unresolved += 1;
            continue;
        };
        for m in &END_TO_END {
            let (Some(&o), Some(&n)) = (old_metrics.get(m.name), new_metrics.get(m.name)) else {
                continue;
            };
            let v = verdict(m, o, n);
            tally.worse += usize::from(v == Verdict::Worse);
            tally.better += usize::from(v == Verdict::Better);
            tally.unresolved += usize::from(v == Verdict::Unresolved);
            println!(
                "{:<14} {:<14} {:>14.6} {:>14.6} {:>9.4}  {:>5.1}%|{:>5.1}% {}",
                def.name,
                m.name,
                o.median,
                n.median,
                if o.median == 0.0 {
                    f64::NAN
                } else {
                    n.median / o.median
                },
                100.0 * o.spread(),
                100.0 * n.spread(),
                v.name()
            );
        }
        let same = old_digest == new_digest;
        tally.changed += usize::from(!same);
        println!(
            "{:<14} sim: {}",
            def.name,
            if same { "identical" } else { "CHANGED" }
        );
    }
    tally
}

fn compare(old: &str, new: &str) -> Result<i32, String> {
    let t = print_comparison(&read_side(old)?, &read_side(new)?);
    println!(
        "{} worse, {} better, {} unresolved, {} workload(s) with a changed sim_digest",
        t.worse, t.better, t.unresolved, t.changed
    );
    Ok(i32::from(t.worse > 0))
}

fn detail_side(detail: &Detail) -> (String, BTreeMap<String, Summary>) {
    let metrics = END_TO_END
        .iter()
        .filter_map(|m| Some((m.name.to_string(), detail.summary(m.name)?)))
        .collect();
    (detail.str("sim_digest").to_string(), metrics)
}

/// Two sets of untraced runs of this build, order alternated per workload.
fn selfcheck(seed: u64, seconds: f64) -> Result<i32, String> {
    let (mut a, mut b) = (Side::new(), Side::new());
    let mut failed = 0;
    for (i, def) in WORKLOADS.iter().enumerate() {
        let args = WorkerArgs {
            workload: def.name.to_string(),
            seed,
            seconds,
            trace: false,
            quick: false,
            trace_pid: 1,
        };
        let first = spawn_worker(&args)?;
        let second = spawn_worker(&args)?;
        failed += first.u64("failed") + second.u64("failed");
        // Set A runs first on even workloads and second on odd ones, so neither set
        // is always the one measured on a colder host.
        let (for_a, for_b) = if i % 2 == 0 {
            (first, second)
        } else {
            (second, first)
        };
        a.insert(def.name.to_string(), detail_side(&for_a));
        b.insert(def.name.to_string(), detail_side(&for_b));
    }
    let t = print_comparison(&a, &b);
    // The two sets are the same build: a median that moved beyond its bound in either
    // direction is a disagreement.
    let disagreements = t.worse + t.better;
    println!(
        "{disagreements} disagreement(s) beyond the bound, {} unresolved, {} changed sim_digest(s), {failed} failed op(s)",
        t.unresolved, t.changed
    );
    Ok(i32::from(disagreements + t.changed > 0 || failed > 0))
}

fn parse_worker(rest: &[String]) -> Result<WorkerArgs, String> {
    let opts = Options::parse(
        rest,
        &[
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--trace-pid",
        ],
        &["--quick"],
    )?;
    Ok(WorkerArgs {
        workload: opts
            .values
            .get("--workload")
            .cloned()
            .ok_or("--workload is required")?,
        seed: opts.number("--seed", DEFAULT_SEED)?,
        seconds: opts.number("--seconds", DEFAULT_SECONDS)?,
        trace: opts.number::<u8>("--trace", 0)? != 0,
        quick: opts.has("--quick"),
        trace_pid: opts.number("--trace-pid", 1)?,
    })
}

fn dispatch(args: &[String]) -> Result<i32, String> {
    spec::validate();
    let Some((command, rest)) = args.split_first() else {
        return Err(USAGE.into());
    };
    match command.as_str() {
        "run" => {
            let opts = Options::parse(
                rest,
                &["--workload", "--seed", "--seconds", "--trace", "--out"],
                &["--quick"],
            )?;
            let quick = opts.has("--quick");
            refuse_debug_build(quick)?;
            let seed = opts.number("--seed", DEFAULT_SEED)?;
            let seconds: f64 = opts.number("--seconds", DEFAULT_SECONDS)?;
            if !(seconds > 0.0 && seconds <= 60.0) {
                return Err("--seconds must be in (0, 60]".into());
            }
            match opts.values.get("--workload") {
                Some(workload) => run_one(&WorkerArgs {
                    workload: workload.clone(),
                    seed,
                    seconds,
                    trace: opts.number::<u8>("--trace", 0)? != 0,
                    quick,
                    trace_pid: 1,
                }),
                None => {
                    let out = opts
                        .values
                        .get("--out")
                        .map(PathBuf::from)
                        .unwrap_or_else(|| package_dir().join("out").join("results.json"));
                    run_all(seed, seconds, quick, &out)
                }
            }
        }
        "compare" => match rest {
            [old, new] => compare(old, new),
            _ => Err(USAGE.into()),
        },
        "selfcheck" => {
            refuse_debug_build(false)?;
            let opts = Options::parse(rest, &["--seed", "--seconds"], &[])?;
            selfcheck(
                opts.number("--seed", DEFAULT_SEED)?,
                opts.number("--seconds", DEFAULT_SECONDS)?,
            )
        }
        "worker" => {
            let w = parse_worker(rest)?;
            refuse_debug_build(w.quick)?;
            worker::run_workload(&w).map(|()| 0)
        }
        "probes" => {
            let opts = Options::parse(rest, &["--seed"], &["--quick"])?;
            refuse_debug_build(opts.has("--quick"))?;
            worker::run_probes(opts.number("--seed", DEFAULT_SEED)?, opts.has("--quick"))
                .map(|()| 0)
        }
        "manifest" => {
            print!("{}", manifest().pretty());
            Ok(0)
        }
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(0)
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

/// Runs the command line; returns the process exit code (2 for usage errors and
/// refused builds).
pub fn main_entry(args: &[String]) -> i32 {
    match dispatch(args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("match-perf: {message}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static EndToEndDef {
        END_TO_END
            .iter()
            .find(|m| m.name == name)
            .expect("known metric")
    }

    fn tight(median: f64) -> Summary {
        Summary {
            median,
            q1: median * 0.99,
            q3: median * 1.01,
            n: 7,
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let ops = def("ops_per_s");
        assert_eq!(
            verdict(ops, tight(100.0), tight(90.0)),
            Verdict::WithinBound
        );
        assert_eq!(verdict(ops, tight(100.0), tight(75.0)), Verdict::Worse);
        assert_eq!(verdict(ops, tight(100.0), tight(125.0)), Verdict::Better);
        let cpu = def("cpu_ms_per_op");
        assert_eq!(verdict(cpu, tight(10.0), tight(12.5)), Verdict::Worse);
        assert_eq!(verdict(cpu, tight(10.0), tight(7.5)), Verdict::Better);
        // A wide inter-quartile range on either side makes the pair unresolved.
        let wide = Summary {
            median: 100.0,
            q1: 85.0,
            q3: 115.0,
            n: 7,
        };
        assert_eq!(verdict(ops, wide, tight(50.0)), Verdict::Unresolved);
        assert_eq!(verdict(ops, tight(100.0), wide), Verdict::Unresolved);
    }

    #[test]
    fn exact_metrics_use_absolute_bounds() {
        let fail = def("fail_ratio");
        assert_eq!(
            verdict(fail, Summary::single(0.0), Summary::single(0.0)),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(fail, Summary::single(0.0), Summary::single(0.001)),
            Verdict::Worse
        );
        let paper = def("paper_err_pct");
        assert_eq!(
            verdict(paper, Summary::single(30.0), Summary::single(30.9)),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(paper, Summary::single(30.0), Summary::single(31.5)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(paper, Summary::single(30.0), Summary::single(28.0)),
            Verdict::Better
        );
    }

    #[test]
    fn options_parse_values_flags_and_reject_unknowns() {
        let args: Vec<String> = ["--seed", "7", "--quick", "file.json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let opts = Options::parse(&args, &["--seed"], &["--quick"]).expect("parses");
        assert_eq!(opts.number("--seed", 0u64), Ok(7));
        assert!(opts.has("--quick"));
        assert_eq!(opts.positional, vec!["file.json"]);
        assert!(Options::parse(&args, &[], &["--quick"]).is_err());
        let bad: Vec<String> = vec!["--seed".into(), "x".into()];
        let opts = Options::parse(&bad, &["--seed"], &[]).expect("parses");
        assert!(opts.number("--seed", 0u64).is_err());
    }

    #[test]
    fn from_value_round_trips_the_writer() {
        let doc = Json::obj([
            ("a", Json::Int(3)),
            ("b", Json::Num(0.25)),
            ("c", Json::Null),
        ]);
        let parsed = parse_json(&doc.compact()).expect("parses");
        assert_eq!(from_value(&parsed), doc);
    }
}
