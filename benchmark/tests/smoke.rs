//! End-to-end smoke of the `match-perf` binary: `run --quick` over all six workloads
//! (one pass each, shrunk sizes), the emitted `match-perf-v1` schema, the result line
//! of the driver contract, `compare`, and the guards.

use std::path::PathBuf;
use std::process::{Command, Output};

use match_perf::cli::manifest;
use match_perf::json::{as_array, as_f64, as_str, get, get_path, parse_json, Value};
use match_perf::spec::{END_TO_END, LAYERS, WORKLOADS};

fn match_perf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_match-perf"))
        .args(args)
        // Hermeticity: a stray knob of the caller must not reach the simulator.
        .env("MATCH_BACKEND", "nonsense")
        .env("MATCH_JOBS", "1")
        .output()
        .expect("match-perf starts")
}

fn out_file(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("out dir");
    dir.join(format!("test-{}-{name}", std::process::id()))
}

fn object_keys(value: &Value) -> Vec<&str> {
    match value {
        Value::Object(map) => map.keys().map(String::as_str).collect(),
        _ => panic!("not an object: {value:?}"),
    }
}

/// The two tests below both write `out/trace.json`, so they run one after the other.
#[test]
fn quick_run_and_contract_mode() {
    quick_run_exercises_every_workload_and_emits_the_schema();
    contract_mode_prints_the_result_object_last();
}

fn quick_run_exercises_every_workload_and_emits_the_schema() {
    let results = out_file("results.json");
    let began = std::time::Instant::now();
    let run = match_perf(&[
        "run",
        "--quick",
        "--seed",
        "7",
        "--out",
        results.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "run --quick failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(
        began.elapsed().as_secs() < 60,
        "quick run took {:?}",
        began.elapsed()
    );

    let text = std::fs::read_to_string(&results).expect("results file written");
    let doc = parse_json(&text).expect("results file is JSON");
    assert_eq!(get(&doc, "schema").and_then(as_str), Some("match-perf-v1"));
    assert_eq!(get(&doc, "claim"), Some(&Value::Null), "no gain is claimed");
    assert_eq!(get(&doc, "quick"), Some(&Value::Bool(true)));
    for key in [
        "nproc",
        "cpu_model",
        "rustc",
        "git_commit",
        "default_backend",
    ] {
        assert!(get_path(&doc, &["host", key]).is_some(), "host.{key}");
    }
    let listed = |key: &str| as_array(get(&doc, key).expect(key)).expect(key).len();
    assert_eq!(listed("workloads"), WORKLOADS.len());
    assert_eq!(listed("end_to_end"), END_TO_END.len());
    assert_eq!(listed("per_layer"), LAYERS.len());

    let mut layer_names: Vec<String> = Vec::new();
    for w in &WORKLOADS {
        let result = get_path(&doc, &["results", w.name]).unwrap_or_else(|| panic!("{}", w.name));
        assert_eq!(
            get(result, "failed").and_then(as_f64),
            Some(0.0),
            "{}",
            w.name
        );
        let digest = get(result, "sim_digest").and_then(as_str).expect("digest");
        assert_eq!(digest.len(), 32, "{}: {digest}", w.name);
        for m in END_TO_END.iter().filter(|m| m.name != "paper_err_pct") {
            let entry = get_path(result, &["end_to_end", m.name])
                .unwrap_or_else(|| panic!("{}: {}", w.name, m.name));
            assert_eq!(object_keys(entry), ["median", "n", "q1", "q3", "unit"]);
            let median = get(entry, "median").and_then(as_f64).expect("median");
            assert!(
                median.is_finite() && median >= 0.0,
                "{}: {} = {median}",
                w.name,
                m.name
            );
            if m.contract {
                assert!(median > 0.0, "{}: {} must never be 0", w.name, m.name);
            }
        }
        let has_paper = get_path(result, &["end_to_end", "paper_err_pct"]).is_some();
        assert_eq!(has_paper, w.name == "fig-fault", "{}", w.name);
        layer_names.extend(
            object_keys(get(result, "per_layer").expect("per_layer"))
                .iter()
                .map(|s| s.to_string()),
        );
    }
    // Workload-derived and probe metrics together cover the whole table, and
    // nothing outside it is emitted.
    layer_names.extend(
        object_keys(get(&doc, "probes").expect("probes"))
            .iter()
            .map(|s| s.to_string()),
    );
    layer_names.sort();
    layer_names.dedup();
    let mut expected: Vec<String> = LAYERS.iter().map(|l| l.name.to_string()).collect();
    expected.sort();
    assert_eq!(layer_names, expected);

    // The same seed simulates the same thing: fig-fault and warm-rerun share cells.
    let digest = |w: &str| {
        get_path(&doc, &["results", w, "sim_digest"])
            .and_then(as_str)
            .map(String::from)
    };
    assert_eq!(digest("fig-fault"), digest("warm-rerun"));

    // Comparing a result with itself: nothing is worse, every digest identical.
    let path = results.to_str().unwrap();
    let same = match_perf(&["compare", path, path]);
    let table = String::from_utf8_lossy(&same.stdout);
    assert!(same.status.success(), "{table}");
    assert!(
        table.contains("sim: identical") && !table.contains("CHANGED"),
        "{table}"
    );
    assert!(table.contains("0 worse"), "{table}");

    // A slower, different-answer result is flagged on both counts.
    let slower = out_file("slower.json");
    let edited = text.replacen("\"sim_digest\": \"", "\"sim_digest\": \"f", 1);
    let edited = degrade_ops_per_s(&edited);
    std::fs::write(&slower, edited).expect("write");
    let worse = match_perf(&["compare", path, slower.to_str().unwrap()]);
    let table = String::from_utf8_lossy(&worse.stdout);
    assert_eq!(worse.status.code(), Some(1), "{table}");
    assert!(
        table.contains("worse") && table.contains("CHANGED"),
        "{table}"
    );

    let trace = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join("trace.json");
    let trace =
        parse_json(&std::fs::read_to_string(trace).expect("trace written")).expect("trace is JSON");
    let events = as_array(get(&trace, "traceEvents").expect("traceEvents")).expect("array");
    assert!(
        events.len() > WORKLOADS.len(),
        "a span per workload at least"
    );
    let _ = std::fs::remove_file(results);
    let _ = std::fs::remove_file(slower);
}

/// Halves every `ops_per_s` median of a results file (keeping its quartiles tight).
fn degrade_ops_per_s(text: &str) -> String {
    let mut out = String::new();
    let mut in_ops = false;
    for line in text.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("\"ops_per_s\"") {
            in_ops = true;
        }
        let mut line = line.to_string();
        for key in ["\"median\": ", "\"q1\": ", "\"q3\": "] {
            if in_ops && trimmed.starts_with(key) {
                let value: f64 = trimmed[key.len()..]
                    .trim_end_matches(',')
                    .parse()
                    .expect("number");
                let comma = if trimmed.ends_with(',') { "," } else { "" };
                line = format!("{key}{}{comma}", value / 2.0);
            }
        }
        if in_ops && trimmed.starts_with('}') {
            in_ops = false;
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

fn contract_mode_prints_the_result_object_last() {
    for (trace, names) in [
        (
            "0",
            END_TO_END
                .iter()
                .filter(|m| m.contract)
                .map(|m| (m.name, m.unit))
                .collect::<Vec<_>>(),
        ),
        ("1", LAYERS.iter().map(|l| (l.name, l.unit)).collect()),
    ] {
        let run = match_perf(&[
            "run",
            "--quick",
            "--workload",
            "ckpt-heavy",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
        ]);
        let stdout = String::from_utf8_lossy(&run.stdout);
        assert!(
            run.status.success(),
            "{stdout}\n{}",
            String::from_utf8_lossy(&run.stderr)
        );
        let last = stdout.lines().last().expect("a result line");
        let result = parse_json(last).expect("the last line is JSON");
        assert_eq!(
            object_keys(&result),
            ["attempted", "correct", "failed", "metrics"]
        );
        assert_eq!(get(&result, "correct"), Some(&Value::Bool(true)));
        assert_eq!(get(&result, "failed").and_then(as_f64), Some(0.0));
        assert!(
            get(&result, "attempted")
                .and_then(as_f64)
                .expect("attempted")
                >= 1.0
        );
        let metrics = get(&result, "metrics").expect("metrics");
        let mut expected: Vec<&str> = names.iter().map(|(n, _)| *n).collect();
        expected.sort_unstable();
        assert_eq!(object_keys(metrics), expected, "--trace {trace}");
        for (name, unit) in names {
            let entry = get(metrics, name).expect(name);
            assert_eq!(object_keys(entry), ["unit", "value"]);
            assert_eq!(get(entry, "unit").and_then(as_str), Some(unit));
        }
    }
}

#[test]
fn guards_refuse_bad_input_and_debug_measurements() {
    let unknown = match_perf(&["run", "--quick", "--workload", "nope"]);
    assert_eq!(unknown.status.code(), Some(2));
    let bad_flag = match_perf(&["run", "--sed", "1"]);
    assert_eq!(bad_flag.status.code(), Some(2));
    let bad_number = match_perf(&["run", "--quick", "--seed", "x"]);
    assert_eq!(bad_number.status.code(), Some(2));
    let no_files = match_perf(&["compare", "only-one.json"]);
    assert_eq!(no_files.status.code(), Some(2));
    if cfg!(debug_assertions) {
        // `cargo test` builds without optimisation flags of the release profile:
        // anything but the schema smoke must be refused.
        for args in [
            &["run"][..],
            &["selfcheck"],
            &["worker", "--workload", "fig-fault"],
        ] {
            let refused = match_perf(args);
            assert_eq!(refused.status.code(), Some(2), "{args:?}");
            assert!(String::from_utf8_lossy(&refused.stderr).contains("debug build"));
        }
    }
}

#[test]
fn benchmark_json_is_the_generated_manifest() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("BENCHMARK.json");
    let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        manifest().pretty(),
        "regenerate with `match-perf manifest`"
    );
    let doc = parse_json(&committed).expect("valid JSON");
    assert_eq!(
        object_keys(&doc),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert!(committed.len() < 64 * 1024);
    let setup = as_array(get(&doc, "end_to_end").unwrap())
        .unwrap()
        .iter()
        .find(|m| get(m, "name").and_then(as_str) == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(get(setup, "unit").and_then(as_str), Some("s"));
    assert_eq!(get(setup, "better").and_then(as_str), Some("lower"));
}
