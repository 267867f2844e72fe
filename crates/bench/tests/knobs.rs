//! `match-bench` against the knob table: every knob it reads is checked at
//! start-up, whatever the target, and `--help` lists every knob a user sets.

use std::process::{Command, Output};

use match_core::knobs;

/// Runs `match-bench args` with no knob set but `env`.
fn match_bench(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut command = Command::new(env!("CARGO_BIN_EXE_match-bench"));
    for knob in knobs::TABLE {
        command.env_remove(knob.name());
    }
    command.args(args).envs(env.iter().copied());
    command.output().expect("run match-bench")
}

#[test]
fn every_malformed_knob_exits_2_naming_it_before_anything_runs() {
    let free_form = [
        knobs::CACHE_DIR.name,
        knobs::EXPLORE_ASSERT.name,
        knobs::EXPLORE_CORPUS.name,
    ];
    for knob in knobs::TABLE {
        let name = knob.name();
        let out = match_bench(&["table1"], &[(name, "bogus")]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        if free_form.contains(&name) {
            assert!(out.status.success(), "{name}=bogus: {stderr}");
        } else {
            assert_eq!(out.status.code(), Some(2), "{name}=bogus: {stderr}");
            assert!(stderr.contains(&format!("{name}='bogus'")), "{stderr}");
            assert!(out.stdout.is_empty(), "{name}=bogus ran table1");
        }
    }
}

#[test]
fn knob_flags_take_their_value_either_way_and_check_it_with_the_knobs_parser() {
    for args in [
        ["--workers", "4"],
        ["--workers=4", "table1"],
        ["--jobs=2", "table1"],
        ["-j", "2"],
        ["--racks=2", "table1"],
        ["--backend=coop", "table1"],
    ] {
        let mut args = args.to_vec();
        if !args.contains(&"table1") {
            args.push("table1");
        }
        let out = match_bench(&args, &[]);
        assert!(out.status.success(), "{args:?}: {:?}", out);
    }
    for (args, knob) in [
        (vec!["--workers=0"], knobs::WORKERS.name),
        (vec!["--jobs"], knobs::JOBS.name),
        (vec!["-j", "abc"], knobs::JOBS.name),
        (vec!["--racks=x"], knobs::RACKS.name),
        (vec!["--backend", "threads"], knobs::BACKEND.name),
    ] {
        let out = match_bench(&args, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(knob), "{args:?}: {stderr}");
    }
}

#[test]
fn help_lists_every_knob_a_user_sets() {
    let out = match_bench(&["--help"], &[]);
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stdout);
    for knob in knobs::TABLE {
        assert!(help.contains(knob.name()), "--help misses {}", knob.name());
    }
}
