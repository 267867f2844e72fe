//! Replayable minimal-repro artifacts.
//!
//! A shrunk [`Violation`] is emitted as a small JSON document carrying everything
//! a later process needs to re-run it: the design, the violated property (plus
//! the asserted substring for assertion violations, so no environment is
//! required), the minimal genome, and the recovery-path labels the violating run
//! reached. [`replay`] re-runs the trace and verifies both that the violation
//! reproduces and that the reached labels match the recorded ones bit-for-bit —
//! the contract the CI replay step enforces against a committed fixture.
//!
//! The artifact is strict JSON, written by [`match_core::json::document`] and read
//! by [`match_core::json::parse`], so any JSON tool may inspect or re-save it.
//! Unknown keys are ignored; any structural error is a diagnostic, never a panic.

use std::fmt::Display;

use match_core::fti::CheckpointLevel;
use match_core::json;
use match_core::recovery::RecoveryStrategy;

use crate::genome::{event_from_name, event_kind_name, TraceGenome};
use crate::search::{check_property, Property, Violation};

/// The suite's JSON reader and value, for callers that depend on this crate
/// alone (the `match-perf` benchmark reads its result files through them).
pub use match_core::json::{parse as parse_json, Value};

/// Artifact layout version.
pub const ARTIFACT_VERSION: u64 = 1;

/// Serializes a violation as a replayable JSON artifact.
pub fn to_artifact(v: &Violation) -> String {
    let g = &v.genome;
    let events = json::rows(g.events.iter().map(|e| {
        json::row(&[
            ("kind", &json::string(event_kind_name(e.kind))),
            ("victim", &e.victim_index()),
            ("iteration", &e.at_iteration),
        ])
    }));
    let head: [(&str, &dyn Display); 3] = [
        ("version", &ARTIFACT_VERSION),
        ("design", &json::string(v.strategy.design_name())),
        ("property", &json::string(v.property.name())),
    ];
    let assert = v.assert_label.as_deref().map(json::string);
    let assert = assert.as_ref().map(|a| ("assert", a as &dyn Display));
    let tail: [(&str, &dyn Display); 7] = [
        ("nprocs", &g.nprocs),
        ("iterations", &g.iterations),
        ("level", &g.level.index()),
        ("interval", &g.interval),
        ("events", &events),
        ("labels", &json::strings(&v.labels)),
        ("detail", &json::string(&v.detail)),
    ];
    json::document(&[&head[..], assert.as_slice(), &tail[..]].concat())
}

/// What re-running an artifact found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// The replayed design.
    pub design: String,
    /// The replayed property.
    pub property: Property,
    /// Whether the recorded violation still fails.
    pub reproduced: bool,
    /// Whether the reached labels equal the recorded ones exactly.
    pub labels_match: bool,
    /// The labels the replayed run reached.
    pub labels: Vec<String>,
    /// The labels the artifact recorded.
    pub expected_labels: Vec<String>,
}

impl ReplayOutcome {
    /// The replay contract: the violation reproduces and reaches the recorded
    /// recovery paths bit-for-bit.
    pub fn verified(&self) -> bool {
        self.reproduced && self.labels_match
    }
}

/// Parses an artifact and re-runs it. Structural problems (bad JSON, unknown
/// design/property/kind names, out-of-range values) are `Err`; a parseable
/// artifact whose violation no longer reproduces is an `Ok` outcome with
/// [`ReplayOutcome::verified`] false.
pub fn replay(artifact: &str) -> Result<ReplayOutcome, String> {
    let doc = json::parse(artifact)?;
    if !matches!(doc, Value::Object(_)) {
        return Err("artifact is not a JSON object".into());
    }
    let version = doc.get_u64("version")?;
    if version != ARTIFACT_VERSION {
        return Err(format!("unsupported artifact version {version}"));
    }
    let design = doc.get_str("design")?;
    let strategy = RecoveryStrategy::ALL
        .into_iter()
        .find(|s| s.design_name() == design)
        .ok_or_else(|| format!("unknown design {design:?}"))?;
    let property_name = doc.get_str("property")?;
    let property = Property::from_name(property_name)
        .ok_or_else(|| format!("unknown property {property_name:?}"))?;
    let assert_label = match doc.get("assert") {
        Some(label) => Some(label.as_str().ok_or("\"assert\" is not a string")?),
        None => None,
    };
    let index = doc.get_u64("level")?;
    let level = u8::try_from(index)
        .ok()
        .and_then(CheckpointLevel::from_index);
    let level = level.ok_or_else(|| format!("level {index} out of range"))?;
    let Some(Value::Array(raw_events)) = doc.get("events") else {
        return Err("\"events\" is not an array".into());
    };
    let mut events = Vec::new();
    for raw in raw_events {
        let kind = raw.get_str("kind")?;
        let event = event_from_name(
            kind,
            raw.get_u64("victim")? as usize,
            raw.get_u64("iteration")?,
        );
        events.push(event.ok_or_else(|| format!("unknown event kind {kind:?}"))?);
    }
    let Some(Value::Array(labels)) = doc.get("labels") else {
        return Err("\"labels\" is not an array".into());
    };
    let expected_labels: Option<Vec<String>> = labels
        .iter()
        .map(|l| l.as_str().map(str::to_string))
        .collect();
    let expected_labels = expected_labels.ok_or("label is not a string")?;
    let genome = TraceGenome {
        nprocs: doc.get_u64("nprocs")? as usize,
        iterations: doc.get_u64("iterations")?,
        level,
        interval: doc.get_u64("interval")?,
        events,
    };
    if !genome.runnable() || genome.nprocs > 4096 {
        return Err(format!(
            "nprocs {}, iterations {} or interval {} out of range",
            genome.nprocs, genome.iterations, genome.interval
        ));
    }

    let check = check_property(strategy, &genome, property, assert_label);
    Ok(ReplayOutcome {
        design: design.to_string(),
        property,
        reproduced: check.violated,
        labels_match: check.labels == expected_labels,
        labels: check.labels,
        expected_labels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use match_core::mpisim::FailureSpec;

    fn violation() -> Violation {
        let mut genome = TraceGenome::baseline(4, 8);
        genome.level = CheckpointLevel::L2;
        genome.events = vec![FailureSpec::crash_node(1, 6)];
        Violation {
            strategy: RecoveryStrategy::Reinit,
            property: Property::AssertLabel,
            assert_label: Some("L2-partner".to_string()),
            genome,
            labels: vec!["fresh".to_string(), "L2-partner".to_string()],
            detail: "reached a path labelled *L2-partner*".to_string(),
        }
    }

    #[test]
    fn artifact_round_trips_and_replays() {
        let v = violation();
        let artifact = to_artifact(&v);
        let outcome = replay(&artifact).expect("parses");
        assert!(outcome.reproduced, "violation must reproduce");
        assert!(outcome.labels_match, "{:?}", outcome);
        assert!(outcome.verified());
        assert_eq!(outcome.labels, v.labels);
    }

    #[test]
    fn stale_labels_fail_the_replay_contract() {
        let mut v = violation();
        v.labels = vec!["fresh".to_string(), "L3".to_string()];
        let outcome = replay(&to_artifact(&v)).expect("parses");
        assert!(outcome.reproduced);
        assert!(!outcome.labels_match);
        assert!(!outcome.verified());
    }

    #[test]
    fn structural_errors_are_diagnostics_not_panics() {
        for bad in [
            "",
            "{",
            "[1,2",
            "{\"version\": 1}",
            "nope",
            "{\"version\": 99, \"design\": \"REINIT-FTI\"}",
            "{} trailing",
            "{\"version\": 1, \"design\": \"X\", \"property\": \"oracle\"}",
        ] {
            assert!(replay(bad).is_err(), "{bad:?} must be an error");
        }
    }

    #[test]
    fn control_and_combining_characters_survive_the_artifact() {
        let mut v = violation();
        v.detail = "e\u{301} \u{1b}[0m \0".to_string();
        let outcome = replay(&to_artifact(&v)).expect("parses");
        assert!(outcome.verified(), "{outcome:?}");
        // A label no path contains still parses back intact; it just does not
        // reproduce.
        v.assert_label = Some("e\u{301}\u{1b}\0".to_string());
        let artifact = to_artifact(&v);
        let doc = json::parse(&artifact).expect("strict JSON");
        assert_eq!(doc.get_str("assert"), Ok("e\u{301}\u{1b}\0"));
        assert_eq!(doc.get_str("detail"), Ok("e\u{301} \u{1b}[0m \0"));
        assert!(!replay(&artifact).expect("parses").reproduced);
    }

    /// What Python's `json.dump` (default `ensure_ascii=True`) makes of a string:
    /// every non-ASCII character as `\uXXXX`, astral ones as surrogate pairs.
    fn ascii_escaped(text: &str) -> String {
        let mut out = String::new();
        for c in text.chars() {
            if c.is_ascii() {
                out.push(c);
            } else {
                for unit in c.encode_utf16(&mut [0; 2]) {
                    out.push_str(&format!("\\u{unit:04x}"));
                }
            }
        }
        out
    }

    #[test]
    fn an_ascii_escaped_resave_replays() {
        let mut v = violation();
        v.detail = "caf\u{e9} \u{1F600}".to_string();
        let resaved = ascii_escaped(&to_artifact(&v));
        assert!(resaved.contains("\\ud83d\\ude00"), "{resaved}");
        let outcome = replay(&resaved).expect("parses");
        assert!(outcome.verified(), "{outcome:?}");
        let lone = resaved.replace("\\ude00", "");
        assert!(replay(&lone).unwrap_err().contains("surrogate"));
    }

    const FIXTURE: &str = include_str!("../../../tests/fixtures/explore-repro.json");

    #[test]
    fn the_fixture_never_panics_when_truncated_or_flipped() {
        let bytes = FIXTURE.as_bytes();
        let complete = FIXTURE.trim_end().len();
        for len in 0..bytes.len() {
            assert_eq!(
                replay(&FIXTURE[..len]).is_ok(),
                len >= complete,
                "prefix {len}"
            );
        }
        let no_interval = FIXTURE.replace("\"interval\": 3", "\"interval\": 0");
        assert!(replay(&no_interval)
            .unwrap_err()
            .contains("interval 0 out of range"));
        for i in 0..bytes.len() {
            for mask in [0x01, 0x20, 0x80] {
                let mut flipped = bytes.to_vec();
                flipped[i] ^= mask;
                let _ = replay(&String::from_utf8_lossy(&flipped));
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn random_bytes_never_panic(bytes in proptest::collection::vec(proptest::any::<u8>(), 0..96)) {
            let _ = replay(&String::from_utf8_lossy(&bytes));
        }
    }
}
