//! A minimal ordered JSON document model and writer (the sandbox has no crates.io),
//! plus read accessors over `match_explorer::replay::parse_json`'s value type, which
//! is the only JSON reader the benchmark uses.

use std::fmt::Write as _;

pub use match_explorer::replay::{parse_json, Value};

/// A JSON value whose objects keep insertion order, so emitted files diff cleanly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A whole number, written without a fraction.
    Int(u64),
    /// A measured number, written with every digit `f64` round-trips through.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Renders on one line (the form the result line of a run uses).
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders indented by two spaces, with a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(step) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', step * depth));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            // JSON has no NaN or infinity; a measurement that produced one is
            // recorded as null rather than as an unparsable file.
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            Json::Num(x) => {
                let _ = write!(out, "{x}");
            }
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if indent.is_none() {
                            out.push(' ');
                        }
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if indent.is_none() {
                            out.push(' ');
                        }
                    }
                    newline(out, depth + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out, indent, depth + 1);
                }
                if !pairs.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Whether `name` is a valid metric or workload name: starts with a letter or
/// digit, then up to 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `value[key]` of a parsed object.
pub fn get<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Object(map) => map.get(key),
        _ => None,
    }
}

/// Follows `path` through nested objects.
pub fn get_path<'a>(value: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(value, |v, key| get(v, key))
}

/// The number behind a parsed value.
pub fn as_f64(value: &Value) -> Option<f64> {
    match value {
        Value::Number(n) => Some(*n),
        _ => None,
    }
}

/// The string behind a parsed value.
pub fn as_str(value: &Value) -> Option<&str> {
    match value {
        Value::String(s) => Some(s),
        _ => None,
    }
}

/// The items behind a parsed array.
pub fn as_array(value: &Value) -> Option<&[Value]> {
    match value {
        Value::Array(items) => Some(items),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj([
            ("schema", Json::str("match-perf-v1")),
            ("claim", Json::Null),
            ("ok", Json::Bool(true)),
            ("n", Json::Int(136)),
            ("x", Json::Num(0.1 + 0.2)),
            ("text", Json::str("a \"quoted\"\\ line\nbreak\ttab \u{1} é")),
            ("empty", Json::Arr(vec![])),
            (
                "nested",
                Json::Arr(vec![
                    Json::obj([("k", Json::Num(-1.5e-9))]),
                    Json::Obj(vec![]),
                ]),
            ),
        ])
    }

    fn check_round_trip(text: &str) {
        let parsed = parse_json(text).expect("writer output parses");
        assert_eq!(
            as_str(get(&parsed, "schema").unwrap()),
            Some("match-perf-v1")
        );
        assert_eq!(get(&parsed, "claim"), Some(&Value::Null));
        assert_eq!(get(&parsed, "ok"), Some(&Value::Bool(true)));
        assert_eq!(as_f64(get(&parsed, "n").unwrap()), Some(136.0));
        // Every digit survives: the parsed number is the same f64.
        assert_eq!(as_f64(get(&parsed, "x").unwrap()), Some(0.1 + 0.2));
        assert_eq!(
            as_str(get(&parsed, "text").unwrap()),
            Some("a \"quoted\"\\ line\nbreak\ttab \u{1} é")
        );
        assert_eq!(as_array(get(&parsed, "empty").unwrap()), Some(&[][..]));
        let nested = as_array(get(&parsed, "nested").unwrap()).unwrap();
        assert_eq!(as_f64(get(&nested[0], "k").unwrap()), Some(-1.5e-9));
        assert_eq!(get_path(&parsed, &["nested", "k"]), None);
    }

    #[test]
    fn compact_and_pretty_round_trip_through_the_explorer_parser() {
        let doc = sample();
        let compact = doc.compact();
        assert!(!compact.contains('\n'));
        check_round_trip(&compact);
        let pretty = doc.pretty();
        assert!(pretty.ends_with("}\n") && pretty.contains("\n  \"n\": 136"));
        check_round_trip(&pretty);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let doc = Json::Arr(vec![Json::Num(f64::NAN), Json::Num(f64::INFINITY)]);
        assert_eq!(doc.compact(), "[null, null]");
    }

    #[test]
    fn name_validation() {
        for ok in [
            "fig-fault",
            "fti.ckpt_us_per_mib.l2",
            "a",
            "9lives",
            "A_b-c.d",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "-lead",
            ".lead",
            "_lead",
            "has space",
            "slash/name",
            "é",
            &long,
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }
}
