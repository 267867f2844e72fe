//! JSON: the suite's one string quoter, document writer and parser.
//!
//! Every JSON document the suite emits — the figure and MTBF `--json` dumps, the
//! explorer's coverage report and its replayable artifact — is a [`document`]:
//! top-level keys one per line, arrays of inline [`row`]s one per line. Numbers
//! are written with `Display` (shortest round-trip for floats), so two documents
//! are byte-identical exactly when their values are bit-identical. [`parse`]
//! turns any malformed input into a diagnostic, never a panic.

use std::collections::BTreeMap;
use std::fmt::Display;

/// Quotes `s` as a JSON string. `"`, `\`, newline, carriage return and tab are
/// escaped by name, every other character below U+0020 as `\u00XX`, and everything
/// else is written as raw UTF-8. For printable ASCII this is exactly Rust's `{:?}`.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// An inline array of quoted strings: `["a", "b"]`.
pub fn strings<S: AsRef<str>>(items: &[S]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| string(s.as_ref())).collect();
    format!("[{}]", quoted.join(", "))
}

/// One inline object, `{"key": value, ...}`. Each value is JSON text already: a
/// number, a bool, or the output of [`string`], [`strings`] or [`rows`].
pub fn row(fields: &[(&str, &dyn Display)]) -> String {
    format!("{{{}}}", members(fields, "").join(", "))
}

/// An array of [`row`]s, one per line, as the value of a [`document`] key.
pub fn rows(rows: impl IntoIterator<Item = String>) -> String {
    let rows: Vec<String> = rows.into_iter().map(|r| format!("\n    {r}")).collect();
    format!("[{}\n  ]", rows.join(","))
}

/// A whole document: one top-level key per line (values as in [`row`]).
pub fn document(fields: &[(&str, &dyn Display)]) -> String {
    format!("{{{}\n}}\n", members(fields, "\n  ").join(","))
}

/// `"key": value` for each field, each after `indent`.
fn members(fields: &[(&str, &dyn Display)], indent: &str) -> Vec<String> {
    let member = |(k, v): &(&str, &dyn Display)| format!("{indent}{}: {v}", string(k));
    fields.iter().map(member).collect()
}

/// The deepest nesting [`parse`] accepts (the suite's documents need three
/// levels): deeper input is a diagnostic, not a stack overflow.
const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as f64).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object (ordered, so diagnostics are deterministic).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The member `key` of an object (`None` for a non-object or a missing key).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The text of a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// A number that is a whole value in `u64` range.
    pub fn as_u64(&self) -> Option<u64> {
        let &Value::Number(n) = self else { return None };
        (n >= 0.0 && n.fract() == 0.0 && n < u64::MAX as f64).then_some(n as u64)
    }

    /// The member `key` as a `u64`, or a diagnostic naming it.
    pub fn get_u64(&self, key: &str) -> Result<u64, String> {
        self.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("missing or non-integer {key:?}"))
    }

    /// The member `key` as a string, or a diagnostic naming it.
    pub fn get_str(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("missing or non-string {key:?}"))
    }
}

/// Parses one JSON document (whitespace around the value allowed, nothing else);
/// an error names the first malformation and its byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    match p.peek() {
        None => Ok(value),
        Some(_) => p.error("trailing bytes"),
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at offset {}", self.pos))
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// The next byte after any whitespace.
    fn peek(&mut self) -> Option<u8> {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.byte() {
            self.pos += 1;
        }
        self.byte()
    }

    /// Consumes `byte` if it comes next (after whitespace).
    fn eat(&mut self, byte: u8) -> bool {
        let next = self.peek() == Some(byte);
        self.pos += next as usize;
        next
    }

    /// One value inside `depth` arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Value, String> {
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                self.error(&format!("nesting deeper than {MAX_DEPTH} levels"))
            }
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.items(b'}', |p| {
                    let key = p.string()?;
                    if !p.eat(b':') {
                        return p.error("expected ':'");
                    }
                    map.insert(key, p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Object(map))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.items(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'"') => self.string().map(Value::String),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
            None => self.error("unexpected end of input"),
        }
    }

    /// The comma-separated items of the array or object opening here, through
    /// its `close` bracket.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return self.error(&format!("expected ',' or '{}'", close as char));
            }
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if !self.text[self.pos..].starts_with(word) {
            return self.error("bad literal");
        }
        self.pos += word.len();
        Ok(value)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') = self.byte() {
            self.pos += 1;
        }
        match self.text[start..self.pos].parse() {
            Ok(n) => Ok(Value::Number(n)),
            Err(_) => Err(format!("bad number at offset {start}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat(b'"') {
            return self.error("expected string");
        }
        let mut out = String::new();
        loop {
            let Some(c) = self.text[self.pos..].chars().next() else {
                return Err("unterminated string".into());
            };
            self.pos += c.len_utf8();
            let escape = match c {
                '"' => return Ok(out),
                '\\' => self.byte(),
                c if c < ' ' => return self.error("unescaped control character"),
                c => {
                    out.push(c);
                    continue;
                }
            };
            self.pos += 1;
            out.push(match escape {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => self.unicode_escape()?,
                _ => return self.error("bad escape"),
            });
        }
    }

    /// The character of a `\uXXXX` escape (its `\u` consumed); a UTF-16
    /// surrogate pair spans two escapes.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.text[self.pos..].starts_with("\\u") {
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return self.error("unpaired surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        char::from_u32(code).map_or_else(|| self.error("unpaired surrogate"), Ok)
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self.text.get(self.pos..self.pos + 4);
        let hex = hex.filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
        let code = hex.and_then(|h| u32::from_str_radix(h, 16).ok());
        let code = code.map_or_else(|| self.error("bad \\u escape"), Ok)?;
        self.pos += 4;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn string_escapes_what_json_requires_and_nothing_else() {
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(string("a\"b\\c\n\r\t"), r#""a\"b\\c\n\r\t""#);
        assert_eq!(string("\0\u{1b}\u{1f}"), r#""\u0000\u001b\u001f""#);
        // Combining marks, DEL and astral characters travel as raw UTF-8.
        assert_eq!(string("e\u{301}\u{7f}😀"), "\"e\u{301}\u{7f}😀\"");
        assert_eq!(strings(&["a", "b c"]), r#"["a", "b c"]"#);
        assert_eq!(strings::<&str>(&[]), "[]");
    }

    #[test]
    fn documents_put_keys_and_rows_one_per_line() {
        let doc = document(&[
            ("n", &3),
            ("s", &string("x")),
            (
                "rows",
                &rows([1, 2].map(|i| row(&[("i", &i), ("ok", &true)]))),
            ),
            ("none", &rows([])),
        ]);
        assert_eq!(
            doc,
            "{\n  \"n\": 3,\n  \"s\": \"x\",\n  \"rows\": [\n    {\"i\": 1, \"ok\": true},\n    \
             {\"i\": 2, \"ok\": true}\n  ],\n  \"none\": [\n  ]\n}\n"
        );
        assert_eq!(document(&[]), "{\n}\n");
        assert_eq!(row(&[]), "{}");
        assert!(parse(&doc).is_ok());
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let v = parse(r#"{"a": [1, {"b": "x\"y\n\u00e9\/"}, true, null], "c": -2.5}"#).unwrap();
        assert_eq!(v.get("c"), Some(&Value::Number(-2.5)));
        let Some(Value::Array(items)) = v.get("a") else {
            panic!("not an array")
        };
        assert_eq!(items[0].as_u64(), Some(1));
        assert_eq!(items[1].get_str("b"), Ok("x\"y\n\u{e9}/"));
        assert_eq!(items[2], Value::Bool(true));
        assert_eq!(items[3], Value::Null);
        assert_eq!(v.get_u64("c"), Err("missing or non-integer \"c\"".into()));
        assert_eq!(v.get_str("z"), Err("missing or non-string \"z\"".into()));
    }

    #[test]
    fn malformed_documents_are_diagnostics() {
        for bad in [
            "",
            "{",
            "[1,2",
            "{} trailing",
            "nope",
            "\"unterminated",
            "\"raw\nnewline\"",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u+123\"",
            "{\"a\" 1}",
            "[1 2]",
            "1..2",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be an error");
        }
    }

    #[test]
    fn deep_nesting_is_a_diagnostic_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        let error = parse(&deep).unwrap_err();
        assert!(error.contains("nesting deeper than 32"), "{error}");
        let deep_objects = "{\"a\":".repeat(100_000);
        assert!(parse(&deep_objects).is_err());
        // Exactly MAX_DEPTH levels still parse.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let over = format!("[{ok}]");
        assert!(parse(&over).is_err());
    }

    #[test]
    fn surrogate_pairs_decode_to_one_character() {
        assert_eq!(parse(r#""\ud83d\ude00""#), Ok(Value::String("😀".into())));
        assert_eq!(
            parse(r#""a\uD834\uDD1Eb""#),
            Ok(Value::String("a𝄞b".into()))
        );
    }

    #[test]
    fn lone_surrogates_are_errors() {
        for bad in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
            r#""\ude00\ud83d""#,
        ] {
            let error = parse(bad).unwrap_err();
            assert!(error.contains("surrogate"), "{bad}: {error}");
        }
    }

    /// Strings biased toward what JSON must escape: control characters, quotes,
    /// backslashes, combining marks and astral characters.
    fn arbitrary_string() -> impl Strategy<Value = String> {
        proptest::collection::vec(any::<u32>(), 0..24).prop_map(|codes| {
            codes
                .into_iter()
                .map(|c| match c % 5 {
                    0 => char::from_u32((c >> 3) % 0x20).unwrap_or('?'),
                    1 => ['"', '\\', '/', '\u{7f}', '\u{301}'][(c >> 3) as usize % 5],
                    2 => char::from_u32(0x20 + (c >> 3) % 0x5f).unwrap_or('?'),
                    _ => char::from_u32((c >> 3) % 0x11_0000).unwrap_or('\u{fffd}'),
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn every_string_round_trips_through_the_quoter(s in arbitrary_string()) {
            prop_assert_eq!(parse(&string(&s)), Ok(Value::String(s.clone())));
        }

        #[test]
        fn printable_ascii_quotes_exactly_like_debug(s in "[ -~]{0,40}") {
            prop_assert_eq!(string(&s), format!("{s:?}"));
        }
    }
}
