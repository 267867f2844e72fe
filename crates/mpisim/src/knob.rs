//! The environment-knob primitives the simulator itself needs.
//!
//! `mpisim` reads `MATCH_BACKEND` and `MATCH_WORKERS` where a job is configured,
//! every time (tests flip them between runs), so it cannot wait for a caller to
//! validate them. Every other crate reads its knobs through the knob table of
//! `match_core::knobs`, which builds on the same functions: [`positive`], the
//! positive-count parser, [`var`] and [`error`], which fetch a value and word a
//! malformed one, and [`read`], the library's lenient reader, which warns through
//! [`warn_once`].

use std::env::VarError;
use std::str::FromStr;
use std::sync::Mutex;

/// Parses a positive integer (surrounding whitespace allowed).
///
/// # Errors
///
/// Anything else — `0`, `-1`, `2.5`, `1,2`, the empty string — is an error saying
/// what the value should have been; [`error`] adds the knob and the value.
pub fn positive<T: FromStr + PartialOrd + Default>(value: &str) -> Result<T, String> {
    value
        .trim()
        .parse::<T>()
        .ok()
        .filter(|n| *n > T::default())
        .ok_or_else(|| "expected a positive integer".to_string())
}

/// The message of a malformed knob: it names the knob, the value and `reason`.
pub fn error(name: &str, value: &str, reason: &str) -> String {
    format!("{name}='{value}': {reason}")
}

/// The value knob `name` is set to; `None` when it is unset.
///
/// # Errors
///
/// A value that is not Unicode, named with the knob.
pub fn var(name: &str) -> Option<Result<String, String>> {
    match std::env::var(name) {
        Err(VarError::NotPresent) => None,
        value => Some(value.map_err(|_| format!("{name} is set to a value that is not Unicode"))),
    }
}

/// Reads knob `name` through `parse` for a library that has no process to exit:
/// `None` when the variable is unset, and also when its value is malformed, after
/// one warning per knob and process on stderr (reads happen per job, hundreds of
/// times in one figure sweep). The caller then uses its default.
pub fn read<T>(name: &str, parse: fn(&str) -> Result<T, String>) -> Option<T> {
    let parsed =
        var(name)?.and_then(|value| parse(&value).map_err(|reason| error(name, &value, &reason)));
    parsed.map_err(|message| warn_once(name, &message)).ok()
}

/// Prints `message` about knob `name` on stderr, saying the default is used, once per
/// knob and process.
pub fn warn_once(name: &str, message: &str) {
    static WARNED: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let mut warned = WARNED.lock().unwrap_or_else(|poison| poison.into_inner());
    if !warned.iter().any(|knob| knob == name) {
        warned.push(name.to_string());
        eprintln!("warning: {message}; using the default");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_counts_parse_and_nothing_else_does() {
        assert_eq!(positive::<usize>("4"), Ok(4));
        assert_eq!(positive::<u32>(" 3 "), Ok(3));
        for value in ["0", "-1", "2.5", "2.0", "1,2", "", "abc", "five", "4 8"] {
            let reason = positive::<usize>(value).unwrap_err();
            assert_eq!(reason, "expected a positive integer", "{value:?}");
        }
        assert_eq!(
            error(crate::WORKERS_ENV_VAR, "0", "expected a positive integer"),
            format!(
                "{}='0': expected a positive integer",
                crate::WORKERS_ENV_VAR
            )
        );
    }

    #[test]
    fn lenient_reads_fall_back_on_unset_and_malformed_values() {
        // A name no other test touches, so setting it cannot race another test.
        const KNOB: &str = "MPISIM_KNOB_READ_UNIT_TEST";
        std::env::remove_var(KNOB);
        assert_eq!(read::<usize>(KNOB, positive), None);
        std::env::set_var(KNOB, "6");
        assert_eq!(read::<usize>(KNOB, positive), Some(6));
        std::env::set_var(KNOB, "six");
        assert_eq!(read::<usize>(KNOB, positive), None);
        assert_eq!(read::<usize>(KNOB, positive), None);
        // A value that is not Unicode is malformed too, never silently unset.
        use std::os::unix::ffi::OsStrExt;
        std::env::set_var(KNOB, std::ffi::OsStr::from_bytes(b"6\xff"));
        assert_eq!(read::<usize>(KNOB, positive), None);
        assert!(var(KNOB).unwrap().unwrap_err().contains("not Unicode"));
        std::env::remove_var(KNOB);
    }
}
