//! Strict environment-variable parsing.
//!
//! Every `SDEA_*` knob used to fall back to its default when the value was
//! malformed (`SDEA_THREADS=banana` silently ran single-threaded). For a
//! long-lived serving process that is a production incident, not a
//! convenience — so every parse site now goes through these helpers and a
//! malformed value is a hard startup error: a clear message on stderr and
//! exit code 2. Unset variables and blank values still mean "use the
//! default".
//!
//! The `check_*` functions hold the actual policy and are pure (no process
//! exit), so tests pin the accepted/rejected value sets; the `*_or_exit`
//! wrappers are what startup paths call.
//!
//! Command lines follow the same rule: [`parse_flags`] accepts only the
//! flags a command knows, so a mistyped flag is an error, not a default.

use std::str::FromStr;

/// Exit code for a malformed environment variable (distinct from the
/// CLI-usage exit code 2 convention only by message; both mean "operator
/// error, nothing ran").
pub const ENV_EXIT_CODE: i32 = 2;

/// Validates a raw value for `var`: `None` / blank ⇒ `Ok(None)` (unset),
/// otherwise the trimmed value must parse as `T`.
pub fn check_parse<T: FromStr>(
    var: &str,
    raw: Option<&str>,
    expected: &str,
) -> Result<Option<T>, String> {
    let Some(raw) = raw else { return Ok(None) };
    let t = raw.trim();
    if t.is_empty() {
        return Ok(None);
    }
    t.parse::<T>().map(Some).map_err(|_| format!("invalid {var}={raw:?}: expected {expected}"))
}

/// Validates a raw boolean flag for `var`. Accepted spellings (trimmed):
/// `1`/`true`/`on` ⇒ `true`, `0`/`false`/`off` ⇒ `false`. Anything else is
/// an error — previously any unrecognized value silently enabled the flag.
pub fn check_bool(var: &str, raw: Option<&str>) -> Result<Option<bool>, String> {
    let Some(raw) = raw else { return Ok(None) };
    match raw.trim() {
        "" => Ok(None),
        "1" | "true" | "on" => Ok(Some(true)),
        "0" | "false" | "off" => Ok(Some(false)),
        _ => Err(format!("invalid {var}={raw:?}: expected 1/true/on or 0/false/off")),
    }
}

/// Validates a raw enumerated value for `var` against `allowed` (trimmed,
/// case-sensitive). Returns the matching allowed value.
pub fn check_enum(
    var: &str,
    raw: Option<&str>,
    allowed: &[&'static str],
) -> Result<Option<&'static str>, String> {
    let Some(raw) = raw else { return Ok(None) };
    let t = raw.trim();
    if t.is_empty() {
        return Ok(None);
    }
    match allowed.iter().find(|&&a| a == t) {
        Some(&a) => Ok(Some(a)),
        None => Err(format!("invalid {var}={raw:?}: expected one of {}", allowed.join("/"))),
    }
}

/// The `(flag, value)` pairs of the arguments after a command's
/// positionals. Each must be one of `valued` followed by its value, or one
/// of `switches` (recorded with an empty value); anything else, or a
/// valued flag with nothing after it, is an error naming it.
pub fn parse_flags<'a>(
    rest: &'a [String],
    valued: &[&str],
    switches: &[&str],
) -> Result<Vec<(&'a str, &'a str)>, String> {
    let mut flags = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if valued.contains(&arg.as_str()) {
            let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
            flags.push((arg.as_str(), value.as_str()));
        } else if switches.contains(&arg.as_str()) {
            flags.push((arg.as_str(), ""));
        } else {
            return Err(format!("unexpected argument {arg:?}"));
        }
    }
    Ok(flags)
}

/// The value of flag `name` in `flags` (its first occurrence).
pub fn flag<'a>(flags: &[(&str, &'a str)], name: &str) -> Option<&'a str> {
    flags.iter().find(|&&(f, _)| f == name).map(|&(_, v)| v)
}

/// Prints `msg` with the standard prefix and exits with [`ENV_EXIT_CODE`].
pub fn die(msg: &str) -> ! {
    eprintln!("sdea: {msg} (fix the environment and restart)");
    std::process::exit(ENV_EXIT_CODE)
}

fn get(var: &str) -> Option<String> {
    std::env::var(var).ok()
}

/// Reads and parses `var`; `None` when unset/blank, process exit on a
/// malformed value. `expected` describes the accepted format for the error
/// message (e.g. `"a non-negative integer"`).
pub fn parse_or_exit<T: FromStr>(var: &str, expected: &str) -> Option<T> {
    match check_parse(var, get(var).as_deref(), expected) {
        Ok(v) => v,
        Err(msg) => die(&msg),
    }
}

/// Reads a strict boolean flag; `None` when unset/blank, exit on anything
/// outside the accepted spellings.
pub fn bool_or_exit(var: &str) -> Option<bool> {
    match check_bool(var, get(var).as_deref()) {
        Ok(v) => v,
        Err(msg) => die(&msg),
    }
}

/// Reads a strict enumerated value; `None` when unset/blank, exit on an
/// unrecognized value.
pub fn enum_or_exit(var: &str, allowed: &[&'static str]) -> Option<&'static str> {
    match check_enum(var, get(var).as_deref(), allowed) {
        Ok(v) => v,
        Err(msg) => die(&msg),
    }
}

/// Reads a free-form string value (paths, fault specs); `None` when unset
/// or blank, the trimmed value otherwise. The one way a string can be
/// malformed is a non-UTF-8 value, and that exits like every other
/// `SDEA_*` parse failure instead of silently falling back to the default.
pub fn string_or_exit(var: &str) -> Option<String> {
    match std::env::var(var) {
        Ok(raw) => {
            let t = raw.trim();
            if t.is_empty() {
                None
            } else {
                Some(t.to_string())
            }
        }
        Err(std::env::VarError::NotPresent) => None,
        Err(std::env::VarError::NotUnicode(raw)) => {
            die(&format!("invalid {var}={raw:?}: expected UTF-8 text"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_flags_accepts_only_known_flags_with_their_values() {
        let args = |s: &[&str]| s.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        let ok = args(&["--k", "3", "--raw", "--k", "4"]);
        let flags = parse_flags(&ok, &["--k"], &["--raw"]).unwrap();
        assert_eq!(flags, vec![("--k", "3"), ("--raw", ""), ("--k", "4")]);
        assert_eq!(flag(&flags, "--k"), Some("3"));
        assert_eq!(flag(&flags, "--raw"), Some(""));
        assert_eq!(flag(&flags, "--top"), None);
        for (bad, named) in [
            (args(&["--top", "3"]), "--top"),
            (args(&["--k"]), "--k"),
            (args(&["--k", "3", "extra"]), "extra"),
        ] {
            let err = parse_flags(&bad, &["--k"], &["--raw"]).unwrap_err();
            assert!(err.contains(named), "{bad:?}: {err}");
        }
    }

    #[test]
    fn unset_and_blank_mean_default() {
        assert_eq!(check_parse::<usize>("X", None, "int"), Ok(None));
        assert_eq!(check_parse::<usize>("X", Some(""), "int"), Ok(None));
        assert_eq!(check_parse::<usize>("X", Some("  "), "int"), Ok(None));
        assert_eq!(check_bool("X", None), Ok(None));
        assert_eq!(check_bool("X", Some(" ")), Ok(None));
        assert_eq!(check_enum("X", None, &["a"]), Ok(None));
        assert_eq!(check_enum("X", Some(""), &["a"]), Ok(None));
    }

    #[test]
    fn valid_values_parse_trimmed() {
        assert_eq!(check_parse::<usize>("X", Some(" 8 "), "int"), Ok(Some(8)));
        assert_eq!(check_parse::<f32>("X", Some("0.5"), "float"), Ok(Some(0.5)));
        assert_eq!(check_parse::<u64>("X", Some("2022"), "int"), Ok(Some(2022)));
    }

    #[test]
    fn malformed_values_are_errors_not_defaults() {
        assert!(check_parse::<usize>("SDEA_THREADS", Some("banana"), "int").is_err());
        assert!(check_parse::<usize>("SDEA_THREADS", Some("-1"), "int").is_err());
        assert!(check_parse::<usize>("SDEA_THREADS", Some("8 workers"), "int").is_err());
        assert!(check_parse::<f32>("SDEA_ATTR_LR", Some("fast"), "float").is_err());
        let msg = check_parse::<usize>("SDEA_THREADS", Some("banana"), "a non-negative integer")
            .unwrap_err();
        assert!(msg.contains("SDEA_THREADS"), "{msg}");
        assert!(msg.contains("banana"), "{msg}");
        assert!(msg.contains("non-negative integer"), "{msg}");
    }

    #[test]
    fn bool_accepts_exactly_the_documented_spellings() {
        for v in ["1", "true", "on", " 1 "] {
            assert_eq!(check_bool("SDEA_OBS", Some(v)), Ok(Some(true)), "{v:?}");
        }
        for v in ["0", "false", "off"] {
            assert_eq!(check_bool("SDEA_OBS", Some(v)), Ok(Some(false)), "{v:?}");
        }
        // Previously e.g. "yes" or "2" silently *enabled* observability.
        for v in ["yes", "no", "2", "TRUE", "On", "enabled"] {
            assert!(check_bool("SDEA_OBS", Some(v)).is_err(), "{v:?}");
        }
    }

    #[test]
    fn enums_are_closed_sets() {
        let allowed = &["quick", "full"];
        assert_eq!(check_enum("SDEA_SCALE", Some("full"), allowed), Ok(Some("full")));
        assert_eq!(check_enum("SDEA_SCALE", Some(" quick "), allowed), Ok(Some("quick")));
        assert!(check_enum("SDEA_SCALE", Some("fulll"), allowed).is_err());
        assert!(check_enum("SDEA_SCALE", Some("FULL"), allowed).is_err());
    }
}
