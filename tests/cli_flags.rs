//! Command-line flags parse strictly: a malformed value, an unknown flag,
//! an extra positional or a flag with no value exits 2 with a diagnostic
//! naming it instead of running with a default.
//!
//! Drives the real `sdea` binary as a child process, since the rejection
//! ends the process.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_sdea");

#[test]
fn malformed_numeric_flag_exits_2_and_writes_no_dataset() {
    let dir = std::env::temp_dir().join(format!("sdea_cli_flags_{}", std::process::id()));
    for (flag, value) in [("--links", "40x"), ("--seed", "7x"), ("--scale", "0")] {
        let _ = std::fs::remove_dir_all(&dir);
        let out = Command::new(BIN)
            .args(["generate", "zh_en"])
            .arg(&dir)
            .args([flag, value])
            .output()
            .expect("spawn generate");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(stderr.contains(flag), "diagnostic must name {flag}: {stderr}");
        assert!(!dir.exists(), "{flag} {value}: a rejected command must write no dataset");
    }
}

#[test]
fn unknown_flag_extra_positional_or_missing_value_exits_2_and_writes_no_dataset() {
    let dir = std::env::temp_dir().join(format!("sdea_cli_unknown_{}", std::process::id()));
    for (rest, named) in
        [(&["--sede", "7"][..], "--sede"), (&["extra"][..], "extra"), (&["--seed"][..], "--seed")]
    {
        let _ = std::fs::remove_dir_all(&dir);
        let out = Command::new(BIN)
            .args(["generate", "zh_en"])
            .arg(&dir)
            .args(["--links", "40"])
            .args(rest)
            .output()
            .expect("spawn generate");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{rest:?}: {stderr}");
        assert!(stderr.contains(named), "diagnostic must name {named}: {stderr}");
        assert!(!dir.exists(), "{rest:?}: a rejected command must write no dataset");
    }
}
