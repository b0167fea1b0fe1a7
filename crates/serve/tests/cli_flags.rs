//! The serving binaries reject arguments they do not understand: an
//! unknown flag, a flag missing its value, or a malformed number exits 2
//! with a diagnostic naming it, instead of being dropped or defaulted.
//!
//! Drives the real binaries as child processes, since the rejection ends
//! the process. Every case must be rejected before any file is read or
//! any model trains, so each finishes in milliseconds.

use std::process::Command;

fn assert_rejected(bin: &str, args: &[&str], named: &str) {
    let out = Command::new(bin).args(args).output().expect("spawn the binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(named), "{args:?}: diagnostic must name {named}: {stderr}");
}

#[test]
fn sdea_serve_rejects_unknown_and_valueless_flags() {
    let bin = env!("CARGO_BIN_EXE_sdea_serve");
    // `a b c` do not exist: a rejection that read them would say so
    // instead of naming the flag.
    assert_rejected(bin, &["serve", "a", "b", "c", "--index", "x.sdix"], "--index");
    assert_rejected(bin, &["serve", "a", "b", "c", "--addr"], "--addr");
    assert_rejected(bin, &["query", "127.0.0.1:1", "text", "--top", "3"], "--top");
    assert_rejected(bin, &["query", "127.0.0.1:1", "text", "--k"], "--k");
}

#[test]
fn bench_serve_parses_its_load_shape_strictly() {
    let bin = env!("CARGO_BIN_EXE_bench_serve");
    assert_rejected(bin, &["--smoke", "--requests", "5x"], "--requests");
    assert_rejected(bin, &["--smoke", "--levels", "1,x"], "--levels");
}
