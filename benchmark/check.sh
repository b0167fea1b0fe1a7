#!/usr/bin/env bash
# Checks the benchmark package: formatting, clippy with warnings denied,
# the self-tests, and a smoke run of every workload (under a minute).
# Run from anywhere; builds go to $CARGO_TARGET_DIR or benchmark/target.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
manifest="$here/Cargo.toml"
# Run from the repository root so its .cargo/config.toml applies.
cd "$root"

cargo fmt --manifest-path "$manifest" --check
cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --offline --manifest-path "$manifest"
cargo run --release --quiet --offline --manifest-path "$manifest" -- --smoke
echo "benchmark checks passed"
