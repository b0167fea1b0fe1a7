#!/usr/bin/env bash
# Repo verification gate: formatting, lints, build and the full test suite.
# Run before committing or as the preflight of run_all_experiments.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

# A cargo test filter that matches nothing passes silently, so
# run_exact_test runs one library test by exact name, ignored or not, and
# fails unless it ran. Arguments: the package, the test, then environment
# assignments for the test process.
run_exact_test() {
  local pkg="$1" name="$2" out
  shift 2
  out="$(env "$@" cargo test -q --release -p "$pkg" --lib -- --exact --include-ignored "$name" 2>&1)" \
    || { echo "$out"; return 1; }
  echo "$out"
  grep -q "test result: ok. 1 passed" <<<"$out" \
    || { echo "ci.sh: $name did not run" >&2; return 1; }
}
# The oracle test pins blocked evaluation, at every block height, to the
# full-matrix evaluation, bitwise.
ORACLE_TEST="metrics::tests::evaluate_blocked_matches_the_matrix_oracle"
# The exhaustive test pins the tanh kernel behind Graph::gelu and
# Graph::tanh to the scalar fdlibm reference on all 2^32 f32 inputs
# (about a minute on 2 vCPUs; #[ignore]d in tier-1).
TANH_TEST="fdlibm::tests::kernels_match_reference_on_every_f32"

echo "=== cargo fmt --check ==="
cargo fmt --all --check

echo "=== cargo clippy (deny warnings) ==="
cargo clippy --workspace --all-targets -- -D warnings

# Workspace invariant gates (DESIGN.md §11 and §16): determinism
# (hash-order iteration, ad-hoc threads, wall clocks), NaN ordering across
# line breaks, atomic-write discipline, the ratcheted panic budget in
# lint_baseline.toml, #![forbid(unsafe_code)] on every crate root, and the
# cross-file contracts (env/obs/blob registries, fingerprint coverage).
# --json leaves the machine-readable findings in results/lint_report.json.
echo "=== sdea-lint (workspace invariant gates) ==="
cargo run --release -q -p sdea-lint -- --json
test -s results/lint_report.json || {
  echo "sdea-lint did not write results/lint_report.json" >&2
  exit 1
}
grep -q '"clean":true' results/lint_report.json || {
  echo "results/lint_report.json does not say clean" >&2
  exit 1
}

# Registry smoke: the contract analyses must actually be armed. Deleting
# one committed env entry has to turn the lint red — if this passes green,
# the registry gate is dead code.
echo "=== sdea-lint (corrupted-registry smoke) ==="
LINT_SMOKE_DIR="$(mktemp -d)"
grep -v '^SDEA_THREADS' env_registry.toml > "$LINT_SMOKE_DIR/env_registry.toml"
if cargo run --release -q -p sdea-lint -- \
    --env-registry "$LINT_SMOKE_DIR/env_registry.toml" >/dev/null 2>&1; then
  echo "sdea-lint passed with a gutted env registry: contract gate is dead" >&2
  rm -rf "$LINT_SMOKE_DIR"
  exit 1
fi
rm -rf "$LINT_SMOKE_DIR"

echo "=== tier-1: release build + tests ==="
cargo build --workspace --release
cargo test -q --workspace --release

echo "=== exhaustive tanh kernel check ==="
run_exact_test sdea-tensor "$TANH_TEST"

# Budget equivalence with observability on: the instrumentation layer must
# not perturb a single bit of any computed tensor at any thread count.
# Every par_equivalence case fails unless its parallel run fanned out.
# The sdea-lm suite pins an eval forward's real positions bitwise at every
# padded length, the oracle test pins blocked evaluation to the matrix
# path, and the serve suite pins that batching, including one search at
# a mixed-k batch's largest k, is invisible in every answer, all bitwise.
for threads in 1 8; do
  echo "=== budget equivalence: SDEA_THREADS=$threads SDEA_OBS=1 ==="
  SDEA_OBS=1 SDEA_THREADS="$threads" cargo test -q --release \
    -p sdea-tensor -p sdea-eval -p sdea-core --test par_equivalence
  SDEA_OBS=1 SDEA_THREADS="$threads" cargo test -q --release -p sdea-lm
  SDEA_OBS=1 SDEA_THREADS="$threads" cargo test -q --release -p sdea-serve --test determinism
  run_exact_test sdea-eval "$ORACLE_TEST" SDEA_OBS=1 SDEA_THREADS="$threads"
done

# Quick kernel throughput check (seconds): tiled vs. reference matmul
# GFLOP/s, written to results/BENCH_pr3_kernels.json. The full benchmark
# including a pipeline run is scripts/bench_kernels.sh.
echo "=== kernel throughput (quick) ==="
./target/release/bench_kernels --kernels-only

# Memory scaling smoke (seconds): blocked evaluation vs the full
# similarity matrix at two small scale points, asserting bitwise-equal
# metrics, written to results/BENCH_scale_smoke.json. The full
# memory-tracked curve is scripts/bench_scale.sh.
echo "=== memory scaling smoke ==="
./target/release/bench_scale --smoke

# Fault-injection suite: serialization atomicity/corruption at the tensor
# layer, checkpoint quarantine-and-fall-back at the core layer.
echo "=== fault-injection suite ==="
cargo test -q --release -p sdea-tensor -- serialize:: fault::
cargo test -q --release -p sdea-core -- checkpoint::

# Kill-and-resume smoke: a training process killed mid-write by an
# injected fault must resume bit-identically (drives the real binary as
# child processes; covers SDEA_THREADS 1 and 8).
echo "=== kill-and-resume smoke ==="
cargo test -q --release --test checkpoint_resume

# Serving smoke (drives the real binaries): train a tiny model, export
# the query encoder, serve it over HTTP, and require the served top-1 to
# equal the offline query path's answer for the same text. `wait` then
# checks the server exited 0 — a clean graceful shutdown, not a kill.
echo "=== serving smoke ==="
SERVE_TMP="$(mktemp -d)"
trap 'rm -rf "$SERVE_TMP"' EXIT
./target/release/sdea generate zh_en "$SERVE_TMP/ds" --links 60 --seed 7
./target/release/sdea align "$SERVE_TMP/ds" --tiny --seed 7 \
  --out "$SERVE_TMP/model.sdt" --encoder-out "$SERVE_TMP/encoder.sdqe"
QUERY="capital city founded 1850 population 120000"
OFFLINE=$(./target/release/sdea rank "$SERVE_TMP/ds" "$SERVE_TMP/model.sdt" \
  --query "$QUERY" --encoder "$SERVE_TMP/encoder.sdqe" --top 1 | sed -n '2p' | awk '{print $2}')
[ -n "$OFFLINE" ] || { echo "serve smoke: offline rank produced no answer"; exit 1; }
./target/release/sdea_serve serve "$SERVE_TMP/ds" "$SERVE_TMP/model.sdt" \
  "$SERVE_TMP/encoder.sdqe" --addr 127.0.0.1:0 --port-file "$SERVE_TMP/port" &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -s "$SERVE_TMP/port" ] && break; sleep 0.1; done
[ -s "$SERVE_TMP/port" ] || { echo "serve smoke: server never wrote its port file"; exit 1; }
PORT="$(cat "$SERVE_TMP/port")"
SERVED=$(./target/release/sdea_serve query "127.0.0.1:$PORT" "$QUERY" --k 1 | awk 'NR==1{print $2}')
if [ -z "$SERVED" ] || [ "$SERVED" != "$OFFLINE" ]; then
  echo "serve smoke: served top-1 '$SERVED' != offline answer '$OFFLINE'"
  exit 1
fi
./target/release/sdea_serve shutdown "127.0.0.1:$PORT"
wait "$SERVE_PID"
echo "serve smoke: served top-1 '$SERVED' matches offline; graceful shutdown clean"

# Serving latency smoke: closed-loop load at 2 concurrency levels,
# report to results/BENCH_serve_smoke.json. Full run is scripts/bench_serve.sh.
echo "=== serving latency smoke ==="
./target/release/bench_serve --smoke

# Env strictness: a malformed SDEA_* value must abort startup with a
# diagnostic naming the variable — never be silently ignored.
echo "=== env strictness smoke ==="
if SDEA_MAX_BATCH=banana ./target/release/sdea_serve serve x y z 2>"$SERVE_TMP/env_err"; then
  echo "env smoke: malformed SDEA_MAX_BATCH was accepted"
  exit 1
fi
grep -q "SDEA_MAX_BATCH" "$SERVE_TMP/env_err" \
  || { echo "env smoke: diagnostic does not name SDEA_MAX_BATCH"; cat "$SERVE_TMP/env_err"; exit 1; }
if SDEA_THREADS=-3 ./target/release/sdea_serve serve x y z 2>"$SERVE_TMP/env_err"; then
  echo "env smoke: malformed SDEA_THREADS was accepted"
  exit 1
fi
grep -q "SDEA_THREADS" "$SERVE_TMP/env_err" \
  || { echo "env smoke: diagnostic does not name SDEA_THREADS"; cat "$SERVE_TMP/env_err"; exit 1; }

# The repository benchmark (BENCHMARK.json) builds against the public
# sdea-eval/sdea-index/sdea-core API: its fmt, clippy, self-tests and a
# smoke run of all four workloads must pass, so an API break fails here.
echo "=== benchmark package checks ==="
benchmark/check.sh

echo "ci.sh: all checks passed"
