#!/usr/bin/env bash
# Scaling-curve benchmark: blocked evaluation against the full similarity
# matrix, with per-phase peak-memory measurement.
#
# Runs the bench_scale binary over DBP15K-profile worlds at 1x/4x/10x
# scale. At each point it embeds KG2 once (its own timed and peaked
# phase), then ranks every seed link against it twice — once through
# evaluate_blocked at the block height validation uses, once through the
# materialized n×m similarity matrix — asserting the two agree bitwise on
# Hits@1/Hits@10/MRR. It writes wall time plus each phase's incremental
# allocator peak (and the process VmHWM) to results/BENCH_scale.json, and
# exits non-zero unless the blocked peak at the largest scale stays under
# half the materialized peak. The quick version (two small points,
# equality assertions only) is what scripts/ci.sh runs as
# `bench_scale --smoke`.
#
# SDEA_THREADS controls the thread budget (default 8; the par layer caps
# it at the machine's cores). SDEA_MEM=0 disables allocation counting —
# the bench still runs and reports, but skips the peak-ratio bar.
set -euo pipefail
cd "$(dirname "$0")/.."

export SDEA_THREADS="${SDEA_THREADS:-8}"
export SDEA_OBS=1

echo "=== bench_scale: memory scaling curve -> results/BENCH_scale.json ==="
cargo build --release -p sdea-bench --bin bench_scale
./target/release/bench_scale

echo "bench_scale.sh: done"
