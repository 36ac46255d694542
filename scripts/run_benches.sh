#!/usr/bin/env bash
# Performance benchmark runner: build an optimized tree, run the simulator
# throughput benches and the overhead gates, and emit the committed
# machine-readable records.
#
# Usage:
#   scripts/run_benches.sh                 # writes BENCH_fastforward.json
#                                          #   and the overhead records
#   OUT=/tmp/b.json scripts/run_benches.sh # fast-forward record elsewhere
#   OUT_DIR=/tmp scripts/run_benches.sh    # overhead records elsewhere
#
# BENCH_fastforward.json holds engine cycles/sec and the fast-forward
# on/off speedup; fast-forward must be >= 5x on the sparse (~1% occupancy)
# GUPS workload with every run pair bit-identical (bench_fast_forward
# exits nonzero otherwise).
#
# bench_overhead (bench/overhead_gate.hpp) runs every overhead gate and
# holds each gate's threshold; it writes BENCH_linkretry.json (link-layer
# retry protocol off < 10%, docs/LINK_LAYER.md), BENCH_profile.json
# (observability all-off < 2%, all-on < 10%, docs/OBSERVABILITY.md),
# BENCH_checkpoint.json (auto-checkpointing off < 2%, 10k-cycle cadence
# < 5%, docs/FORMATS.md §5), BENCH_backend.json (hmc_dram virtual-dispatch
# premium < 2%, docs/BACKENDS.md) and BENCH_chaos.json (chaos off < 2%,
# checker at the 1024-cycle cadence < 5%, docs/CHAOS.md), and checks the
# trace gate (< 50%) and reports the RAS costs without a record.
#
# Every step runs even when an earlier one fails; the script then lists
# each failed gate and exits nonzero.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${BUILD:-build-release}
OUT=${OUT:-BENCH_fastforward.json}
OUT_DIR=${OUT_DIR:-.}
GEN=()
command -v ninja >/dev/null && GEN=(-G Ninja)

echo "== configure & build ($BUILD, Release) =="
cmake -B "$BUILD" "${GEN[@]}" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD" --target \
  bench_sim_speed bench_fast_forward bench_overhead

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
failed=()

echo "== bench_fast_forward =="
if ! "$BUILD"/bench/bench_fast_forward --json "$tmp/fast_forward.json"; then
  failed+=(bench_fast_forward)
fi

echo "== bench_overhead =="
if ! "$BUILD"/bench/bench_overhead --out-dir "$OUT_DIR" | tee "$tmp/overhead.txt"
then
  read -r -a gates <<<"$(sed -n 's/^gates failed://p' "$tmp/overhead.txt")"
  failed+=("${gates[@]/#/bench_overhead:}")
  [ ${#gates[@]} -gt 0 ] || failed+=(bench_overhead)
fi

echo "== bench_sim_speed =="
if ! "$BUILD"/bench/bench_sim_speed \
  --benchmark_out="$tmp/sim_speed.json" --benchmark_out_format=json \
  --benchmark_format=console; then
  failed+=(bench_sim_speed)
fi

if [ -s "$tmp/fast_forward.json" ] && [ -s "$tmp/sim_speed.json" ]; then
  jq -n \
    --slurpfile ff "$tmp/fast_forward.json" \
    --slurpfile ss "$tmp/sim_speed.json" '
    {
      generated_by: "scripts/run_benches.sh",
      build_type: "Release",
      fast_forward: $ff[0],
      sim_speed: $ss[0]
    }' > "$OUT"

  sparse=$(jq -r '.fast_forward.workloads[]
                  | select(.name == "sparse_gups") | .speedup' "$OUT")
  echo
  echo "sparse_gups fast-forward speedup: ${sparse}x (gate: >= 5x)"
  if ! jq -e '.fast_forward.workloads[]
              | select(.name == "sparse_gups") | .speedup >= 5' \
       "$OUT" >/dev/null; then
    echo "FAIL: sparse_gups speedup below the 5x acceptance floor" >&2
    failed+=(sparse_gups_speedup)
  fi
  echo "wrote $OUT"
fi

if [ ${#failed[@]} -gt 0 ]; then
  echo "FAILED: ${failed[*]}" >&2
  exit 1
fi
echo "all gates passed"
