#!/usr/bin/env bash
# Performance benchmark runner: build an optimized tree, run the simulator
# throughput benches, and emit the committed machine-readable record
# BENCH_fastforward.json (engine cycles/sec and the fast-forward on/off
# speedup).
#
# Usage:
#   scripts/run_benches.sh                 # writes BENCH_fastforward.json,
#                                          #   BENCH_linkretry.json,
#                                          #   BENCH_profile.json and
#                                          #   BENCH_checkpoint.json
#   OUT=/tmp/b.json scripts/run_benches.sh # write elsewhere
#
# BENCH_backend.json records the vault timing-backend costs: the
# hmc_dram virtual-dispatch premium (gated < 2% of end-to-end run time;
# see docs/BACKENDS.md) and per-backend throughput.
#
# Acceptance gates: fast-forward must be >= 5x on the sparse (~1%
# occupancy) GUPS workload with every run pair bit-identical
# (bench_fast_forward exits nonzero otherwise), the link-layer retry
# protocol must cost ~0 when switched off (bench_link_retry gates its two
# protocol-off runs within 10% of each other; see docs/LINK_LAYER.md), the
# observability layer (docs/OBSERVABILITY.md) must cost < 2% when all
# off and < 10% fully on (bench_profile_overhead gates both itself),
# periodic auto-checkpointing (docs/FORMATS.md §5) must cost < 5% at the
# default 10k-cycle cadence (bench_checkpoint gates itself), and the chaos
# invariant checker (docs/CHAOS.md) must cost < 2% when off and < 5% at
# the default 1024-cycle cadence (bench_chaos gates itself, recorded in
# BENCH_chaos.json).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${BUILD:-build-release}
OUT=${OUT:-BENCH_fastforward.json}
OUT_LINK=${OUT_LINK:-BENCH_linkretry.json}
OUT_PROFILE=${OUT_PROFILE:-BENCH_profile.json}
OUT_CKPT=${OUT_CKPT:-BENCH_checkpoint.json}
OUT_BACKEND=${OUT_BACKEND:-BENCH_backend.json}
OUT_CHAOS=${OUT_CHAOS:-BENCH_chaos.json}
GEN=()
command -v ninja >/dev/null && GEN=(-G Ninja)

echo "== configure & build ($BUILD, Release) =="
cmake -B "$BUILD" "${GEN[@]}" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD" --target \
  bench_sim_speed bench_fast_forward bench_link_retry \
  bench_profile_overhead bench_checkpoint bench_backend bench_chaos

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== bench_fast_forward =="
"$BUILD"/bench/bench_fast_forward --json "$tmp/fast_forward.json"

echo "== bench_link_retry =="
"$BUILD"/bench/bench_link_retry --json "$OUT_LINK"

echo "== bench_profile_overhead =="
"$BUILD"/bench/bench_profile_overhead --json "$OUT_PROFILE"

echo "== bench_checkpoint =="
"$BUILD"/bench/bench_checkpoint --json "$OUT_CKPT"

echo "== bench_backend =="
"$BUILD"/bench/bench_backend --json "$OUT_BACKEND"

echo "== bench_chaos =="
"$BUILD"/bench/bench_chaos --json "$OUT_CHAOS"

echo "== bench_sim_speed =="
"$BUILD"/bench/bench_sim_speed \
  --benchmark_out="$tmp/sim_speed.json" --benchmark_out_format=json \
  --benchmark_format=console

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
  exit 1
fi
echo "wrote $OUT"

off_gap=$(jq -r '.protocol_off_overhead_pct' "$OUT_LINK")
echo "link-retry protocol-off overhead: ${off_gap}% (gate: < 10%)"
if ! jq -e '.protocol_off_overhead_pct < 10' "$OUT_LINK" >/dev/null; then
  echo "FAIL: protocol-off overhead above the ~0 acceptance gate" >&2
  exit 1
fi
echo "wrote $OUT_LINK"

prof_off=$(jq -r '.observability_off_overhead_pct' "$OUT_PROFILE")
prof_on=$(jq -r '.observability_on_overhead_pct' "$OUT_PROFILE")
echo "observability all-off overhead: ${prof_off}% (gate: < 2%)"
echo "observability all-on overhead: ${prof_on}% (gate: < 10%)"
if ! jq -e '.observability_off_overhead_pct < 2 and
            .observability_on_overhead_pct < 10' "$OUT_PROFILE" >/dev/null; then
  echo "FAIL: observability overhead above the acceptance gates" >&2
  exit 1
fi
echo "wrote $OUT_PROFILE"

ckpt_on=$(jq -r '.checkpoint_on_overhead_pct' "$OUT_CKPT")
save_ms=$(jq -r '.save_ms' "$OUT_CKPT")
restore_ms=$(jq -r '.restore_ms' "$OUT_CKPT")
echo "auto-checkpoint overhead at 10k-cycle cadence: ${ckpt_on}% (gate: < 5%)"
echo "checkpoint save: ${save_ms} ms, restore: ${restore_ms} ms"
if ! jq -e '.checkpoint_off_overhead_pct < 2 and
            .checkpoint_on_overhead_pct < 5' "$OUT_CKPT" >/dev/null; then
  echo "FAIL: auto-checkpoint overhead above the acceptance gates" >&2
  exit 1
fi
echo "wrote $OUT_CKPT"

dispatch=$(jq -r '.hmc_dram_dispatch_overhead_pct' "$OUT_BACKEND")
echo "hmc_dram backend dispatch overhead: ${dispatch}% (gate: < 2%)"
if ! jq -e '.hmc_dram_dispatch_overhead_pct < 2' "$OUT_BACKEND" >/dev/null; then
  echo "FAIL: backend dispatch overhead above the 2% acceptance gate" >&2
  exit 1
fi
echo "wrote $OUT_BACKEND"

chaos_off=$(jq -r '.chaos_off_overhead_pct' "$OUT_CHAOS")
chaos_on=$(jq -r '.chaos_checker_overhead_pct' "$OUT_CHAOS")
echo "chaos subsystem off-path overhead: ${chaos_off}% (gate: < 2%)"
echo "chaos checker overhead at 1024-cycle cadence: ${chaos_on}% (gate: < 5%)"
if ! jq -e '.chaos_off_overhead_pct < 2 and
            .chaos_checker_overhead_pct < 5' "$OUT_CHAOS" >/dev/null; then
  echo "FAIL: chaos checker overhead above the acceptance gates" >&2
  exit 1
fi
echo "wrote $OUT_CHAOS"
