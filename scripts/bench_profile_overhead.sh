#!/usr/bin/env bash
# Self-profiler overhead + attribution gate.
#
# The profiler's contract is "always-on cheap": scoped phase accumulators
# and counters on the hottest loops must cost <= 2% wall time. This script
# measures that on the two hot paths the profiler instruments most densely:
#
#   1. A UAA spare-fraction sweep under TLSR (run-length batched fast
#      path: one engine.batch.* span per attack run, batch and per-write
#      counters).
#   2. A zipf stochastic run (multinomial counts path: one engine.counts.*
#      span per count vector, chunk counters and histograms).
#
# Each config runs REPS rounds of one plain and one --profile-out run,
# interleaved: odd rounds run plain first, even rounds profiled first, so a
# slow spell of the host lands on both sides rather than on whichever side
# ran during it. Each side's min-of-REPS is compared (min is the right
# statistic for a noise gate — the fastest run is the one with the least
# scheduler interference). GATING: profiled min <= plain min * 1.02 +
# 0.05s absolute slack for timer-resolution noise on sub-second runs.
#
# Also GATING: the profiler must account for where the time went — the
# "attributed:" line maxwe_profile prints (time in phases with no observed
# ancestor / wall time) must be >= 90% for a stochastic run and for a
# --jobs 1 fleet campaign. Timings land in BENCH_profile_overhead.json.
#
# Usage: scripts/bench_profile_overhead.sh [build-dir] [output-json]
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_JSON="${2:-BENCH_profile_overhead.json}"

SIM="$BUILD_DIR/tools/maxwe_sim"
FLEET="$BUILD_DIR/tools/fleet_sim"
PROFILE="$BUILD_DIR/tools/maxwe_profile"
for bin in "$SIM" "$FLEET" "$PROFILE"; do
  if [[ ! -x "$bin" ]]; then
    echo "build first: cmake -B $BUILD_DIR && cmake --build $BUILD_DIR" >&2
    exit 1
  fi
done

REPS=5
OVERHEAD_FRAC=1.02   # gate: profiled <= plain * this ...
ABS_SLACK=0.05       # ... plus this many seconds of absolute slack
MIN_ATTRIBUTED=90.0  # gate: attributed wall-time percent, both profiles

now_ns() { date +%s%N; }

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

# time_once command...: run it once, echo elapsed seconds.
time_once() {
  local t0 t1
  t0="$(now_ns)"
  "$@" > /dev/null
  t1="$(now_ns)"
  awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.3f", (b - a) / 1e9 }'
}

min_of() { awk -v a="$1" -v b="$2" 'BEGIN { printf "%.3f", (a < b) ? a : b }'; }

# run_interleaved <plain-cmd> <profiled-cmd>: REPS rounds of one run of
# each, alternating which goes first; echo "<plain-min> <profiled-min>".
run_interleaved() {
  local plain="" prof="" rep t
  for rep in $(seq "$REPS"); do
    if (( rep % 2 == 1 )); then
      t="$(time_once "$1")"; plain="$(min_of "${plain:-$t}" "$t")"
      t="$(time_once "$2")"; prof="$(min_of "${prof:-$t}" "$t")"
    else
      t="$(time_once "$2")"; prof="$(min_of "${prof:-$t}" "$t")"
      t="$(time_once "$1")"; plain="$(min_of "${plain:-$t}" "$t")"
    fi
  done
  echo "$plain $prof"
}

gate_overhead() {  # gate_overhead <name> <plain-s> <profiled-s>
  local name="$1" plain="$2" profiled="$3"
  if ! awk -v p="$plain" -v q="$profiled" -v f="$OVERHEAD_FRAC" \
      -v s="$ABS_SLACK" 'BEGIN { exit !(q <= p * f + s) }'; then
    echo "FAIL: $name profiled ${profiled}s vs plain ${plain}s" \
         "exceeds ${OVERHEAD_FRAC}x + ${ABS_SLACK}s" >&2
    exit 1
  fi
}

attributed_pct() {  # attributed_pct <profile-json>; echoes the percent
  "$PROFILE" --profile "$1" \
    | awk '/^attributed: / { sub("%", "", $2); print $2; exit }'
}

gate_attribution() {  # gate_attribution <name> <profile-json>
  local name="$1" pct
  pct="$(attributed_pct "$2")"
  if [[ -z "$pct" ]]; then
    echo "FAIL: $name profile has no attributed line" >&2
    exit 1
  fi
  if ! awk -v p="$pct" -v m="$MIN_ATTRIBUTED" 'BEGIN { exit !(p >= m) }'; then
    echo "FAIL: $name attribution ${pct}% < ${MIN_ATTRIBUTED}%" >&2
    exit 1
  fi
  echo "$pct"
}

# ---- 1. UAA spare-fraction sweep (batched fast path) -----------------------
UAA_FRACTIONS=(0.10 0.20 0.30)
UAA_ARGS=(--mode stochastic --lines 4096 --regions 256
          --endurance-mean 30000 --attack uaa --wl tlsr --spare maxwe
          --seed 11)

run_uaa_sweep() {  # run_uaa_sweep [extra args...]
  local frac
  for frac in "${UAA_FRACTIONS[@]}"; do
    "$SIM" "${UAA_ARGS[@]}" --spare-fraction "$frac" "$@"
  done
}

uaa_profiled() { run_uaa_sweep --profile-out "$workdir/uaa.profile.json"; }

echo "== UAA sweep, plain vs --profile-out ($REPS interleaved rounds)"
UAA_PAIR="$(run_interleaved run_uaa_sweep uaa_profiled)"
read -r T_UAA_PLAIN T_UAA_PROF <<< "$UAA_PAIR"
echo "   plain ${T_UAA_PLAIN}s, profiled ${T_UAA_PROF}s"
gate_overhead "uaa sweep" "$T_UAA_PLAIN" "$T_UAA_PROF"
UAA_OVERHEAD="$(awk -v p="$T_UAA_PLAIN" -v q="$T_UAA_PROF" \
  'BEGIN { printf "%.2f", (p > 0) ? 100 * (q - p) / p : 0 }')"
echo "== uaa overhead ${UAA_OVERHEAD}% (gate: <= 2% + ${ABS_SLACK}s slack)"

# ---- 2. zipf stochastic run (multinomial counts path) ----------------------
ZIPF_ARGS=(--mode stochastic --lines 65536 --regions 1024
           --endurance-mean 300000 --attack zipf --wl none --spare maxwe
           --seed 11)

zipf_plain() { "$SIM" "${ZIPF_ARGS[@]}"; }
zipf_profiled() {
  "$SIM" "${ZIPF_ARGS[@]}" --profile-out "$workdir/zipf.profile.json"
}

echo "== zipf counts run, plain vs --profile-out ($REPS interleaved rounds)"
ZIPF_PAIR="$(run_interleaved zipf_plain zipf_profiled)"
read -r T_ZIPF_PLAIN T_ZIPF_PROF <<< "$ZIPF_PAIR"
echo "   plain ${T_ZIPF_PLAIN}s, profiled ${T_ZIPF_PROF}s"
gate_overhead "zipf run" "$T_ZIPF_PLAIN" "$T_ZIPF_PROF"
ZIPF_OVERHEAD="$(awk -v p="$T_ZIPF_PLAIN" -v q="$T_ZIPF_PROF" \
  'BEGIN { printf "%.2f", (p > 0) ? 100 * (q - p) / p : 0 }')"
echo "== zipf overhead ${ZIPF_OVERHEAD}% (gate: <= 2% + ${ABS_SLACK}s slack)"

# ---- 3. attribution gates --------------------------------------------------
# The profiled zipf run above left its profile in the workdir; a fleet
# campaign at --jobs 1 (so shard spans cover the whole section) provides
# the fleet-side profile.
"$FLEET" --devices 64 --shard-size 16 --jobs 1 --lines 512 --regions 32 \
  --endurance-mean 500 --spare maxwe \
  --out "$workdir/fleet.json" \
  --profile-out "$workdir/fleet.profile.json" > /dev/null

ZIPF_ATTR="$(gate_attribution "zipf run" "$workdir/zipf.profile.json")"
echo "== zipf attribution ${ZIPF_ATTR}% (gate: >= ${MIN_ATTRIBUTED}%)"
FLEET_ATTR="$(gate_attribution "fleet campaign" "$workdir/fleet.profile.json")"
echo "== fleet attribution ${FLEET_ATTR}% (gate: >= ${MIN_ATTRIBUTED}%)"

cat > "$OUT_JSON" <<EOF
{
  "benchmark": "profiler_overhead",
  "reps": $REPS,
  "method": "interleaved plain/profiled rounds, alternating which runs first; min of reps per side",
  "gate": "profiled <= plain * $OVERHEAD_FRAC + ${ABS_SLACK}s; attributed >= ${MIN_ATTRIBUTED}%",
  "uaa_sweep": {
    "config": "stochastic 4096x256 uaa tlsr maxwe, spare fractions [${UAA_FRACTIONS[*]}]",
    "plain_seconds": $T_UAA_PLAIN,
    "profiled_seconds": $T_UAA_PROF,
    "overhead_percent": $UAA_OVERHEAD
  },
  "zipf_counts": {
    "config": "stochastic 65536x1024 zipf wl=none maxwe endurance 3e5",
    "plain_seconds": $T_ZIPF_PLAIN,
    "profiled_seconds": $T_ZIPF_PROF,
    "overhead_percent": $ZIPF_OVERHEAD
  },
  "attribution": {
    "stochastic_percent": $ZIPF_ATTR,
    "fleet_percent": $FLEET_ATTR,
    "fleet_config": "64 devices, shard 16, jobs 1, 512x32 maxwe"
  },
  "gates_passed": true
}
EOF

echo "== wrote $OUT_JSON"
