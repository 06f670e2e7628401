#!/usr/bin/env bash
# Reproducible perf baseline for the parallel experiment runner.
#
# Runs the Fig. 6 spare-fraction sweep serially (--jobs 1) and with all
# cores (--jobs N), checks the two tables are byte-identical (the runner's
# determinism guarantee — this check is GATING), and records wall-clock
# times + speedup in BENCH_parallel_sweep.json (speedup is informational,
# NOT gating: it depends on the machine's core count).
#
# Also measures the decision event log's overhead: the same run with and
# without --events-out, recorded in BENCH_obs_overhead.json (informational;
# the GATING part is that two recorded runs write byte-identical logs).
#
# Finally, measures the run-length batched fast path: a fig6-style UAA
# spare-fraction sweep with and without --no-fastpath, recorded in
# BENCH_fastpath.json. The speedup is informational but expected to be
# large (>= 3x on typical boxes); the GATING part is that both modes print
# byte-identical results.
#
# Usage: scripts/bench_sweep_timing.sh [build-dir] [output-json] [seeds]
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_JSON="${2:-BENCH_parallel_sweep.json}"
SEEDS="${3:-3}"
OBS_OUT_JSON="${OBS_OUT_JSON:-BENCH_obs_overhead.json}"
FASTPATH_OUT_JSON="${FASTPATH_OUT_JSON:-BENCH_fastpath.json}"

BENCH="$BUILD_DIR/bench/bench_fig6_spare_sweep"
if [[ ! -x "$BENCH" ]]; then
  echo "build first: cmake -B $BUILD_DIR && cmake --build $BUILD_DIR" >&2
  exit 1
fi

CORES="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 1)"
# Even on a single-core machine, run the sweep on at least 2 threads so
# concurrent runs (helper threads, the shared endurance-map cache) are
# what gets compared against the one-thread reference.
PARALLEL_JOBS="$CORES"
if [[ "$PARALLEL_JOBS" -lt 2 ]]; then PARALLEL_JOBS=2; fi

now_ns() { date +%s%N; }

run_timed() {  # run_timed <jobs> <output-file>; echoes elapsed seconds
  local jobs="$1" out="$2" t0 t1
  t0="$(now_ns)"
  "$BENCH" --seeds "$SEEDS" --jobs "$jobs" --csv > "$out"
  t1="$(now_ns)"
  awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.3f", (b - a) / 1e9 }'
}

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

echo "== Fig. 6 sweep, --seeds $SEEDS, --jobs 1 (serial reference)"
T_SERIAL="$(run_timed 1 "$workdir/serial.csv")"
echo "   ${T_SERIAL}s"

echo "== Fig. 6 sweep, --seeds $SEEDS, --jobs $PARALLEL_JOBS"
T_PARALLEL="$(run_timed "$PARALLEL_JOBS" "$workdir/parallel.csv")"
echo "   ${T_PARALLEL}s"

# GATING: parallel output must be byte-identical to serial output.
if ! cmp -s "$workdir/serial.csv" "$workdir/parallel.csv"; then
  echo "FAIL: --jobs $PARALLEL_JOBS output differs from --jobs 1" >&2
  diff "$workdir/serial.csv" "$workdir/parallel.csv" >&2 || true
  exit 1
fi
echo "== outputs byte-identical at jobs=1 and jobs=$PARALLEL_JOBS"

SPEEDUP="$(awk -v s="$T_SERIAL" -v p="$T_PARALLEL" \
  'BEGIN { printf "%.2f", (p > 0) ? s / p : 0 }')"

cat > "$OUT_JSON" <<EOF
{
  "benchmark": "bench_fig6_spare_sweep",
  "seeds": $SEEDS,
  "cores": $CORES,
  "serial_jobs": 1,
  "parallel_jobs": $PARALLEL_JOBS,
  "serial_seconds": $T_SERIAL,
  "parallel_seconds": $T_PARALLEL,
  "speedup": $SPEEDUP,
  "outputs_identical": true
}
EOF

echo "== wrote $OUT_JSON (speedup ${SPEEDUP}x with $PARALLEL_JOBS jobs on $CORES cores)"

# ---- decision event log overhead ------------------------------------------
# The same stochastic run three ways: plain (no sinks), and twice with
# --events-out. The no-op path must stay effectively free (informational on
# a shared box), and the two recorded logs must be byte-identical (GATING).
SIM="$BUILD_DIR/tools/maxwe_sim"
if [[ ! -x "$SIM" ]]; then
  echo "skipping obs-overhead bench: $SIM not built" >&2
  exit 0
fi

SIM_ARGS=(--mode stochastic --lines 2048 --regions 128 --endurance-mean 2000
          --spare maxwe --seed 11)

run_sim_timed() {  # run_sim_timed [extra args...]; echoes elapsed seconds
  local t0 t1
  t0="$(now_ns)"
  "$SIM" "${SIM_ARGS[@]}" "$@" > /dev/null
  t1="$(now_ns)"
  awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.3f", (b - a) / 1e9 }'
}

echo "== obs overhead: plain run (no sinks)"
T_PLAIN="$(run_sim_timed)"
echo "   ${T_PLAIN}s"

echo "== obs overhead: run with --events-out (twice, for the identity gate)"
T_EVENTS="$(run_sim_timed --events-out "$workdir/obs_a.events.jsonl")"
echo "   ${T_EVENTS}s"
run_sim_timed --events-out "$workdir/obs_b.events.jsonl" > /dev/null

# GATING: recording the same run twice must write byte-identical logs.
if ! cmp -s "$workdir/obs_a.events.jsonl" "$workdir/obs_b.events.jsonl"; then
  echo "FAIL: two identical runs wrote different event logs" >&2
  exit 1
fi
echo "== event logs byte-identical across repeated runs"

EVENTS_LINES="$(wc -l < "$workdir/obs_a.events.jsonl" | tr -d ' ')"
OVERHEAD="$(awk -v p="$T_PLAIN" -v e="$T_EVENTS" \
  'BEGIN { printf "%.2f", (p > 0) ? 100 * (e - p) / p : 0 }')"

cat > "$OBS_OUT_JSON" <<EOF
{
  "benchmark": "maxwe_sim_events_overhead",
  "config": "stochastic 2048x128 maxwe seed 11",
  "plain_seconds": $T_PLAIN,
  "events_seconds": $T_EVENTS,
  "overhead_percent": $OVERHEAD,
  "event_lines": $EVENTS_LINES,
  "logs_identical": true
}
EOF

echo "== wrote $OBS_OUT_JSON (event-log overhead ${OVERHEAD}% over ${T_PLAIN}s baseline)"

# ---- batched fast path speedup --------------------------------------------
# A fig6-style UAA spare-fraction sweep, once through the run-length batched
# fast path (the default) and once with --no-fastpath. Both modes must print
# byte-identical results (GATING — the fast path is an optimization, never a
# model change); the speedup is recorded for the record.
FP_FRACTIONS=(0.10 0.20 0.30)
FP_ATTACKS=(uaa bpa)
FP_ARGS=(--mode stochastic --lines 4096 --regions 256
         --endurance-mean 30000 --spare maxwe --seed 11)

run_fp_sweep() {  # run_fp_sweep <output-file> [extra args...]; echoes seconds
  local out="$1" t0 t1 frac atk
  shift
  t0="$(now_ns)"
  : > "$out"
  for atk in "${FP_ATTACKS[@]}"; do
    for frac in "${FP_FRACTIONS[@]}"; do
      "$SIM" "${FP_ARGS[@]}" --attack "$atk" --spare-fraction "$frac" \
        "$@" >> "$out"
    done
  done
  t1="$(now_ns)"
  awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.3f", (b - a) / 1e9 }'
}

echo "== fastpath sweep: batched (default)"
T_FAST="$(run_fp_sweep "$workdir/fp_fast.txt")"
echo "   ${T_FAST}s"

echo "== fastpath sweep: --no-fastpath (per-write reference)"
T_PERWRITE="$(run_fp_sweep "$workdir/fp_slow.txt" --no-fastpath)"
echo "   ${T_PERWRITE}s"

# GATING: the fast path must not change a single output byte.
if ! cmp -s "$workdir/fp_fast.txt" "$workdir/fp_slow.txt"; then
  echo "FAIL: fast-path output differs from --no-fastpath" >&2
  diff "$workdir/fp_fast.txt" "$workdir/fp_slow.txt" >&2 || true
  exit 1
fi
echo "== fastpath and per-write outputs byte-identical"

FP_SPEEDUP="$(awk -v f="$T_FAST" -v p="$T_PERWRITE" \
  'BEGIN { printf "%.2f", (f > 0) ? p / f : 0 }')"

# ---- stochastic (count-vector) fast path ----------------------------------
# The multinomial counts path covers the stochastic attacks, where the
# batched run is distribution-equivalent rather than bit-identical. The GATE
# is therefore a lifetime band per attack: hotspot's write multiset is exact
# (15% band covers terminal-chunk attribution), random/zipf draw from a
# dedicated RNG substream (20% band covers sampling noise). Timings and the
# per-attack speedups land in a "stochastic" section of the same JSON.
ST_ARGS=(--mode stochastic --lines 4096 --regions 256
         --endurance-mean 300000 --wl none --spare maxwe --seed 11
         --hotspot-set 64)
ST_ATTACKS=(zipf hotspot random)
declare -A ST_BAND=([hotspot]=0.15 [zipf]=0.20 [random]=0.20)

user_writes_of() {  # user_writes_of <output-file>
  awk '/user writes:/ { print $3; exit }' "$1"
}

run_st_timed() {  # run_st_timed <attack> <output-file> [extra]; echoes seconds
  local atk="$1" out="$2" t0 t1
  shift 2
  t0="$(now_ns)"
  "$SIM" "${ST_ARGS[@]}" --attack "$atk" "$@" > "$out"
  t1="$(now_ns)"
  awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.3f", (b - a) / 1e9 }'
}

ST_JSON_ROWS=""
ST_T_FAST_TOTAL=0
ST_T_SLOW_TOTAL=0
for atk in "${ST_ATTACKS[@]}"; do
  echo "== stochastic fastpath: $atk (counts path)"
  T_SF="$(run_st_timed "$atk" "$workdir/st_${atk}_fast.txt")"
  echo "   ${T_SF}s"
  echo "== stochastic fastpath: $atk --no-fastpath (per-write reference)"
  T_SS="$(run_st_timed "$atk" "$workdir/st_${atk}_slow.txt" --no-fastpath)"
  echo "   ${T_SS}s"

  UW_FAST="$(user_writes_of "$workdir/st_${atk}_fast.txt")"
  UW_SLOW="$(user_writes_of "$workdir/st_${atk}_slow.txt")"
  BAND="${ST_BAND[$atk]}"
  # GATING: the batched lifetime must sit within the attack's band of the
  # per-write lifetime — the distribution-equivalence contract in numbers.
  if ! awk -v f="$UW_FAST" -v s="$UW_SLOW" -v tol="$BAND" \
      'BEGIN { r = f / s; exit !(r >= 1 - tol && r <= 1 + tol) }'; then
    echo "FAIL: $atk batched lifetime $UW_FAST vs per-write $UW_SLOW" \
         "outside ${BAND} band" >&2
    exit 1
  fi
  ST_SPEEDUP="$(awk -v f="$T_SF" -v p="$T_SS" \
    'BEGIN { printf "%.2f", (f > 0) ? p / f : 0 }')"
  echo "== $atk: lifetimes $UW_FAST vs $UW_SLOW (in band), ${ST_SPEEDUP}x"
  ST_T_FAST_TOTAL="$(awk -v a="$ST_T_FAST_TOTAL" -v b="$T_SF" \
    'BEGIN { printf "%.3f", a + b }')"
  ST_T_SLOW_TOTAL="$(awk -v a="$ST_T_SLOW_TOTAL" -v b="$T_SS" \
    'BEGIN { printf "%.3f", a + b }')"
  ST_JSON_ROWS="$ST_JSON_ROWS
    {\"attack\": \"$atk\", \"fastpath_seconds\": $T_SF, \"perwrite_seconds\": $T_SS, \"speedup\": $ST_SPEEDUP, \"user_writes_fast\": $UW_FAST, \"user_writes_perwrite\": $UW_SLOW, \"band\": $BAND},"
done
ST_JSON_ROWS="${ST_JSON_ROWS%,}"

ST_SPEEDUP_TOTAL="$(awk -v f="$ST_T_FAST_TOTAL" -v p="$ST_T_SLOW_TOTAL" \
  'BEGIN { printf "%.2f", (f > 0) ? p / f : 0 }')"

cat > "$FASTPATH_OUT_JSON" <<EOF
{
  "benchmark": "maxwe_sim_fastpath_sweep",
  "config": "stochastic 4096x256 maxwe seed 11, attacks [${FP_ATTACKS[*]}], spare fractions [${FP_FRACTIONS[*]}]",
  "fastpath_seconds": $T_FAST,
  "perwrite_seconds": $T_PERWRITE,
  "speedup": $FP_SPEEDUP,
  "outputs_identical": true,
  "stochastic": {
    "config": "stochastic 4096x256 endurance 3e5 wl=none maxwe seed 11 hotspot-set 64",
    "contract": "hotspot multiset-exact (band 0.15), zipf/random distribution-equivalent (band 0.20)",
    "attacks": [$ST_JSON_ROWS
    ],
    "fastpath_seconds": $ST_T_FAST_TOTAL,
    "perwrite_seconds": $ST_T_SLOW_TOTAL,
    "speedup": $ST_SPEEDUP_TOTAL,
    "lifetimes_in_band": true
  }
}
EOF

echo "== wrote $FASTPATH_OUT_JSON (fast path ${FP_SPEEDUP}x bit-identical," \
     "${ST_SPEEDUP_TOTAL}x stochastic)"
