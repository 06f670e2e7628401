#!/usr/bin/env bash
# Crash/resume smoke test: SIGKILL a checkpointing run mid-flight, resume it,
# and require the resumed run's report to be byte-identical to an
# uninterrupted reference run.
#
# Usage: scripts/crash_resume_smoke.sh [path/to/maxwe_sim]
set -u

TOOL=${1:-build/tools/maxwe_sim}
if [[ ! -x ${TOOL} ]]; then
  echo "error: ${TOOL} not found or not executable (build first)" >&2
  exit 2
fi

WORK=$(mktemp -d)
trap 'rm -rf "${WORK}"' EXIT

# A run big enough to survive until the SIGKILL lands, checkpointing often.
CONFIG=(--mode stochastic --lines 2048 --regions 128 --endurance-mean 2000
        --spare maxwe --seed 11)
CKPT=${WORK}/crash.ckpt

echo "[1/3] reference run (uninterrupted)..."
if ! "${TOOL}" "${CONFIG[@]}" > "${WORK}/ref.out"; then
  echo "FAIL: reference run exited non-zero" >&2
  exit 1
fi

echo "[2/3] checkpointing run, SIGKILL once the first checkpoint lands..."
"${TOOL}" "${CONFIG[@]}" --checkpoint-out "${CKPT}" \
  --checkpoint-interval 20000 > "${WORK}/killed.out" 2>&1 &
PID=$!
for _ in $(seq 1 200); do
  [[ -f ${CKPT} ]] && break
  kill -0 "${PID}" 2>/dev/null || break
  sleep 0.05
done
if kill -KILL "${PID}" 2>/dev/null; then
  echo "      killed pid ${PID}"
else
  echo "      note: run finished before the kill landed (still a valid resume)"
fi
wait "${PID}" 2>/dev/null
if [[ ! -f ${CKPT} ]]; then
  echo "FAIL: no checkpoint was written before the process died" >&2
  exit 1
fi

# The atomic writer guarantees the checkpoint under its final name is whole;
# a temp file from the torn write may remain and must not be consulted.
echo "[3/3] resume from the checkpoint..."
if ! "${TOOL}" "${CONFIG[@]}" --checkpoint-out "${CKPT}" --resume \
     --checkpoint-interval 20000 > "${WORK}/resumed.out"; then
  echo "FAIL: resumed run exited non-zero" >&2
  exit 1
fi

if ! diff -u "${WORK}/ref.out" "${WORK}/resumed.out"; then
  echo "FAIL: resumed output differs from the uninterrupted reference" >&2
  exit 1
fi
echo "PASS: resumed run is byte-identical to the uninterrupted run"

# ---- sweep-level checkpoints: kill a seed sweep, resume the missing runs --
# The sweep checkpoint is an append-only MXWEJRNL journal: its 20-byte
# header lands when the sweep starts and one CRC-framed record per finished
# run follows, so "a run was recorded" means "the file outgrew its header".
# Sixteen ~15 ms runs, polled every 10 ms, so the kill lands mid-sweep.
SWEEP=(--mode stochastic --lines 2048 --regions 128 --endurance-mean 2000
       --spare maxwe --seed 11 --seeds 16 --jobs 1)
SWEEP_CKPT=${WORK}/sweep.ckpt
JOURNAL_HEADER_BYTES=20

file_size() {
  wc -c < "$1" | tr -d ' '
}

echo "[sweep 1/3] reference sweep (uninterrupted)..."
if ! "${TOOL}" "${SWEEP[@]}" > "${WORK}/sweep_ref.out"; then
  echo "FAIL: reference sweep exited non-zero" >&2
  exit 1
fi

echo "[sweep 2/3] checkpointing sweep, SIGKILL after the first recorded run..."
"${TOOL}" "${SWEEP[@]}" --checkpoint-out "${SWEEP_CKPT}" \
  > "${WORK}/sweep_killed.out" 2>&1 &
PID=$!
for _ in $(seq 1 2000); do
  if [[ -f ${SWEEP_CKPT} ]] && \
     [[ $(file_size "${SWEEP_CKPT}") -gt ${JOURNAL_HEADER_BYTES} ]]; then
    break
  fi
  kill -0 "${PID}" 2>/dev/null || break
  sleep 0.01
done
if kill -KILL "${PID}" 2>/dev/null; then
  echo "      killed pid ${PID}"
else
  echo "      note: sweep finished before the kill landed (still a valid resume)"
fi
wait "${PID}" 2>/dev/null
if [[ ! -f ${SWEEP_CKPT} ]] || \
   [[ $(file_size "${SWEEP_CKPT}") -le ${JOURNAL_HEADER_BYTES} ]]; then
  echo "FAIL: no sweep run was recorded before the process died" >&2
  exit 1
fi
if ! head -c 8 "${SWEEP_CKPT}" | grep -q "MXWEJRNL"; then
  echo "FAIL: sweep checkpoint does not carry the MXWEJRNL journal magic" >&2
  exit 1
fi
# A SIGKILL mid-append leaves half a record; simulate the worst case by
# splicing garbage after the last good record. Resume must truncate it.
printf '\x40\x00\x00\x00TORN-TAIL-GARBAGE' >> "${SWEEP_CKPT}"

echo "[sweep 3/3] resume the sweep (recorded runs are skipped)..."
if ! "${TOOL}" "${SWEEP[@]}" --checkpoint-out "${SWEEP_CKPT}" --resume \
     > "${WORK}/sweep_resumed.out"; then
  echo "FAIL: resumed sweep exited non-zero" >&2
  exit 1
fi

if ! diff -u "${WORK}/sweep_ref.out" "${WORK}/sweep_resumed.out"; then
  echo "FAIL: resumed sweep differs from the uninterrupted reference" >&2
  exit 1
fi
echo "PASS: resumed sweep is byte-identical to the uninterrupted sweep"

# ---- flight recorder: the decision event log survives the SIGKILL and the
# resumed run's log is byte-identical to an uninterrupted reference. The
# reference checkpoints at the same cadence (checkpoint boundaries are
# recorded events), writing its checkpoints to a separate file.
EV_REF=${WORK}/events_ref.jsonl
EV_CRASH=${WORK}/events_crash.jsonl
EV_CKPT=${WORK}/events_crash.ckpt
EV_REF_CKPT=${WORK}/events_ref.ckpt

echo "[events 1/3] reference run with --events-out (uninterrupted)..."
if ! "${TOOL}" "${CONFIG[@]}" --events-out "${EV_REF}" \
     --checkpoint-out "${EV_REF_CKPT}" --checkpoint-interval 20000 \
     > "${WORK}/events_ref.out"; then
  echo "FAIL: reference events run exited non-zero" >&2
  exit 1
fi

echo "[events 2/3] recording run, SIGKILL once the first checkpoint lands..."
"${TOOL}" "${CONFIG[@]}" --events-out "${EV_CRASH}" \
  --checkpoint-out "${EV_CKPT}" --checkpoint-interval 20000 \
  > "${WORK}/events_killed.out" 2>&1 &
PID=$!
for _ in $(seq 1 200); do
  [[ -f ${EV_CKPT} ]] && break
  kill -0 "${PID}" 2>/dev/null || break
  sleep 0.05
done
if kill -KILL "${PID}" 2>/dev/null; then
  echo "      killed pid ${PID}"
else
  echo "      note: run finished before the kill landed (still a valid resume)"
fi
wait "${PID}" 2>/dev/null
if [[ ! -f ${EV_CKPT} ]]; then
  echo "FAIL: no checkpoint was written before the process died" >&2
  exit 1
fi

echo "[events 3/3] resume; the log rewinds to the checkpoint and replays..."
if ! "${TOOL}" "${CONFIG[@]}" --events-out "${EV_CRASH}" \
     --checkpoint-out "${EV_CKPT}" --checkpoint-interval 20000 --resume \
     > "${WORK}/events_resumed.out"; then
  echo "FAIL: resumed events run exited non-zero" >&2
  exit 1
fi

if ! cmp -s "${EV_REF}" "${EV_CRASH}"; then
  echo "FAIL: resumed event log differs from the uninterrupted reference" >&2
  diff <(tail -5 "${EV_REF}") <(tail -5 "${EV_CRASH}") >&2 || true
  exit 1
fi
echo "PASS: resumed event log is byte-identical to the uninterrupted run's"

# ---- cross-mode resume: a checkpoint written by the batched fast path is
# resumed with --no-fastpath and must land on the same report as the
# uninterrupted (fast-path) reference from step 1 — the fastpath flag is
# deliberately outside the checkpoint's config fingerprint.
FP_CKPT=${WORK}/fastpath.ckpt

echo "[fastpath 1/2] fast-path run, SIGKILL once the first checkpoint lands..."
"${TOOL}" "${CONFIG[@]}" --checkpoint-out "${FP_CKPT}" \
  --checkpoint-interval 20000 > "${WORK}/fp_killed.out" 2>&1 &
PID=$!
for _ in $(seq 1 200); do
  [[ -f ${FP_CKPT} ]] && break
  kill -0 "${PID}" 2>/dev/null || break
  sleep 0.05
done
if kill -KILL "${PID}" 2>/dev/null; then
  echo "      killed pid ${PID}"
else
  echo "      note: run finished before the kill landed (still a valid resume)"
fi
wait "${PID}" 2>/dev/null
if [[ ! -f ${FP_CKPT} ]]; then
  echo "FAIL: no checkpoint was written before the process died" >&2
  exit 1
fi

echo "[fastpath 2/2] resume with --no-fastpath (mode switch across resume)..."
if ! "${TOOL}" "${CONFIG[@]}" --checkpoint-out "${FP_CKPT}" --resume \
     --checkpoint-interval 20000 --no-fastpath > "${WORK}/fp_resumed.out"; then
  echo "FAIL: --no-fastpath resume exited non-zero" >&2
  exit 1
fi

if ! diff -u "${WORK}/ref.out" "${WORK}/fp_resumed.out"; then
  echo "FAIL: --no-fastpath resume differs from the fast-path reference" >&2
  exit 1
fi
echo "PASS: --no-fastpath resume is byte-identical to the fast-path reference"

# ---- stochastic sampling (counts path): zipf rides the multinomial counts
# path, whose RNG substream is checkpointed. A same-mode resume must be
# byte-identical to the uninterrupted run; a cross-mode resume (fastpath
# checkpoint finished with --no-fastpath) is only distribution-equivalent,
# so its gate is completion with a lifetime inside a 20% band. The reference
# checkpoints at the same cadence (to a separate file): checkpoint
# boundaries cap the sampling chunks, so the cadence is part of the
# trajectory being reproduced.
ZCONFIG=(--mode stochastic --lines 2048 --regions 128 --endurance-mean 2000
         --spare maxwe --attack zipf --seed 11)
Z_CKPT=${WORK}/zipf.ckpt
Z_REF_CKPT=${WORK}/zipf_ref.ckpt

echo "[zipf 1/3] reference zipf run (uninterrupted)..."
if ! "${TOOL}" "${ZCONFIG[@]}" --checkpoint-out "${Z_REF_CKPT}" \
     --checkpoint-interval 20000 > "${WORK}/zipf_ref.out"; then
  echo "FAIL: zipf reference run exited non-zero" >&2
  exit 1
fi

echo "[zipf 2/3] checkpointing zipf run, SIGKILL once a checkpoint lands..."
"${TOOL}" "${ZCONFIG[@]}" --checkpoint-out "${Z_CKPT}" \
  --checkpoint-interval 20000 > "${WORK}/zipf_killed.out" 2>&1 &
PID=$!
for _ in $(seq 1 200); do
  [[ -f ${Z_CKPT} ]] && break
  kill -0 "${PID}" 2>/dev/null || break
  sleep 0.05
done
if kill -KILL "${PID}" 2>/dev/null; then
  echo "      killed pid ${PID}"
else
  echo "      note: run finished before the kill landed (still a valid resume)"
fi
wait "${PID}" 2>/dev/null
if [[ ! -f ${Z_CKPT} ]]; then
  echo "FAIL: no checkpoint was written before the process died" >&2
  exit 1
fi

echo "[zipf 3/3] same-mode resume (must be byte-identical)..."
if ! "${TOOL}" "${ZCONFIG[@]}" --checkpoint-out "${Z_CKPT}" --resume \
     --checkpoint-interval 20000 > "${WORK}/zipf_resumed.out"; then
  echo "FAIL: resumed zipf run exited non-zero" >&2
  exit 1
fi
if ! diff -u "${WORK}/zipf_ref.out" "${WORK}/zipf_resumed.out"; then
  echo "FAIL: resumed zipf run differs from the uninterrupted reference" >&2
  exit 1
fi
echo "PASS: same-mode zipf resume is byte-identical to the reference"

echo "[zipf cross] finish the same checkpoint with --no-fastpath..."
if ! "${TOOL}" "${ZCONFIG[@]}" --checkpoint-out "${Z_CKPT}" --resume \
     --checkpoint-interval 20000 --no-fastpath \
     > "${WORK}/zipf_cross.out"; then
  echo "FAIL: cross-mode zipf resume exited non-zero" >&2
  exit 1
fi
UW_REF=$(awk '/user writes:/ { print $3; exit }' "${WORK}/zipf_ref.out")
UW_CROSS=$(awk '/user writes:/ { print $3; exit }' "${WORK}/zipf_cross.out")
if ! awk -v f="${UW_CROSS}" -v s="${UW_REF}" \
    'BEGIN { r = f / s; exit !(r >= 0.8 && r <= 1.2) }'; then
  echo "FAIL: cross-mode zipf lifetime ${UW_CROSS} vs reference ${UW_REF}" \
       "outside the 20% distribution-equivalence band" >&2
  exit 1
fi
echo "PASS: cross-mode zipf resume completed (${UW_CROSS} vs ${UW_REF} in band)"
