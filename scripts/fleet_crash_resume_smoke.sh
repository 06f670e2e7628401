#!/usr/bin/env bash
# Fleet crash/resume smoke test: SIGKILL a checkpointing fleet campaign
# mid-flight, corrupt the journal tail the way a mid-append kill would,
# resume it (at a different --jobs level), and require the resumed
# fleet-result JSON to be byte-identical to an uninterrupted reference
# campaign. Also validates every heartbeat line against the documented
# JSONL schema (v3) and the foreign-population refusal path.
#
# The checkpoint store is an append-only MXWEJRNL journal (one CRC-framed
# record per completed shard), so the kill can land mid-append; replay
# truncates the torn tail and the resumed campaign re-runs only the shards
# whose records never hit the disk intact.
#
# Usage: scripts/fleet_crash_resume_smoke.sh [path/to/fleet_sim] [devices] [jobs]
set -u

TOOL=${1:-build/tools/fleet_sim}
DEVICES=${2:-2000}
JOBS=${3:-2}
if [[ ! -x ${TOOL} ]]; then
  echo "error: ${TOOL} not found or not executable (build first)" >&2
  exit 2
fi

WORK=$(mktemp -d)
trap 'rm -rf "${WORK}"' EXIT

file_size() {
  wc -c < "$1" | tr -d ' '
}

# Small shards of 4096-line devices: 2000 devices run for ~0.4 s, long
# enough to outlive the poll that kills them, while shards complete (and
# journal a record) every few milliseconds.
CONFIG=(--devices "${DEVICES}" --shard-size 64 --lines 4096 --regions 256
        --endurance-mean 200 --spare maxwe)
CKPT=${WORK}/fleet.ckpt
JOURNAL_HEADER_BYTES=20

echo "[1/4] reference campaign (uninterrupted, --jobs 1, journaling)..."
if ! "${TOOL}" "${CONFIG[@]}" --jobs 1 --checkpoint-out "${WORK}/ref.ckpt" \
     --out "${WORK}/ref.json"; then
  echo "FAIL: reference campaign exited non-zero" >&2
  exit 1
fi

echo "[2/4] journaling campaign, SIGKILL once the first shard record lands..."
"${TOOL}" "${CONFIG[@]}" --jobs "${JOBS}" --checkpoint-out "${CKPT}" \
  --out "${WORK}/killed.json" > "${WORK}/killed.log" 2>&1 &
PID=$!
for _ in $(seq 1 3000); do
  if [[ -f ${CKPT} ]] && \
     [[ $(file_size "${CKPT}") -gt ${JOURNAL_HEADER_BYTES} ]]; then
    break
  fi
  kill -0 "${PID}" 2>/dev/null || break
  sleep 0.01
done
kill -KILL "${PID}" 2>/dev/null
wait "${PID}" 2>/dev/null
STATUS=$?
if [[ ${STATUS} -ne 137 ]]; then
  echo "FAIL: campaign exited with status ${STATUS} before the kill landed" >&2
  exit 1
fi
if [[ ! -f ${CKPT} ]] || \
   [[ $(file_size "${CKPT}") -le ${JOURNAL_HEADER_BYTES} ]]; then
  echo "FAIL: no shard record was journaled before the kill" >&2
  exit 1
fi
echo "      killed pid ${PID}"
if ! head -c 8 "${CKPT}" | grep -q "MXWEJRNL"; then
  echo "FAIL: checkpoint file does not carry the MXWEJRNL journal magic" >&2
  exit 1
fi

echo "[3/4] tear the journal tail, then resume (--jobs ${JOBS}, heartbeat attached)..."
# A SIGKILL mid-append leaves half a record; simulate the worst case by
# splicing garbage after the last good record. replay() must truncate it
# and the resume must still reproduce the reference byte-for-byte.
GOOD_BYTES=$(file_size "${CKPT}")
printf '\x40\x00\x00\x00TORN-TAIL-GARBAGE' >> "${CKPT}"
if ! "${TOOL}" "${CONFIG[@]}" --jobs "${JOBS}" --checkpoint-out "${CKPT}" \
     --resume --heartbeat-out "${WORK}/heartbeat.jsonl" \
     --heartbeat-interval 256 --out "${WORK}/resumed.json"; then
  echo "FAIL: resumed campaign exited non-zero" >&2
  exit 1
fi

if ! cmp -s "${WORK}/ref.json" "${WORK}/resumed.json"; then
  echo "FAIL: resumed fleet result differs from the uninterrupted reference" >&2
  diff <(head -c 400 "${WORK}/ref.json") <(head -c 400 "${WORK}/resumed.json") >&2 || true
  exit 1
fi
echo "PASS: resumed fleet result is byte-identical to the uninterrupted run"
if [[ $(file_size "${CKPT}") -lt ${GOOD_BYTES} ]]; then
  echo "FAIL: journal shrank below the pre-corruption size (good records lost)" >&2
  exit 1
fi

# ---- journal growth sanity -------------------------------------------------
# Append-only store: an uninterrupted campaign journals each shard exactly
# once (the reference journal is that floor), and the crash + resume
# re-appends only the shards whose records were lost to the kill — so the
# combined file must stay under 2x the one-record-per-shard size.
JOURNAL_BYTES=$(file_size "${CKPT}")
FULL_ONCE=$(file_size "${WORK}/ref.ckpt")
SHARDS=$(( (DEVICES + 63) / 64 ))
if [[ ${JOURNAL_BYTES} -gt $(( 2 * FULL_ONCE )) ]]; then
  echo "FAIL: crash+resume journal (${JOURNAL_BYTES} bytes) exceeds 2x the uninterrupted journal (${FULL_ONCE} bytes)" >&2
  exit 1
fi
echo "PASS: journal stayed append-only sized (${JOURNAL_BYTES} vs ${FULL_ONCE} bytes uninterrupted, ${SHARDS} shards)"

# ---- heartbeat schema (v3) -------------------------------------------------
if [[ ! -s ${WORK}/heartbeat.jsonl ]]; then
  echo "FAIL: resumed campaign wrote no heartbeat lines" >&2
  exit 1
fi
# devices_per_sec / eta_sec / shard_* / worker_busy_frac are omitted until
# there is data behind them, so only the always-present fields are required
# on every line. checkpoint_bytes_written is always present here because
# the campaign journals.
while IFS= read -r line; do
  for key in '"v":3' '"type":"fleet_heartbeat"' '"devices_done":' \
             '"devices_total":' '"p50":' '"p99":' '"failure_causes":' \
             '"truncated_logs":' '"checkpoint_bytes_written":'; do
    if [[ ${line} != *"${key}"* ]]; then
      echo "FAIL: heartbeat line missing ${key}: ${line}" >&2
      exit 1
    fi
  done
done < "${WORK}/heartbeat.jsonl"
if ! tail -1 "${WORK}/heartbeat.jsonl" \
     | grep -q "\"devices_done\":${DEVICES}"; then
  echo "FAIL: final heartbeat does not cover the whole fleet" >&2
  exit 1
fi
echo "PASS: heartbeat lines conform to the documented v3 schema"

# ---- foreign checkpoint guard ----------------------------------------------
echo "[4/4] foreign-population journal must be refused..."
if "${TOOL}" "${CONFIG[@]}" --seed-start 999 --checkpoint-out "${CKPT}" \
     --resume --out /dev/null 2> "${WORK}/foreign.err"; then
  echo "FAIL: resume accepted a journal from a different population" >&2
  exit 1
fi
echo "PASS: foreign-population journal was refused"
