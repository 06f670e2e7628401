# Observability acceptance check: one full-size UAA/Max-WE run must yield
# (a) a metrics file with write/remap/wear-out counters and LMT/RMT gauges,
# (b) a Chrome-trace JSON array, and (c) at least two wear snapshots.
execute_process(
  COMMAND ${TOOL} --attack uaa --spare maxwe
          --metrics-out ${WORK_DIR}/obs_metrics.json
          --trace-out ${WORK_DIR}/obs_trace.json
          --snapshot-out ${WORK_DIR}/obs_wear.snapshots.jsonl
          --snapshot-interval 100000
  RESULT_VARIABLE run_result OUTPUT_VARIABLE run_out)
if(NOT run_result EQUAL 0)
  message(FATAL_ERROR "instrumented run failed: ${run_result}")
endif()

# --- metrics ---------------------------------------------------------------
file(READ ${WORK_DIR}/obs_metrics.json metrics)
if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
  foreach(key "engine.user_writes" "engine.line_deaths" "device.wear_outs"
          "spare.replacements" "maxwe.rmt_redirects" "maxwe.asr_allocs")
    string(JSON v ERROR_VARIABLE err GET "${metrics}" counters "${key}")
    if(NOT err STREQUAL "NOTFOUND")
      message(FATAL_ERROR "metrics missing counter ${key}: ${err}")
    endif()
  endforeach()
  foreach(key "spare.lmt_entries" "spare.rmt_entries" "maxwe.lmt_entries"
          "maxwe.rmt_entries" "result.normalized_lifetime")
    string(JSON v ERROR_VARIABLE err GET "${metrics}" gauges "${key}")
    if(NOT err STREQUAL "NOTFOUND")
      message(FATAL_ERROR "metrics missing gauge ${key}: ${err}")
    endif()
  endforeach()
else()
  foreach(key "engine.user_writes" "device.wear_outs" "spare.lmt_entries")
    if(NOT metrics MATCHES "\"${key}\"")
      message(FATAL_ERROR "metrics missing ${key}")
    endif()
  endforeach()
endif()

# --- trace -----------------------------------------------------------------
# Per-event fields are pinned by TraceWriterTest, and a full parse of a
# finalized trace file by ObsSessionTraceTest; here assert that the file
# opens a JSON array with an event, and ends with a whole event and the
# closing bracket (a trace cut short or never closed fails).
file(READ ${WORK_DIR}/obs_trace.json trace LIMIT 4096)
if(NOT trace MATCHES "^\\[")
  message(FATAL_ERROR "trace does not start a JSON array")
endif()
if(NOT trace MATCHES "\"ph\": \"")
  message(FATAL_ERROR "trace has no events")
endif()
file(SIZE ${WORK_DIR}/obs_trace.json trace_size)
math(EXPR tail_offset "${trace_size} - 4096")
if(tail_offset LESS 0)
  set(tail_offset 0)
endif()
file(READ ${WORK_DIR}/obs_trace.json tail OFFSET ${tail_offset})
if(NOT tail MATCHES "\n(\\{[^\n]*\\})[ \t\r\n]*\\][ \t\r\n]*$")
  message(FATAL_ERROR "trace does not end in an event and ']'")
endif()
if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
  string(JSON last_ph ERROR_VARIABLE err GET "${CMAKE_MATCH_1}" ph)
  if(NOT err STREQUAL "NOTFOUND")
    message(FATAL_ERROR "last trace event is not whole JSON: ${err}")
  endif()
endif()

# --- snapshots -------------------------------------------------------------
file(STRINGS ${WORK_DIR}/obs_wear.snapshots.jsonl snapshot_lines)
list(LENGTH snapshot_lines n_snapshots)
if(n_snapshots LESS 2)
  message(FATAL_ERROR "expected >= 2 wear snapshots, got ${n_snapshots}")
endif()
if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
  foreach(line IN LISTS snapshot_lines)
    string(JSON v ERROR_VARIABLE err GET "${line}" spare lmt_entries)
    if(NOT err STREQUAL "NOTFOUND")
      message(FATAL_ERROR "snapshot line is not the expected JSON: ${err}")
    endif()
  endforeach()
endif()

# --- CSV metrics -------------------------------------------------------------
execute_process(
  COMMAND ${TOOL} --mode stochastic --lines 2048 --regions 128
          --endurance-mean 2000 --attack bpa --wl tlsr --spare ps
          --metrics-out ${WORK_DIR}/obs_metrics.csv --metrics-format csv
  RESULT_VARIABLE csv_result OUTPUT_QUIET)
file(STRINGS ${WORK_DIR}/obs_metrics.csv csv_header LIMIT_COUNT 1)
if(NOT csv_result EQUAL 0 OR NOT csv_header MATCHES "^kind,name,value")
  message(FATAL_ERROR "CSV metrics run failed (${csv_result}): ${csv_header}")
endif()
