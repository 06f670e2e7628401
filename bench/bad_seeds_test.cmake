# A bench's (or example's) one error path: a malformed --seeds exits with
# status 1 and a one-line "error: flag --seeds: ..." (not an abort), and
# --seeds 0 is refused rather than averaged over no runs.
execute_process(
  COMMAND ${BENCH} --seeds -1
  RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT result STREQUAL "1")
  message(FATAL_ERROR "--seeds -1 exited '${result}', want 1: ${out}${err}")
endif()
if(NOT err MATCHES "^error: flag --seeds")
  message(FATAL_ERROR "--seeds -1 did not print 'error: flag --seeds': ${err}")
endif()

execute_process(
  COMMAND ${BENCH} --seeds 0
  RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(result STREQUAL "0")
  message(FATAL_ERROR "--seeds 0 was accepted: ${out}")
endif()
if(NOT err MATCHES "^error: ")
  message(FATAL_ERROR "--seeds 0 did not print one error line: ${err}")
endif()
