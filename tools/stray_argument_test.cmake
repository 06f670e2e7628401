# A stray argument is refused by name, never dropped: "--seeds 2 3" must
# not run two seeds and ignore the "3".
#
# Inputs: -DTOOL=<maxwe_sim path>
execute_process(
  COMMAND ${TOOL} --lines 256 --regions 16 --endurance-mean 200
          --spare maxwe --seeds 2 3
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "stray argument '3' was accepted: ${out}")
endif()
if(NOT err MATCHES "unexpected argument '3'")
  message(FATAL_ERROR "refusal does not name the stray argument: ${err}")
endif()
