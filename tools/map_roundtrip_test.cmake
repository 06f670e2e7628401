# Save an endurance map, then run an experiment from the saved file.
execute_process(
  COMMAND ${TOOL} --save-map ${WORK_DIR}/roundtrip_map.csv
          --lines 1024 --regions 64 --endurance-mean 1000
  RESULT_VARIABLE save_result)
if(NOT save_result EQUAL 0)
  message(FATAL_ERROR "save-map failed: ${save_result}")
endif()
execute_process(
  COMMAND ${TOOL} --load-map ${WORK_DIR}/roundtrip_map.csv --spare maxwe
  RESULT_VARIABLE load_result OUTPUT_VARIABLE out)
if(NOT load_result EQUAL 0)
  message(FATAL_ERROR "load-map run failed: ${load_result}")
endif()
if(NOT out MATCHES "normalized lifetime")
  message(FATAL_ERROR "unexpected output: ${out}")
endif()

# The loaded map runs the scheme asked for: FREE-p over the saved map gives
# the lifetime of a generated-map FREE-p run with the same seed and
# geometry (the map was saved from that seed's draw).
execute_process(
  COMMAND ${TOOL} --load-map ${WORK_DIR}/roundtrip_map.csv --spare freep
  RESULT_VARIABLE load_result OUTPUT_VARIABLE loaded_out)
execute_process(
  COMMAND ${TOOL} --lines 1024 --regions 64 --endurance-mean 1000
          --spare freep
  RESULT_VARIABLE generated_result OUTPUT_VARIABLE generated_out)
if(NOT load_result EQUAL 0 OR NOT generated_result EQUAL 0)
  message(FATAL_ERROR "freep runs failed: ${load_result} ${generated_result}")
endif()
string(REGEX MATCH "normalized lifetime: *([0-9.e+-]+)%" _ "${loaded_out}")
set(loaded_lifetime "${CMAKE_MATCH_1}")
string(REGEX MATCH "normalized lifetime: *([0-9.e+-]+)%" _ "${generated_out}")
set(generated_lifetime "${CMAKE_MATCH_1}")
if(loaded_lifetime STREQUAL "" OR
   NOT loaded_lifetime STREQUAL generated_lifetime)
  message(FATAL_ERROR "load-map freep lifetime '${loaded_lifetime}' != "
                      "generated-map freep lifetime '${generated_lifetime}'")
endif()

# Flags the load-map pipeline cannot honour are refused, not ignored.
execute_process(
  COMMAND ${TOOL} --load-map ${WORK_DIR}/roundtrip_map.csv --spare maxwe
          --mode stochastic
  RESULT_VARIABLE load_result OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(load_result EQUAL 0)
  message(FATAL_ERROR "load-map accepted --mode stochastic: ${out}")
endif()
if(NOT err MATCHES "--mode")
  message(FATAL_ERROR "load-map refusal does not name --mode: ${err}")
endif()
