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

# A loaded map goes through the one run_experiment pipeline, so it runs
# under every mode and leveler ...
execute_process(
  COMMAND ${TOOL} --load-map ${WORK_DIR}/roundtrip_map.csv --spare maxwe
          --mode stochastic --attack bpa --wl tlsr
  RESULT_VARIABLE load_result OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT load_result EQUAL 0 OR NOT out MATCHES "normalized lifetime")
  message(FATAL_ERROR "load-map stochastic bpa/tlsr run failed: "
                      "${load_result} ${out} ${err}")
endif()

# ... and in seed sweeps, where more than one thread must still run on the
# loaded map rather than on a cached model draw of each seed.
foreach(jobs 1 2)
  execute_process(
    COMMAND ${TOOL} --load-map ${WORK_DIR}/roundtrip_map.csv --spare ps
            --seeds 2 --jobs ${jobs}
    RESULT_VARIABLE load_result OUTPUT_VARIABLE sweep_out_${jobs}
    ERROR_VARIABLE err)
  if(NOT load_result EQUAL 0 OR NOT sweep_out_${jobs} MATCHES
     "normalized lifetime")
    message(FATAL_ERROR "load-map --seeds 2 --jobs ${jobs} failed: "
                        "${load_result} ${sweep_out_${jobs}} ${err}")
  endif()
endforeach()
if(NOT sweep_out_1 STREQUAL sweep_out_2)
  message(FATAL_ERROR "load-map sweep differs between --jobs 1 and 2:\n"
                      "${sweep_out_1}\n${sweep_out_2}")
endif()

# Over one loaded map, a scheme that draws nothing gives every seed the same
# lifetime: a tied sweep names the first seed at its minimum.
execute_process(
  COMMAND ${TOOL} --load-map ${WORK_DIR}/roundtrip_map.csv --spare none
          --seed 7 --seeds 4 --jobs 2
  RESULT_VARIABLE tie_result OUTPUT_VARIABLE tie_out ERROR_VARIABLE err)
if(NOT tie_result EQUAL 0 OR NOT tie_out MATCHES
   "\\(stddev 0 pp, min [0-9.]+% \\(seed 7\\), max [0-9.]+%\\)")
  message(FATAL_ERROR "a tied --seeds sweep did not name its first seed: "
                      "${tie_result} ${tie_out} ${err}")
endif()
