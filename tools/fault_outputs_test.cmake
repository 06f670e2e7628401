# Fault-injection acceptance check. Device faults (stuck-at, early-death
# and outlier regions) are absorbed by Max-WE's rescue and the run still
# reports a lifetime; periodic RMT/LMT bit flips are each detected and
# scrubbed, so the run prints exactly the fault-free run's output.
set(common --mode stochastic --lines 2048 --regions 128 --endurance-mean 2000
    --spare maxwe)
set(device_args --fault-stuck-at 16 --fault-early-death 16
    --fault-outlier-regions 4)
set(clean_args)
set(flipped_args --fault-flip-interval 50000)
foreach(name device clean flipped)
  execute_process(COMMAND ${TOOL} ${common} ${${name}_args}
                  RESULT_VARIABLE result OUTPUT_VARIABLE out_${name})
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "${name} run failed: ${result}")
  endif()
endforeach()
if(NOT out_device MATCHES "normalized lifetime")
  message(FATAL_ERROR "device-fault run printed no lifetime:\n${out_device}")
endif()
if(NOT out_clean STREQUAL out_flipped)
  message(FATAL_ERROR "metadata-flip run differs from the clean run:\n"
          "${out_clean}\n---\n${out_flipped}")
endif()
