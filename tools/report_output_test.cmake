# Flight-recorder acceptance check: --events-out writes a deterministic,
# schema-versioned JSONL decision log (byte-identical across repeats and
# across an interrupted-then-resumed run), and maxwe_report renders a
# post-mortem from it. Needs TOOL (maxwe_sim), REPORT (maxwe_report) and
# WORK_DIR.
set(ev_a ${WORK_DIR}/report_maxwe_a.events.jsonl)
set(ev_b ${WORK_DIR}/report_maxwe_b.events.jsonl)
set(ev_freep ${WORK_DIR}/report_freep.events.jsonl)
set(md_out ${WORK_DIR}/report_postmortem.md)
file(REMOVE ${ev_a} ${ev_b} ${ev_freep} ${md_out})

set(common --attack uaa --lines 2048 --regions 128 --endurance-mean 1000
    --seed 42)

# The same UAA run twice: the decision logs must be byte-identical.
foreach(out ${ev_a} ${ev_b})
  execute_process(
    COMMAND ${TOOL} ${common} --spare maxwe --events-out ${out}
    RESULT_VARIABLE run_result OUTPUT_QUIET)
  if(NOT run_result EQUAL 0)
    message(FATAL_ERROR "maxwe events run failed: ${run_result}")
  endif()
endforeach()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${ev_a} ${ev_b}
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "two identical runs wrote different event logs")
endif()

# The log leads with its schema header.
file(STRINGS ${ev_a} first_line LIMIT_COUNT 1)
if(NOT first_line MATCHES "\"type\":\"schema\"" OR
   NOT first_line MATCHES "\"v\":1")
  message(FATAL_ERROR "event log does not start with the v1 schema header: "
          "${first_line}")
endif()

# A FreeP run under the same attack, for the comparison report.
execute_process(
  COMMAND ${TOOL} ${common} --spare freep --events-out ${ev_freep}
  RESULT_VARIABLE freep_result OUTPUT_QUIET)
if(NOT freep_result EQUAL 0)
  message(FATAL_ERROR "freep events run failed: ${freep_result}")
endif()

# Every line of both logs is schema v1; each log carries the run's frame
# (run_start, spare_roles, run_end) and at least one rescue.
foreach(ev ${ev_a} ${ev_freep})
  file(STRINGS ${ev} all_lines)
  file(STRINGS ${ev} v1_lines REGEX "^{\"v\":1,")
  list(LENGTH all_lines n_all)
  list(LENGTH v1_lines n_v1)
  if(NOT n_all EQUAL n_v1)
    message(FATAL_ERROR "${ev}: ${n_v1} of ${n_all} lines are schema v1")
  endif()
  file(READ ${ev} log)
  foreach(type run_start spare_roles run_end "(rmt_redirect|asr_alloc|spare_alloc)")
    if(NOT log MATCHES "\"type\":\"${type}\"")
      message(FATAL_ERROR "${ev} has no ${type} event")
    endif()
  endforeach()
endforeach()

# maxwe_report renders the post-mortem (terminal + Markdown + comparison).
execute_process(
  COMMAND ${REPORT} --events ${ev_a} --compare ${ev_freep} --md ${md_out}
  RESULT_VARIABLE report_result OUTPUT_VARIABLE report_out)
if(NOT report_result EQUAL 0)
  message(FATAL_ERROR "maxwe_report failed: ${report_result}")
endif()
foreach(needle "Rescue attribution" "Gini" "Failure causes"
        "Side-by-side comparison")
  if(NOT report_out MATCHES "${needle}")
    message(FATAL_ERROR "report is missing its '${needle}' section:\n"
            "${report_out}")
  endif()
endforeach()
if(NOT EXISTS ${md_out})
  message(FATAL_ERROR "maxwe_report did not write the Markdown report")
endif()
file(READ ${md_out} md_body)
if(NOT md_body MATCHES "## Rescue attribution")
  message(FATAL_ERROR "Markdown report lacks the rescue-attribution section")
endif()

# Interrupted-then-resumed stochastic run: the event log must be
# byte-identical to an uninterrupted run. The reference checkpoints at the
# same cadence (checkpoint boundaries are themselves recorded events).
set(stoch --mode stochastic --lines 512 --regions 32 --endurance-mean 300
    --spare maxwe --seed 7)
set(ev_ref ${WORK_DIR}/report_resume_ref.events.jsonl)
set(ev_res ${WORK_DIR}/report_resume.events.jsonl)
set(ckpt_ref ${WORK_DIR}/report_resume_ref.ckpt)
set(ckpt_res ${WORK_DIR}/report_resume.ckpt)
file(REMOVE ${ev_ref} ${ev_res} ${ckpt_ref} ${ckpt_res})

execute_process(
  COMMAND ${TOOL} ${stoch} --events-out ${ev_ref}
          --checkpoint-out ${ckpt_ref} --checkpoint-interval 2000
  RESULT_VARIABLE ref_result OUTPUT_QUIET)
if(NOT ref_result EQUAL 0)
  message(FATAL_ERROR "uninterrupted events run failed: ${ref_result}")
endif()

execute_process(
  COMMAND ${TOOL} ${stoch} --events-out ${ev_res} --max-writes 5000
          --checkpoint-out ${ckpt_res} --checkpoint-interval 2000
  RESULT_VARIABLE cap_result OUTPUT_QUIET)
if(NOT cap_result EQUAL 0)
  message(FATAL_ERROR "capped events run failed: ${cap_result}")
endif()
execute_process(
  COMMAND ${TOOL} ${stoch} --events-out ${ev_res}
          --checkpoint-out ${ckpt_res} --checkpoint-interval 2000 --resume
  RESULT_VARIABLE res_result OUTPUT_QUIET)
if(NOT res_result EQUAL 0)
  message(FATAL_ERROR "resumed events run failed: ${res_result}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${ev_ref} ${ev_res}
                RESULT_VARIABLE resume_same)
if(NOT resume_same EQUAL 0)
  message(FATAL_ERROR "resumed run's event log differs from the "
          "uninterrupted run's")
endif()

# Detector post-mortem: a UAA-onset run with the detector and the adaptive
# cadence on reports its alarms, and the report renders the detector section.
set(ev_detect ${WORK_DIR}/report_detector.events.jsonl)
execute_process(
  COMMAND ${TOOL} --mode stochastic --lines 2048 --regions 128
          --endurance-mean 2000 --spare maxwe --wl startgap --swap-interval 32
          --attack-onset 100000 --detect --detect-window 8192 --adaptive
          --events-out ${ev_detect}
  RESULT_VARIABLE detect_result OUTPUT_VARIABLE detect_out)
execute_process(COMMAND ${REPORT} --events ${ev_detect} --detector
                RESULT_VARIABLE detector_result OUTPUT_VARIABLE detector_out)
if(NOT detect_result EQUAL 0 OR NOT detector_result EQUAL 0)
  message(FATAL_ERROR "detector run or report failed: ${detect_result}, "
          "${detector_result}")
endif()
foreach(needle "alarms raised:" "cadence changes:")
  if(NOT detect_out MATCHES "${needle}")
    message(FATAL_ERROR "detector run did not print '${needle}'")
  endif()
endforeach()
foreach(needle "Attack detector" "Detection latency" "Adaptive cadence changes")
  if(NOT detector_out MATCHES "${needle}")
    message(FATAL_ERROR "detector report is missing '${needle}'")
  endif()
endforeach()
