# Runs PROGRAM twice and fails unless both runs exit 0 and print the same
# stdout, byte for byte:
#   cmake -DPROGRAM=<executable> -P compare_runs.cmake
if(NOT PROGRAM)
  message(FATAL_ERROR "compare_runs.cmake: pass -DPROGRAM=<executable>")
endif()
foreach(run 1 2)
  execute_process(COMMAND ${PROGRAM} OUTPUT_VARIABLE out_${run}
                  RESULT_VARIABLE rc_${run})
  if(NOT rc_${run} EQUAL 0)
    message(FATAL_ERROR "${PROGRAM} exited with ${rc_${run}} on run ${run}")
  endif()
endforeach()
if(NOT out_1 STREQUAL out_2)
  message(FATAL_ERROR "${PROGRAM} printed different output on two runs:\n"
                      "--- run 1\n${out_1}--- run 2\n${out_2}")
endif()
