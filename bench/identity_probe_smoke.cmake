# Runs the identity probe's smoke grid twice and fails unless both runs
# succeed and print the same non-empty output.
#   cmake -DPROBE=<path to identity_probe> -P identity_probe_smoke.cmake
foreach(run 1 2)
  execute_process(COMMAND ${PROBE} --grid=smoke
                  OUTPUT_VARIABLE out${run} RESULT_VARIABLE rc${run})
  if(NOT rc${run} EQUAL 0)
    message(FATAL_ERROR "identity_probe run ${run} exited with ${rc${run}}")
  endif()
endforeach()
if(out1 STREQUAL "")
  message(FATAL_ERROR "identity_probe printed nothing")
endif()
if(NOT out1 STREQUAL out2)
  message(FATAL_ERROR "identity_probe differs between runs:\n${out1}\n---\n${out2}")
endif()
message(STATUS "identity_probe smoke grid repeated bit for bit:\n${out1}")
