# Streams a block-async and a thread-async solve of the built-in
# Trefethen_2000 system through solve_mtx's JSON Lines sink and fails
# unless both solves succeed and tools/validate_telemetry.py accepts
# both streams.
#   cmake -DSOLVE_MTX=<path to solve_mtx> -DPYTHON=<python3>
#         -DVALIDATOR=<path to validate_telemetry.py> -DOUT_DIR=<dir>
#         -P telemetry_smoke.cmake
set(streams "")
foreach(solver block-async thread-async)
  set(stream ${OUT_DIR}/telemetry_smoke_${solver}.jsonl)
  execute_process(COMMAND ${SOLVE_MTX} --solver=${solver} --events=${stream}
                  OUTPUT_VARIABLE out ERROR_VARIABLE out RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "solve_mtx --solver=${solver} exited with ${rc}:\n${out}")
  endif()
  list(APPEND streams ${stream})
endforeach()
execute_process(COMMAND ${PYTHON} ${VALIDATOR} ${streams}
                OUTPUT_VARIABLE out ERROR_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "validate_telemetry rejected the streams:\n${out}")
endif()
message(STATUS "${out}")
