# Runs ${CLI} with the |-separated ${ARGS} and passes only when the command
# exits non-zero and reports that the query point must be finite.
#
#   cmake -DCLI=path/to/pverify_cli "-DARGS=cpnn|ds.txt|nan|0.3" \
#         -P tests/cli_rejects_nonfinite_point.cmake
string(REPLACE "|" ";" ARGS "${ARGS}")
execute_process(COMMAND ${CLI} ${ARGS}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(code EQUAL 0)
  message(FATAL_ERROR "`${ARGS}` exited 0; stdout:\n${out}")
endif()
if(NOT err MATCHES "query point must be finite")
  message(FATAL_ERROR "`${ARGS}` exited ${code} without the expected "
                      "message; stderr:\n${err}")
endif()
