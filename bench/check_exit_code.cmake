# ctest harness that requires an exact exit code: runs ${BENCH} with the
# ;-separated ${ARGS} and fails unless it exits ${EXPECT} and its stderr
# matches ${STDERR_REGEX}. Invoked as
#   cmake -DBENCH=<binary> "-DARGS=<a;b>" -DEXPECT=<code>
#         -DSTDERR_REGEX=<regex> -P check_exit_code.cmake

execute_process(COMMAND ${BENCH} ${ARGS}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${BENCH} ${ARGS}: exit code ${rc}, expected "
                      "${EXPECT}\n${err}")
endif()
if(NOT err MATCHES "${STDERR_REGEX}")
  message(FATAL_ERROR "${BENCH} ${ARGS}: stderr does not match "
                      "'${STDERR_REGEX}':\n${err}")
endif()
