# ctest harness that requires an exact exit code: runs ${BENCH} with the
# ;-separated ${ARGS} and fails unless it exits ${EXPECT}, its stderr
# matches ${STDERR_REGEX} and its stdout does not match
# ${STDOUT_REJECT_REGEX} (each check only when the regex is given). Invoked
# as
#   cmake -DBENCH=<binary> "-DARGS=<a;b>" -DEXPECT=<code>
#         [-DSTDERR_REGEX=<regex>] [-DSTDOUT_REJECT_REGEX=<regex>]
#         -P check_exit_code.cmake

execute_process(COMMAND ${BENCH} ${ARGS}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${BENCH} ${ARGS}: exit code ${rc}, expected "
                      "${EXPECT}\n${err}")
endif()
if(DEFINED STDERR_REGEX AND NOT err MATCHES "${STDERR_REGEX}")
  message(FATAL_ERROR "${BENCH} ${ARGS}: stderr does not match "
                      "'${STDERR_REGEX}':\n${err}")
endif()
if(DEFINED STDOUT_REJECT_REGEX AND out MATCHES "${STDOUT_REJECT_REGEX}")
  message(FATAL_ERROR "${BENCH} ${ARGS}: stdout matches "
                      "'${STDOUT_REJECT_REGEX}': ${CMAKE_MATCH_0}")
endif()
