# ctest harness for checkpoint keys: a journal written by one configuration
# must not be resumed by another. Runs ${BENCH} with ${FIRST_ARGS}, then
# with ${SECOND_ARGS}, both journaling to one --checkpoint file, and then
# ${SECOND_ARGS} fresh; the last two timing-free reports must be
# byte-identical. A cell whose spec hash misses some of its inputs fails:
# the second run replays the first run's results. Invoked with
# -DBENCH=<binary> "-DFIRST_ARGS=<a;b>" "-DSECOND_ARGS=<a;b>"
# -DWORKDIR=<scratch dir>.

set(journal --checkpoint=${WORKDIR}/checkpoint_key.ckpt)
file(REMOVE ${WORKDIR}/checkpoint_key.ckpt)
foreach(run "first;${FIRST_ARGS};${journal}"
            "second;${SECOND_ARGS};${journal}" "fresh;${SECOND_ARGS}")
  list(POP_FRONT run name)
  execute_process(COMMAND ${BENCH} ${run} --json-timing=0
                          --json=${WORKDIR}/checkpoint_key_${name}.json
                  RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} ${run}: exit code ${rc}")
  endif()
endforeach()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${WORKDIR}/checkpoint_key_second.json
                        ${WORKDIR}/checkpoint_key_fresh.json
                RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${SECOND_ARGS} resumed from a journal of "
                      "${FIRST_ARGS} differs from a fresh run: the "
                      "checkpoint key misses some of the cell's inputs")
endif()
