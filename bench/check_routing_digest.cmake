# ctest harness for the route layer's determinism: reruns the committed
# BENCH_routing.json config through bench_micro_routing and requires the
# ksp_cold digests (FNV-1a over every returned link sequence) and path
# counts to equal the committed ones, row by row. A mismatch means Yen or
# the cross-plane merge now hands out different paths, not that anything
# got slower. Invoked by the bench_micro_routing_digest test with
# -DBENCH=<bench_micro_routing> -DBASELINE=<BENCH_routing.json>
# -DWORKDIR=<scratch dir>. Reads the JSON with regexes (no string(JSON), so
# it runs on the project's minimum CMake).

file(READ ${BASELINE} baseline)
foreach(field hosts pairs)
  if(NOT baseline MATCHES "\"config\":{[^}]*\"${field}\":([0-9]+)")
    message(FATAL_ERROR "${BASELINE}: no config.${field}")
  endif()
  set(${field} ${CMAKE_MATCH_1})
endforeach()
set(current ${WORKDIR}/routing_digest.json)
execute_process(
  COMMAND ${BENCH} --json=${current} --hosts=${hosts} --pairs=${pairs}
          --repeat=1
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_micro_routing --json exited ${rc}")
endif()
file(READ ${current} result)

# The "paths" and "digest" values of the ksp_cold object, in document order
# (each row's, then the totals): everything but the wall times.
function(ksp_cold_paths_and_digests json out)
  string(FIND "${json}" "\"ksp_cold\":" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "no ksp_cold object")
  endif()
  string(SUBSTRING "${json}" ${at} -1 ksp_cold)
  string(REGEX MATCHALL "\"(paths|digest)\":\"?[0-9a-f]+" values "${ksp_cold}")
  if(NOT values)
    message(FATAL_ERROR "ksp_cold has no paths/digest fields")
  endif()
  set(${out} "${values}" PARENT_SCOPE)
endfunction()

ksp_cold_paths_and_digests("${baseline}" want)
ksp_cold_paths_and_digests("${result}" got)
if(NOT got STREQUAL want)
  message(FATAL_ERROR "ksp_cold paths/digests changed:\n  got  ${got}\n"
                      "  want ${want}")
endif()
message(STATUS "ksp_cold digests match the baseline: ${got}")
