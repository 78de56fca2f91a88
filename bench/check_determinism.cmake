# ctest harness for the bench-report determinism contract: the same spec
# and seed must produce a byte-identical timing-free JSON report whatever
# the runner's --threads, the packet engine's --sim-threads (the shard
# layout is pinned to the plane count; the worker count only sizes the
# pool), and whether the shared route cache is on or off (PNET_ROUTE_CACHE=
# off forces pass-through recomputes — the cache must be an optimization,
# never a behavior change). Each case runs its bench once per row and
# compares every row against the case's first row. Invoked by the
# bench_report_determinism test with -DBENCH=<bench_fig9 path>
# -DFIG11_BENCH=<bench_fig11 path> -DFAULT_BENCH=<bench_fault_recovery
# path> -DWORKDIR=<scratch dir>.

# check_case(<name> <bench> ARGS <args...> ROWS <threads:sim_threads:cache>...)
function(check_case name bench)
  cmake_parse_arguments(CASE "" "" "ARGS;ROWS" ${ARGN})
  set(reference "")
  foreach(row ${CASE_ROWS})
    string(REPLACE ":" ";" fields ${row})
    list(GET fields 0 threads)
    list(GET fields 1 sim_threads)
    list(GET fields 2 cache)
    set(json ${WORKDIR}/${name}_t${threads}_s${sim_threads}_cache-${cache}.json)
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E env PNET_ROUTE_CACHE=${cache}
              ${bench} ${CASE_ARGS} --threads=${threads}
              --sim-threads=${sim_threads} --json=${json}
      RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${name}: --threads=${threads} "
                          "--sim-threads=${sim_threads} (route cache "
                          "${cache}) exited ${rc}")
    endif()
    if(reference STREQUAL "")
      set(reference ${json})
      continue()
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            ${reference} ${json}
                    RESULT_VARIABLE diff)
    if(NOT diff EQUAL 0)
      message(FATAL_ERROR "${name}: JSON report differs between "
                          "${reference} and ${json} — the determinism "
                          "contract (threads x sim-threads x route-cache) "
                          "is broken")
    endif()
  endforeach()
endfunction()

set(fig9 --hosts=16 --maxsize=1000000 --rounds=1 --trials=2 --json-timing=0)

foreach(ctl off centralized)
  check_case(fig9_${ctl}_packet ${BENCH}
             ARGS ${fig9} --planes=2 --controller=${ctl} --engine=packet
             ROWS 1:1:on 4:1:on 1:1:off 4:1:off 2:2:on 2:4:on)
  check_case(fig9_${ctl}_fsim ${BENCH}
             ARGS ${fig9} --planes=2 --controller=${ctl} --engine=fsim
             ROWS 1:1:on 4:1:on 1:1:off 4:1:off)
  # Four planes: more cross-shard traffic, and more shards than workers
  # at --sim-threads=2.
  check_case(fig9_${ctl}_packet_p4 ${BENCH}
             ARGS ${fig9} --planes=4 --controller=${ctl} --engine=packet
             ROWS 2:1:on 2:2:on 2:4:on)
endforeach()

# Closed-loop cells, whose workers issue each request from a flow callback.
if(FIG11_BENCH)
  check_case(fig11_closed_loop ${FIG11_BENCH}
             ARGS --hosts=16 --rounds=2 --json-timing=0
             ROWS 1:1:on 4:1:on 1:2:on 4:2:on 1:1:off)
endif()

if(FAULT_BENCH)
  check_case(fault_recovery ${FAULT_BENCH}
             ARGS --hosts=16 --json-timing=0
             ROWS 2:1:on 2:2:on 2:4:on)
endif()
