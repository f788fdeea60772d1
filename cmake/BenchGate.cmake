# ctest driver for one bench gate: runs a bench binary with SLASH_BENCH_JSON
# pointing at OUT_DIR, then diffs the emitted artifact against its committed
# baseline with tools/bench_compare.py. Invoked as
#   cmake -DBENCH=<exe> -DBASELINE=<json> -DOUT_DIR=<dir> -DCOMPARE=<py>
#         -DPYTHON=<python3> [-DBENCH_ENV=K=V;...] [-DBENCH_ARGS=...]
#         -P BenchGate.cmake
file(MAKE_DIRECTORY ${OUT_DIR})
get_filename_component(artifact ${BASELINE} NAME)
file(REMOVE ${OUT_DIR}/${artifact})
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env SLASH_BENCH_JSON=${OUT_DIR} ${BENCH_ENV}
          ${BENCH} ${BENCH_ARGS}
  RESULT_VARIABLE bench_rc
  OUTPUT_QUIET)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${bench_rc}")
endif()
execute_process(
  COMMAND ${PYTHON} ${COMPARE} ${BASELINE} ${OUT_DIR}/${artifact}
  RESULT_VARIABLE compare_rc)
if(NOT compare_rc EQUAL 0)
  message(FATAL_ERROR "${artifact} differs from its baseline")
endif()
