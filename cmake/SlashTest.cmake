# Helpers deduplicating the per-binary boilerplate shared by tests/ and
# bench/: one executable per source file, linked against the slash library.

# slash_add_test(<source.cc> [LABELS <label>...]): one gtest binary,
# registered with ctest. Labels define the test tiers (see
# tests/CMakeLists.txt for the tier catalog); unlabeled tests default to
# the fast tier1 suite.
function(slash_add_test test_src)
  cmake_parse_arguments(ARG "" "" "LABELS" ${ARGN})
  get_filename_component(test_name ${test_src} NAME_WE)
  add_executable(${test_name} ${test_src})
  target_link_libraries(${test_name}
    PRIVATE slash GTest::gtest GTest::gtest_main)
  add_test(NAME ${test_name} COMMAND ${test_name})
  if(NOT ARG_LABELS)
    set(ARG_LABELS tier1)
  endif()
  set_tests_properties(${test_name} PROPERTIES LABELS "${ARG_LABELS}")
endfunction()

# slash_add_bench(<source.cc>): one benchmark binary under build/bench/.
function(slash_add_bench bench_src)
  get_filename_component(bench_name ${bench_src} NAME_WE)
  add_executable(${bench_name} ${bench_src})
  target_link_libraries(${bench_name} PRIVATE slash benchmark::benchmark)
  # Keep ${CMAKE_BINARY_DIR}/bench free of CMake metadata so
  # `for b in build/bench/*; do $b; done` runs exactly the bench binaries.
  set_target_properties(${bench_name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

# slash_add_bench_gate(<bench target> <baseline.json> [ENV K=V...]
#                      [ARGS arg...] [COMPARE_ARGS arg...]
#                      [MAX_RSS_MIB n]): a ctest (label `bench`) that runs
# the bench with SLASH_BENCH_JSON set and diffs its artifact against the
# committed baseline via tools/bench_compare.py, passing COMPARE_ARGS through
# to it; MAX_RSS_MIB also fails the gate when the bench's peak resident set
# exceeds n MiB (see cmake/BenchGate.cmake).
function(slash_add_bench_gate bench_name baseline)
  cmake_parse_arguments(ARG "" "MAX_RSS_MIB" "ENV;ARGS;COMPARE_ARGS" ${ARGN})
  add_test(NAME bench_${bench_name}
    COMMAND ${CMAKE_COMMAND}
      -DBENCH=$<TARGET_FILE:${bench_name}>
      -DBASELINE=${baseline}
      -DOUT_DIR=${CMAKE_BINARY_DIR}/bench-json
      -DCOMPARE=${PROJECT_SOURCE_DIR}/tools/bench_compare.py
      -DPYTHON=${Python3_EXECUTABLE}
      "-DBENCH_ENV=${ARG_ENV}"
      "-DBENCH_ARGS=${ARG_ARGS}"
      "-DCOMPARE_ARGS=${ARG_COMPARE_ARGS}"
      -DMAX_RSS_MIB=${ARG_MAX_RSS_MIB}
      -DRSS_CEILING=${PROJECT_SOURCE_DIR}/tools/rss_ceiling.py
      -P ${PROJECT_SOURCE_DIR}/cmake/BenchGate.cmake)
  set_tests_properties(bench_${bench_name} PROPERTIES LABELS bench)
endfunction()
