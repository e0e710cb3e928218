# Fails when two listings of the test binary differ.
#
# gtest_discover_tests turns each value parameter's printout into the CTest
# name.  A parameter that prints a pointer (the default for a struct that
# holds a const char*) moves with the load address, so its tests get new
# names on every build and no run can be matched to an earlier one.  Give
# such a parameter a PrintTo overload.
#
#   cmake -DTEST_BINARY=<mcdft_tests> -DOUT_DIR=<dir> -P stable_names.cmake
foreach(run 1 2)
  execute_process(COMMAND "${TEST_BINARY}" --gtest_list_tests
                  OUTPUT_FILE "${OUT_DIR}/test-names-${run}.txt"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${TEST_BINARY} --gtest_list_tests failed: ${rc}")
  endif()
endforeach()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${OUT_DIR}/test-names-1.txt"
                        "${OUT_DIR}/test-names-2.txt"
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR
    "test names differ between two runs; diff ${OUT_DIR}/test-names-1.txt "
    "${OUT_DIR}/test-names-2.txt and look for `N-byte object <...>` params")
endif()
