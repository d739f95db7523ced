# Included by ctest after the discovered sim_partition_test cases
# (TEST_INCLUDE_FILES in tests/CMakeLists.txt): label every case for both
# the simcore and the exec slice.
if(sim_partition_test_TESTS)
  set_tests_properties(${sim_partition_test_TESTS} PROPERTIES LABELS "simcore;exec")
endif()
