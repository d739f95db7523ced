# Included by ctest after the discovered test cases (TEST_INCLUDE_FILES in
# tests/CMakeLists.txt). gtest discovery sets one label per binary, so this
# labels every case of these binaries for both the simcore slice (ASan,
# UBSan) and the exec slice (TSan).
foreach(cases IN ITEMS sim_partition_test_TESTS gpusim_row_fabric_test_TESTS)
  if(${cases})
    set_tests_properties(${${cases}} PROPERTIES LABELS "simcore;exec")
  endif()
endforeach()
