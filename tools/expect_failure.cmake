# Runs the command given after `--` and passes only if it exits with a
# non-zero status (not a signal) and its output matches the regular
# expression EXPECT. ctest's WILL_FAIL checks the exit status alone and
# PASS_REGULAR_EXPRESSION ignores it; this checks both:
#
#   cmake -DEXPECT=<regex> -P expect_failure.cmake -- <command> [args...]
set(command)
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()
if(NOT command OR NOT DEFINED EXPECT)
  message(FATAL_ERROR "usage: cmake -DEXPECT=<regex> -P expect_failure.cmake -- <command>")
endif()

execute_process(COMMAND ${command} RESULT_VARIABLE status OUTPUT_VARIABLE output
                ERROR_VARIABLE output)
message("${output}")
if(NOT status MATCHES "^[1-9][0-9]*$")
  message(FATAL_ERROR "expected a non-zero exit status, got '${status}'")
endif()
if(NOT output MATCHES "${EXPECT}")
  message(FATAL_ERROR "output does not match '${EXPECT}'")
endif()
