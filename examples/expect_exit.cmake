# Run one example CLI and check its exit status (and, optionally, that its
# output matches a regex). Used by the cli.* tests in CMakeLists.txt:
#
#   cmake -DCMD=<exe>|<arg>|... -DEXPECT=<status> [-DMATCH=<regex>] -P expect_exit.cmake
#
# CMD separates arguments with '|' because ';' does not survive add_test.
string(REPLACE "|" ";" cmd "${CMD}")
execute_process(COMMAND ${cmd}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 60)
if(NOT status STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${cmd}: exit status '${status}', expected ${EXPECT}\n${out}${err}")
endif()
if(DEFINED MATCH AND NOT "${out}${err}" MATCHES "${MATCH}")
  message(FATAL_ERROR "${cmd}: output does not match '${MATCH}'\n${out}${err}")
endif()
