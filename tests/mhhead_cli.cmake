# mhhead_cli ctest: the daemon's numeric flags are validated before it binds.
# Each case passes one out-of-range or malformed value; mhhead must exit 2
# with its usage message and never print a READY line. A case that slips
# through would bind and serve until killed, so every run has a timeout and
# a timed-out run fails the test.
#
# Invoked as:
#   cmake -DSERVER_BIN=<mhhead> -DWORK_DIR=<dir> -P mhhead_cli.cmake
cmake_minimum_required(VERSION 3.24)  # script mode: opt into modern policies
foreach(var SERVER_BIN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "mhhead_cli: ${var} must be defined")
  endif()
endforeach()

set(sock "${WORK_DIR}/mhhead_cli.sock")
set(master --master 00112233445566778899aabbccddeeff)

# One case per line: the endpoint plus the single bad flag, '|'-separated
# (a CMake list would flatten them all into one).
set(cases
  "--tcp|70000"
  "--tcp|-1"
  "--tcp|80x"
  "--uds|${sock}|--max-frame|12abc"
  "--uds|${sock}|--max-frame|-1"
  "--uds|${sock}|--max-frame|0"
  "--uds|${sock}|--max-inflight|-1"
  "--uds|${sock}|--max-conns|0"
  "--uds|${sock}|--timeout-ms|0"
  "--uds|${sock}|--timeout-ms|99999999999999999999"
)

set(n_cases 0)
foreach(case IN LISTS cases)
  string(REPLACE "|" " " shown "${case}")
  string(REPLACE "|" ";" args "${case}")
  execute_process(
    COMMAND "${SERVER_BIN}" ${args} ${master}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 10)
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "mhhead_cli: '${shown}' exited with '${rc}', expected 2\nstdout: ${out}\nstderr: ${err}")
  endif()
  if(out MATCHES "READY")
    message(FATAL_ERROR "mhhead_cli: '${shown}' printed a READY line before exiting")
  endif()
  if(NOT err MATCHES "usage: mhhead")
    message(FATAL_ERROR "mhhead_cli: '${shown}' did not print the usage message\nstderr: ${err}")
  endif()
  math(EXPR n_cases "${n_cases} + 1")
endforeach()
file(REMOVE "${sock}")
message(STATUS "mhhead_cli: ${n_cases} bad flag values rejected with exit 2")
