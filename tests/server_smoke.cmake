# server_smoke ctest: the daemon and the open-loop load generator end to end.
# mhhead is started on a UNIX domain socket, bench_server probes its
# saturation and fires short Poisson bursts at 0.25/0.5/1/2x that rate, and
# the emitted JSON must report nonzero goodput plus every latency-percentile
# key — so a daemon that stops answering, or a harness that stops
# measuring, fails `ctest` rather than only the CI artifact step.
#
# The daemon runs with a deliberately tiny in-flight budget (2) against more
# connections (4), so the 2x-saturation run exercises the shedding path as
# well. The rates come from the probe, not from fixed numbers: a fixed rate
# far below what the host serves sheds only while requests linger in the
# server, so it would test the daemon's slowness rather than its overload
# control.
#
# Invoked as:
#   cmake -DSERVER_BIN=<mhhead> -DLOADGEN_BIN=<bench_server>
#         -DOUT_JSON=<path> -DWORK_DIR=<dir> -P server_smoke.cmake
# SERVER_BIN is a shell command line, so it may carry a launcher:
# -DSERVER_BIN="taskset -c 0 <mhhead>" runs the daemon with one reactor.
cmake_minimum_required(VERSION 3.24)  # script mode: opt into modern policies
foreach(var SERVER_BIN LOADGEN_BIN OUT_JSON WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "server_smoke: ${var} must be defined")
  endif()
endforeach()

find_program(BASH_EXE bash REQUIRED)

set(sock "${WORK_DIR}/server_smoke.sock")
set(pidfile "${WORK_DIR}/server_smoke.pid")
set(server_log "${WORK_DIR}/server_smoke_daemon.log")
file(REMOVE "${sock}" "${OUT_JSON}" "${pidfile}" "${server_log}")

# CMake script mode cannot background a child, so bash owns the daemon's
# lifetime: start detached, wait for the READY line (printed once the socket
# listens), and leave the pid behind for the shutdown step.
execute_process(
  COMMAND "${BASH_EXE}" -c "\
    ${SERVER_BIN} --uds '${sock}' \
      --master 00112233445566778899aabbccddeeff --max-inflight 2 \
      > '${server_log}' 2>&1 & \
    echo $! > '${pidfile}'; \
    for i in $(seq 1 100); do \
      grep -q READY '${server_log}' 2>/dev/null && exit 0; \
      kill -0 $(cat '${pidfile}') 2>/dev/null || exit 1; \
      sleep 0.1; \
    done; exit 1"
  RESULT_VARIABLE daemon_rc)
if(NOT daemon_rc EQUAL 0)
  file(READ "${server_log}" daemon_out)
  message(FATAL_ERROR "server_smoke: mhhead did not become READY:\n${daemon_out}")
endif()

# The probe-derived sweep's 2x-saturation run is beyond what max-inflight 2
# can serve, forcing sheds.
execute_process(
  COMMAND "${LOADGEN_BIN}" --uds "${sock}" --conns 4 --msg-bytes 256
          --probe-secs 1 --secs 2 --out "${OUT_JSON}"
  RESULT_VARIABLE load_rc)

# Shut the daemon down (SIGINT → graceful drain) whatever the loadgen did.
execute_process(
  COMMAND "${BASH_EXE}" -c "\
    pid=$(cat '${pidfile}'); kill -INT $pid 2>/dev/null; \
    for i in $(seq 1 100); do \
      kill -0 $pid 2>/dev/null || exit 0; sleep 0.1; \
    done; kill -9 $pid; exit 1"
  RESULT_VARIABLE stop_rc)

if(NOT load_rc EQUAL 0)
  message(FATAL_ERROR "server_smoke: bench_server exited with ${load_rc}")
endif()
if(NOT stop_rc EQUAL 0)
  message(FATAL_ERROR "server_smoke: mhhead ignored SIGINT and was killed")
endif()

file(READ "${OUT_JSON}" doc)
string(JSON sat GET "${doc}" saturation_qps)  # FATAL_ERROR on invalid JSON
if(NOT sat GREATER 0)
  message(FATAL_ERROR "server_smoke: saturation_qps is ${sat}, expected > 0")
endif()

string(JSON n_runs LENGTH "${doc}" runs)
if(n_runs LESS 2)
  message(FATAL_ERROR "server_smoke: expected 2 runs, got ${n_runs}")
endif()

math(EXPR last "${n_runs} - 1")
set(total_shed 0)
foreach(i RANGE ${last})
  string(JSON goodput GET "${doc}" runs ${i} goodput_qps)
  if(NOT goodput GREATER 0)
    message(FATAL_ERROR "server_smoke: run ${i} goodput_qps is ${goodput}, expected > 0")
  endif()
  foreach(key p50_ms p99_ms p999_ms mean_ms max_ms shed_rate)
    string(JSON val ERROR_VARIABLE jerr GET "${doc}" runs ${i} ${key})
    if(jerr)
      message(FATAL_ERROR "server_smoke: run ${i} is missing ${key}")
    endif()
  endforeach()
  string(JSON p50 GET "${doc}" runs ${i} p50_ms)
  if(NOT p50 GREATER 0)
    message(FATAL_ERROR "server_smoke: run ${i} p50_ms is ${p50}, expected > 0")
  endif()
  string(JSON shed GET "${doc}" runs ${i} shed)
  math(EXPR total_shed "${total_shed} + ${shed}")
endforeach()

# The overload run must have engaged explicit shedding — a daemon that
# queues without bound instead would show zero sheds and climbing latency.
if(NOT total_shed GREATER 0)
  message(FATAL_ERROR "server_smoke: no requests were shed across ${n_runs} runs; overload protection did not engage")
endif()
message(STATUS "server_smoke: ${n_runs} runs OK (saturation ~${sat} qps, shed ${total_shed})")
