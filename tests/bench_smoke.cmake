# bench_smoke ctest: run the benchmark harness end to end (one repetition)
# and validate its JSON — every registry cipher must
# appear with nonzero throughput. Harness breakage therefore fails `ctest`
# instead of only the CI artifact step.
#
# Invoked as:
#   cmake -DBENCH_BIN=<path/to/bench_ciphers> -DOUT_JSON=<path> -P bench_smoke.cmake
cmake_minimum_required(VERSION 3.24)  # script mode: opt into modern policies
if(NOT DEFINED BENCH_BIN OR NOT DEFINED OUT_JSON)
  message(FATAL_ERROR "bench_smoke: BENCH_BIN and OUT_JSON must be defined")
endif()

execute_process(
  COMMAND "${BENCH_BIN}" --reps 1 --seed 0xB0A710AD
          --out "${OUT_JSON}"
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_smoke: bench_ciphers exited with ${rc}")
endif()

file(READ "${OUT_JSON}" doc)
string(JSON n_results LENGTH "${doc}" results)  # FATAL_ERROR on invalid JSON

# The artifact must name the keystream engine that produced it, both in the
# host block and on every result row (FATAL_ERROR if either is missing).
string(JSON host_backend GET "${doc}" host backend)
string(JSON host_avx2 GET "${doc}" host cpu_avx2)
if(NOT host_backend MATCHES "^(scalar|avx2)$")
  message(FATAL_ERROR "bench_smoke: host.backend is \"${host_backend}\", expected scalar or avx2")
endif()
# 6 ciphers x 3 sizes x 4 dir/api cells on the random corpus, plus the
# text-corpus encrypt/decrypt columns.
if(n_results LESS 72)
  message(FATAL_ERROR "bench_smoke: expected >= 72 result cells, got ${n_results}")
endif()

set(seen "")
set(corpora "")
math(EXPR last "${n_results} - 1")
foreach(i RANGE ${last})
  string(JSON cipher GET "${doc}" results ${i} cipher)
  string(JSON mbps GET "${doc}" results ${i} mb_per_s_mean)
  string(JSON expansion GET "${doc}" results ${i} expansion)
  string(JSON corpus GET "${doc}" results ${i} corpus)
  string(JSON row_backend GET "${doc}" results ${i} backend)
  if(NOT row_backend STREQUAL host_backend)
    message(FATAL_ERROR "bench_smoke: cell ${i} backend \"${row_backend}\" != host \"${host_backend}\"")
  endif()
  if(NOT mbps GREATER 0)
    message(FATAL_ERROR "bench_smoke: ${cipher} cell ${i} has non-positive MB/s: ${mbps}")
  endif()
  if(NOT expansion GREATER 0)
    message(FATAL_ERROR "bench_smoke: ${cipher} cell ${i} has non-positive expansion")
  endif()
  if(NOT corpus MATCHES "^(random|text)$")
    message(FATAL_ERROR "bench_smoke: cell ${i} corpus is \"${corpus}\", expected random or text")
  endif()
  list(APPEND seen "${cipher}")
  list(APPEND corpora "${corpus}")
endforeach()

foreach(want MHHEA MHHEA-sealed MHHEA-sealed-v2 MHHEA-sealed-v2-z HHEA YAEA-S)
  if(NOT "${want}" IN_LIST seen)
    message(FATAL_ERROR "bench_smoke: registry cipher ${want} missing from results")
  endif()
endforeach()
foreach(want random text)
  if(NOT "${want}" IN_LIST corpora)
    message(FATAL_ERROR "bench_smoke: corpus ${want} missing from results")
  endif()
endforeach()

# The rep count behind every figure is recorded at the top level.
string(JSON reps GET "${doc}" reps)
if(NOT reps EQUAL 1)
  message(FATAL_ERROR "bench_smoke: top-level reps is ${reps}, expected 1 for a --reps 1 run")
endif()

# The compression pre-stage aggregates: per cipher, per corpus, both keys
# present and positive; the -z cipher's text expansion must actually beat
# its random (fallback) expansion or the pre-stage did nothing end to end.
foreach(want MHHEA-sealed-v2 MHHEA-sealed-v2-z)
  foreach(corpus random text)
    string(JSON exp_val ERROR_VARIABLE jerr3 GET "${doc}" expansion "${want}" "${corpus}")
    if(jerr3 OR NOT exp_val GREATER 0)
      message(FATAL_ERROR "bench_smoke: expansion[${want}][${corpus}] missing or non-positive (${exp_val})")
    endif()
    string(JSON wire_val ERROR_VARIABLE jerr4 GET "${doc}" effective_wire_mb_per_s "${want}" "${corpus}")
    if(jerr4 OR NOT wire_val GREATER 0)
      message(FATAL_ERROR "bench_smoke: effective_wire_mb_per_s[${want}][${corpus}] missing or non-positive (${wire_val})")
    endif()
  endforeach()
endforeach()
string(JSON z_text GET "${doc}" expansion MHHEA-sealed-v2-z text)
string(JSON z_random GET "${doc}" expansion MHHEA-sealed-v2-z random)
if(NOT z_text LESS z_random)
  message(FATAL_ERROR "bench_smoke: -z text expansion ${z_text} not below its random expansion ${z_random}")
endif()
message(STATUS "bench_smoke: ${n_results} cells OK")
