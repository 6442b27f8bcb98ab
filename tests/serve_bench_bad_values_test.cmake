# cq_serve_bench must refuse a bad integer flag: exit 2 before any
# thread starts, naming --key=value. A run that accepted the value would
# start its server and submitters, print its banner and exit 0 (or fail
# later, connecting). Each bound is tried with the first value past it;
# none would start more than 257 threads if it were unchecked. The upper
# bounds that start no extra threads must still serve.
#
# Driven as: cmake -DTOOL=<cq_serve_bench> -DARTIFACT=<x.cqar> -P <this>

foreach(var TOOL ARTIFACT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "serve_bench_bad_values_test: -D${var}=... is required")
  endif()
endforeach()

# A run short enough to finish at once when a value is accepted.
set(small --requests=4 --threads=1 --workers=1 --warmup=0)

# Runs cq_serve_bench with ARGN and requires exit 2, a stderr matching
# `pattern`, and no server started.
function(expect_refused label pattern)
  execute_process(
    COMMAND "${TOOL}" ${ARGN}
    RESULT_VARIABLE result
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 120)
  if(NOT result EQUAL 2)
    message(SEND_ERROR "${label}: exit ${result}, expected 2\nstdout: ${out}\nstderr: ${err}")
  elseif(NOT err MATCHES "${pattern}")
    message(SEND_ERROR "${label}: stderr does not match '${pattern}': ${err}")
  elseif(out MATCHES "closed-loop submitters")
    message(SEND_ERROR "${label}: a run started before the refusal: ${out}")
  else()
    message(STATUS "${label}: ${err}")
  endif()
endfunction()

# Local mode: each flag follows the small run's, so it overrides it.
foreach(flag
    "--workers=abc"
    "--workers=4x"
    "--workers="
    "--workers=99999999999999999999"
    "--workers=0"
    "--workers=257"
    "--intra_threads=0"
    "--intra_threads=257"
    "--threads=0"
    "--threads=257"
    "--max_batch=0"
    "--max_batch=1025"
    "--queue=-1"
    "--queue=0"
    "--queue=1048577"
    "--requests=0"
    "--warmup=-1"
    "--seed=-1")
  string(REGEX REPLACE "=.*" "" name "${flag}")
  expect_refused("local '${flag}'" "cq_serve_bench: ${name}=" "${ARTIFACT}" ${small} ${flag})
endforeach()

# Remote mode refuses before it connects (nothing listens on the port).
foreach(flag
    "--threads=257"
    "--requests=0"
    "--warmup=-1"
    "--busy_backoff_us=-1"
    "--assert_admitted_min=-1"
    "--assert_shed_min=abc"
    "--seed=1x")
  string(REGEX REPLACE "=.*" "" name "${flag}")
  expect_refused("remote '${flag}'" "cq_serve_bench: ${name}="
    --connect=127.0.0.1:1 --model=m ${flag})
endforeach()
expect_refused("remote port 'abc'" "cq_serve_bench: --connect port=abc"
  --connect=127.0.0.1:abc --model=m)
expect_refused("remote port 65536" "cq_serve_bench: --connect port=65536"
  --connect=127.0.0.1:65536 --model=m)

# The largest values that start no extra threads are accepted.
execute_process(
  COMMAND "${TOOL}" "${ARTIFACT}" ${small} --max_batch=1024 --queue=1048576
  RESULT_VARIABLE result
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 120)
if(NOT result EQUAL 0)
  message(SEND_ERROR "upper bounds refused: exit ${result}\nstdout: ${out}\nstderr: ${err}")
endif()
