# cq_serve must refuse a bad integer in its manifest or its flags: exit
# 2 before any model loads, naming the manifest line and key, or the
# flag. Every case runs with --smoke, so a daemon that accepted the
# value would load, serve its self-test and exit 0 instead. Each upper
# bound README states is tried with the first value past it; the upper
# bounds of the settings that start no threads must still serve.
#
# Driven as: cmake -DTOOL=<cq_serve> -DARTIFACT=<x.cqar> -DDIR=<tmp dir> -P <this>

foreach(var TOOL ARTIFACT DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "serve_bad_values_test: -D${var}=... is required")
  endif()
endforeach()
file(MAKE_DIRECTORY "${DIR}")

# Runs cq_serve with ARGN and requires exit 2, a stderr matching
# `pattern`, and no model loaded.
function(expect_refused label pattern)
  execute_process(
    COMMAND "${TOOL}" --port=0 --smoke ${ARGN}
    RESULT_VARIABLE result
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 120)
  if(NOT result EQUAL 2)
    message(SEND_ERROR "${label}: exit ${result}, expected 2\nstdout: ${out}\nstderr: ${err}")
  elseif(NOT err MATCHES "${pattern}")
    message(SEND_ERROR "${label}: stderr does not match '${pattern}': ${err}")
  elseif(out MATCHES "cq_serve: loaded")
    message(SEND_ERROR "${label}: a model loaded before the refusal: ${out}")
  else()
    message(STATUS "${label}: ${err}")
  endif()
endfunction()

# Manifest values: the bad model sits on line 3, after a good one.
set(n 0)
foreach(overrides
    "workers=abc"
    "workers=4x"
    "workers="
    "workers=99999999999999999999"
    "workers=0"
    "workers=257"
    "intra_threads=257"
    "max_batch=1025"
    "queue_capacity=-1"
    "queue_capacity=1048577"
    "budget_mb=-1"
    "budget_mb=1048577"
    "queue_capacity=-1 budget_mb=-1 workers=abc")
  math(EXPR n "${n} + 1")
  set(manifest "${DIR}/bad_${n}.txt")
  file(WRITE "${manifest}" "# the bad value is on line 3\nok ${ARTIFACT}\nbad ${ARTIFACT} ${overrides}\n")
  string(REGEX REPLACE "=.*" "" key "${overrides}")
  expect_refused("manifest '${overrides}'" "manifest line 3: ${key}=" --manifest=${manifest})
endforeach()

# A key that is not a setting is an unknown override.
set(manifest "${DIR}/bad_unknown_key.txt")
file(WRITE "${manifest}" "# the bad value is on line 3\nok ${ARTIFACT}\nbad ${ARTIFACT} admit_depth=4\n")
expect_refused("manifest 'admit_depth=4'" "manifest line 3: unknown override 'admit_depth=4'"
  --manifest=${manifest})

# Flag values, over a good manifest.
set(good "${DIR}/good.txt")
file(WRITE "${good}" "ok ${ARTIFACT}\n")
foreach(flag
    "--workers=abc"
    "--workers=-1"
    "--workers=257"
    "--intra_threads=257"
    "--max_batch=1025"
    "--queue_capacity=1048577"
    "--budget_mb=1048577"
    "--port=65536"
    "--max_connections=4097"
    "--max_inflight=1048577"
    "--responders=257")
  string(REGEX REPLACE "=.*" "" name "${flag}")
  expect_refused("flag '${flag}'" "cq_serve: ${name}=" --manifest=${good} ${flag})
endforeach()

# The largest values that start no extra threads are accepted.
set(edge "${DIR}/edge.txt")
file(WRITE "${edge}"
  "edge ${ARTIFACT} workers=1 max_batch=1024 queue_capacity=1048576 budget_mb=1048576\n")
execute_process(
  COMMAND "${TOOL}" --manifest=${edge} --max_connections=4096 --max_inflight=1048576
    --port=0 --smoke
  RESULT_VARIABLE result
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 120)
if(NOT result EQUAL 0)
  message(SEND_ERROR "upper bounds refused: exit ${result}\nstdout: ${out}\nstderr: ${err}")
endif()
