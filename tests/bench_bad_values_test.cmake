# The benches and examples must refuse a bad integer flag as the tools
# do: exit 2 before any work starts, naming --key=value. Before they
# checked, `kernel_scaling --repeat=abc` aborted on an uncaught
# std::invalid_argument (exit 134) and `--repeat=0` timed nothing and
# exited 0. No value tried here would start more than 4 threads if it
# were accepted. A small run of kernel_scaling (at its --assert-threads
# upper bound) and of plan_profile must still pass.
#
# Driven as: cmake -DKERNEL_SCALING=<bin> -DPLAN_PROFILE=<bin>
#   -DQUICKSTART=<bin> -P <this>

foreach(var KERNEL_SCALING PLAN_PROFILE QUICKSTART)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_bad_values_test: -D${var}=... is required")
  endif()
endforeach()

# Runs `tool` with ARGN and requires exit 2, a stderr naming
# "<name>: <flag>=" and an empty stdout (nothing ran).
function(expect_refused tool name flag)
  execute_process(
    COMMAND "${tool}" ${ARGN} ${flag}
    RESULT_VARIABLE result
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 120)
  string(REGEX REPLACE "=.*" "=" key "${flag}")
  if(NOT result EQUAL 2)
    message(SEND_ERROR "${name} '${flag}': exit ${result}, expected 2\nstdout: ${out}\nstderr: ${err}")
  elseif(NOT err MATCHES "^${name}: ${key}")
    message(SEND_ERROR "${name} '${flag}': stderr does not name ${key}: ${err}")
  elseif(NOT out STREQUAL "")
    message(SEND_ERROR "${name} '${flag}': work started before the refusal: ${out}")
  else()
    message(STATUS "${name} '${flag}': ${err}")
  endif()
endfunction()

# Runs `tool` with ARGN and requires exit 0.
function(expect_accepted tool name)
  execute_process(
    COMMAND "${tool}" ${ARGN}
    RESULT_VARIABLE result
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 300)
  if(NOT result EQUAL 0)
    message(SEND_ERROR "${name} ${ARGN}: exit ${result}, expected 0\nstderr: ${err}")
  endif()
endfunction()

# A run short enough to finish at once when a value is accepted.
set(small --backends=scalar --threads=1 --repeat=1)
foreach(flag "--repeat=abc" "--repeat=0" "--repeat=-1" "--repeat=2x" "--repeat="
             "--threads=0" "--threads=1,abc" "--assert-threads=0" "--assert-threads=257")
  expect_refused("${KERNEL_SCALING}" kernel_scaling "${flag}" ${small})
endforeach()
expect_accepted("${KERNEL_SCALING}" kernel_scaling ${small} --assert-threads=256)

foreach(flag "--repeat=abc" "--repeat=0" "--batch=0" "--batch=65537" "--batch=1.5")
  expect_refused("${PLAN_PROFILE}" plan_profile "${flag}" --fast --repeat=1 --batch=1)
endforeach()
expect_accepted("${PLAN_PROFILE}" plan_profile --fast --repeat=1 --batch=1)

# An accepted quickstart trains for seconds, so only refusals run here.
foreach(flag "--epochs=abc" "--epochs=-1" "--epochs=1.5" "--epochs=99999999999")
  expect_refused("${QUICKSTART}" quickstart "${flag}")
endforeach()
