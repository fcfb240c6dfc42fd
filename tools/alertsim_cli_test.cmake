# Input-surface check for alertsim_cli. Every flag but the driver's own is
# a canonical scenario key, parsed strictly: a misspelt key or a bad value
# exits 2 with a message, never runs some other scenario. Invoked by the
# examples.alertsim_cli_flags ctest entry as:
#   cmake -DCLI=<alertsim_cli> -P alertsim_cli_test.cmake

if(NOT DEFINED CLI)
  message(FATAL_ERROR "alertsim_cli_test: -DCLI=... is required")
endif()

# A short scenario, so a wrongly accepted flag still finishes quickly.
set(TOOL "${CLI}")
set(BASE_ARGS --node_count 20 --flow_count 2 --duration_s 5 --reps 1)
include(${CMAKE_CURRENT_LIST_DIR}/expect_usage_error.cmake)

expect_usage_error("bad value 'gspr' for scenario parameter 'protocol'"
                   --protocol gspr)
expect_usage_error("bad value 'grop' for scenario parameter 'mobility'"
                   --mobility grop)
expect_usage_error("unknown scenario parameter 'nodez'" --nodez 40)
expect_usage_error("bad value '-1' for scenario parameter 'node_count'"
                   --node_count -1)
expect_usage_error("bad value '2x' for --reps" --reps 2x)

# A pinned CSV row: the determinism contract, observed through this
# driver's canonical-key flags.
execute_process(
  COMMAND "${CLI}" --protocol alert --node_count 60 --duration_s 30
          --flow_count 4 --reps 2 --seed 9 --csv
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
set(row "ALERT,60,2,30,2,0.9821,23.202,78.757,5.275,29.12,1.670,0.325,0.48982,0.000,0.000")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "CSV run exited ${rc}:\n${err}")
endif()
string(FIND "${out}" "\n${row}\n" at)
if(at EQUAL -1)
  message(FATAL_ERROR "CSV row changed; expected\n${row}\ngot:\n${out}")
endif()
