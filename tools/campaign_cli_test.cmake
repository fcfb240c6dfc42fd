# Input-surface check for alertsim-campaign. A flag the driver does not
# honour, a value it cannot parse or a spec it cannot use must fail loudly
# (exit 2 with one message on stderr), never run the sweep and quietly skip
# what was asked for. Invoked by the campaign.cli_rejects_flags ctest entry
# as:
#   cmake -DCAMPAIGN=<tool> -DOUT=<scratch dir> -P campaign_cli_test.cmake

foreach(var CAMPAIGN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "campaign_cli_test: -D${var}=... is required")
  endif()
endforeach()

# One analytical figure.
set(TOOL "${CAMPAIGN}")
set(BASE_ARGS --figure fig07a_possible_nodes --no-cache --out-dir "${OUT}")
include(${CMAKE_CURRENT_LIST_DIR}/expect_usage_error.cmake)

# --metrics-out names one file, but the driver writes one manifest per
# campaign; the message must point at the flag that does the job.
expect_usage_error("--out-dir DIR.*DIR/<name>\\.json"
                   --metrics-out "${OUT}/m.json")

foreach(flag worker worker-id workers aggregate lease-ttl max-retries
        dist-summary force)
  expect_usage_error("unknown flag --${flag}" --${flag} 1)
endforeach()

# A number that does not parse whole is a usage error that names the value,
# never 3 reps and never an "unknown flag".
expect_usage_error("bad value '3x' for --reps" --reps 3x)
expect_usage_error("bad value 'abc' for --threads" --threads abc)

# --reps is bounded as alertsim_cli and the spec loader bound it. The
# figure is analytical (no units), so even a driver that accepted the value
# would expand nothing.
expect_usage_error("--reps must be in 0\\.\\.100000" --reps 100001)

# A spec load error names the file once.
set(bad_spec "${OUT}/bad_key.json")
file(WRITE "${bad_spec}" [=[{"schema": "alertsim-campaign-spec/1", "name": "bad_key",
 "y_metric": "delivery_rate", "base": {"nodez": 40},
 "x": {"param": "speed_mps", "values": [1]}}
]=])
expect_usage_error(
  "^alertsim-campaign: ${bad_spec}: base: unknown scenario parameter 'nodez'\n$"
  --spec "${bad_spec}")

# An invalid point is reported once, by the main thread, before any unit
# runs — not once per pool worker that reaches it — and before the
# campaign's banner: stdout stays empty.
set(bad_point "${OUT}/one_node.json")
file(WRITE "${bad_point}" [=[{"schema": "alertsim-campaign-spec/1", "name": "one_node",
 "y_metric": "delivery_rate", "base": {"node_count": 1},
 "x": {"param": "speed_mps", "values": [1, 2]}}
]=])
execute_process(
  COMMAND "${CAMPAIGN}" --spec "${bad_point}" --threads 2 --no-cache
          --out-dir "${OUT}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
string(REGEX MATCHALL "invalid scenario" reports "${err}")
list(LENGTH reports n)
if(NOT rc EQUAL 2 OR NOT n EQUAL 1)
  message(FATAL_ERROR
          "invalid point: expected exit 2 and one report, got '${rc}':\n${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "invalid point: expected empty stdout, got:\n${out}")
endif()
