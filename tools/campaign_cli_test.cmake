# Flag-surface check for alertsim-campaign. A flag the driver does not
# honour must fail loudly (exit 2 with a message on stderr), never run the
# sweep and quietly skip what the flag asked for. Invoked by the
# campaign.cli_rejects_flags ctest entry as:
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
        dist-summary)
  expect_usage_error("unknown flag --${flag}" --${flag} 1)
endforeach()
