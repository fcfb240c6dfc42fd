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

# expect_usage_error(<stderr regex> <flag...>): run one analytical figure
# with the flags appended and require exit 2 and a matching stderr.
function(expect_usage_error pattern)
  execute_process(
    COMMAND "${CAMPAIGN}" --figure fig07a_possible_nodes --no-cache
            --out-dir "${OUT}" ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
            "campaign_cli_test: '${ARGN}' expected exit 2, got '${rc}'")
  endif()
  if(NOT err MATCHES "${pattern}")
    message(FATAL_ERROR
            "campaign_cli_test: '${ARGN}' stderr does not match "
            "'${pattern}':\n${err}")
  endif()
endfunction()

# --metrics-out names one file, but the driver writes one manifest per
# campaign; the message must point at the flag that does the job.
expect_usage_error("--out-dir DIR.*DIR/<name>\\.json"
                   --metrics-out "${OUT}/m.json")

foreach(flag worker worker-id workers aggregate lease-ttl max-retries
        dist-summary)
  expect_usage_error("unknown flag --${flag}" --${flag} 1)
endforeach()
