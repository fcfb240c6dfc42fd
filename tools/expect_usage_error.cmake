# expect_usage_error(<stderr regex> <flag...>): run ${TOOL} ${BASE_ARGS}
# with the flags appended and require exit 2 and a matching stderr. A flag
# a driver does not honour must fail loudly, never run and quietly skip
# what the flag asked for. Included by the drivers' flag-surface scripts
# (campaign_cli_test.cmake, analyzer_cli_test.cmake).

function(expect_usage_error pattern)
  execute_process(
    COMMAND "${TOOL}" ${BASE_ARGS} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "'${ARGN}' expected exit 2, got '${rc}'")
  endif()
  if(NOT err MATCHES "${pattern}")
    message(FATAL_ERROR
            "'${ARGN}' stderr does not match '${pattern}':\n${err}")
  endif()
endfunction()
