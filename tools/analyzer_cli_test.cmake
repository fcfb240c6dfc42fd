# Flag-surface check for alertsim-analyzer: the flags of the deleted header
# compile pass and diff mode are unknown flags, and a negative --threads is
# a usage error. Invoked by the lint.analyzer_rejects_flags ctest entry as:
#   cmake -DANALYZER=<tool> -P analyzer_cli_test.cmake

if(NOT DEFINED ANALYZER)
  message(FATAL_ERROR "analyzer_cli_test: -DANALYZER=... is required")
endif()

# A one-file tree, so a driver that wrongly accepts a flag exits quickly.
set(TOOL "${ANALYZER}")
set(BASE_ARGS --root "${CMAKE_CURRENT_LIST_DIR}/sarif_fixture")
include(${CMAKE_CURRENT_LIST_DIR}/expect_usage_error.cmake)

expect_usage_error("unknown flag --skip-headers" --skip-headers)
expect_usage_error("unknown flag --cxx" --cxx g++)
expect_usage_error("unknown flag --diff-base" --diff-base origin/main)
expect_usage_error("--threads must be >= 0" --threads=-1)
