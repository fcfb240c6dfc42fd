# Golden-file check for the analyzer's SARIF 2.1.0 writer. Runs the tool
# over tools/sarif_fixture/ and compares the report byte-for-byte against
# the committed expected.sarif — the writer emits repo-relative URIs under
# uriBaseId SRCROOT and no timestamps, so the output is deterministic
# across machines. Invoked by the lint.sarif_golden ctest entry as:
#   cmake -DANALYZER=<tool> -DFIXTURE_ROOT=<dir> -DGOLDEN=<file>
#         -DOUT=<scratch> -P sarif_golden_test.cmake

foreach(var ANALYZER FIXTURE_ROOT GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "sarif_golden_test: -D${var}=... is required")
  endif()
endforeach()

execute_process(
  COMMAND "${ANALYZER}" --root "${FIXTURE_ROOT}" --format sarif
          --output "${OUT}"
  RESULT_VARIABLE scan_rc)
# The fixture contains deliberate findings, so the contract exit code is 1;
# anything else means the scan itself misbehaved.
if(NOT scan_rc EQUAL 1)
  message(FATAL_ERROR
          "sarif_golden_test: expected exit 1 (findings), got '${scan_rc}'")
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUT}" "${GOLDEN}"
  RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR
          "sarif_golden_test: ${OUT} differs from ${GOLDEN}; if the writer "
          "changed intentionally, regenerate the golden (header comment in "
          "tools/sarif_fixture/core/sample.cpp has the command)")
endif()
