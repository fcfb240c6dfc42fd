# Stamp obs::build_version() at build time: write `git describe` of the
# source tree to OUT as `#define ALERTSIM_BUILD_VERSION "<describe>"`.
# OUT is replaced only when its text changes, so an unchanged version
# rebuilds nothing. A tree without git (no executable, or an exported
# archive with no repository) stamps "unknown". Run by the
# alertsim_build_version target (src/obs/CMakeLists.txt) on every build:
#   cmake -DSOURCE_DIR=<tree> -DOUT=<file> [-DGIT_EXECUTABLE=<git>] \
#         -P BuildVersion.cmake

set(version "unknown")
if(GIT_EXECUTABLE)
  execute_process(
    COMMAND "${GIT_EXECUTABLE}" describe --always --dirty --tags
    WORKING_DIRECTORY "${SOURCE_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE describe
    OUTPUT_STRIP_TRAILING_WHITESPACE
    ERROR_QUIET)
  if(rc EQUAL 0 AND NOT describe STREQUAL "")
    set(version "${describe}")
  endif()
endif()

file(WRITE "${OUT}.tmp" "#define ALERTSIM_BUILD_VERSION \"${version}\"\n")
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E copy_if_different "${OUT}.tmp" "${OUT}")
file(REMOVE "${OUT}.tmp")
