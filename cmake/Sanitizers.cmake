# Sanitizers.cmake — uniform sanitizer wiring for every target in the tree.
#
# Usage:
#   cmake -DALERTSIM_SANITIZE="address;undefined"   # ASan + UBSan
#   cmake -DALERTSIM_SANITIZE="thread"              # TSan
#   cmake -DALERTSIM_SANITIZE="memory"              # MSan (clang only)
#
# The flags are applied globally (add_compile_options/add_link_options) so
# src, tests, tools and examples are all instrumented identically — mixing
# instrumented and uninstrumented TUs produces false negatives.
#
# Suppression files live in tools/sanitizers/ and are exported through
# ALERTSIM_SANITIZER_TEST_ENV, which every test process gets: the gtest
# tests through tests/CMakeLists.txt, the others through
# alertsim_attach_sanitizer_env().

set(ALERTSIM_SANITIZE "" CACHE STRING
    "Semicolon list of sanitizers: address;undefined | thread | memory")

set(ALERTSIM_SANITIZER_TEST_ENV "")

# Attach ALERTSIM_SANITIZER_TEST_ENV to every test the calling directory has
# registered so far.
function(alertsim_attach_sanitizer_env)
  if(ALERTSIM_SANITIZER_TEST_ENV)
    get_property(tests DIRECTORY PROPERTY TESTS)
    set_tests_properties(${tests}
      PROPERTIES ENVIRONMENT "${ALERTSIM_SANITIZER_TEST_ENV}")
  endif()
endfunction()

if(NOT ALERTSIM_SANITIZE)
  return()
endif()

if(CMAKE_CXX_COMPILER_ID STREQUAL "MSVC")
  message(FATAL_ERROR "ALERTSIM_SANITIZE is only supported for GCC/Clang")
endif()

set(_alertsim_san_flags "")
foreach(_san IN LISTS ALERTSIM_SANITIZE)
  if(_san STREQUAL "address")
    list(APPEND _alertsim_san_flags -fsanitize=address)
  elseif(_san STREQUAL "undefined")
    list(APPEND _alertsim_san_flags -fsanitize=undefined
         -fno-sanitize-recover=undefined)
  elseif(_san STREQUAL "thread")
    list(APPEND _alertsim_san_flags -fsanitize=thread)
  elseif(_san STREQUAL "memory")
    if(NOT CMAKE_CXX_COMPILER_ID MATCHES "Clang")
      message(FATAL_ERROR
        "MemorySanitizer requires clang; current compiler is "
        "${CMAKE_CXX_COMPILER_ID}. Use -DALERTSIM_SANITIZE=address;undefined "
        "or switch CMAKE_CXX_COMPILER to clang++.")
    endif()
    list(APPEND _alertsim_san_flags -fsanitize=memory
         -fsanitize-memory-track-origins)
  elseif(_san STREQUAL "leak")
    list(APPEND _alertsim_san_flags -fsanitize=leak)
  else()
    message(FATAL_ERROR "Unknown sanitizer '${_san}' in ALERTSIM_SANITIZE")
  endif()
endforeach()

# ASan and TSan are mutually exclusive instrumentation modes.
if("address" IN_LIST ALERTSIM_SANITIZE AND "thread" IN_LIST ALERTSIM_SANITIZE)
  message(FATAL_ERROR "address and thread sanitizers cannot be combined")
endif()

list(REMOVE_DUPLICATES _alertsim_san_flags)
message(STATUS "alertsim: sanitizers enabled: ${ALERTSIM_SANITIZE}")

add_compile_options(${_alertsim_san_flags} -fno-omit-frame-pointer -g)
add_link_options(${_alertsim_san_flags})

# Runtime options, including suppressions, handed to every test process.
set(_supp_dir ${PROJECT_SOURCE_DIR}/tools/sanitizers)
if("address" IN_LIST ALERTSIM_SANITIZE)
  list(APPEND ALERTSIM_SANITIZER_TEST_ENV
    "ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1:detect_stack_use_after_return=1:check_initialization_order=1:suppressions=${_supp_dir}/asan.supp"
    "LSAN_OPTIONS=suppressions=${_supp_dir}/lsan.supp")
endif()
if("undefined" IN_LIST ALERTSIM_SANITIZE)
  list(APPEND ALERTSIM_SANITIZER_TEST_ENV
    "UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1:suppressions=${_supp_dir}/ubsan.supp")
endif()
if("thread" IN_LIST ALERTSIM_SANITIZE)
  list(APPEND ALERTSIM_SANITIZER_TEST_ENV
    "TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1:suppressions=${_supp_dir}/tsan.supp")
endif()
