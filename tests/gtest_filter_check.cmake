# Checks that every gtest filter pattern selects at least one test. gtest
# exits 0 when a filter matches nothing, so a renamed suite would
# otherwise drop out of a sanitizer aggregate silently.
#
#   cmake -DPROGRAM=<gtest binary> -DPATTERNS=<pattern>[:<pattern>...]
#         -P gtest_filter_check.cmake
#
# Each ':'-separated pattern is listed on its own with --gtest_list_tests;
# listed tests are the output lines indented by two spaces.
string(REPLACE ":" ";" patterns "${PATTERNS}")
list(REMOVE_DUPLICATES patterns)
set(empty "")
foreach(pattern ${patterns})
  execute_process(COMMAND "${PROGRAM}" --gtest_list_tests
                          "--gtest_filter=${pattern}"
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "listing '${pattern}' exited ${rc}\n${out}${err}")
  endif()
  string(REGEX MATCHALL "(^|\n)  [^\n]" tests "${out}")
  list(LENGTH tests count)
  if(count EQUAL 0)
    list(APPEND empty "${pattern}")
  endif()
endforeach()
list(LENGTH patterns total)
if(empty)
  message(FATAL_ERROR "filter patterns matching no test: ${empty}")
endif()
message(STATUS "${total} filter patterns, each matching at least one test")
