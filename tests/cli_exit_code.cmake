# Runs one command-line invocation in an empty working directory and
# checks its exit code, and that it left no file behind there (a CLI that
# mistakes a bad flag for a run would write its default outputs).
#
#   cmake -DPROGRAM=<binary> -DARGS=<arg>[|<arg>...] -DEXPECT=<code>
#         -DWORK_DIR=<dir> -P cli_exit_code.cmake
#
# ARGS separates arguments with '|', which survives add_test unchanged.
string(REPLACE "|" ";" args "${ARGS}")
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND "${PROGRAM}" ${args}
                WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
file(GLOB left "${WORK_DIR}/*")
file(REMOVE_RECURSE "${WORK_DIR}")
if(NOT "${rc}" STREQUAL "${EXPECT}")
  message(FATAL_ERROR "exit code ${rc}, expected ${EXPECT}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT "${out}${err}" MATCHES "usage:")
  message(FATAL_ERROR "no usage printed\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(left)
  message(FATAL_ERROR "left files behind: ${left}")
endif()
