# Runs PROGRAM with ARGS ('|'-separated) and fails unless it exits with
# status EXPECT_EXIT and its stderr contains EXPECT_STDERR.
#
#   cmake -DPROGRAM=reconf_cli "-DARGS=generate|--n=abc" -DEXPECT_EXIT=2 \
#         "-DEXPECT_STDERR=invalid value for --n: 'abc'" -P expect_exit.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND ${PROGRAM} ${args}
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT status STREQUAL EXPECT_EXIT)
  message(FATAL_ERROR "exit status '${status}', expected ${EXPECT_EXIT}\n"
                      "stderr: ${err}")
endif()
string(FIND "${err}" "${EXPECT_STDERR}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr lacks \"${EXPECT_STDERR}\"\nstderr: ${err}")
endif()
