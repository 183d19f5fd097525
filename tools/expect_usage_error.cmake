# Runs TOOL with the single argument ARG and passes only when the tool exits
# with the usage-error status 2 and names FLAG on stderr — not an abort, and
# not a run on a misread value.
#   cmake -DTOOL=<path> -DARG=<--flag=value> -DFLAG=<--flag> -P expect_usage_error.cmake
execute_process(COMMAND "${TOOL}" "${ARG}" RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "${TOOL} ${ARG}: exit status '${rc}', expected 2\n${err}")
endif()
string(FIND "${err}" "${FLAG}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${TOOL} ${ARG}: stderr does not name ${FLAG}:\n${err}")
endif()
