# Runs TOOL with the arguments ARGS (a list) and passes only when the tool
# exits with status STATUS and names NEEDLE on stderr — not an abort, and not
# a run on a misread value or a silently dropped report.
#   cmake -DTOOL=<path> -DARGS=<arg>[;<arg>...] -DSTATUS=<code> -DNEEDLE=<text>
#         -P expect_exit.cmake
execute_process(COMMAND "${TOOL}" ${ARGS} RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT rc STREQUAL "${STATUS}")
  message(FATAL_ERROR "${TOOL} ${ARGS}: exit status '${rc}', expected ${STATUS}\n${err}")
endif()
string(FIND "${err}" "${NEEDLE}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${TOOL} ${ARGS}: stderr does not name ${NEEDLE}:\n${err}")
endif()
