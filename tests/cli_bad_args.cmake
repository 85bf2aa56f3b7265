# A command-line tool handed a bad argument must fail cleanly: exit
# status 2 (not an abort, not a silent success) and a stderr diagnostic
# that names the offending token.
#
#   cmake -DCLI=<binary> "-DARGS=<arguments>" -DTOKEN=<bad token> \
#         -P cli_bad_args.cmake
#
# CMakeLists.txt registers one ctest entry per tool.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CLI}" ${args}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 120)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR
    "${CLI} ${ARGS}: exit status `${status}`, want 2\nstderr:\n${err}")
endif()
string(FIND "${err}" "${TOKEN}" at)
if(at EQUAL -1)
  message(FATAL_ERROR
    "${CLI} ${ARGS}: stderr does not name `${TOKEN}`:\n${err}")
endif()
