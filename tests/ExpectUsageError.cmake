# Runs one tool invocation as a ctest and passes only if the tool rejects
# it as a usage error: exit status 2 and the tool's usage text on stderr.
#
#   cmake -DTOOL=<path> -DARGS=<arg>|<arg>... -P ExpectUsageError.cmake
#
# ARGS separates arguments with '|' so that one -D value carries them all.

string(REPLACE "|" ";" Args "${ARGS}")
execute_process(COMMAND "${TOOL}" ${Args}
                RESULT_VARIABLE Rc OUTPUT_QUIET ERROR_VARIABLE Err)
get_filename_component(Name "${TOOL}" NAME)
if(NOT Rc EQUAL 2 OR NOT Err MATCHES "usage: ${Name}")
  list(JOIN Args " " Shown)
  message(FATAL_ERROR "${Name} ${Shown}: exit status ${Rc}, expected 2 "
                      "with its usage message; stderr:\n${Err}")
endif()
