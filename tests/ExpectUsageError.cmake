# Runs one tool invocation as a ctest and passes only if the tool rejects
# it as a usage error: exit status 2 and, on stderr, the tool's usage
# text or, when EXPECT is given, a match of that regex.
#
#   cmake -DTOOL=<path> -DARGS=<arg>|<arg>... [-DEXPECT=<regex>]
#         -P ExpectUsageError.cmake
#
# ARGS separates arguments with '|' so that one -D value carries them all.

string(REPLACE "|" ";" Args "${ARGS}")
execute_process(COMMAND "${TOOL}" ${Args}
                RESULT_VARIABLE Rc OUTPUT_QUIET ERROR_VARIABLE Err)
get_filename_component(Name "${TOOL}" NAME)
if(NOT EXPECT)
  set(EXPECT "usage: ${Name}")
endif()
if(NOT Rc EQUAL 2 OR NOT Err MATCHES "${EXPECT}")
  list(JOIN Args " " Shown)
  message(FATAL_ERROR "${Name} ${Shown}: exit status ${Rc}, expected 2 "
                      "with '${EXPECT}' on stderr; stderr:\n${Err}")
endif()
