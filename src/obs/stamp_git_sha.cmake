# Writes `#define ORP_GIT_SHA "<short sha>"` to OUTPUT, naming the commit
# checked out at SOURCE_DIR ("unknown" outside git or without git). The
# file is rewritten only when its line changes, so an unchanged HEAD
# leaves its timestamp, and every object that includes it, alone.
#
#   cmake -DSOURCE_DIR=<dir> -DOUTPUT=<header> -P stamp_git_sha.cmake
execute_process(
  COMMAND git rev-parse --short HEAD
  WORKING_DIRECTORY ${SOURCE_DIR}
  OUTPUT_VARIABLE sha
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET
  RESULT_VARIABLE result)
if(NOT result EQUAL 0 OR sha STREQUAL "")
  set(sha "unknown")
endif()
set(line "#define ORP_GIT_SHA \"${sha}\"\n")
set(old "")
if(EXISTS ${OUTPUT})
  file(READ ${OUTPUT} old)
endif()
if(NOT old STREQUAL line)
  file(WRITE ${OUTPUT} ${line})
endif()
