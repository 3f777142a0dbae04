# One gate over the outputs its ctest fixtures wrote (see the shared
# runs in CMakeLists.txt). Each list element is one check, its fields
# separated by '|'; the checks run in this order:
#   -DSTRIP=<strip_metrics>|<in>|<out>  cut <in>'s metrics members
#                                       into <out>
#   -DSAME=<a>|<b>;...                  each pair is byte-identical
#   -DRUN=<command>|<arg>...;...        each command exits 0
# A failed comparison copies its pair into kept/ next to them, which the
# bench's cleanup test leaves in place.

if(STRIP)
  string(REPLACE "|" ";" strip "${STRIP}")
  list(POP_FRONT strip tool in out)
  execute_process(COMMAND ${tool} INPUT_FILE ${in} OUTPUT_FILE ${out}
                  RESULT_VARIABLE rc ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${tool} < ${in} failed (rc=${rc}): ${stderr}")
  endif()
endif()

foreach(pair IN LISTS SAME)
  string(REPLACE "|" ";" pair "${pair}")
  message(STATUS "compare ${pair}")
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${pair}
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    list(GET pair 0 a)
    list(GET pair 1 b)
    get_filename_component(kept ${a} DIRECTORY)
    file(COPY ${pair} DESTINATION ${kept}/kept)
    message(FATAL_ERROR "${a} and ${b} differ (copies in ${kept}/kept)")
  endif()
endforeach()

foreach(cmd IN LISTS RUN)
  string(REPLACE "|" " " shown "${cmd}")
  string(REPLACE "|" ";" cmd "${cmd}")
  execute_process(COMMAND ${cmd} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  message(STATUS "${shown}:\n${stdout}")
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${shown} failed (rc=${rc}):\n${stderr}")
  endif()
endforeach()
