# Observer-effect gate: observing a run must not change its results.
# Runs a bench binary three times -- plain, with --trace, and with
# --trace --metrics -- and fails unless
#   (a) the plain and --trace JSON documents are byte-identical, and
#   (b) the --trace --metrics document equals the plain one byte for
#       byte once each point's "metrics" member (the sampled time
#       series the flag adds) is cut out.
# A pass removes the three JSON documents; a failure keeps the ones its
# message names.
# Invoked by ctest (see add_test in CMakeLists.txt) with:
#   -DBENCH=<path to bench binary> -DWORKDIR=<scratch dir> -DNAME=<id>

set(scale 256)
set(json_plain ${WORKDIR}/${NAME}_plain.json)
set(json_trace ${WORKDIR}/${NAME}_trace.json)
set(json_metrics ${WORKDIR}/${NAME}_metrics.json)
set(trace_out ${WORKDIR}/${NAME}_observed.trace.json)

foreach(run "${json_plain}"
            "${json_trace};--trace;${trace_out}"
            "${json_metrics};--trace;${trace_out};--metrics")
  list(POP_FRONT run out)
  execute_process(
    COMMAND ${BENCH} ${scale} --json ${out} ${run}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "${BENCH} ${run} failed (rc=${rc}):\n${stdout}\n${stderr}")
  endif()
  # Only the JSON is compared; the trace can run to hundreds of MB.
  file(REMOVE ${trace_out})
endforeach()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${json_plain} ${json_trace}
                RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR
          "--trace changed the reported stats: ${json_plain} vs "
          "${json_trace} differ")
endif()

# Cut every point's "metrics" member out of ${json_metrics}. The sweep
# runner writes it as the point's last member, six spaces deep, and
# everything inside it sits deeper, so the member runs from
# ',\n      "metrics": {' to the next '\n      }'. The file is walked
# in chunks because it can exceed 100 MB, and string(JSON) would
# reparse the whole document once per point.
set(open ",\n      \"metrics\": {")
set(close "\n      }")
string(LENGTH "${open}" open_len)
string(LENGTH "${close}" close_len)
set(chunk_len 1048576)
file(SIZE ${json_metrics} size)
set(pos 0)
set(in_metrics FALSE)
set(stripped "")
while(pos LESS size)
  file(READ ${json_metrics} chunk OFFSET ${pos} LIMIT ${chunk_len})
  string(LENGTH "${chunk}" got)
  math(EXPR chunk_end "${pos} + ${got}")
  if(in_metrics)
    string(FIND "${chunk}" "${close}" at)
    if(at EQUAL -1 AND chunk_end EQUAL size)
      message(FATAL_ERROR "${json_metrics}: unterminated metrics member")
    elseif(at EQUAL -1)
      # Re-read the tail in case the marker straddles the boundary.
      math(EXPR pos "${chunk_end} - ${close_len} + 1")
    else()
      math(EXPR pos "${pos} + ${at} + ${close_len}")
      set(in_metrics FALSE)
    endif()
  else()
    string(FIND "${chunk}" "${open}" at)
    if(at EQUAL -1)
      if(chunk_end EQUAL size)
        set(at ${got})
      else()
        math(EXPR at "${got} - ${open_len} + 1")
      endif()
    else()
      set(in_metrics TRUE)
    endif()
    string(SUBSTRING "${chunk}" 0 ${at} head)
    string(APPEND stripped "${head}")
    math(EXPR pos "${pos} + ${at}")
  endif()
endwhile()

file(READ ${json_plain} plain)
if(NOT stripped STREQUAL plain)
  file(WRITE ${WORKDIR}/${NAME}_stripped.json "${stripped}")
  message(FATAL_ERROR
          "--metrics changed the reported stats: ${json_plain} vs "
          "${WORKDIR}/${NAME}_stripped.json (${json_metrics} without its"
          " metrics members) differ")
endif()

file(REMOVE ${json_plain} ${json_trace} ${json_metrics})
