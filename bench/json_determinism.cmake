# Runs a bench binary twice -- serial and with 8 worker threads -- and
# fails unless the two JSON documents and the two Chrome trace
# documents are byte-identical. Both runs pass --metrics, so the JSON
# compared carries every sampled time series as well. A pass removes
# all four outputs; a failure keeps the pair its message names. Invoked
# by ctest (see add_test in CMakeLists.txt) with:
#   -DBENCH=<path to bench binary> -DWORKDIR=<scratch dir> -DNAME=<id>
# A large scale divisor keeps the runtime in seconds while still
# executing every sweep point.

set(scale 256)
set(json1 ${WORKDIR}/${NAME}_t1.json)
set(json8 ${WORKDIR}/${NAME}_t8.json)
set(trace1 ${WORKDIR}/${NAME}_t1.trace.json)
set(trace8 ${WORKDIR}/${NAME}_t8.trace.json)

foreach(cfg "1;${json1};${trace1}" "8;${json8};${trace8}")
  list(GET cfg 0 threads)
  list(GET cfg 1 out)
  list(GET cfg 2 trace_out)
  execute_process(
    COMMAND ${BENCH} ${scale} --threads ${threads} --json ${out}
            --trace ${trace_out} --metrics
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "${BENCH} --threads ${threads} failed (rc=${rc}):\n"
            "${stdout}\n${stderr}")
  endif()
endforeach()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${json1} ${json8}
                RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR
          "JSON output differs between --threads 1 and --threads 8: "
          "${json1} vs ${json8}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${trace1} ${trace8}
                RESULT_VARIABLE trace_diff)
if(NOT trace_diff EQUAL 0)
  message(FATAL_ERROR
          "trace output differs between --threads 1 and --threads 8: "
          "${trace1} vs ${trace8}")
endif()

file(REMOVE ${json1} ${json8} ${trace1} ${trace8})
