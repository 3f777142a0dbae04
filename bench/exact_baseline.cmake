# Exact baseline gate: runs a bench at scale 256 and requires every
# reported metric to equal the committed baseline bit for bit
# (--tolerance 0). A host-speed change to the Cereal format, the
# accelerator or cache model, or the event loop must not move any of
# them.
# Invoked by ctest with:
#   -DBENCH=<bench binary> -DCOMPARE=<bench_compare>
#   -DBASELINE=<tests/baselines/BENCH_<name>.json> -DWORKDIR=<dir>
#   -DNAME=<gate name, used for the fresh JSON's file name>

set(fresh ${WORKDIR}/BENCH_${NAME}.json)

execute_process(
  COMMAND ${BENCH} 256 --json ${fresh}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "${BENCH} failed (rc=${rc}):\n${stdout}\n${stderr}")
endif()

execute_process(
  COMMAND ${COMPARE} ${fresh} ${BASELINE} --tolerance 0
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
message(STATUS "bench_compare:\n${stdout}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "${NAME}: simulated output drifted from ${BASELINE} (rc=${rc}):\n"
          "${stdout}\n${stderr}")
endif()
