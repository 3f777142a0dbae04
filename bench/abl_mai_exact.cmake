# Exact accelerator-timing gate: runs bench_abl_mai (TreeWide through
# the SU/DU/MAI model at seven MAI sizes) and requires every reported
# simulated time to equal the committed baseline bit for bit
# (--tolerance 0). A host-speed change to the Cereal format, the
# accelerator model or the event queue must not move any of them.
# Invoked by ctest with:
#   -DBENCH=<bench_abl_mai> -DCOMPARE=<bench_compare>
#   -DBASELINE=<tests/baselines/BENCH_abl_mai.json> -DWORKDIR=<dir>

set(fresh ${WORKDIR}/BENCH_abl_mai_exact.json)

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
          "accelerator timing drifted from the baseline (rc=${rc}):\n"
          "${stdout}\n${stderr}")
endif()
