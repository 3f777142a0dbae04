# Wall-clock smoke for simulator speed: runs bench_sim_speed and
# gates its measured rates against the committed baseline with
# ONE-SIDED floors -- only a >2x collapse in any units-per-second rate
# fails. Wall seconds and repeat counts jitter with machine load, so
# they get an effectively-unbounded tolerance; the simulated quantities
# (events, bursts, sim ticks, requests) stay on the default exact-ish
# band.
# Invoked by ctest with:
#   -DBENCH=<bench_sim_speed> -DCOMPARE=<bench_compare>
#   -DBASELINE=<tests/baselines/BENCH_sim_speed.json> -DWORKDIR=<dir>
# Re-record the baseline with CEREAL_UPDATE_BASELINES=1 in the
# environment (on a quiet machine).

set(fresh ${WORKDIR}/BENCH_sim_speed_fresh.json)

execute_process(
  COMMAND ${BENCH} --json ${fresh}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "${BENCH} failed (rc=${rc}):\n${stdout}\n${stderr}")
endif()

execute_process(
  COMMAND ${COMPARE} ${fresh} ${BASELINE}
          --floor per_sec=0.5
          --tolerance wall_seconds=1e18
          --tolerance repeats=1e18
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
message(STATUS "bench_compare:\n${stdout}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "simulator speed regressed past the floor (rc=${rc}):\n"
          "${stdout}\n${stderr}")
endif()
