# Runs each experiment bench and compares its stdout, byte for byte, with
# the committed table tests/etables/<bench>.txt. The tables are seeded and
# deterministic, so any difference is a change in an experiment's result.
#
#   cmake -DBENCHES=<path>,<path>,... -DEXPECTED_DIR=<dir> -DACTUAL_DIR=<dir>
#         -P check_etables.cmake
#
# With EVO_ETABLES_REGEN set in the environment, the committed tables are
# rewritten instead (after an intentional change; review the diff).
string(REPLACE "," ";" benches "${BENCHES}")
set(failures "")
foreach(bench IN LISTS benches)
  get_filename_component(name "${bench}" NAME)
  execute_process(COMMAND "${bench}" OUTPUT_VARIABLE actual
                  RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    list(APPEND failures "${name}: exited with ${status}")
    continue()
  endif()
  set(expected_file "${EXPECTED_DIR}/${name}.txt")
  if(DEFINED ENV{EVO_ETABLES_REGEN})
    file(WRITE "${expected_file}" "${actual}")
    continue()
  endif()
  if(NOT EXISTS "${expected_file}")
    list(APPEND failures "${name}: no committed table ${expected_file}")
    continue()
  endif()
  file(READ "${expected_file}" expected)
  if(NOT actual STREQUAL expected)
    file(WRITE "${ACTUAL_DIR}/${name}.txt" "${actual}")
    list(APPEND failures
         "${name}: output differs (diff ${expected_file} ${ACTUAL_DIR}/${name}.txt)")
  endif()
endforeach()
if(failures)
  string(REPLACE ";" "\n  " report "${failures}")
  message(FATAL_ERROR "E-tables differ from the committed ones:\n  ${report}\n"
          "After an intentional change, regenerate with EVO_ETABLES_REGEN=1 "
          "and commit the refreshed tables.")
endif()
