# CTest check: run_scenario must reject bad input with a message on
# stderr and exit status 2, not abort.
#
#   cmake -DRUN_SCENARIO=<exe> -DCASE=<case> -P run_scenario_rejects.cmake
if(CASE STREQUAL "unknown-name")
  set(arg no-such-scenario)
  set(expect "unknown scenario: no-such-scenario.*crash-mid-ring")
elseif(CASE STREQUAL "unparsable-spec")
  set(arg "${CMAKE_CURRENT_BINARY_DIR}/unparsable_spec.json")
  file(WRITE "${arg}" "{\"harness\": ")
  set(expect "invalid scenario spec")
elseif(CASE STREQUAL "invalid-spec")
  set(arg "${CMAKE_CURRENT_BINARY_DIR}/invalid_spec.json")
  file(WRITE "${arg}" "{\"tree\": {}}")
  set(expect "invalid scenario spec.*needs a harness")
else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()

execute_process(COMMAND "${RUN_SCENARIO}" "${arg}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "exit status '${rc}', want 2; stderr:\n${err}")
endif()
if(NOT err MATCHES "${expect}")
  message(FATAL_ERROR "stderr does not match '${expect}':\n${err}")
endif()
