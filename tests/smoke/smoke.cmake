# Run one smoke: the example binaries write their outputs into DIR, then
# the smoke's Python assertions (SMOKE_smoke.py) read them there.
#
#   cmake -DSMOKE=<observability|fleet> -DEXAMPLES=<examples bin dir>
#         -DPYTHON=<python3> -DDIR=<work dir> -P smoke.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")

# run(<out> <merge-stderr> <command...>): run in DIR, stdout to <out>.
function(run out merge)
    if(merge)
        set(err ERROR_FILE "${DIR}/${out}")
    endif()
    execute_process(COMMAND ${ARGN} WORKING_DIRECTORY "${DIR}"
                    OUTPUT_FILE "${DIR}/${out}" ${err}
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${ARGN} exited with ${rc}")
    endif()
endfunction()

if(SMOKE STREQUAL "observability")
    run(appliance.out FALSE "${EXAMPLES}/web_appliance" --trace=out.json
        --check --metrics-format=prom)
    run(json_tool.out FALSE "${PYTHON}" -m json.tool out.json)
elseif(SMOKE STREQUAL "fleet")
    run(fleet.out TRUE "${EXAMPLES}/fleet")
    run(fleet_stall.out TRUE "${CMAKE_COMMAND}" -E env MIRAGE_FLIGHT=4096
        MIRAGE_FLIGHT_PATH=fleet_flight.json "${EXAMPLES}/fleet" --stall)
else()
    message(FATAL_ERROR "unknown smoke '${SMOKE}'")
endif()
run(smoke.out TRUE "${PYTHON}" "${CMAKE_CURRENT_LIST_DIR}/${SMOKE}_smoke.py")
file(READ "${DIR}/smoke.out" verdict)
message(STATUS "${verdict}")
