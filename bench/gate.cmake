# Gate one committed baseline: run each bench of BENCHES ('|'-separated
# binaries; each appends its rows to OUT through --json) and bench-diff
# OUT against BASELINE at 0% with --require-all. The benches report the
# virtual clock only, so their rows are deterministic and any drift,
# however small and in either direction, fails.
#
#   cmake -DBENCH_DIFF=<bench-diff> -DBASELINE=<BENCH_x.json>
#         -DOUT=<rows.json> -DBENCHES=<a|b> -P gate.cmake
string(REPLACE "|" ";" benches "${BENCHES}")
file(REMOVE "${OUT}")
foreach(bench IN LISTS benches)
    execute_process(COMMAND "${bench}" "--json=${OUT}"
                    OUTPUT_QUIET RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${bench} exited with ${rc}")
    endif()
endforeach()
execute_process(COMMAND "${BENCH_DIFF}" --threshold-pct=0 --require-all
                        "${BASELINE}" "${OUT}"
                OUTPUT_VARIABLE diff RESULT_VARIABLE rc)
message("${diff}")
# bench-diff passes a row that moved the better way; a deterministic row
# must not move at all, so an improved or new row fails the gate too.
if(NOT rc EQUAL 0 OR NOT diff MATCHES " 0 improved, " OR
   NOT diff MATCHES " 0 new\n")
    message(FATAL_ERROR "${OUT} does not reproduce ${BASELINE}")
endif()
