# End-to-end gate for the sweep_tool command line (ctest -L cli).
#
#   cmake -DTOOL=path/to/sweep_tool -DWORK_DIR=scratch/dir -P cli.cmake
#
# 1. `trace record` an 8-node oltp run, then replay it with
#    `run --workloads trace:PATH` and the flags `trace stats` prints:
#    the two digest fields must be equal.
# 2. `trace dump` and `trace stats` read that trace.
# 3. `--help` lists every protocol and every figure.
# 4. Malformed input exits 1 with one `sweep_tool:` line and never
#    aborts.
# 5. `figures` prints Table 1 and a small Question 5.

if(NOT TOOL OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DTOOL=... -DWORK_DIR=... -P cli.cmake")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(TRACE "${WORK_DIR}/oltp8.trace")

# Run the tool; fail unless it exits 0. Sets <prefix>_OUT and _ERR.
function(tool_ok prefix)
  execute_process(COMMAND "${TOOL}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "sweep_tool ${ARGN}: exit ${rc}\n${out}${err}")
  endif()
  set(${prefix}_OUT "${out}" PARENT_SCOPE)
  set(${prefix}_ERR "${err}" PARENT_SCOPE)
endfunction()

# The digest field of a one-line `<label> <digest>` stdout.
function(digest_of out var)
  string(STRIP "${out}" line)
  if(NOT line MATCHES "^[^ \n]+ ([^\n]+)$")
    message(FATAL_ERROR "not one '<label> <digest>' line:\n${out}")
  endif()
  set(${var} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

# 1. Record, then replay through `run`.
tool_ok(REC trace record "${TRACE}" --protocols tokenb --workloads oltp
        --nodes 8 --warmup 200 --ops 400 --seed 3 --seeds 1 --serial)
digest_of("${REC_OUT}" RECORDED)
if(NOT REC_ERR MATCHES "recorded .*oltp8.trace \\(4800 ops over 8 nodes\\)")
  message(FATAL_ERROR "trace record did not report the trace:\n${REC_ERR}")
endif()

tool_ok(STATS trace stats "${TRACE}")
if(NOT STATS_OUT MATCHES "replay: +run --workloads trace:[^ ]+ ([^\n]+)")
  message(FATAL_ERROR "trace stats printed no replay flags:\n${STATS_OUT}")
endif()
set(FLAGS "${CMAKE_MATCH_1}")
if(NOT FLAGS STREQUAL "--nodes 8 --seed 3 --warmup 200 --ops 400")
  message(FATAL_ERROR "trace stats replay flags: '${FLAGS}'")
endif()
separate_arguments(FLAGS UNIX_COMMAND "${FLAGS}")
tool_ok(REPLAY run --protocols tokenb --workloads "trace:${TRACE}"
        ${FLAGS} --seeds 1 --serial)
digest_of("${REPLAY_OUT}" REPLAYED)
if(NOT RECORDED STREQUAL REPLAYED)
  message(FATAL_ERROR "replay digest differs from the recording\n"
                      "recorded: ${RECORDED}\nreplayed: ${REPLAYED}")
endif()

# 2. Inspect the trace.
tool_ok(DUMP trace dump "${TRACE}" 3 5)
if(NOT DUMP_OUT MATCHES "^# node 3: 600 ops\n"
   OR NOT DUMP_OUT MATCHES "\n     4  (load |store) 0x[0-9a-f]+")
  message(FATAL_ERROR "trace dump output:\n${DUMP_OUT}")
endif()
if(NOT STATS_OUT MATCHES "geometry: +8 nodes"
   OR NOT STATS_OUT MATCHES "total: +4800 ops")
  message(FATAL_ERROR "trace stats output:\n${STATS_OUT}")
endif()

# 3. --help lists all 8 protocols and all 8 figures.
tool_ok(HELP --help)
foreach(p snooping directory hammer tokenb tokend tokenm tokena tokennull)
  if(NOT HELP_OUT MATCHES "[ ,]${p}[,\n]")
    message(FATAL_ERROR "--help does not list protocol ${p}:\n${HELP_OUT}")
  endif()
endforeach()
foreach(f table1 fig4 fig5 table2 q5 tokens reissue migratory)
  if(NOT HELP_OUT MATCHES "[ ,]${f}[,;\n]")
    message(FATAL_ERROR "--help does not list figure ${f}:\n${HELP_OUT}")
  endif()
endforeach()

# 4. Bad input: exit 1, one `sweep_tool:` line, no abort.
function(tool_rejects)
  execute_process(COMMAND "${TOOL}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  string(STRIP "${err}" line)
  if(NOT rc EQUAL 1 OR NOT line MATCHES "^sweep_tool: [^\n]+$"
     OR err MATCHES "terminate called")
    message(FATAL_ERROR "sweep_tool ${ARGN}: want exit 1 and one "
                        "'sweep_tool:' line, got exit ${rc}:\n${err}")
  endif()
endfunction()

tool_rejects(run --protocols nosuch)
tool_rejects(run --ops 12x)
# The runner has one executor, threads: the old process-executor
# options are unknown options now.
tool_rejects(run --workers 2)
tool_rejects(run --retries 1)
tool_rejects(run --shard-timeout 5)
tool_rejects(trace dump "${TRACE}" x)
tool_rejects(trace stats "${WORK_DIR}/missing.trace")
tool_rejects(trace record "${WORK_DIR}/two.trace" --protocols tokenb,directory
             --seeds 1)
tool_rejects(frobnicate)
tool_rejects(figures nosuch)
tool_rejects(figures q5 --ops 12x)
tool_rejects(figures q5 --nodes 8)
# Below 40 ops the reissue figure's TokenNull point measures nothing.
tool_rejects(figures reissue --ops 39)

# 5. Figures: Table 1 needs no runs; Question 5 at 20 ops/processor.
tool_ok(T1 figures table1)
if(NOT T1_OUT MATCHES "Table 1: Target System Parameters"
   OR NOT T1_OUT MATCHES "Token storage encoding")
  message(FATAL_ERROR "figures table1 output:\n${T1_OUT}")
endif()
tool_ok(Q5 figures q5 --ops 40 --seeds 1)
if(NOT Q5_OUT MATCHES "64 processors:\n  TokenB +[0-9.]+ +[0-9.]+x\n"
   OR NOT Q5_ERR MATCHES "figures: 15 design points \\(15 distinct\\)")
  message(FATAL_ERROR "figures q5 output:\n${Q5_OUT}${Q5_ERR}")
endif()

message(STATUS "cli: record/replay digests equal (${RECORDED}); "
               "dump, stats, help, figures and bad-input checks pass")
