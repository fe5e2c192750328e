# cmake -DDRIVER=<paper_experiments> -DGOLDEN=<golden.txt> -P <this file>
# Runs the driver and compares its stdout byte for byte with the golden
# file, naming the first differing line. Updating the golden file is a
# CHANGES.md entry with its reason.

cmake_minimum_required(VERSION 3.16)

execute_process(COMMAND "${DRIVER}" OUTPUT_VARIABLE got RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${DRIVER} exited ${rc}:\n${got}")
endif()
file(READ "${GOLDEN}" want)

# Walk both texts line by line up to the first difference.
set(line 1)
while(NOT got STREQUAL want)
  string(FIND "${got}" "\n" gotEnd)
  string(FIND "${want}" "\n" wantEnd)
  string(SUBSTRING "${got}" 0 ${gotEnd} gotLine)
  string(SUBSTRING "${want}" 0 ${wantEnd} wantLine)
  if(NOT gotLine STREQUAL wantLine OR gotEnd EQUAL -1 OR wantEnd EQUAL -1)
    message(FATAL_ERROR "stdout differs from ${GOLDEN} at line ${line}:\n"
                        "  got:    ${gotLine}\n  golden: ${wantLine}")
  endif()
  math(EXPR gotEnd "${gotEnd} + 1")
  math(EXPR wantEnd "${wantEnd} + 1")
  string(SUBSTRING "${got}" ${gotEnd} -1 got)
  string(SUBSTRING "${want}" ${wantEnd} -1 want)
  math(EXPR line "${line} + 1")
endwhile()
