# cmake -DROOT=<repository root> -P <this file>
# Checks that src/ holds only what runs: every header under src/ must be
# included from a file in src/ other than its own .cpp, or from examples/
# or pimbench/. A header that only tests or benches include belongs beside
# them (test oracles in tests/, experiment-only code in bench/ablation/).
# Fails naming every header that breaks the rule.

cmake_minimum_required(VERSION 3.16)

file(GLOB_RECURSE headers RELATIVE "${ROOT}/src" "${ROOT}/src/*.hpp")
file(GLOB_RECURSE readers
  "${ROOT}/src/*.hpp" "${ROOT}/src/*.cpp"
  "${ROOT}/examples/*.hpp" "${ROOT}/examples/*.cpp"
  "${ROOT}/pimbench/*.hpp" "${ROOT}/pimbench/*.cpp")

# Absolute paths of every header some reader includes, resolved against the
# src/ include root and against the reader's own directory.
set(reached "")
foreach(reader IN LISTS readers)
  get_filename_component(dir "${reader}" DIRECTORY)
  string(REGEX REPLACE "\\.cpp$" ".hpp" ownHeader "${reader}")
  file(STRINGS "${reader}" lines REGEX "^[ \t]*#[ \t]*include[ \t]*\"")
  foreach(line IN LISTS lines)
    string(REGEX REPLACE "^[^\"]*\"([^\"]+)\".*$" "\\1" inc "${line}")
    foreach(path "${ROOT}/src/${inc}" "${dir}/${inc}")
      get_filename_component(path "${path}" ABSOLUTE)
      if(NOT path STREQUAL ownHeader)
        list(APPEND reached "${path}")
      endif()
    endforeach()
  endforeach()
endforeach()

set(unreached "")
foreach(header IN LISTS headers)
  get_filename_component(path "${ROOT}/src/${header}" ABSOLUTE)
  if(NOT path IN_LIST reached)
    list(APPEND unreached "${header}")
  endif()
endforeach()

if(unreached)
  list(SORT unreached)
  list(LENGTH unreached count)
  list(JOIN unreached "\n  " names)
  message(FATAL_ERROR "${count} header(s) under src/ are included only from "
                      "tests/ or bench/ (or from nowhere):\n  ${names}")
endif()
