#pragma once

// The `pimtrace v1` reader as it stood before the one-pass `from_chars`
// reader: one std::getline per line and one std::istringstream per record,
// every field read by operator>>. Kept verbatim as the oracle the
// differential test in trace_io_test.cpp holds the library reader to:
// same accept/reject decision, same what() text, same traceDigest.

#include <istream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "trace/trace.hpp"

namespace pimsched::testutil {

inline ReferenceTrace referenceLoadTrace(std::istream& is) {
  constexpr const char* kMagic = "pimtrace v1";
  // True if anything but whitespace follows the fields already read.
  const auto hasTrailingToken = [](std::istringstream& ls) {
    std::string extra;
    return static_cast<bool>(ls >> extra);
  };

  std::string line;
  if (!std::getline(is, line) || line != kMagic) {
    throw std::runtime_error("loadTrace: missing 'pimtrace v1' header");
  }

  DataSpace ds;
  std::optional<ReferenceTrace> trace;
  int lineNo = 1;
  while (std::getline(is, line)) {
    ++lineNo;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "array") {
      if (trace.has_value()) {
        throw std::runtime_error(
            "loadTrace: 'array' after first 'access' (line " +
            std::to_string(lineNo) + ")");
      }
      std::string name;
      int rows = 0, cols = 0;
      if (!(ls >> name >> rows >> cols) || hasTrailingToken(ls)) {
        throw std::runtime_error("loadTrace: malformed array line " +
                                 std::to_string(lineNo));
      }
      ds.addArray(name, rows, cols);
    } else if (kind == "access") {
      if (!trace.has_value()) trace.emplace(ds);
      StepId step = 0;
      ProcId proc = 0;
      DataId data = 0;
      Cost weight = 0;
      if (!(ls >> step >> proc >> data >> weight) || hasTrailingToken(ls)) {
        throw std::runtime_error("loadTrace: malformed access line " +
                                 std::to_string(lineNo));
      }
      trace->add(step, proc, data, weight);
    } else {
      throw std::runtime_error("loadTrace: unknown record '" + kind +
                               "' at line " + std::to_string(lineNo));
    }
  }
  if (!trace.has_value()) trace.emplace(ds);
  trace->finalize();
  return std::move(*trace);
}

}  // namespace pimsched::testutil
