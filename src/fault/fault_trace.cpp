#include "fault/fault_trace.hpp"

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "obs/obs.hpp"

namespace pimsched {

namespace {

struct ParsedSpec {
  std::string verb;
  std::vector<std::int64_t> args;
  std::uint64_t seed = 0;
};

[[noreturn]] void badSpec(const std::string& spec, const char* why) {
  throw std::invalid_argument("fault spec \"" + spec + "\": " + why);
}

/// Like badSpec, but points at the token that failed and where it sits in
/// the spec, so a client staring at "region:0,0,x,3" learns which of the
/// four operands is bad without counting commas.
[[noreturn]] void badSpecAt(const std::string& spec, const char* why,
                            const std::string& tok, std::size_t offset) {
  throw std::invalid_argument("fault spec \"" + spec + "\": " + why +
                              " at \"" + tok + "\" (offset " +
                              std::to_string(offset) + ")");
}

/// `offset` is the token's character position inside `spec` (for error
/// reporting only).
std::int64_t parseInt(const std::string& spec, const std::string& tok,
                      std::size_t offset) {
  try {
    std::size_t used = 0;
    const long long v = std::stoll(tok, &used);
    if (used != tok.size()) {
      badSpecAt(spec, "trailing characters in number", tok, offset);
    }
    return static_cast<std::int64_t>(v);
  } catch (const std::invalid_argument&) {
    badSpecAt(spec, "expected a number", tok, offset);
  } catch (const std::out_of_range&) {
    badSpecAt(spec, "number out of range", tok, offset);
  }
}

std::uint64_t parseSeed(const std::string& spec, const std::string& tok,
                        std::size_t offset) {
  try {
    std::size_t used = 0;
    const unsigned long long v = std::stoull(tok, &used);
    if (used != tok.size()) {
      badSpecAt(spec, "trailing characters in seed", tok, offset);
    }
    return static_cast<std::uint64_t>(v);
  } catch (const std::invalid_argument&) {
    badSpecAt(spec, "expected a seed", tok, offset);
  } catch (const std::out_of_range&) {
    badSpecAt(spec, "seed out of range", tok, offset);
  }
}

/// Splits `body` on `sep`, parsing each piece as an integer. `baseOffset`
/// is where `body` starts inside the full spec.
std::vector<std::int64_t> parseIntList(const std::string& spec,
                                       const std::string& body, char sep,
                                       std::size_t baseOffset) {
  std::vector<std::int64_t> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t end = body.find(sep, start);
    out.push_back(parseInt(spec, body.substr(start, end - start),
                           baseOffset + start));
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return out;
}

void expectArgs(const std::string& spec, const ParsedSpec& p,
                std::size_t count) {
  if (p.args.size() != count) badSpec(spec, "wrong operand count");
}

ParsedSpec parseSpec(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= spec.size()) {
    badSpec(spec, "expected verb:operands");
  }
  ParsedSpec p;
  p.verb = spec.substr(0, colon);
  const std::string body = spec.substr(colon + 1);
  const std::size_t bodyAt = colon + 1;

  if (p.verb == "proc" || p.verb == "row" || p.verb == "col") {
    p.args = parseIntList(spec, body, ',', bodyAt);
    expectArgs(spec, p, 1);
  } else if (p.verb == "link") {
    p.args = parseIntList(spec, body, '-', bodyAt);
    expectArgs(spec, p, 2);
  } else if (p.verb == "region") {
    p.args = parseIntList(spec, body, ',', bodyAt);
    expectArgs(spec, p, 4);
  } else if (p.verb == "cap") {
    const std::size_t eq = body.find('=');
    if (eq == std::string::npos) badSpec(spec, "expected cap:P=N");
    p.args.push_back(parseInt(spec, body.substr(0, eq), bodyAt));
    p.args.push_back(parseInt(spec, body.substr(eq + 1), bodyAt + eq + 1));
  } else if (p.verb == "uniform-procs" || p.verb == "uniform-links") {
    const std::size_t at = body.find('@');
    if (at == std::string::npos) badSpec(spec, "expected N@SEED");
    p.args.push_back(parseInt(spec, body.substr(0, at), bodyAt));
    p.seed = parseSeed(spec, body.substr(at + 1), bodyAt + at + 1);
  } else {
    badSpecAt(spec, "unknown fault verb", p.verb, 0);
  }
  return p;
}

ProcId checkedProc(const std::string& spec, std::int64_t v) {
  if (v < 0 || v > static_cast<std::int64_t>(INT32_MAX)) {
    badSpec(spec, "processor id out of range");
  }
  return static_cast<ProcId>(v);
}

int checkedInt(const std::string& spec, std::int64_t v) {
  if (v < static_cast<std::int64_t>(INT32_MIN) ||
      v > static_cast<std::int64_t>(INT32_MAX)) {
    badSpec(spec, "value out of range");
  }
  return static_cast<int>(v);
}

void applyParsed(FaultMap& map, const std::string& spec, const ParsedSpec& p) {
  if (p.verb == "proc") {
    map.killProc(checkedProc(spec, p.args[0]));
  } else if (p.verb == "link") {
    map.killLink(checkedProc(spec, p.args[0]), checkedProc(spec, p.args[1]));
  } else if (p.verb == "row") {
    map.killRow(checkedInt(spec, p.args[0]));
  } else if (p.verb == "col") {
    map.killCol(checkedInt(spec, p.args[0]));
  } else if (p.verb == "region") {
    map.killRegion(checkedInt(spec, p.args[0]), checkedInt(spec, p.args[1]),
                   checkedInt(spec, p.args[2]), checkedInt(spec, p.args[3]));
  } else if (p.verb == "cap") {
    map.limitCapacity(checkedProc(spec, p.args[0]), p.args[1]);
  } else if (p.verb == "uniform-procs") {
    map.injectUniformProcs(checkedInt(spec, p.args[0]), p.seed);
  } else if (p.verb == "uniform-links") {
    map.injectUniformLinks(checkedInt(spec, p.args[0]), p.seed);
  }
}

}  // namespace

bool applyFaultSpec(FaultMap& map, const std::string& spec) {
  const std::int64_t before = map.mutations();
  applyParsed(map, spec, parseSpec(spec));
  if (map.mutations() == before) {
    PIMSCHED_COUNTER_ADD("fault.spec.duplicates", 1);
    return false;
  }
  return true;
}

}  // namespace pimsched
