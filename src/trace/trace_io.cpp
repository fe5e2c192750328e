#include "trace/trace_io.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

namespace pimsched {

namespace {

constexpr const char* kMagic = "pimtrace v1";

constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
/// Seed/byte perturbations decorrelating the hi word from the lo word.
constexpr std::uint64_t kHiSeedXor = 0x9e3779b97f4a7c15ull;
constexpr unsigned char kHiByteXor = 0x5c;

/// The C-locale whitespace set: what operator>> skips between fields.
constexpr bool isSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// A cursor over one record line that reads fields exactly as operator>>
/// on a std::istringstream of the line does: every read first skips
/// whitespace, and a number ends at the first character that cannot
/// continue it (so "1+2" is the two fields 1 and +2).
class FieldReader {
 public:
  explicit FieldReader(std::string_view line)
      : p_(line.data()), end_(line.data() + line.size()) {}

  /// The next run of non-whitespace characters; empty at end of line.
  std::string_view token() {
    skipSpace();
    const char* start = p_;
    while (p_ != end_ && !isSpace(*p_)) ++p_;
    return {start, static_cast<std::size_t>(p_ - start)};
  }

  /// A decimal integer with an optional '+' or '-' sign. False when no
  /// digit follows the sign or the value does not fit T.
  template <typename T>
  bool integer(T& out) {
    skipSpace();
    const char* p = p_;
    // from_chars takes '-' but not '+'; "+-5" is no number either.
    if (p != end_ && *p == '+') {
      ++p;
      if (p == end_ || *p < '0' || *p > '9') return false;
    }
    const auto [next, ec] = std::from_chars(p, end_, out);
    if (ec != std::errc()) return false;
    p_ = next;
    return true;
  }

  /// True if only whitespace is left: a record has exactly its fields
  /// ("3.9" is not the weight 3, "2x" is not the size 2).
  bool atEnd() {
    skipSpace();
    return p_ == end_;
  }

 private:
  void skipSpace() {
    while (p_ != end_ && isSpace(*p_)) ++p_;
  }

  const char* p_;
  const char* end_;
};

}  // namespace

std::string Digest::hex() const {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t word = i < 8 ? hi : lo;
    const int shift = 8 * (7 - (i % 8));
    const auto byte = static_cast<unsigned char>((word >> shift) & 0xFFu);
    out[static_cast<std::size_t>(2 * i)] = kHex[byte >> 4];
    out[static_cast<std::size_t>(2 * i + 1)] = kHex[byte & 0xF];
  }
  return out;
}

std::optional<Digest> Digest::fromHex(std::string_view s) {
  if (s.size() != 32) return std::nullopt;
  Digest d;
  for (int i = 0; i < 32; ++i) {
    const char c = s[static_cast<std::size_t>(i)];
    std::uint64_t nibble = 0;
    if (c >= '0' && c <= '9') nibble = static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
    std::uint64_t& word = i < 16 ? d.hi : d.lo;
    word = (word << 4) | nibble;
  }
  return d;
}

DigestBuilder::DigestBuilder()
    : hi_(kFnvOffsetBasis ^ kHiSeedXor), lo_(kFnvOffsetBasis) {}

void DigestBuilder::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    lo_ = (lo_ ^ p[i]) * kFnvPrime;
    hi_ = (hi_ ^ static_cast<unsigned char>(p[i] ^ kHiByteXor)) * kFnvPrime;
  }
}

void DigestBuilder::u64(std::uint64_t v) {
  unsigned char le[8];
  for (int i = 0; i < 8; ++i) {
    le[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xFFu);
  }
  bytes(le, sizeof(le));
}

void DigestBuilder::str(std::string_view s) {
  u64(s.size());
  bytes(s.data(), s.size());
}

Digest traceDigest(const ReferenceTrace& trace) {
  if (!trace.finalized()) {
    throw std::invalid_argument(
        "traceDigest: trace must be finalized (finalize() canonicalises "
        "access order, making the digest content-addressed)");
  }
  DigestBuilder b;
  b.str("pimtrace");
  const auto& arrays = trace.dataSpace().arrays();
  b.u64(arrays.size());
  for (const DataSpace::ArrayInfo& a : arrays) {
    b.str(a.name);
    b.i64(a.rows);
    b.i64(a.cols);
  }
  b.u64(trace.accesses().size());
  for (const Access& acc : trace.accesses()) {
    b.i64(acc.step);
    b.i64(acc.proc);
    b.i64(acc.data);
    b.i64(acc.weight);
  }
  return b.digest();
}

void saveTrace(const ReferenceTrace& trace, std::ostream& os) {
  os << kMagic << '\n';
  for (const DataSpace::ArrayInfo& a : trace.dataSpace().arrays()) {
    os << "array " << a.name << ' ' << a.rows << ' ' << a.cols << '\n';
  }
  for (const Access& acc : trace.accesses()) {
    os << "access " << acc.step << ' ' << acc.proc << ' ' << acc.data << ' '
       << acc.weight << '\n';
  }
}

void saveTraceFile(const ReferenceTrace& trace, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("saveTraceFile: cannot open " + path);
  saveTrace(trace, os);
}

ReferenceTrace loadTrace(std::string_view text) {
  std::size_t pos = 0;
  const auto nextLine = [&] {
    const std::size_t end = std::min(text.find('\n', pos), text.size());
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    return line;
  };
  if (nextLine() != kMagic) {
    throw std::runtime_error("loadTrace: missing 'pimtrace v1' header");
  }

  DataSpace ds;
  std::optional<ReferenceTrace> trace;
  int lineNo = 1;
  while (pos < text.size()) {
    const std::string_view line = nextLine();
    ++lineNo;
    if (line.empty() || line[0] == '#') continue;
    FieldReader fields(line);
    const std::string_view kind = fields.token();
    if (kind == "array") {
      if (trace.has_value()) {
        throw std::runtime_error(
            "loadTrace: 'array' after first 'access' (line " +
            std::to_string(lineNo) + ")");
      }
      const std::string_view name = fields.token();
      int rows = 0, cols = 0;
      if (name.empty() || !fields.integer(rows) || !fields.integer(cols) ||
          !fields.atEnd()) {
        throw std::runtime_error("loadTrace: malformed array line " +
                                 std::to_string(lineNo));
      }
      ds.addArray(std::string(name), rows, cols);
    } else if (kind == "access") {
      if (!trace.has_value()) trace.emplace(ds);
      StepId step = 0;
      ProcId proc = 0;
      DataId data = 0;
      Cost weight = 0;
      if (!fields.integer(step) || !fields.integer(proc) ||
          !fields.integer(data) || !fields.integer(weight) ||
          !fields.atEnd()) {
        throw std::runtime_error("loadTrace: malformed access line " +
                                 std::to_string(lineNo));
      }
      trace->add(step, proc, data, weight);
    } else {
      throw std::runtime_error("loadTrace: unknown record '" +
                               std::string(kind) + "' at line " +
                               std::to_string(lineNo));
    }
  }
  if (!trace.has_value()) trace.emplace(ds);
  trace->finalize();
  return std::move(*trace);
}

ReferenceTrace loadTrace(std::istream& is) {
  // One bulk copy of the rest of the stream. A stream that cannot be read
  // yields no text, hence the missing-header error.
  std::ostringstream text;
  if (is.good()) text << is.rdbuf();
  return loadTrace(text.view());
}

ReferenceTrace loadTraceFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("loadTraceFile: cannot open " + path);
  return loadTrace(is);
}

}  // namespace pimsched
