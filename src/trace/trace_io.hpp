#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "trace/trace.hpp"

namespace pimsched {

/// Text serialisation of a ReferenceTrace. Format (one record per line):
///
///   pimtrace v1
///   array <name> <rows> <cols>        (one per array, in id order)
///   access <step> <proc> <data> <weight>
///
/// Blank lines and lines starting with '#' are ignored. The loader
/// finalizes the trace. saveTrace writes a finalized trace's accesses in
/// their canonical (step, data, proc) order.
void saveTrace(const ReferenceTrace& trace, std::ostream& os);
void saveTraceFile(const ReferenceTrace& trace, const std::string& path);

/// The reader: one forward pass over the text, each integer read with
/// std::from_chars. Fields are separated by the C-locale whitespace set
/// and take an optional '+' or '-' sign (docs/trace-format.md). Throws
/// std::runtime_error naming the line on malformed text, and the
/// DataSpace / ReferenceTrace std::invalid_argument on bad values.
[[nodiscard]] ReferenceTrace loadTrace(std::string_view text);
/// Reads the rest of the stream in one bulk copy, then parses it.
[[nodiscard]] ReferenceTrace loadTrace(std::istream& is);
[[nodiscard]] ReferenceTrace loadTraceFile(const std::string& path);

/// A 128-bit content digest. Used as the content-address of the serving
/// layer's result cache and as the integrity line in saved schedules.
/// Rendered as 32 lowercase hex characters, `hi` first.
struct Digest {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  [[nodiscard]] std::string hex() const;
  /// Parses the hex() rendering; nullopt on any malformed input.
  static std::optional<Digest> fromHex(std::string_view s);

  friend auto operator<=>(const Digest&, const Digest&) = default;
};

/// Canonical streaming digest over typed fields. The byte stream is fully
/// specified so digests are stable across platforms and releases:
///
///   * every integer is appended as 8 bytes, little-endian (signed values
///     in two's complement);
///   * a string is appended as its u64 length followed by its raw bytes;
///   * `lo` is FNV-1a (offset basis 0xcbf29ce484222325, prime
///     0x100000001b3) over the byte stream;
///   * `hi` is the same FNV-1a construction seeded with the offset basis
///     XOR 0x9e3779b97f4a7c15 and fed each byte XOR 0x5c, so the two words
///     disagree on any single-byte perturbation.
///
/// 128 bits keeps accidental collisions out of reach for a result cache;
/// this is not a cryptographic hash and offers no tamper resistance.
class DigestBuilder {
 public:
  DigestBuilder();

  void bytes(const void* data, std::size_t n);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void str(std::string_view s);

  [[nodiscard]] Digest digest() const { return Digest{hi_, lo_}; }

 private:
  std::uint64_t hi_ = 0;
  std::uint64_t lo_ = 0;
};

/// Canonical digest of a finalized trace (throws std::invalid_argument on
/// an unfinalized one — finalize() sorts and merges accesses, so logically
/// equal traces digest equally). Byte stream: str("pimtrace"),
/// u64(numArrays), then per array str(name), i64(rows), i64(cols); then
/// u64(numAccesses) and per access i64(step), i64(proc), i64(data),
/// i64(weight).
[[nodiscard]] Digest traceDigest(const ReferenceTrace& trace);

}  // namespace pimsched
