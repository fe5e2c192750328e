#include "trace/trace_io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include "kernels/benchmarks.hpp"
#include "test_util.hpp"
#include "trace_reader_reference.hpp"

namespace pimsched {
namespace {

ReferenceTrace sample() {
  DataSpace ds;
  ds.addArray("A", 2, 2);
  ds.addArray("B", 1, 3);
  ReferenceTrace t(ds);
  t.add(0, 3, 0, 2);
  t.add(1, 1, 5, 1);
  t.add(0, 0, 2, 7);
  t.finalize();
  return t;
}

TEST(TraceIo, RoundTripPreservesEverything) {
  const ReferenceTrace original = sample();
  std::stringstream ss;
  saveTrace(original, ss);
  const ReferenceTrace loaded = loadTrace(ss);

  EXPECT_EQ(loaded.numData(), original.numData());
  EXPECT_EQ(loaded.numSteps(), original.numSteps());
  EXPECT_EQ(loaded.totalWeight(), original.totalWeight());
  ASSERT_EQ(loaded.accesses().size(), original.accesses().size());
  for (std::size_t i = 0; i < loaded.accesses().size(); ++i) {
    EXPECT_EQ(loaded.accesses()[i], original.accesses()[i]);
  }
  ASSERT_EQ(loaded.dataSpace().numArrays(), 2);
  EXPECT_EQ(loaded.dataSpace().arrays()[1].name, "B");
  EXPECT_EQ(loaded.dataSpace().arrays()[1].cols, 3);
}

TEST(TraceIo, IgnoresCommentsAndBlankLines) {
  std::stringstream ss(
      "pimtrace v1\n"
      "# a comment\n"
      "array A 2 2\n"
      "\n"
      "access 0 1 2 3\n");
  const ReferenceTrace t = loadTrace(ss);
  EXPECT_EQ(t.accesses().size(), 1u);
  EXPECT_EQ(t.accesses()[0].weight, 3);
}

TEST(TraceIo, RejectsMissingHeader) {
  std::stringstream ss("array A 2 2\n");
  EXPECT_THROW(loadTrace(ss), std::runtime_error);
}

TEST(TraceIo, RejectsUnknownRecord) {
  std::stringstream ss("pimtrace v1\nbogus 1 2 3\n");
  EXPECT_THROW(loadTrace(ss), std::runtime_error);
}

TEST(TraceIo, RejectsMalformedAccess) {
  std::stringstream ss("pimtrace v1\narray A 2 2\naccess 0 1\n");
  EXPECT_THROW(loadTrace(ss), std::runtime_error);
}

/// Asserts loadTrace rejects `text` with an error naming `message`.
void expectRejected(const std::string& text, const std::string& message) {
  std::stringstream ss(text);
  try {
    (void)loadTrace(ss);
    FAIL() << "accepted: " << text;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
        << e.what();
  }
}

TEST(TraceIo, RejectsFractionalWeight) {
  expectRejected("pimtrace v1\narray A 2 2\naccess 0 1 2 3.9\n",
                 "malformed access line 3");
}

TEST(TraceIo, RejectsExtraAccessField) {
  expectRejected("pimtrace v1\narray A 2 2\naccess 0 1 2 3 77\n",
                 "malformed access line 3");
}

TEST(TraceIo, RejectsTrailingJunkOnArray) {
  expectRejected("pimtrace v1\narray A 2 2x\naccess 0 1 2 3\n",
                 "malformed array line 2");
}

TEST(TraceIo, RejectsArrayAfterAccess) {
  std::stringstream ss(
      "pimtrace v1\narray A 2 2\naccess 0 0 0 1\narray B 2 2\n");
  EXPECT_THROW(loadTrace(ss), std::runtime_error);
}

TEST(TraceIo, EmptyTraceRoundTrip) {
  DataSpace ds;
  ds.addArray("A", 1, 1);
  ReferenceTrace t(ds);
  t.finalize();
  std::stringstream ss;
  saveTrace(t, ss);
  const ReferenceTrace loaded = loadTrace(ss);
  EXPECT_EQ(loaded.numSteps(), 0);
  EXPECT_EQ(loaded.numData(), 1);
}

TEST(TraceIo, FileRoundTrip) {
  const ReferenceTrace original = sample();
  const std::string path = ::testing::TempDir() + "/pimsched_trace_test.txt";
  saveTraceFile(original, path);
  const ReferenceTrace loaded = loadTraceFile(path);
  EXPECT_EQ(loaded.totalWeight(), original.totalWeight());
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(loadTraceFile("/nonexistent/definitely/missing.txt"),
               std::runtime_error);
}

TEST(TraceIo, StringViewAndStreamReadersAgree) {
  std::stringstream ss;
  saveTrace(sample(), ss);
  const std::string text = ss.str();
  EXPECT_EQ(traceDigest(loadTrace(text)), traceDigest(loadTrace(ss)));
  // A stream is read from where it stands, in one bulk copy.
  std::stringstream prefixed("ignored\n" + text);
  std::string skipped;
  std::getline(prefixed, skipped);
  EXPECT_EQ(traceDigest(loadTrace(prefixed)), traceDigest(sample()));
}

TEST(TraceIo, FieldsTakeAPlusSignAndAnyCLocaleWhitespace) {
  const ReferenceTrace t = loadTrace(
      "pimtrace v1\n"
      "array\tA\v2\f2\r\n"
      "  access +0 \t1 2\t+3\r\n");
  ASSERT_EQ(t.accesses().size(), 1u);
  EXPECT_EQ(t.accesses()[0], (Access{0, 1, 2, 3}));
}

TEST(TraceIo, RejectsACrlfHeaderAndBlankLikeRecords) {
  expectRejected("pimtrace v1\r\narray A 2 2\n", "missing 'pimtrace v1'");
  // Only a first-column '#' starts a comment, and a whitespace-only line
  // is a record with an empty kind.
  expectRejected("pimtrace v1\n  # note\n", "unknown record '#' at line 2");
  expectRejected("pimtrace v1\narray A 2 2\n\r\n",
                 "unknown record '' at line 3");
  expectRejected("pimtrace v1\narray A 2 2\naccess 0 1 2 +-3\n",
                 "malformed access line 3");
  expectRejected(
      "pimtrace v1\narray A 2 2\naccess 0 1 2 9223372036854775808\n",
      "malformed access line 3");
}

// ------------------------------------------ differential reader oracle --

/// What one reader made of a text: the trace's digest, or the exception.
struct ReadOutcome {
  bool ok = false;
  std::string digest;
  std::string errorType;
  std::string error;
};

template <typename Reader>
ReadOutcome readWith(Reader&& read) {
  ReadOutcome out;
  try {
    out.digest = traceDigest(read()).hex();
    out.ok = true;
  } catch (const std::exception& e) {
    out.errorType = typeid(e).name();
    out.error = e.what();
  }
  return out;
}

/// Runs the library reader and the frozen istringstream reader on `text`.
/// Returns the library's outcome after checking that they agree.
ReadOutcome expectReadersAgree(const std::string& text) {
  const ReadOutcome fast = readWith([&] { return loadTrace(text); });
  const ReadOutcome frozen = readWith([&] {
    std::istringstream is(text);
    return testutil::referenceLoadTrace(is);
  });
  EXPECT_EQ(fast.ok, frozen.ok) << testing::PrintToString(text);
  EXPECT_EQ(fast.digest, frozen.digest) << testing::PrintToString(text);
  EXPECT_EQ(fast.errorType, frozen.errorType) << testing::PrintToString(text);
  EXPECT_EQ(fast.error, frozen.error) << testing::PrintToString(text);
  return fast;
}

TEST(TraceReaderOracle, EdgeCasesMatchTheFrozenReader) {
  using namespace std::string_literals;  // "...\0..."s keeps the NUL
  const std::string head = "pimtrace v1\narray A 4 4\n";
  const std::vector<std::string> texts = {
      "", "\n", "pimtrace v1", "pimtrace v1\n", "pimtrace v1\r\n",
      " pimtrace v1\n", "pimtrace  v1\n", "pimtrace v1\n\n\n",
      head + "access 0 1 2 3",               // no final newline
      head + "access 0 1 2 3\r\naccess 1 1 2 3\r\n",
      head + "access +0 +1 +2 +3\n", head + "access -0 1 2 3\n",
      head + "access 0 1 2 +-3\n", head + "access 0 1 2 -+3\n",
      head + "access 0 1 2 +\n", head + "access 0 1 2 -\n",
      head + "access 0 1 2 - 3\n", head + "access 1+2 3 4\n",
      head + "access 1-2 3 4\n", head + "access 0x1 2 3 4\n",
      head + "access 007 1 2 3\n", head + "access 2147483646 1 2 3\n",
      head + "access 2147483647 1 2 3\n", head + "access 2147483648 1 2 3\n",
      head + "access -2147483648 1 2 3\n", head + "access -2147483649 1 2 3\n",
      head + "access 0 1 2 9223372036854775807\n",
      head + "access 0 1 2 9223372036854775808\n",
      head + "access 0 1 2 -9223372036854775808\n",
      head + "access 0 1 2 0\n", head + "access 0 1 2 -1\n",
      head + "access 0 1 16 1\n", head + "access 0 -1 2 1\n",
      head + "access\t0\v1\f2\r3\n", head + "\taccess 0 1 2 3\n",
      head + "access 0 1 2 3.9\n", head + "access 0 1 2 3 77\n",
      head + "access 0 1 2 3x\n", head + "access 0 1 2\n", head + "access\n",
      head + "#access junk\n", head + " # indented\n", head + "\t#\n",
      head + " \n", head + "\r\n", head + "\v\f\n", head + "Access 0 1 2 3\n",
      head + "access 0 1 2 3\naccess 0 1 2 4\n",  // merged duplicate
      head + "access 5 1 2 3\naccess 0 1 2 4\n",  // out of key order
      head + "access 0 1 2 3\narray B 2 2\n",
      head + "access 0 1 2 3\narray\n",
      "pimtrace v1\narray A\0 2 2\n"s,
      "pimtrace v1\narray A 2 2\nacc\0ess 0 1 2 3\n"s,
      "pimtrace v1\narray A 2 2\naccess 0 1 2 3\0\n"s,
      "pimtrace v1\0\narray A 2 2\n"s,
      "pimtrace v1\narray  2 2\n", "pimtrace v1\narray\n",
      "pimtrace v1\narray A 2\n", "pimtrace v1\narray A 0 2\n",
      "pimtrace v1\narray A -2 2\n", "pimtrace v1\narray A 65536 65536\n",
      "pimtrace v1\narray A 2 2x\n", "pimtrace v1\narray A +2 +2\r\n",
      "pimtrace v1\narray # 2 2\narray B 1 1\naccess 0 0 4 1\n",
  };
  for (const std::string& text : texts) expectReadersAgree(text);
}

/// One random edit of a pimtrace text held as lines (index 0 is the
/// header). Covers signs, boundary values, every C-locale separator,
/// leading blanks, comments, CRLF, trailing tokens, empty names, NUL bytes,
/// bad weights, glued fields and 'array' after 'access'.
void mutate(std::vector<std::string>& lines, testutil::Rng& rng) {
  static const char* const kValues[] = {
      "0", "00", "007", "-0", "+0", "2147483647", "2147483648",
      "-2147483648", "-2147483649", "9223372036854775807",
      "9223372036854775808", "-9223372036854775808", "0x3", "1"};
  static const char* const kSeparators[] = {"\t", "\v", "\f", "\r", "  ",
                                            " \t "};
  static const char* const kInserted[] = {
      "# note", "  # indented", "\t#", "#", "", " ", "\r", "\t\v",
      "array Z 2 2", "bogus 1 2", "access 0 0 0 1", "access 0 1 2 3 4"};
  static const char* const kSuffixes[] = {"\r", " 77", ".9", "x", " x",
                                          "\r 5", " \r", "\t"};
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.below(n));
  };
  const std::size_t i = lines.size() > 1 ? 1 + pick(lines.size() - 1) : 0;
  std::string& line = lines[i];
  // Field boundaries of the line (single-space separated as saved).
  std::vector<std::size_t> starts;
  for (std::size_t c = 0; c < line.size(); ++c) {
    if (line[c] != ' ' && (c == 0 || line[c - 1] == ' ')) starts.push_back(c);
  }
  const auto fieldEnd = [&line](std::size_t start) {
    const std::size_t sp = line.find(' ', start);
    return sp == std::string::npos ? line.size() : sp;
  };
  switch (rng.below(13)) {
    case 0:  // a sign on a field
      if (starts.size() > 1) {
        static const char* const kSigns[] = {"+", "-", "+-", "-+", "++"};
        line.insert(starts[1 + pick(starts.size() - 1)], kSigns[pick(5)]);
      }
      break;
    case 1:  // a boundary or odd-looking value
      if (starts.size() > 1) {
        const std::size_t f = starts[1 + pick(starts.size() - 1)];
        line.replace(f, fieldEnd(f) - f, kValues[pick(std::size(kValues))]);
      }
      break;
    case 2:  // another C-locale separator
      if (const std::size_t sp = line.find(' '); sp != std::string::npos) {
        line.replace(sp, 1, kSeparators[pick(std::size(kSeparators))]);
      }
      break;
    case 3:  // leading blanks
      line.insert(0, rng.below(2) == 0 ? " " : "\t \v");
      break;
    case 4:  // an inserted line
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i),
                   kInserted[pick(std::size(kInserted))]);
      break;
    case 5:  // CRLF on every line, the header included
      for (std::string& l : lines) l += '\r';
      break;
    case 6:  // CRLF on one line
      line += '\r';
      break;
    case 7:  // a trailing token
      line += kSuffixes[pick(std::size(kSuffixes))];
      break;
    case 8:  // a dropped field (an empty array name, a short access)
      if (starts.size() > 1) {
        const std::size_t f = starts[1 + pick(starts.size() - 1)];
        line.erase(f, fieldEnd(f) - f);
      }
      break;
    case 9:  // a NUL byte anywhere in the line
      line.insert(pick(line.size() + 1), 1, '\0');
      break;
    case 10:  // a zero or negative weight
      if (line.rfind("access", 0) == 0 && !starts.empty()) {
        const std::size_t f = starts.back();
        line.replace(f, fieldEnd(f) - f, rng.below(2) == 0 ? "0" : "-1");
      }
      break;
    case 11:  // a field glued to the previous one, sign first
      if (starts.size() > 2) {
        const std::size_t k = 2 + pick(starts.size() - 2);
        line.replace(starts[k] - 1, 1, rng.below(2) == 0 ? "+" : "-");
      }
      break;
    default:  // 'array' after an access record
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                   "array Late 2 2");
      break;
  }
}

TEST(TraceReaderOracle, MutatedPaperTracesMatchTheFrozenReader) {
  testutil::Rng rng(20240611);
  const Grid grid(4, 4);
  int accepted = 0, rejected = 0;
  for (const PaperBenchmark b : allPaperBenchmarks()) {
    std::ostringstream os;
    saveTrace(makePaperBenchmark(b, grid, 6), os);
    const std::string saved = std::move(os).str();
    std::vector<std::string> base;
    std::istringstream split(saved);
    for (std::string l; std::getline(split, l);) base.push_back(l);

    EXPECT_TRUE(expectReadersAgree(saved).ok) << toString(b);
    for (int round = 0; round < 120; ++round) {
      std::vector<std::string> lines = base;
      const int edits = 1 + static_cast<int>(rng.below(3));
      for (int e = 0; e < edits; ++e) mutate(lines, rng);
      std::string text;
      for (const std::string& l : lines) text += l + '\n';
      if (rng.below(4) == 0) text.pop_back();  // no final newline
      (expectReadersAgree(text).ok ? accepted : rejected)++;
    }
  }
  // Both verdicts are exercised, so the digests and the messages are.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

}  // namespace
}  // namespace pimsched
