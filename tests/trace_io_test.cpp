#include "trace/trace_io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

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

}  // namespace
}  // namespace pimsched
