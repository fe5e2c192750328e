#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace pimsched {
namespace {

ReferenceTrace smallTrace() {
  ReferenceTrace t(DataSpace::singleSquare(2));
  t.add(0, 1, 0, 2);
  t.add(0, 0, 0, 1);
  t.add(1, 2, 3, 1);
  t.finalize();
  return t;
}

TEST(ReferenceTrace, FinalizeSortsByStepDataProc) {
  const ReferenceTrace t = smallTrace();
  ASSERT_EQ(t.accesses().size(), 3u);
  EXPECT_EQ(t.accesses()[0].proc, 0);
  EXPECT_EQ(t.accesses()[1].proc, 1);
  EXPECT_EQ(t.accesses()[2].step, 1);
}

TEST(ReferenceTrace, MergesDuplicateTriples) {
  ReferenceTrace t(DataSpace::singleSquare(2));
  t.add(0, 1, 2, 3);
  t.add(0, 1, 2, 4);
  t.finalize();
  ASSERT_EQ(t.accesses().size(), 1u);
  EXPECT_EQ(t.accesses()[0].weight, 7);
  EXPECT_EQ(t.totalWeight(), 7);
}

TEST(ReferenceTrace, StepAndWeightAccounting) {
  const ReferenceTrace t = smallTrace();
  EXPECT_EQ(t.numSteps(), 2);
  EXPECT_EQ(t.totalWeight(), 4);
  EXPECT_EQ(t.numData(), 4);
}

TEST(ReferenceTrace, EmptyTrace) {
  ReferenceTrace t(DataSpace::singleSquare(2));
  t.finalize();
  EXPECT_EQ(t.numSteps(), 0);
  EXPECT_EQ(t.totalWeight(), 0);
  EXPECT_TRUE(t.accesses().empty());
}

TEST(ReferenceTrace, FinalizeIsIdempotent) {
  ReferenceTrace t(DataSpace::singleSquare(2));
  t.add(0, 0, 0, 1);
  t.finalize();
  t.finalize();
  EXPECT_EQ(t.accesses().size(), 1u);
}

TEST(ReferenceTrace, RejectsInvalidAccesses) {
  ReferenceTrace t(DataSpace::singleSquare(2));
  EXPECT_THROW(t.add(-1, 0, 0, 1), std::invalid_argument);
  EXPECT_THROW(t.add(0, -1, 0, 1), std::invalid_argument);
  EXPECT_THROW(t.add(0, 0, 4, 1), std::invalid_argument);   // data out of range
  EXPECT_THROW(t.add(0, 0, -1, 1), std::invalid_argument);
  EXPECT_THROW(t.add(0, 0, 0, 0), std::invalid_argument);   // zero weight
}

TEST(ReferenceTrace, RejectsStepWhoseCountOverflows) {
  // numSteps() = largest step + 1 must fit a StepId.
  ReferenceTrace t(DataSpace::singleSquare(2));
  EXPECT_THROW(t.add(std::numeric_limits<StepId>::max(), 0, 0, 1),
               std::invalid_argument);
  t.add(std::numeric_limits<StepId>::max() - 1, 0, 0, 1);
  t.finalize();
  EXPECT_EQ(t.numSteps(), std::numeric_limits<StepId>::max());
}

TEST(ReferenceTrace, RejectsArraysBeyondTheDataIdRange) {
  DataSpace single;
  EXPECT_THROW(single.addArray("A", 65536, 65536), std::invalid_argument);
  EXPECT_EQ(single.numArrays(), 0);
  // Each array fits on its own; together they overflow the id range.
  DataSpace pair;
  pair.addArray("A", 32768, 65535);
  EXPECT_THROW(pair.addArray("B", 2, 32768), std::invalid_argument);
  EXPECT_EQ(pair.numArrays(), 1);
  EXPECT_EQ(pair.numData(), 32768 * 65535);
}

TEST(ReferenceTrace, AddAfterFinalizeUnfinalizes) {
  ReferenceTrace t(DataSpace::singleSquare(2));
  t.add(0, 0, 0, 1);
  t.finalize();
  EXPECT_TRUE(t.finalized());
  t.add(1, 0, 0, 1);
  EXPECT_FALSE(t.finalized());
  t.finalize();
  EXPECT_EQ(t.numSteps(), 2);
}

}  // namespace
}  // namespace pimsched
