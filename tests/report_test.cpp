#include <gtest/gtest.h>

#include <sstream>

#include "ablation/stats.hpp"
#include "report/csv.hpp"
#include "report/table.hpp"

namespace pimsched {
namespace {

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "cost"});
  t.addRow({"a", "100"});
  t.addRow({"long-name", "7"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("long-name"), std::string::npos);
  // Every non-rule line has the same width.
  std::istringstream is(out);
  std::string line;
  std::size_t width = 0;
  while (std::getline(is, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width);
  }
}

TEST(TextTable, RejectsWidthMismatch) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.addRow({"only-one"}), std::invalid_argument);
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(TextTable, RulesSeparateSections) {
  TextTable t({"x"});
  t.addRow({"1"});
  t.addRule();
  t.addRow({"2"});
  std::ostringstream os;
  t.print(os);
  // Header rule + explicit rule.
  int rules = 0;
  std::istringstream is(os.str());
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty() && line.find_first_not_of('-') == std::string::npos) {
      ++rules;
    }
  }
  EXPECT_EQ(rules, 2);
}

TEST(FormatFixed, Precision) {
  EXPECT_EQ(formatFixed(12.345, 1), "12.3");
  EXPECT_EQ(formatFixed(12.35, 0), "12");
  EXPECT_EQ(formatFixed(-3.14159, 2), "-3.14");
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(csvEscape("plain"), "plain");
  EXPECT_EQ(csvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(csvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csvEscape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesRows) {
  std::ostringstream os;
  CsvWriter w(os);
  w.row({"a", "b,c", "d"});
  w.row({"1", "2", "3"});
  EXPECT_EQ(os.str(), "a,\"b,c\",d\n1,2,3\n");
}

TEST(Stats, MeanAndGeomean) {
  const std::vector<double> v = {1.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(v), 7.0 / 3.0);
  EXPECT_DOUBLE_EQ(geomean(v), 2.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Stats, GeomeanRejectsNonPositive) {
  const std::vector<double> v = {1.0, 0.0};
  EXPECT_THROW((void)geomean(v), std::invalid_argument);
}

TEST(Stats, MinMax) {
  const std::vector<double> v = {3.0, -1.0, 2.0};
  EXPECT_DOUBLE_EQ(minOf(v), -1.0);
  EXPECT_DOUBLE_EQ(maxOf(v), 3.0);
  EXPECT_THROW((void)minOf({}), std::invalid_argument);
}

}  // namespace
}  // namespace pimsched
