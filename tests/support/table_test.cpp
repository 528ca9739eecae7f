#include "polaris/support/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace polaris::support {
namespace {

TEST(Table, PrintsAlignedColumns) {
  Table t("demo");
  t.header({"name", "value"});
  t.add("alpha", 1);
  t.add("b", 22.5);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22.5"), std::string::npos);
  // Header separator line present.
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, HeterogeneousAdd) {
  Table t;
  t.add("s", 3, 4.5, 7u, 100ll);
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_EQ(t.cell(0, 0), "s");
  EXPECT_EQ(t.cell(0, 1), "3");
  EXPECT_EQ(t.cell(0, 2), "4.5");
  EXPECT_EQ(t.cell(0, 3), "7");
  EXPECT_EQ(t.cell(0, 4), "100");
}

TEST(Table, RaggedRowsPrintWithoutCrash) {
  Table t;
  t.header({"a", "b", "c"});
  t.row({"only-one"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("only-one"), std::string::npos);
}

TEST(Table, DoubleFormattingUsesSixSignificantDigits) {
  EXPECT_EQ(Table::to_cell(3.14159265), "3.14159");
  EXPECT_EQ(Table::to_cell(1e-7), "1e-07");
  EXPECT_EQ(Table::to_cell(1234567.0), "1.23457e+06");
}

}  // namespace
}  // namespace polaris::support
