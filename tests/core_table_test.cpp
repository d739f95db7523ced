#include "core/table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "core/csv.hpp"

namespace rsd {
namespace {

TEST(Table, RendersAlignedColumns) {
  Table t{"Box Size", "Atoms"};
  t.add_row("20", "32k");
  t.add_row("120", "6912k");
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| Box Size | Atoms |"), std::string::npos);
  EXPECT_NE(s.find("| 20       | 32k   |"), std::string::npos);
  EXPECT_NE(s.find("| 120      | 6912k |"), std::string::npos);
}

TEST(Table, HeaderWiderThanCells) {
  Table t{"LongHeaderName"};
  t.add_row("x");
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| x              |"), std::string::npos);
}

TEST(Table, MissingCellsRenderEmpty) {
  Table t{"a", "b"};
  t.add_row_vec({"1"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| 1 |   |"), std::string::npos);
}

TEST(Table, RowCount) {
  Table t{"a"};
  EXPECT_EQ(t.row_count(), 0u);
  t.add_row("1");
  t.add_row("2");
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TableFmt, FixedAndScientific) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_fixed(2.0, 0), "2");
  EXPECT_EQ(fmt_sci(12345.0, 2), "1.23e+04");
}

TEST(TableFmt, Percent) {
  EXPECT_EQ(fmt_pct(0.172, 1), "17.2%");
  EXPECT_EQ(fmt_pct(0.005, 2), "0.50%");
}

TEST(Csv, BasicRows) {
  CsvWriter w;
  w.row("a", "b", "c");
  w.row(1, 2.5, std::string{"x"});
  EXPECT_EQ(w.str(), "a,b,c\n1,2.5,x\n");
}

TEST(Csv, QuotesSpecialCharacters) {
  CsvWriter w;
  w.row("has,comma", "has\"quote", "plain");
  EXPECT_EQ(w.str(), "\"has,comma\",\"has\"\"quote\",plain\n");
}

// Doubles are printf "%.12g" and integers decimal, as an ostream at
// precision(12) and std::to_string write them.
TEST(Csv, NumberCellsKeepTheirBytes) {
  CsvWriter w;
  w.row(-0.0, 1.0 / 3, 1e21, 5e-324);
  w.row(std::numeric_limits<double>::quiet_NaN(), std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity());
  w.row('c', true, std::numeric_limits<std::uint64_t>::max(),
        std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(w.str(),
            "-0,0.333333333333,1e+21,4.94065645841e-324\n"
            "nan,inf,-inf\n"
            "99,1,18446744073709551615,-9223372036854775808\n");
}

TEST(Csv, SaveAndReload) {
  CsvWriter w;
  w.row("x", "y");
  w.row(1, 2);
  const std::string path = testing::TempDir() + "/rsd_csv_test.csv";
  w.save(path);
  std::ifstream in{path};
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
}

}  // namespace
}  // namespace rsd
