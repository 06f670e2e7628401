#include "util/table.h"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <stdexcept>

namespace nvmsec {
namespace {

TEST(TableTest, EmptyHeadersThrow) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(TableTest, RowArityIsEnforced) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({Cell{std::int64_t{1}}}), std::invalid_argument);
  t.add_row({Cell{std::int64_t{1}}, Cell{std::string{"x"}}});
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_EQ(t.column_count(), 2u);
}

TEST(TableTest, AsciiContainsHeadersAndValues) {
  Table t({"scheme", "lifetime"});
  t.set_title("Fig. X");
  t.add_row({Cell{std::string{"maxwe"}}, Cell{43.1}});
  const std::string art = t.ascii();
  EXPECT_NE(art.find("Fig. X"), std::string::npos);
  EXPECT_NE(art.find("scheme"), std::string::npos);
  EXPECT_NE(art.find("maxwe"), std::string::npos);
  EXPECT_NE(art.find("43.10"), std::string::npos);
}

TEST(TableTest, PrecisionControlsDoubles) {
  Table t({"v"});
  t.set_precision(4);
  t.add_row({Cell{1.5}});
  EXPECT_NE(t.ascii().find("1.5000"), std::string::npos);
}

TEST(TableTest, ColumnsAlign) {
  Table t({"x", "yyyyyy"});
  t.add_row({Cell{std::string{"aaaaaaaa"}}, Cell{std::int64_t{1}}});
  const std::string art = t.ascii();
  // Every body line (starting with | or +) has the same width.
  std::istringstream in(art);
  std::string line;
  std::size_t width = 0;
  while (std::getline(in, line)) {
    if (line.empty() || (line[0] != '|' && line[0] != '+')) continue;
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width) << line;
  }
}

TEST(TableTest, CsvBasic) {
  Table t({"a", "b"});
  t.add_row({Cell{std::int64_t{1}}, Cell{std::string{"plain"}}});
  EXPECT_EQ(t.csv(), "a,b\n1,plain\n");
}

TEST(TableTest, CsvEscapesSpecials) {
  Table t({"a"});
  t.add_row({Cell{std::string{"has,comma"}}});
  t.add_row({Cell{std::string{"has\"quote"}}});
  const std::string csv = t.csv();
  EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
}

TEST(TableTest, RowAccessor) {
  Table t({"a"});
  t.add_row({Cell{2.0}});
  EXPECT_DOUBLE_EQ(std::get<double>(t.row(0)[0]), 2.0);
  EXPECT_THROW(t.row(1), std::out_of_range);
}

TEST(TableTest, PrintWritesToStream) {
  Table t({"h"});
  t.add_row({Cell{std::int64_t{7}}});
  std::ostringstream out;
  t.print(out);
  EXPECT_NE(out.str().find("7"), std::string::npos);
}

TEST(ReportHelpersTest, FormatNumberDropsZeroFractionsOnly) {
  EXPECT_EQ(format_number(42.0, 2), "42");
  EXPECT_EQ(format_number(-3.0, 4), "-3");
  EXPECT_EQ(format_number(0.123456, 2), "0.12");
  EXPECT_EQ(format_number(0.123456, 4), "0.1235");
  EXPECT_EQ(format_number(std::numeric_limits<double>::infinity(), 2), "inf");
}

TEST(ReportHelpersTest, RendererSwitchesBetweenTextAndMarkdown) {
  Table t({"h"});
  t.add_row({Cell{std::int64_t{7}}});
  std::ostringstream text_out;
  ReportRenderer text(text_out, /*md=*/false);
  text.title("T");
  text.heading("H");
  text.table(t);
  EXPECT_EQ(text_out.str().rfind("T\n=\n\n== H ==\n", 0), 0u);
  EXPECT_EQ(text_out.str().find("```"), std::string::npos);

  std::ostringstream md_out;
  ReportRenderer md(md_out, /*md=*/true);
  md.title("T");
  md.heading("H");
  md.table(t);
  EXPECT_EQ(md_out.str().rfind("# T\n\n## H\n\n```text\n", 0), 0u);
  EXPECT_EQ(md_out.str().substr(md_out.str().size() - 5), "```\n\n");
}

TEST(ReportHelpersTest, ReadFileNamesAMissingPath) {
  try {
    (void)read_file("/nonexistent/report-input.json");
    ADD_FAILURE() << "read a missing file";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/report-input.json"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace nvmsec
