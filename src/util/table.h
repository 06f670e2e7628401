// ASCII / CSV table emitter used by the benchmark harness so every
// figure/table reproduction prints the same rows the paper reports, in a
// format that is both human-readable and machine-parsable — plus the small
// helpers the report tools (maxwe_report, fleet_report, maxwe_profile)
// share for reading their inputs and rendering text or Markdown.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

namespace nvmsec {

/// One table cell: text, integer, or double (formatted with fixed precision).
using Cell = std::variant<std::string, std::int64_t, double>;

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Title printed above the table (e.g. "Figure 6: ...").
  void set_title(std::string title) { title_ = std::move(title); }

  /// Digits after the decimal point for double cells (default 2).
  void set_precision(int digits) { precision_ = digits; }

  void add_row(std::vector<Cell> row);

  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }
  [[nodiscard]] std::size_t column_count() const { return headers_.size(); }
  [[nodiscard]] const std::vector<Cell>& row(std::size_t i) const;

  /// Render with aligned columns and +--+ borders.
  [[nodiscard]] std::string ascii() const;

  /// RFC-4180-ish CSV (quotes fields containing comma/quote/newline).
  [[nodiscard]] std::string csv() const;

  /// Print the ASCII rendering (and a trailing newline) to a stream.
  void print(std::ostream& os) const;

 private:
  [[nodiscard]] std::string format_cell(const Cell& c) const;

  std::string title_;
  std::vector<std::string> headers_;
  std::vector<std::vector<Cell>> rows_;
  int precision_{2};
};

/// A number as a report prints it: integral values without a decimal point,
/// others with `digits` fixed digits, infinity as "inf".
[[nodiscard]] std::string format_number(double v, int digits);

/// The whole of the file at `path`; throws std::runtime_error naming the
/// path when it cannot be opened.
[[nodiscard]] std::string read_file(const std::string& path);

/// Renders a report for a terminal or as Markdown: headings switch between
/// "== x ==" and "## x", tables and blocks go into code fences.
class ReportRenderer {
 public:
  ReportRenderer(std::ostream& os, bool md) : os_(os), md_(md) {}

  void title(const std::string& t);
  void heading(const std::string& h);
  void text(const std::string& t);
  void block(const std::string& body);
  void table(const Table& t) { block(t.ascii()); }

 private:
  std::ostream& os_;
  bool md_;
};

}  // namespace nvmsec
