#include "util/table.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace nvmsec {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument("Table: no headers");
}

void Table::add_row(std::vector<Cell> row) {
  if (row.size() != headers_.size()) {
    throw std::invalid_argument("Table::add_row: column count mismatch");
  }
  rows_.push_back(std::move(row));
}

const std::vector<Cell>& Table::row(std::size_t i) const { return rows_.at(i); }

std::string Table::format_cell(const Cell& c) const {
  if (const auto* s = std::get_if<std::string>(&c)) return *s;
  if (const auto* i = std::get_if<std::int64_t>(&c)) return std::to_string(*i);
  std::ostringstream out;
  out << std::fixed << std::setprecision(precision_) << std::get<double>(c);
  return out.str();
}

std::string Table::ascii() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  std::vector<std::vector<std::string>> rendered;
  rendered.reserve(rows_.size());
  for (const auto& row : rows_) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      cells.push_back(format_cell(row[c]));
      widths[c] = std::max(widths[c], cells.back().size());
    }
    rendered.push_back(std::move(cells));
  }

  const auto rule = [&] {
    std::string s = "+";
    for (std::size_t w : widths) s += std::string(w + 2, '-') + "+";
    return s + "\n";
  }();
  const auto emit_row = [&](const std::vector<std::string>& cells) {
    std::string s = "|";
    for (std::size_t c = 0; c < cells.size(); ++c) {
      s += " " + cells[c] + std::string(widths[c] - cells[c].size(), ' ') + " |";
    }
    return s + "\n";
  };

  std::string out;
  if (!title_.empty()) out += title_ + "\n";
  out += rule;
  out += emit_row(headers_);
  out += rule;
  for (const auto& cells : rendered) out += emit_row(cells);
  out += rule;
  return out;
}

std::string Table::csv() const {
  const auto escape = [](const std::string& s) {
    if (s.find_first_of(",\"\n") == std::string::npos) return s;
    std::string quoted = "\"";
    for (char ch : s) {
      if (ch == '"') quoted += '"';
      quoted += ch;
    }
    return quoted + "\"";
  };
  std::string out;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c) out += ",";
    out += escape(headers_[c]);
  }
  out += "\n";
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) out += ",";
      out += escape(format_cell(row[c]));
    }
    out += "\n";
  }
  return out;
}

void Table::print(std::ostream& os) const { os << ascii() << "\n"; }

std::string format_number(double v, int digits) {
  std::ostringstream os;
  if (std::isinf(v)) return "inf";
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    os << static_cast<std::int64_t>(v);
  } else {
    os.setf(std::ios::fixed);
    os.precision(digits);
    os << v;
  }
  return os.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void ReportRenderer::title(const std::string& t) {
  if (md_) {
    os_ << "# " << t << "\n\n";
  } else {
    os_ << t << "\n" << std::string(t.size(), '=') << "\n\n";
  }
}

void ReportRenderer::heading(const std::string& h) {
  if (md_) {
    os_ << "## " << h << "\n\n";
  } else {
    os_ << "== " << h << " ==\n";
  }
}

void ReportRenderer::text(const std::string& t) { os_ << t << "\n"; }

void ReportRenderer::block(const std::string& body) {
  if (md_) os_ << "```text\n";
  os_ << body;
  if (body.empty() || body.back() != '\n') os_ << "\n";
  if (md_) os_ << "```\n";
  os_ << "\n";
}

}  // namespace nvmsec
