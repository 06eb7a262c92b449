#include "common/table.h"

#include <cmath>
#include <cstdio>
#include <ostream>

#include "common/check.h"

namespace ba {

Table::Table(std::string caption) : caption_(std::move(caption)) {}

Table& Table::header(std::vector<std::string> cols) {
  header_ = std::move(cols);
  return *this;
}

Table& Table::row(std::vector<Cell> cells) {
  BA_REQUIRE(header_.empty() || cells.size() == header_.size(),
             "row width must match header width");
  rows_.push_back(std::move(cells));
  return *this;
}

std::string Table::render(const Cell& c) {
  if (const auto* s = std::get_if<std::string>(&c)) return *s;
  if (const auto* i = std::get_if<std::int64_t>(&c)) return std::to_string(*i);
  const double d = std::get<double>(c);
  char buf[64];
  if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.1f", d);
  } else {
    std::snprintf(buf, sizeof buf, "%.4g", d);
  }
  return buf;
}

void Table::print(std::ostream& os) const {
  os << "== " << caption_ << " ==\n";
  std::vector<std::vector<std::string>> cells;
  cells.push_back(header_);
  for (const auto& r : rows_) {
    std::vector<std::string> row;
    row.reserve(r.size());
    for (const auto& c : r) row.push_back(render(c));
    cells.push_back(std::move(row));
  }
  std::vector<std::size_t> widths;
  for (const auto& row : cells) {
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (std::size_t i = 0; i < row.size(); ++i)
      widths[i] = std::max(widths[i], row[i].size());
  }
  for (std::size_t ri = 0; ri < cells.size(); ++ri) {
    const auto& row = cells[ri];
    for (std::size_t i = 0; i < row.size(); ++i) {
      os << row[i];
      if (i + 1 < row.size())
        os << std::string(widths[i] - row[i].size() + 2, ' ');
    }
    os << '\n';
    if (ri == 0 && !header_.empty()) {
      std::size_t total = 0;
      for (std::size_t i = 0; i < widths.size(); ++i)
        total += widths[i] + (i + 1 < widths.size() ? 2 : 0);
      os << std::string(total, '-') << '\n';
    }
  }
  os << '\n';
}

}  // namespace ba
