// Aligned-text table output shared by the experiment tables.
//
// Every E-series table (the `ba_sweep --grid e<k>` grids and the
// bench_e5 / bench_e8 binaries) prints in the same format: a caption
// naming the paper claim, a header row, then data rows.
#pragma once

#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

namespace ba {

/// One cell: string, integer or double (printed with %.4g-style precision).
using Cell = std::variant<std::string, std::int64_t, double>;

class Table {
 public:
  explicit Table(std::string caption);

  Table& header(std::vector<std::string> cols);
  Table& row(std::vector<Cell> cells);

  /// Aligned plain-text rendering with the caption on top and a blank
  /// line after, so consecutive tables stay apart.
  void print(std::ostream& os) const;

 private:
  static std::string render(const Cell& c);
  std::string caption_;
  std::vector<std::string> header_;
  std::vector<std::vector<Cell>> rows_;
};

}  // namespace ba
