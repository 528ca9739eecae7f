#include "polaris/support/table.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

namespace polaris::support {

std::string Table::to_cell(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void Table::print(std::ostream& os) const {
  // Column widths over header + all rows.
  std::size_t ncols = header_.size();
  for (const auto& r : rows_) ncols = std::max(ncols, r.size());
  std::vector<std::size_t> width(ncols, 0);
  auto widen = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i)
      width[i] = std::max(width[i], cells[i].size());
  };
  widen(header_);
  for (const auto& r : rows_) widen(r);

  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < ncols; ++i) {
      const std::string& s = i < cells.size() ? cells[i] : std::string{};
      os << s;
      if (i + 1 < ncols) os << std::string(width[i] - s.size() + 2, ' ');
    }
    os << "\n";
  };

  if (!title_.empty()) os << "== " << title_ << " ==\n";
  if (!header_.empty()) {
    emit(header_);
    std::size_t total = 0;
    for (std::size_t i = 0; i < ncols; ++i) total += width[i] + 2;
    os << std::string(total > 2 ? total - 2 : total, '-') << "\n";
  }
  for (const auto& r : rows_) emit(r);
}

}  // namespace polaris::support
