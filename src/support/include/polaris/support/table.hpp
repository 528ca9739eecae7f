// Aligned ASCII tables for benchmark/experiment output.
//
// Every bench binary prints its figure/table through this so that
// EXPERIMENTS.md rows and regenerated output share one format.
#pragma once

#include <initializer_list>
#include <iosfwd>
#include <string>
#include <vector>

namespace polaris::support {

/// Column-aligned ASCII table with an optional title.
///
///   Table t("F2: ping-pong latency");
///   t.header({"bytes", "fabric", "latency"});
///   t.row({"8", "infiniband", "5.1 us"});
///   t.print(std::cout);
class Table {
 public:
  Table() = default;
  explicit Table(std::string title) : title_(std::move(title)) {}

  void header(std::initializer_list<std::string> cols) {
    header_.assign(cols.begin(), cols.end());
  }
  void header(std::vector<std::string> cols) { header_ = std::move(cols); }

  void row(std::initializer_list<std::string> cells) {
    rows_.emplace_back(cells.begin(), cells.end());
  }
  void row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  /// Builds a row from heterogeneous cells via to_cell().
  template <typename... Ts>
  void add(const Ts&... cells) {
    rows_.push_back({to_cell(cells)...});
  }

  std::size_t row_count() const { return rows_.size(); }
  const std::string& cell(std::size_t r, std::size_t c) const {
    return rows_.at(r).at(c);
  }

  /// Pretty-prints with column alignment.
  void print(std::ostream& os) const;

  static std::string to_cell(const std::string& s) { return s; }
  static std::string to_cell(const char* s) { return s; }
  static std::string to_cell(double v);
  static std::string to_cell(float v) { return to_cell(double{v}); }
  static std::string to_cell(int v) { return std::to_string(v); }
  static std::string to_cell(long v) { return std::to_string(v); }
  static std::string to_cell(long long v) { return std::to_string(v); }
  static std::string to_cell(unsigned v) { return std::to_string(v); }
  static std::string to_cell(unsigned long v) { return std::to_string(v); }
  static std::string to_cell(unsigned long long v) {
    return std::to_string(v);
  }

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace polaris::support
