#include "polaris/obs/metrics.hpp"

#include <iomanip>

namespace polaris::obs {

namespace {

/// Heterogeneous find-or-create so lookups with string_view do not allocate
/// when the metric already exists.
template <typename Map, typename Factory>
auto& find_or_create(Map& map, std::string_view name, Factory make) {
  if (auto it = map.find(name); it != map.end()) {
    return *it->second;
  }
  auto [it, inserted] = map.emplace(std::string(name), make());
  return *it->second;
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  return find_or_create(counters_, name,
                        [] { return std::make_unique<Counter>(); });
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  return find_or_create(gauges_, name,
                        [] { return std::make_unique<Gauge>(); });
}

LogHistogram& MetricsRegistry::log_histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  return find_or_create(log_histograms_, name,
                        [] { return std::make_unique<LogHistogram>(); });
}

std::size_t MetricsRegistry::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return counters_.size() + gauges_.size() + log_histograms_.size();
}

void MetricsRegistry::dump(std::ostream& os) const {
  const std::lock_guard<std::mutex> lock(mu_);
  // One ordered pass per kind; std::map keeps each alphabetical.
  for (const auto& [name, c] : counters_) {
    os << name << " counter " << c->value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    os << name << " gauge " << g->value() << "\n";
  }
  for (const auto& [name, h] : log_histograms_) {
    os << name << " loghist count=" << h->count() << " mean=" << h->mean()
       << " p50=" << h->percentile(50.0) << " p99=" << h->percentile(99.0)
       << " max=" << h->max() << "\n";
  }
}

}  // namespace polaris::obs
