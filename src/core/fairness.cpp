#include "core/fairness.hpp"

#include <vector>

namespace mpleo::core {

double jain_fairness_index(std::span<const double> allocations) noexcept {
  if (allocations.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double x : allocations) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq <= 0.0) return 1.0;
  return sum * sum / (static_cast<double>(allocations.size()) * sum_sq);
}

double service_fairness(const net::ScheduleResult& usage) noexcept {
  std::vector<double> service;
  service.reserve(usage.per_party.size());
  for (const net::PartyUsage& u : usage.per_party) {
    service.push_back(u.own_link_seconds + u.spare_used_seconds);
  }
  return jain_fairness_index(service);
}

}  // namespace mpleo::core
