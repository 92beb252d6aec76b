// Fairness metric (§3.2: "What constitutes good behavior for participating
// parties in such a shared network?"), operationalised as Jain's fairness
// index over the service each party's terminals received.
#pragma once

#include <span>

#include "net/scheduler.hpp"

namespace mpleo::core {

// Jain's index: (sum x)^2 / (n * sum x^2), in (0, 1]; 1 = perfectly fair.
// Empty or all-zero input yields 1 (nothing to be unfair about).
[[nodiscard]] double jain_fairness_index(std::span<const double> allocations) noexcept;

// Fairness of received service (own + spare seconds per party).
[[nodiscard]] double service_fairness(const net::ScheduleResult& usage) noexcept;

}  // namespace mpleo::core
