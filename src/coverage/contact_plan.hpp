// Contact plans: the schedule of (satellite, site, start, end) windows that
// DTN routers and ground-station schedulers consume. This is the standard
// interchange artifact between a constellation simulator and an operations
// stack.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "constellation/shell.hpp"
#include "coverage/engine.hpp"

namespace mpleo::cov {

struct Contact {
  constellation::SatelliteId satellite = 0;
  std::string site_name;
  double start_offset_s = 0.0;
  double end_offset_s = 0.0;

  [[nodiscard]] double duration_s() const noexcept { return end_offset_s - start_offset_s; }
};

// Builds the full contact plan of `satellites` over `sites` on the engine's
// grid, sorted by start time (ties by satellite id).
[[nodiscard]] std::vector<Contact> build_contact_plan(
    const CoverageEngine& engine,
    std::span<const constellation::Satellite> satellites,
    std::span<const GroundSite> sites);

// Total contact seconds per site name (aggregation used by capacity checks).
[[nodiscard]] double total_contact_seconds(std::span<const Contact> contacts,
                                           const std::string& site_name);

}  // namespace mpleo::cov
