#include "net/handover.hpp"

#include <cmath>

#include "fault/timeline.hpp"
#include "orbit/ephemeris.hpp"
#include "util/units.hpp"

namespace mpleo::net {

std::vector<std::uint32_t> serving_satellite_timeline(
    const cov::CoverageEngine& engine,
    std::span<const constellation::Satellite> satellites,
    const orbit::TopocentricFrame& terminal, const fault::FaultTimeline* faults) {
  const orbit::TimeGrid& grid = engine.grid();
  const double mask_rad = util::deg_to_rad(engine.elevation_mask_deg());
  const orbit::EphemerisSet ephemerides = engine.ephemerides(satellites);
  const bool faulted = faults != nullptr && !faults->empty();

  std::vector<std::uint32_t> timeline(grid.count, kNoSatellite);
  for (std::size_t step = 0; step < grid.count; ++step) {
    double best_elevation = mask_rad;
    for (std::size_t si = 0; si < satellites.size(); ++si) {
      if (faulted && !faults->satellite_available(si, step)) continue;
      const double elevation =
          terminal.elevation_rad(ephemerides.table(si).position_ecef(step));
      if (elevation >= best_elevation) {
        best_elevation = elevation;
        timeline[step] = static_cast<std::uint32_t>(si);
      }
    }
  }
  return timeline;
}

HandoverStats handover_stats(std::span<const std::uint32_t> timeline,
                             double step_seconds, const fault::FaultTimeline* faults) {
  HandoverStats stats;
  if (timeline.empty()) return stats;

  const bool faulted = faults != nullptr && !faults->empty();
  std::size_t connected_steps = 0;
  std::size_t dwell_segments = 0;
  std::uint32_t previous = kNoSatellite;
  for (std::size_t step = 0; step < timeline.size(); ++step) {
    const std::uint32_t serving = timeline[step];
    // A transition away from a satellite that is down *now* was forced by
    // the failure; losing a healthy satellite is ordinary orbital motion.
    const bool previous_failed =
        faulted && previous != kNoSatellite &&
        !faults->satellite_available(previous, step);
    if (serving != kNoSatellite) {
      ++connected_steps;
      if (previous == kNoSatellite) {
        ++dwell_segments;  // (re)acquisition starts a dwell
      } else if (serving != previous) {
        ++stats.handover_count;
        ++dwell_segments;
        if (previous_failed) ++stats.failure_handover_count;
      }
    } else if (previous != kNoSatellite) {
      ++stats.outage_count;
      if (previous_failed) ++stats.failure_outage_count;
    }
    previous = serving;
  }

  stats.connected_fraction =
      static_cast<double>(connected_steps) / static_cast<double>(timeline.size());
  const double connected_seconds = static_cast<double>(connected_steps) * step_seconds;
  if (dwell_segments > 0) {
    stats.mean_dwell_seconds = connected_seconds / static_cast<double>(dwell_segments);
  }
  if (connected_seconds > 0.0) {
    stats.handovers_per_hour =
        static_cast<double>(stats.handover_count) / (connected_seconds / 3600.0);
  }
  return stats;
}

}  // namespace mpleo::net
