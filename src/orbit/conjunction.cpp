#include "orbit/conjunction.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/units.hpp"

namespace mpleo::orbit {

std::vector<CloseApproach> screen_conjunctions(
    std::span<const constellation::Satellite> satellites, const TimeGrid& grid,
    double threshold_m) {
  if (threshold_m <= 0.0) {
    throw std::invalid_argument("screen_conjunctions: threshold must be > 0");
  }
  // Precompute ECI positions per satellite per step (time-major would thrash
  // propagators; satellite-major reuses each one).
  std::vector<std::vector<util::Vec3>> positions(satellites.size());
  for (std::size_t s = 0; s < satellites.size(); ++s) {
    const KeplerianPropagator prop(satellites[s].elements, satellites[s].epoch);
    positions[s].reserve(grid.count);
    const double t0 = grid.start.seconds_since(satellites[s].epoch);
    for (std::size_t i = 0; i < grid.count; ++i) {
      positions[s].push_back(prop.position_eci_at_offset(
          t0 + grid.step_seconds * static_cast<double>(i)));
    }
  }

  std::vector<CloseApproach> hits;
  const double threshold_sq = threshold_m * threshold_m;
  for (std::size_t i = 0; i < satellites.size(); ++i) {
    for (std::size_t j = i + 1; j < satellites.size(); ++j) {
      double best_sq = std::numeric_limits<double>::infinity();
      std::size_t best_step = 0;
      for (std::size_t k = 0; k < grid.count; ++k) {
        const double d_sq = (positions[i][k] - positions[j][k]).norm_squared();
        if (d_sq < best_sq) {
          best_sq = d_sq;
          best_step = k;
        }
      }
      if (best_sq < threshold_sq) {
        hits.push_back({i, j, std::sqrt(best_sq),
                        grid.step_seconds * static_cast<double>(best_step)});
      }
    }
  }
  std::sort(hits.begin(), hits.end(), [](const CloseApproach& a, const CloseApproach& b) {
    return a.min_distance_m < b.min_distance_m;
  });
  return hits;
}

std::map<double, std::size_t> altitude_occupancy(
    std::span<const constellation::Satellite> satellites, double band_width_m) {
  if (band_width_m <= 0.0) {
    throw std::invalid_argument("altitude_occupancy: band width must be > 0");
  }
  std::map<double, std::size_t> occupancy;
  for (const constellation::Satellite& sat : satellites) {
    const double altitude = sat.elements.semi_major_axis_m - util::kEarthMeanRadiusM;
    const double band = std::floor(altitude / band_width_m) * band_width_m;
    ++occupancy[band];
  }
  return occupancy;
}

double crowding_index(const std::map<double, std::size_t>& occupancy) {
  if (occupancy.empty()) return 0.0;
  std::size_t total = 0;
  for (const auto& [band, count] : occupancy) total += count;
  return static_cast<double>(total) / static_cast<double>(occupancy.size());
}

}  // namespace mpleo::orbit
