// Conjunction screening and orbital occupancy — the §1 sustainability
// argument ("increased orbital congestion, with higher risks of collisions")
// made measurable. MP-LEO's pitch is that one shared constellation occupies
// fewer altitude bands with fewer satellites than N redundant sovereign
// constellations; these tools quantify both the crowding and the
// close-approach load.
#pragma once

#include <cstddef>
#include <map>
#include <span>
#include <vector>

#include "constellation/shell.hpp"
#include "orbit/propagator.hpp"
#include "orbit/time.hpp"

namespace mpleo::orbit {

struct CloseApproach {
  std::size_t satellite_a = 0;  // indices into the screened set
  std::size_t satellite_b = 0;
  double min_distance_m = 0.0;
  double offset_seconds = 0.0;  // from grid start, at the sampled minimum
};

// All pairs whose minimum separation across the grid falls below
// `threshold_m`, sorted by ascending distance. The minimum is sampled at grid
// resolution: LEO relative velocities of ~10 km/s mean a 1 s step resolves
// to ~10 km, so choose the step to match the threshold. O(n^2 * steps):
// intended for screening shells or samples, not 10k-satellite catalogs at
// 1 s resolution.
[[nodiscard]] std::vector<CloseApproach> screen_conjunctions(
    std::span<const constellation::Satellite> satellites, const TimeGrid& grid,
    double threshold_m);

// Orbital occupancy: satellites per altitude band (keyed by the band's lower
// edge in metres). The abstract's "orbital occupancy" metric.
[[nodiscard]] std::map<double, std::size_t> altitude_occupancy(
    std::span<const constellation::Satellite> satellites, double band_width_m);

// Crowding index: mean satellites per occupied band (higher = more crowded
// shells, more coordination burden).
[[nodiscard]] double crowding_index(const std::map<double, std::size_t>& occupancy);

}  // namespace mpleo::orbit
