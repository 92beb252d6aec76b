// Satellite-to-ground visibility: pass extraction and footprint geometry.
#pragma once

#include <vector>

#include "orbit/ephemeris.hpp"
#include "orbit/geodesy.hpp"
#include "orbit/time.hpp"

namespace mpleo::cov {

// One contiguous visibility window of a satellite over a site.
struct Pass {
  double start_offset_s = 0.0;  // seconds from grid start
  double end_offset_s = 0.0;    // exclusive
  double max_elevation_rad = 0.0;

  [[nodiscard]] double duration_s() const noexcept { return end_offset_s - start_offset_s; }
};

// Finds all passes over `site` of the satellite whose precomputed ephemeris
// table (any backend, e.g. CoverageEngine::ephemeris) covers `grid`, with the
// peak elevation sampled at grid resolution.
[[nodiscard]] std::vector<Pass> find_passes(const orbit::EphemerisTable& ephemeris,
                                            const orbit::TopocentricFrame& site,
                                            const orbit::TimeGrid& grid,
                                            double elevation_mask_deg);

// Earth-central half-angle of the coverage footprint of a satellite at
// `altitude_m` with elevation mask `elevation_mask_deg` (spherical Earth).
// This is the analytic quantity behind "a satellite covers ~0.5% of Earth".
[[nodiscard]] double footprint_half_angle_rad(double altitude_m, double elevation_mask_deg);

// Fraction of the sphere covered by one such footprint.
[[nodiscard]] double footprint_area_fraction(double altitude_m, double elevation_mask_deg);

}  // namespace mpleo::cov
