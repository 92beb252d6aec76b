#include "coverage/visibility.hpp"

#include <algorithm>
#include <cmath>

#include "util/units.hpp"

namespace mpleo::cov {

std::vector<Pass> find_passes(const orbit::EphemerisTable& ephemeris,
                              const orbit::TopocentricFrame& site,
                              const orbit::TimeGrid& grid, double elevation_mask_deg) {
  const double mask_rad = util::deg_to_rad(elevation_mask_deg);
  std::vector<Pass> passes;
  bool in_pass = false;
  Pass current;
  for (std::size_t i = 0; i < ephemeris.size(); ++i) {
    const double elevation = site.elevation_rad(ephemeris.position_ecef(i));
    const bool visible = elevation >= mask_rad;
    const double offset = grid.step_seconds * static_cast<double>(i);
    if (visible && !in_pass) {
      in_pass = true;
      current = Pass{offset, offset + grid.step_seconds, elevation};
    } else if (visible) {
      current.end_offset_s = offset + grid.step_seconds;
      current.max_elevation_rad = std::max(current.max_elevation_rad, elevation);
    } else if (in_pass) {
      in_pass = false;
      passes.push_back(current);
    }
  }
  if (in_pass) passes.push_back(current);
  return passes;
}

double footprint_half_angle_rad(double altitude_m, double elevation_mask_deg) {
  const double re = util::kEarthMeanRadiusM;
  const double el = util::deg_to_rad(elevation_mask_deg);
  // lambda = acos(Re/(Re+h) * cos(el)) - el   (spherical Earth geometry)
  return std::acos(re / (re + altitude_m) * std::cos(el)) - el;
}

double footprint_area_fraction(double altitude_m, double elevation_mask_deg) {
  const double lambda = footprint_half_angle_rad(altitude_m, elevation_mask_deg);
  return (1.0 - std::cos(lambda)) / 2.0;
}

}  // namespace mpleo::cov
