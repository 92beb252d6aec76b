#include "orbit/sun.hpp"

#include <cmath>

#include "util/units.hpp"

namespace mpleo::orbit {

util::Vec3 sun_direction_eci(const TimePoint& t) noexcept {
  // Astronomical Almanac low-precision solar coordinates.
  const double n = t.julian_date() - kJ2000Jd;
  const double mean_longitude_deg = 280.460 + 0.9856474 * n;
  const double mean_anomaly_rad = util::deg_to_rad(357.528 + 0.9856003 * n);
  const double ecliptic_longitude_rad =
      util::deg_to_rad(mean_longitude_deg + 1.915 * std::sin(mean_anomaly_rad) +
                       0.020 * std::sin(2.0 * mean_anomaly_rad));
  const double obliquity_rad = util::deg_to_rad(23.439 - 4.0e-7 * n);

  return {std::cos(ecliptic_longitude_rad),
          std::cos(obliquity_rad) * std::sin(ecliptic_longitude_rad),
          std::sin(obliquity_rad) * std::sin(ecliptic_longitude_rad)};
}

bool is_eclipsed(const util::Vec3& position_eci, const util::Vec3& sun_direction) noexcept {
  // Cylindrical shadow: behind the terminator plane and within one Earth
  // radius of the anti-solar axis.
  const double along_sun = dot(position_eci, sun_direction);
  if (along_sun >= 0.0) return false;  // sun side of Earth
  const util::Vec3 perpendicular = position_eci - along_sun * sun_direction;
  return perpendicular.norm() < util::kEarthMeanRadiusM;
}

}  // namespace mpleo::orbit
