#include "net/traffic.hpp"

#include <cmath>

#include "util/units.hpp"

namespace mpleo::net {

double local_solar_hour(const orbit::TimePoint& utc, double longitude_rad) noexcept {
  const orbit::CivilTime civil = utc.to_civil();
  const double utc_hours = civil.hour + civil.minute / 60.0 + civil.second / 3600.0;
  double local = utc_hours + util::rad_to_deg(longitude_rad) / 15.0;
  local = std::fmod(local, 24.0);
  if (local < 0.0) local += 24.0;
  return local;
}

double diurnal_demand_bps(const DiurnalProfile& profile, const orbit::TimePoint& t,
                          double longitude_rad) noexcept {
  const double hour = local_solar_hour(t, longitude_rad);
  // Circular distance to the peak hour, in [0, 12].
  double dh = std::fabs(hour - profile.peak_local_hour);
  dh = std::min(dh, 24.0 - dh);
  const double sigma = profile.spread_hours;
  const double bump = std::exp(-(dh * dh) / (2.0 * sigma * sigma));
  return profile.base_bps + (profile.peak_bps - profile.base_bps) * bump;
}

}  // namespace mpleo::net
