// Offered-load models. Broadband demand is strongly diurnal — peaking in
// the local evening — which matters for MP-LEO because a satellite's spare
// capacity over region A coincides with peak demand in region B a few time
// zones away. The market/settlement examples use this to generate demand.
#pragma once

#include "orbit/time.hpp"

namespace mpleo::net {

struct DiurnalProfile {
  double base_bps = 20e6;       // overnight floor per terminal
  double peak_bps = 100e6;      // local-evening peak per terminal
  double peak_local_hour = 20.0;  // 8 pm local solar time
  // Width (hours) of the evening bulge; larger = flatter profile.
  double spread_hours = 5.0;
};

// Local mean solar time (hours, [0, 24)) at a longitude for a UTC instant.
[[nodiscard]] double local_solar_hour(const orbit::TimePoint& utc,
                                      double longitude_rad) noexcept;

// Demand of one terminal at `longitude_rad` at UTC time `t`: a Gaussian
// bump (in circular hour distance) on top of the base load.
[[nodiscard]] double diurnal_demand_bps(const DiurnalProfile& profile,
                                        const orbit::TimePoint& t,
                                        double longitude_rad) noexcept;

}  // namespace mpleo::net
