#include "net/traffic.hpp"

#include <gtest/gtest.h>

#include "util/units.hpp"

namespace mpleo::net {
namespace {

const orbit::TimePoint kMidnightUtc = orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z");

TEST(LocalSolarHour, GreenwichMatchesUtc) {
  EXPECT_NEAR(local_solar_hour(kMidnightUtc, 0.0), 0.0, 1e-9);
  EXPECT_NEAR(local_solar_hour(kMidnightUtc.plus_seconds(6 * 3600.0), 0.0), 6.0, 1e-9);
}

TEST(LocalSolarHour, LongitudeOffsets) {
  // +90 deg east = +6 hours local.
  EXPECT_NEAR(local_solar_hour(kMidnightUtc, util::deg_to_rad(90.0)), 6.0, 1e-9);
  // -90 deg = -6 hours -> wraps to 18.
  EXPECT_NEAR(local_solar_hour(kMidnightUtc, util::deg_to_rad(-90.0)), 18.0, 1e-9);
  // 180 deg at noon UTC wraps past midnight.
  EXPECT_NEAR(local_solar_hour(kMidnightUtc.plus_seconds(12 * 3600.0),
                               util::deg_to_rad(180.0)),
              0.0, 1e-9);
}

TEST(DiurnalDemand, PeaksAtPeakHour) {
  DiurnalProfile profile;
  // Find UTC time where local hour at lon 0 is the peak hour.
  const auto peak_time =
      kMidnightUtc.plus_seconds(profile.peak_local_hour * 3600.0);
  const double at_peak = diurnal_demand_bps(profile, peak_time, 0.0);
  EXPECT_NEAR(at_peak, profile.peak_bps, 1e-6);

  // 12 hours off-peak (8 am local vs an 8 pm peak) is near the base load.
  const auto off_time = kMidnightUtc.plus_seconds(8.0 * 3600.0);
  const double off_peak = diurnal_demand_bps(profile, off_time, 0.0);
  EXPECT_LT(off_peak, profile.base_bps * 1.3);
  EXPECT_GE(off_peak, profile.base_bps);
}

TEST(DiurnalDemand, BoundedBetweenBaseAndPeak) {
  DiurnalProfile profile;
  for (int h = 0; h < 24; ++h) {
    const double d = diurnal_demand_bps(profile, kMidnightUtc.plus_seconds(h * 3600.0),
                                        util::deg_to_rad(121.5));
    EXPECT_GE(d, profile.base_bps - 1e-6);
    EXPECT_LE(d, profile.peak_bps + 1e-6);
  }
}

TEST(DiurnalDemand, EveningInTokyoIsMorningInNewYork) {
  // Same UTC instant: Tokyo (139.7 E) at local evening peak, New York
  // (74 W, ~14 h earlier) far from peak — the time-zone offset MP-LEO
  // capacity sharing exploits.
  DiurnalProfile profile;
  const auto t = kMidnightUtc.plus_seconds(
      (profile.peak_local_hour - 139.6503 / 15.0) * 3600.0);
  const double tokyo = diurnal_demand_bps(profile, t, util::deg_to_rad(139.6503));
  const double nyc = diurnal_demand_bps(profile, t, util::deg_to_rad(-74.006));
  EXPECT_GT(tokyo, nyc * 2.0);
}

}  // namespace
}  // namespace mpleo::net
