#include "coverage/doppler.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "orbit/propagator.hpp"
#include "util/units.hpp"

namespace mpleo::cov {
namespace {

const orbit::TimePoint kEpoch = orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z");

constellation::Satellite overhead_sat() {
  constellation::Satellite sat;
  sat.elements = orbit::ClassicalElements::circular(550e3, 53.0, 121.0, 25.0);
  sat.epoch = kEpoch;
  return sat;
}

TEST(Doppler, MaxBoundIsOrbitalVelocityScaled) {
  // 550 km: v ~ 7.59 km/s -> at 11.7 GHz, ~296 kHz.
  const double bound = max_doppler_bound_hz(550e3, 11.7e9);
  EXPECT_NEAR(bound, 296e3, 5e3);
}

TEST(Doppler, ProfileWithinBoundAndSignFlips) {
  const orbit::TimeGrid grid = orbit::TimeGrid::over_duration(kEpoch, 86400.0, 10.0);
  const orbit::TopocentricFrame site(orbit::Geodetic::from_degrees(25.0, 121.5));
  const double carrier = 11.7e9;
  const auto profile = doppler_profile(overhead_sat(), site, grid, 10.0, carrier);
  ASSERT_GT(profile.size(), 10u);

  const double bound = max_doppler_bound_hz(550e3, carrier);
  bool saw_positive = false, saw_negative = false;
  for (const DopplerSample& s : profile) {
    EXPECT_LE(std::fabs(s.doppler_shift_hz), bound * 1.05);
    if (s.doppler_shift_hz > 0.0) saw_positive = true;
    if (s.doppler_shift_hz < 0.0) saw_negative = true;
    EXPECT_GE(s.elevation_rad, util::deg_to_rad(10.0) - 1e-9);
    EXPECT_GT(s.range_m, 500e3);
  }
  // An overhead pass approaches (positive shift) then recedes (negative).
  EXPECT_TRUE(saw_positive);
  EXPECT_TRUE(saw_negative);
}

TEST(Doppler, ZeroCrossingNearClosestApproach) {
  const orbit::TimeGrid grid = orbit::TimeGrid::over_duration(kEpoch, 86400.0, 5.0);
  const orbit::TopocentricFrame site(orbit::Geodetic::from_degrees(25.0, 121.5));
  const auto profile = doppler_profile(overhead_sat(), site, grid, 10.0, 11.7e9);
  ASSERT_GT(profile.size(), 10u);

  // Find the minimum-range sample of the first contiguous pass.
  std::size_t pass_end = 1;
  while (pass_end < profile.size() &&
         profile[pass_end].offset_seconds - profile[pass_end - 1].offset_seconds < 10.0) {
    ++pass_end;
  }
  std::size_t min_index = 0;
  for (std::size_t i = 1; i < pass_end; ++i) {
    if (profile[i].range_m < profile[min_index].range_m) min_index = i;
  }
  // Range-rate is near zero at closest approach (within one 5 s step of
  // slewing, the rate magnitude stays small vs the 7.6 km/s orbital speed).
  EXPECT_LT(std::fabs(profile[min_index].range_rate_m_per_s), 700.0);
}

TEST(Doppler, RangeRateConsistentWithFiniteDifference) {
  const orbit::TimeGrid grid = orbit::TimeGrid::over_duration(kEpoch, 86400.0, 2.0);
  const orbit::TopocentricFrame site(orbit::Geodetic::from_degrees(25.0, 121.5));
  const auto profile = doppler_profile(overhead_sat(), site, grid, 15.0, 11.7e9);
  ASSERT_GT(profile.size(), 5u);
  for (std::size_t i = 1; i + 1 < profile.size(); ++i) {
    if (profile[i + 1].offset_seconds - profile[i - 1].offset_seconds > 4.5) continue;
    const double fd = (profile[i + 1].range_m - profile[i - 1].range_m) / 4.0;
    EXPECT_NEAR(profile[i].range_rate_m_per_s, fd, 30.0);
  }
}

TEST(Doppler, EmptyWhenNeverVisible) {
  const orbit::TimeGrid grid = orbit::TimeGrid::over_duration(kEpoch, 3600.0, 10.0);
  const orbit::TopocentricFrame oslo(orbit::Geodetic::from_degrees(59.9, 10.7));
  constellation::Satellite equatorial;
  equatorial.elements = orbit::ClassicalElements::circular(550e3, 0.0, 0.0, 0.0);
  equatorial.epoch = kEpoch;
  EXPECT_TRUE(doppler_profile(equatorial, oslo, grid, 25.0, 11.7e9).empty());
}

TEST(Doppler, TableOverloadMatchesSatelliteOverload) {
  // The satellite form builds its table through the same shared kernel, so a
  // caller-precomputed table reproduces the profile sample for sample.
  const orbit::TimeGrid grid = orbit::TimeGrid::over_duration(kEpoch, 86400.0, 10.0);
  const orbit::TopocentricFrame site(orbit::Geodetic::from_degrees(25.0, 121.5));
  const constellation::Satellite sat = overhead_sat();
  const orbit::KeplerianPropagator prop(sat.elements, sat.epoch);
  const orbit::EphemerisTable table =
      orbit::EphemerisTable::compute(prop, grid, orbit::GmstTable::for_grid(grid));

  const auto from_table = doppler_profile(sat, table, site, grid, 10.0, 11.7e9);
  const auto from_satellite = doppler_profile(sat, site, grid, 10.0, 11.7e9);
  ASSERT_EQ(from_table.size(), from_satellite.size());
  for (std::size_t i = 0; i < from_table.size(); ++i) {
    EXPECT_EQ(from_table[i].offset_seconds, from_satellite[i].offset_seconds);
    EXPECT_EQ(from_table[i].range_m, from_satellite[i].range_m);
    EXPECT_EQ(from_table[i].doppler_shift_hz, from_satellite[i].doppler_shift_hz);
  }
}

TEST(Doppler, HigherCarrierScalesShift) {
  const orbit::TimeGrid grid = orbit::TimeGrid::over_duration(kEpoch, 86400.0, 10.0);
  const orbit::TopocentricFrame site(orbit::Geodetic::from_degrees(25.0, 121.5));
  const auto ku = doppler_profile(overhead_sat(), site, grid, 10.0, 11.7e9);
  const auto ka = doppler_profile(overhead_sat(), site, grid, 10.0, 23.4e9);
  ASSERT_EQ(ku.size(), ka.size());
  for (std::size_t i = 0; i < ku.size(); ++i) {
    EXPECT_NEAR(ka[i].doppler_shift_hz, 2.0 * ku[i].doppler_shift_hz,
                std::fabs(ku[i].doppler_shift_hz) * 1e-9 + 1e-6);
  }
}

}  // namespace
}  // namespace mpleo::cov
