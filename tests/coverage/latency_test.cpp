#include "coverage/latency.hpp"

#include <gtest/gtest.h>

#include "coverage/cities.hpp"
#include "orbit/propagator.hpp"
#include "util/units.hpp"

namespace mpleo::cov {
namespace {

TEST(Latency, OneWayDelayIsLightTime) {
  EXPECT_NEAR(one_way_delay_ms(299792458.0), 1000.0, 1e-9);
  EXPECT_NEAR(one_way_delay_ms(550e3), 1.83, 0.01);
}

TEST(Latency, GeoReferenceValue) {
  // 35786 km -> ~119.4 ms one way.
  EXPECT_NEAR(geo_zenith_one_way_delay_ms(), 119.4, 0.3);
}

TEST(Latency, LeoOrdersOfMagnitudeBelowGeo) {
  // The paper's §2 claim: LEO latency is orders of magnitude below GEO.
  const orbit::TimeGrid grid = orbit::TimeGrid::over_duration(
      orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z"), 2.0 * 86400.0, 60.0);
  constellation::Satellite sat;
  sat.elements = orbit::ClassicalElements::circular(550e3, 53.0, 120.0, 40.0);
  sat.epoch = grid.start;
  const orbit::TopocentricFrame taipei_frame(taipei().location);

  const LatencyStats stats = propagation_latency_stats(sat, taipei_frame, grid, 25.0);
  ASSERT_GT(stats.visible_steps, 0u);
  // At 25 deg mask the slant range is 550..~1150 km: 1.8-4 ms one way.
  EXPECT_GE(stats.min_one_way_ms, one_way_delay_ms(550e3) - 0.05);
  EXPECT_LE(stats.max_one_way_ms, 4.5);
  EXPECT_GT(geo_zenith_one_way_delay_ms() / stats.mean_one_way_ms, 25.0);
  // Bent-pipe RTT stays well under the GEO single hop.
  EXPECT_LT(stats.mean_bent_pipe_rtt_ms(), 20.0);
}

TEST(Latency, MinAtMostMeanAtMostMax) {
  const orbit::TimeGrid grid = orbit::TimeGrid::over_duration(
      orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z"), 86400.0, 30.0);
  constellation::Satellite sat;
  sat.elements = orbit::ClassicalElements::circular(550e3, 53.0, 10.0, 0.0);
  sat.epoch = grid.start;
  const orbit::TopocentricFrame site(orbit::Geodetic::from_degrees(25.0, 121.5));
  const LatencyStats stats = propagation_latency_stats(sat, site, grid, 25.0);
  if (stats.visible_steps > 0) {
    EXPECT_LE(stats.min_one_way_ms, stats.mean_one_way_ms);
    EXPECT_LE(stats.mean_one_way_ms, stats.max_one_way_ms);
  }
}

TEST(Latency, NoVisibilityYieldsZeroStats) {
  const orbit::TimeGrid grid = orbit::TimeGrid::over_duration(
      orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z"), 3600.0, 60.0);
  constellation::Satellite sat;
  sat.elements = orbit::ClassicalElements::circular(550e3, 0.0, 0.0, 0.0);  // equatorial
  sat.epoch = grid.start;
  const orbit::TopocentricFrame oslo(orbit::Geodetic::from_degrees(59.9, 10.7));
  const LatencyStats stats = propagation_latency_stats(sat, oslo, grid, 25.0);
  EXPECT_EQ(stats.visible_steps, 0u);
  EXPECT_EQ(stats.mean_one_way_ms, 0.0);
}

TEST(Latency, LowerMaskAllowsLongerRanges) {
  const orbit::TimeGrid grid = orbit::TimeGrid::over_duration(
      orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z"), 86400.0, 30.0);
  constellation::Satellite sat;
  sat.elements = orbit::ClassicalElements::circular(550e3, 53.0, 10.0, 0.0);
  sat.epoch = grid.start;
  const orbit::TopocentricFrame site(orbit::Geodetic::from_degrees(25.0, 121.5));
  const LatencyStats tight = propagation_latency_stats(sat, site, grid, 40.0);
  const LatencyStats loose = propagation_latency_stats(sat, site, grid, 10.0);
  ASSERT_GT(tight.visible_steps, 0u);
  EXPECT_GE(loose.visible_steps, tight.visible_steps);
  EXPECT_GE(loose.max_one_way_ms, tight.max_one_way_ms);
}

TEST(Latency, TableOverloadMatchesSatelliteOverload) {
  // The satellite form propagates through the shared ephemeris kernel and
  // delegates, so a caller-precomputed table yields identical statistics.
  const orbit::TimeGrid grid = orbit::TimeGrid::over_duration(
      orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z"), 86400.0, 60.0);
  constellation::Satellite sat;
  sat.elements = orbit::ClassicalElements::circular(550e3, 53.0, 120.0, 40.0);
  sat.epoch = grid.start;
  const orbit::TopocentricFrame taipei_frame(taipei().location);

  const orbit::KeplerianPropagator prop(sat.elements, sat.epoch);
  const orbit::EphemerisTable table =
      orbit::EphemerisTable::compute(prop, grid, orbit::GmstTable::for_grid(grid));
  const LatencyStats from_table =
      propagation_latency_stats(table, taipei_frame, grid, 25.0);
  const LatencyStats from_satellite =
      propagation_latency_stats(sat, taipei_frame, grid, 25.0);
  ASSERT_GT(from_table.visible_steps, 0u);
  EXPECT_EQ(from_table.visible_steps, from_satellite.visible_steps);
  EXPECT_EQ(from_table.min_one_way_ms, from_satellite.min_one_way_ms);
  EXPECT_EQ(from_table.mean_one_way_ms, from_satellite.mean_one_way_ms);
  EXPECT_EQ(from_table.max_one_way_ms, from_satellite.max_one_way_ms);
}

}  // namespace
}  // namespace mpleo::cov
