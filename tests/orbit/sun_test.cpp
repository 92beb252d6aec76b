#include "orbit/sun.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "orbit/propagator.hpp"
#include "util/units.hpp"

namespace mpleo::orbit {
namespace {

// Fraction of the grid's steps outside Earth's shadow, sampled the way
// ablate_power builds its sunlit mask.
double sunlit_fraction(const KeplerianPropagator& propagator, const TimeGrid& grid) {
  std::size_t sunlit = 0;
  for (std::size_t i = 0; i < grid.count; ++i) {
    const TimePoint t = grid.at(i);
    if (!is_eclipsed(propagator.state_at(t).position, sun_direction_eci(t))) ++sunlit;
  }
  return static_cast<double>(sunlit) / static_cast<double>(grid.count);
}

TEST(Sun, DirectionIsUnitVector) {
  for (const char* iso : {"2024-03-20T00:00:00Z", "2024-06-20T12:00:00Z",
                          "2024-11-18T00:00:00Z"}) {
    const util::Vec3 s = sun_direction_eci(TimePoint::from_iso8601(iso));
    EXPECT_NEAR(s.norm(), 1.0, 1e-9);
  }
}

TEST(Sun, EquinoxDeclinationNearZero) {
  // Around the March 2024 equinox (Mar 20 ~03:06 UTC) the solar declination
  // crosses zero.
  const util::Vec3 s = sun_direction_eci(TimePoint::from_iso8601("2024-03-20T03:00:00Z"));
  EXPECT_NEAR(util::rad_to_deg(std::asin(s.z)), 0.0, 0.2);
}

TEST(Sun, SolsticeDeclinationExtremes) {
  const util::Vec3 june =
      sun_direction_eci(TimePoint::from_iso8601("2024-06-20T21:00:00Z"));
  EXPECT_NEAR(util::rad_to_deg(std::asin(june.z)), 23.44, 0.1);
  const util::Vec3 december =
      sun_direction_eci(TimePoint::from_iso8601("2024-12-21T09:00:00Z"));
  EXPECT_NEAR(util::rad_to_deg(std::asin(december.z)), -23.44, 0.1);
}

TEST(Eclipse, SunSideNeverEclipsed) {
  const util::Vec3 sun{1.0, 0.0, 0.0};
  EXPECT_FALSE(is_eclipsed({7000e3, 0.0, 0.0}, sun));
  EXPECT_FALSE(is_eclipsed({7000e3, 3000e3, 0.0}, sun));
}

TEST(Eclipse, AntiSolarPointIsEclipsed) {
  const util::Vec3 sun{1.0, 0.0, 0.0};
  EXPECT_TRUE(is_eclipsed({-7000e3, 0.0, 0.0}, sun));
  // Inside the cylinder laterally.
  EXPECT_TRUE(is_eclipsed({-7000e3, 5000e3, 0.0}, sun));
  // Outside the cylinder (lateral offset > Earth radius).
  EXPECT_FALSE(is_eclipsed({-7000e3, 7000e3, 0.0}, sun));
}

TEST(Eclipse, TerminatorPlaneBoundary) {
  const util::Vec3 sun{0.0, 0.0, 1.0};
  // Exactly on the terminator plane counts as sunlit.
  EXPECT_FALSE(is_eclipsed({7000e3, 0.0, 0.0}, sun));
}

TEST(SunlitFraction, LeoOrbitRoughlyTwoThirdsSunlit) {
  // A 550 km LEO spends roughly 60-70% of each orbit in sunlight.
  const TimePoint epoch = TimePoint::from_iso8601("2024-11-18T00:00:00Z");
  const KeplerianPropagator prop(
      ClassicalElements::circular(550e3, 53.0, 40.0, 0.0), epoch);
  const TimeGrid grid = TimeGrid::over_duration(epoch, 86400.0, 60.0);
  const double sunlit = sunlit_fraction(prop, grid);
  EXPECT_GT(sunlit, 0.55);
  EXPECT_LT(sunlit, 0.85);
}

TEST(SunlitFraction, DawnDuskSsoMostlySunlit) {
  // A dawn-dusk sun-synchronous orbit rides the terminator and is sunlit
  // almost continuously — more than a mid-inclination orbit.
  const TimePoint epoch = TimePoint::from_iso8601("2024-11-18T00:00:00Z");
  const TimeGrid grid = TimeGrid::over_duration(epoch, 86400.0, 60.0);
  const KeplerianPropagator mid(
      ClassicalElements::circular(550e3, 53.0, 40.0, 0.0), epoch);
  // Sweep RAAN to find the most-sunlit SSO plane (dawn-dusk geometry
  // depends on where the sun is at this epoch).
  double best = 0.0;
  for (double raan = 0.0; raan < 360.0; raan += 30.0) {
    const KeplerianPropagator sso(
        ClassicalElements::circular(560e3, 97.6, raan, 0.0), epoch);
    best = std::max(best, sunlit_fraction(sso, grid));
  }
  EXPECT_GT(best, sunlit_fraction(mid, grid));
  EXPECT_GT(best, 0.9);
}

}  // namespace
}  // namespace mpleo::orbit
