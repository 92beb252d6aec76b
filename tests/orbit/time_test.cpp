#include "orbit/time.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "util/units.hpp"

namespace mpleo::orbit {
namespace {

TEST(TimePoint, J2000CivilConversion) {
  // J2000.0 = 2000-01-01 12:00:00 TT ~ JD 2451545.0.
  const TimePoint t = TimePoint::from_civil({2000, 1, 1, 12, 0, 0.0});
  EXPECT_DOUBLE_EQ(t.julian_date(), 2451545.0);
}

TEST(TimePoint, KnownJulianDates) {
  // Vallado example: 1996-10-26 14:20:00 -> JD 2450383.09722222.
  const TimePoint t = TimePoint::from_civil({1996, 10, 26, 14, 20, 0.0});
  EXPECT_NEAR(t.julian_date(), 2450383.09722222, 1e-7);
}

TEST(TimePoint, CivilRoundTrip) {
  const CivilTime in{2024, 11, 18, 7, 45, 30.25};
  const TimePoint t = TimePoint::from_civil(in);
  const CivilTime out = t.to_civil();
  EXPECT_EQ(out.year, in.year);
  EXPECT_EQ(out.month, in.month);
  EXPECT_EQ(out.day, in.day);
  EXPECT_EQ(out.hour, in.hour);
  EXPECT_EQ(out.minute, in.minute);
  EXPECT_NEAR(out.second, in.second, 1e-4);
}

TEST(TimePoint, RejectsInvalidCivil) {
  EXPECT_THROW((void)TimePoint::from_civil({2024, 13, 1, 0, 0, 0.0}), std::invalid_argument);
  EXPECT_THROW((void)TimePoint::from_civil({2024, 0, 1, 0, 0, 0.0}), std::invalid_argument);
  EXPECT_THROW((void)TimePoint::from_civil({1400, 1, 1, 0, 0, 0.0}), std::invalid_argument);
  // The time of day too: a NaN second would otherwise make a NaN instant.
  EXPECT_THROW((void)TimePoint::from_civil({2024, 1, 1, 24, 0, 0.0}), std::invalid_argument);
  EXPECT_THROW((void)TimePoint::from_civil({2024, 1, 1, 0, 60, 0.0}), std::invalid_argument);
  EXPECT_THROW((void)TimePoint::from_civil({2024, 1, 1, 0, 0, -1.0}), std::invalid_argument);
  EXPECT_THROW((void)TimePoint::from_iso8601("2024-11-18T00:00:nanZ"), std::invalid_argument);
}

TEST(TimePoint, Iso8601ParseAndFormat) {
  const TimePoint t = TimePoint::from_iso8601("2024-11-18T00:00:00Z");
  const CivilTime c = t.to_civil();
  EXPECT_EQ(c.year, 2024);
  EXPECT_EQ(c.month, 11);
  EXPECT_EQ(c.day, 18);
  EXPECT_EQ(c.hour, 0);
  EXPECT_EQ(t.to_iso8601(), "2024-11-18T00:00:00.000Z");
  EXPECT_THROW((void)TimePoint::from_iso8601("not a date"), std::invalid_argument);
}

TEST(TimePoint, Iso8601DateOnly) {
  const TimePoint t = TimePoint::from_iso8601("2024-03-05");
  const CivilTime c = t.to_civil();
  EXPECT_EQ(c.day, 5);
  EXPECT_EQ(c.hour, 0);
}

TEST(TimePoint, ArithmeticAndComparison) {
  const TimePoint a = TimePoint::from_iso8601("2024-11-18T00:00:00Z");
  const TimePoint b = a.plus_seconds(3600.0);
  EXPECT_NEAR(b.seconds_since(a), 3600.0, 1e-6);
  EXPECT_NEAR(a.seconds_since(b), -3600.0, 1e-6);
  EXPECT_LT(a, b);
  EXPECT_NEAR(a.plus_days(1.0).seconds_since(a), 86400.0, 1e-5);
}

TEST(Gmst, J2000Value) {
  // GMST at the J2000.0 epoch (JD 2451545.0) is 280.46061837 deg.
  const TimePoint t = TimePoint::from_iso8601("2000-01-01T12:00:00Z");
  EXPECT_NEAR(util::rad_to_deg(gmst_rad(t)), 280.46061837, 1e-6);
}

TEST(Gmst, AdvancesAtSiderealRate) {
  const TimePoint t0 = TimePoint::from_iso8601("2024-11-18T00:00:00Z");
  const double g0 = gmst_rad(t0);
  const double g1 = gmst_rad(t0.plus_seconds(3600.0));
  double dg = g1 - g0;
  if (dg < 0.0) dg += util::kTwoPi;
  // One hour of sidereal rotation: ~15.041 deg.
  EXPECT_NEAR(util::rad_to_deg(dg), 15.0410686, 1e-3);
}

TEST(Gmst, FullSiderealDayWrapsAround) {
  const TimePoint t0 = TimePoint::from_iso8601("2024-11-18T00:00:00Z");
  const double sidereal_day = 86164.0905;
  const double g0 = gmst_rad(t0);
  const double g1 = gmst_rad(t0.plus_seconds(sidereal_day));
  EXPECT_NEAR(g0, g1, 1e-4);
}

TEST(TimeGrid, OverDuration) {
  const TimePoint start = TimePoint::from_iso8601("2024-11-18T00:00:00Z");
  const TimeGrid grid = TimeGrid::over_duration(start, 600.0, 60.0);
  EXPECT_EQ(grid.count, 11u);  // inclusive endpoints at step resolution
  EXPECT_NEAR(grid.at(10).seconds_since(start), 600.0, 1e-6);
  EXPECT_NEAR(grid.duration_seconds(), 660.0, 1e-9);
}

TEST(TimeGrid, RejectsBadInputs) {
  const TimePoint start;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)TimeGrid::over_duration(start, 10.0, 0.0), std::invalid_argument);
  EXPECT_THROW((void)TimeGrid::over_duration(start, -1.0, 60.0), std::invalid_argument);
  EXPECT_THROW((void)TimeGrid::over_duration(start, nan, 60.0), std::invalid_argument);
  EXPECT_THROW((void)TimeGrid::over_duration(start, inf, 60.0), std::invalid_argument);
  EXPECT_THROW((void)TimeGrid::over_duration(start, -inf, 60.0), std::invalid_argument);
  EXPECT_THROW((void)TimeGrid::over_duration(start, 600.0, nan), std::invalid_argument);
  EXPECT_THROW((void)TimeGrid::over_duration(start, 600.0, inf), std::invalid_argument);
}

TEST(TimeGrid, BoundsTheStepCount) {
  const TimePoint start;
  const auto max_steps = static_cast<double>(TimeGrid::kMaxSteps);
  // floor(duration / step) + 1 == kMaxSteps is the largest grid.
  EXPECT_EQ(TimeGrid::over_duration(start, max_steps - 1.0, 1.0).count, TimeGrid::kMaxSteps);
  EXPECT_THROW((void)TimeGrid::over_duration(start, max_steps, 1.0), std::invalid_argument);
  // Ratios past the size_t range, where an unchecked cast is undefined.
  EXPECT_THROW((void)TimeGrid::over_duration(start, 86400.0, 1e-300), std::invalid_argument);
  EXPECT_THROW((void)TimeGrid::over_duration(start, 1e300, 1e-300), std::invalid_argument);
}

class CivilRoundTripSweep : public ::testing::TestWithParam<CivilTime> {};

}  // namespace

// Prints a sweep date from its fields. gtest would otherwise print
// CivilTime's raw bytes, padding included, and the registered test names
// (which carry the printed parameter) would differ between builds.
void PrintTo(const CivilTime& t, std::ostream* os) {
  char text[48];
  std::snprintf(text, sizeof text, "%04d-%02d-%02dT%02d:%02d:%06.3f", t.year, t.month, t.day,
                t.hour, t.minute, t.second);
  *os << text;
}

namespace {

TEST_P(CivilRoundTripSweep, RoundTrips) {
  const CivilTime in = GetParam();
  const CivilTime out = TimePoint::from_civil(in).to_civil();
  EXPECT_EQ(out.year, in.year);
  EXPECT_EQ(out.month, in.month);
  EXPECT_EQ(out.day, in.day);
  EXPECT_EQ(out.hour, in.hour);
  EXPECT_EQ(out.minute, in.minute);
  EXPECT_NEAR(out.second, in.second, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Dates, CivilRoundTripSweep,
    ::testing::Values(CivilTime{1999, 12, 31, 23, 59, 59.0}, CivilTime{2000, 2, 29, 0, 0, 0.0},
                      CivilTime{2024, 2, 29, 12, 0, 0.0},   // leap day
                      CivilTime{2024, 11, 18, 0, 0, 0.0},   // paper epoch
                      CivilTime{2100, 1, 1, 6, 30, 15.5},   // 2100 is not a leap year
                      CivilTime{1957, 10, 4, 19, 28, 34.0}  // Sputnik
                      ));

}  // namespace
}  // namespace mpleo::orbit
