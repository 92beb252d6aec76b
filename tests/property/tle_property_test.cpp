// Property/fuzz tests: TLE round-trips over randomized orbital elements, and
// parser robustness against corrupted lines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "orbit/tle.hpp"
#include "util/angles.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace mpleo::orbit {
namespace {

class TleRoundTripProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TleRoundTripProperty, RandomElementsSurviveFormatParse) {
  util::Xoshiro256PlusPlus rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    ClassicalElements coe;
    coe.semi_major_axis_m = rng.uniform(6700e3, 8000e3);
    coe.eccentricity = rng.uniform(0.0, 0.2);
    coe.inclination_rad = util::deg_to_rad(rng.uniform(0.0, 180.0));
    coe.raan_rad = util::deg_to_rad(rng.uniform(0.0, 360.0));
    coe.arg_perigee_rad = util::deg_to_rad(rng.uniform(0.0, 360.0));
    coe.mean_anomaly_rad = util::deg_to_rad(rng.uniform(0.0, 360.0));
    const TimePoint epoch =
        TimePoint::from_iso8601("2024-01-01T00:00:00Z").plus_days(rng.uniform(0.0, 700.0));
    const int catalog = 1 + static_cast<int>(rng.uniform_index(99999));

    Tle tle = Tle::from_elements(coe, epoch, catalog, "FUZZ");
    // Drag terms across each field's representable range, log-uniform in
    // magnitude with either sign and zero now and then: mean_motion_dot
    // below 1, the implied-exponent fields below 1e9 and down past their
    // last digit (1e-14), where they round to zero.
    const auto draw = [&rng](double log10_lo, double log10_hi) {
      if (rng.uniform() < 0.1) return 0.0;
      const double mag = std::pow(10.0, rng.uniform(log10_lo, log10_hi));
      return rng.uniform() < 0.5 ? -mag : mag;
    };
    tle.mean_motion_dot = draw(-12.0, -1e-8);
    tle.mean_motion_ddot = draw(-17.0, 8.999);
    tle.bstar = draw(-17.0, 8.999);

    const TleLines lines = format_tle(tle);
    ASSERT_EQ(lines.line1.size(), 69u) << lines.line1;
    ASSERT_EQ(lines.line2.size(), 69u) << lines.line2;

    const TleParseResult parsed = parse_tle("FUZZ", lines.line1, lines.line2);
    ASSERT_TRUE(parsed.ok) << parsed.error << "\n" << lines.line1 << "\n" << lines.line2;

    // Each drag term reparses within half a unit of its field's last digit:
    // 1e-8 for mean_motion_dot, and 10^(e - 5) for an implied-exponent value
    // 0.ddddd x 10^e, whose one-digit exponent e bottoms out at -9.
    const auto half_unit = [](double value) {
      if (value == 0.0) return 0.0;
      const double e = std::max(std::floor(std::log10(std::fabs(value))) + 1.0, -9.0);
      return 0.5 * std::pow(10.0, e - 5.0);
    };
    constexpr double kSlack = 1.0 + 1e-6;  // parse/format floating-point round-off
    EXPECT_NEAR(parsed.tle.mean_motion_dot, tle.mean_motion_dot, 0.5e-8 * kSlack)
        << lines.line1;
    EXPECT_NEAR(parsed.tle.mean_motion_ddot, tle.mean_motion_ddot,
                half_unit(tle.mean_motion_ddot) * kSlack)
        << lines.line1;
    EXPECT_NEAR(parsed.tle.bstar, tle.bstar, half_unit(tle.bstar) * kSlack) << lines.line1;

    const ClassicalElements back = parsed.tle.to_elements();
    // TLE fields quantise: angles to 1e-4 deg, eccentricity to 1e-7, mean
    // motion to 1e-8 rev/day (~0.5 m in a).
    EXPECT_NEAR(back.semi_major_axis_m, coe.semi_major_axis_m, 5.0);
    EXPECT_NEAR(back.eccentricity, coe.eccentricity, 1e-7);
    EXPECT_NEAR(back.inclination_rad, coe.inclination_rad, util::deg_to_rad(1e-4));
    EXPECT_NEAR(util::angular_separation(back.raan_rad, coe.raan_rad),
                0.0, util::deg_to_rad(1e-4));
    EXPECT_NEAR(util::angular_separation(back.mean_anomaly_rad, coe.mean_anomaly_rad),
                0.0, util::deg_to_rad(1e-4));
    EXPECT_NEAR(parsed.tle.epoch.seconds_since(epoch), 0.0, 0.005);
    EXPECT_EQ(parsed.tle.catalog_number, catalog);
  }
}

TEST_P(TleRoundTripProperty, SingleCharacterCorruptionNeverCrashes) {
  util::Xoshiro256PlusPlus rng(GetParam() ^ 0xF022);
  const Tle tle = Tle::from_elements(ClassicalElements::circular(550e3, 53.0, 10.0, 20.0),
                                     TimePoint::from_iso8601("2024-11-18T00:00:00Z"), 7,
                                     "VICTIM");
  const TleLines lines = format_tle(tle);
  for (int trial = 0; trial < 50; ++trial) {
    std::string l1 = lines.line1;
    std::string l2 = lines.line2;
    std::string& target = rng.uniform() < 0.5 ? l1 : l2;
    const std::size_t pos = rng.uniform_index(target.size());
    target[pos] = static_cast<char>('!' + rng.uniform_index(94));
    // Must never throw; either parses (corruption hit an ignored column and
    // preserved the checksum) or reports an error.
    const TleParseResult result = parse_tle("VICTIM", l1, l2);
    if (!result.ok) EXPECT_FALSE(result.error.empty());
  }
}

TEST_P(TleRoundTripProperty, CatalogRoundTrip) {
  util::Xoshiro256PlusPlus rng(GetParam() ^ 0xCA7);
  std::vector<Tle> entries;
  const std::size_t count = 1 + rng.uniform_index(8);
  for (std::size_t i = 0; i < count; ++i) {
    entries.push_back(Tle::from_elements(
        ClassicalElements::circular(rng.uniform(500e3, 600e3), rng.uniform(0.0, 98.0),
                                    rng.uniform(0.0, 360.0), rng.uniform(0.0, 360.0)),
        TimePoint::from_iso8601("2024-11-18T00:00:00Z"),
        static_cast<int>(i) + 1, "SAT-" + std::to_string(i)));
  }
  const TleCatalog parsed = parse_tle_catalog(format_tle_catalog(entries));
  EXPECT_TRUE(parsed.errors.empty());
  ASSERT_EQ(parsed.entries.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(parsed.entries[i].name, entries[i].name);
    EXPECT_EQ(parsed.entries[i].catalog_number, entries[i].catalog_number);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TleRoundTripProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace mpleo::orbit
