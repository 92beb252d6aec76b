#include "orbit/tle.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "util/units.hpp"

namespace mpleo::orbit {
namespace {

// The canonical ISS TLE used in SGP4 documentation.
const char* kIssLine1 =
    "1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927";
const char* kIssLine2 =
    "2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537";

TEST(TleChecksum, MatchesKnownLines) {
  EXPECT_EQ(tle_checksum(kIssLine1), 7);
  EXPECT_EQ(tle_checksum(kIssLine2), 7);
}

TEST(TleParse, IssFields) {
  const TleParseResult result = parse_tle("ISS (ZARYA)", kIssLine1, kIssLine2);
  ASSERT_TRUE(result.ok) << result.error;
  const Tle& tle = result.tle;
  EXPECT_EQ(tle.name, "ISS (ZARYA)");
  EXPECT_EQ(tle.catalog_number, 25544);
  EXPECT_EQ(tle.classification, 'U');
  EXPECT_EQ(tle.intl_designator, "98067A");
  EXPECT_NEAR(tle.inclination_deg, 51.6416, 1e-9);
  EXPECT_NEAR(tle.raan_deg, 247.4627, 1e-9);
  EXPECT_NEAR(tle.eccentricity, 0.0006703, 1e-10);
  EXPECT_NEAR(tle.arg_perigee_deg, 130.5360, 1e-9);
  EXPECT_NEAR(tle.mean_anomaly_deg, 325.0288, 1e-9);
  EXPECT_NEAR(tle.mean_motion_rev_per_day, 15.72125391, 1e-7);
  EXPECT_NEAR(tle.bstar, -0.11606e-4, 1e-10);
  EXPECT_NEAR(tle.mean_motion_dot, -0.00002182, 1e-10);
  // Epoch: 2008 day 264.51782528 (Sept 20).
  const CivilTime epoch = tle.epoch.to_civil();
  EXPECT_EQ(epoch.year, 2008);
  EXPECT_EQ(epoch.month, 9);
  EXPECT_EQ(epoch.day, 20);
}

TEST(TleParse, RejectsBadChecksum) {
  std::string corrupted(kIssLine1);
  corrupted[68] = '0';
  const TleParseResult result = parse_tle("", corrupted, kIssLine2);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("checksum"), std::string::npos);
}

TEST(TleParse, RejectsShortLines) {
  EXPECT_FALSE(parse_tle("", "1 25544U", kIssLine2).ok);
  EXPECT_FALSE(parse_tle("", kIssLine1, "2 25544").ok);
}

TEST(TleParse, RejectsSwappedLines) {
  EXPECT_FALSE(parse_tle("", kIssLine2, kIssLine1).ok);
}

TEST(TleParse, RejectsMismatchedCatalogNumbers) {
  // A valid line 2 for a different satellite (recompute checksum).
  std::string other(kIssLine2);
  other[2] = '3';  // 35544
  other[68] = static_cast<char>('0' + tle_checksum(other));
  const TleParseResult result = parse_tle("", kIssLine1, other);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("catalog"), std::string::npos);
}

TEST(TleFormat, RoundTripsThroughParser) {
  const TleParseResult parsed = parse_tle("ISS (ZARYA)", kIssLine1, kIssLine2);
  ASSERT_TRUE(parsed.ok);
  const TleLines lines = format_tle(parsed.tle);
  ASSERT_EQ(lines.line1.size(), 69u);
  ASSERT_EQ(lines.line2.size(), 69u);

  const TleParseResult reparsed = parse_tle("ISS (ZARYA)", lines.line1, lines.line2);
  ASSERT_TRUE(reparsed.ok) << reparsed.error << "\n" << lines.line1 << "\n" << lines.line2;
  EXPECT_EQ(reparsed.tle.catalog_number, parsed.tle.catalog_number);
  EXPECT_NEAR(reparsed.tle.inclination_deg, parsed.tle.inclination_deg, 1e-4);
  EXPECT_NEAR(reparsed.tle.raan_deg, parsed.tle.raan_deg, 1e-4);
  EXPECT_NEAR(reparsed.tle.eccentricity, parsed.tle.eccentricity, 1e-7);
  EXPECT_NEAR(reparsed.tle.mean_motion_rev_per_day, parsed.tle.mean_motion_rev_per_day,
              1e-7);
  EXPECT_NEAR(reparsed.tle.epoch.julian_date(), parsed.tle.epoch.julian_date(), 1e-7);
  EXPECT_NEAR(reparsed.tle.bstar, parsed.tle.bstar, 1e-9);
}

TEST(TleElements, MeanMotionToSemiMajorAxis) {
  const TleParseResult parsed = parse_tle("", kIssLine1, kIssLine2);
  ASSERT_TRUE(parsed.ok);
  const ClassicalElements coe = parsed.tle.to_elements();
  // ISS altitude ~350 km in 2008 -> a ~ 6730 km.
  EXPECT_NEAR(coe.semi_major_axis_m / 1000.0, 6730.0, 15.0);
  EXPECT_NEAR(util::rad_to_deg(coe.inclination_rad), 51.6416, 1e-6);
}

TEST(TleElements, FromElementsRoundTrip) {
  const ClassicalElements coe = ClassicalElements::circular(550e3, 53.0, 123.0, 77.0);
  const TimePoint epoch = TimePoint::from_iso8601("2024-11-18T06:30:00Z");
  const Tle tle = Tle::from_elements(coe, epoch, 90001, "MPLEO-TEST");

  const ClassicalElements back = tle.to_elements();
  EXPECT_NEAR(back.semi_major_axis_m, coe.semi_major_axis_m, 1.0);
  EXPECT_NEAR(back.inclination_rad, coe.inclination_rad, 1e-9);
  EXPECT_NEAR(back.raan_rad, coe.raan_rad, 1e-9);
  EXPECT_NEAR(back.mean_anomaly_rad, coe.mean_anomaly_rad, 1e-9);

  // And the formatted lines parse back cleanly.
  const TleLines lines = format_tle(tle);
  const TleParseResult reparsed = parse_tle(tle.name, lines.line1, lines.line2);
  ASSERT_TRUE(reparsed.ok) << reparsed.error;
  EXPECT_EQ(reparsed.tle.catalog_number, 90001);
  EXPECT_NEAR(reparsed.tle.epoch.julian_date(), epoch.julian_date(), 1e-7);
}

TEST(TleParse, ZeroPaddedBstarParsesAsZero) {
  // Build a TLE with bstar zero and verify symmetric handling.
  const Tle tle = Tle::from_elements(ClassicalElements::circular(550e3, 53.0, 0.0, 0.0),
                                     TimePoint::from_iso8601("2024-01-01T00:00:00Z"), 1);
  const TleLines lines = format_tle(tle);
  const TleParseResult reparsed = parse_tle("", lines.line1, lines.line2);
  ASSERT_TRUE(reparsed.ok) << reparsed.error;
  EXPECT_EQ(reparsed.tle.bstar, 0.0);
}

TEST(TleFormat, DenormalisesTinyImpliedExponentValues) {
  // Below 1e-10 the one-digit exponent bottoms out at -9 and the mantissa
  // takes leading zeros; below the field's last digit the value is zero.
  Tle tle = Tle::from_elements(ClassicalElements::circular(550e3, 53.0, 0.0, 0.0),
                               TimePoint::from_iso8601("2024-01-01T00:00:00Z"), 1);
  tle.bstar = 4e-12;
  tle.mean_motion_ddot = -2e-15;
  const TleLines lines = format_tle(tle);
  ASSERT_EQ(lines.line1.size(), 69u) << lines.line1;
  EXPECT_EQ(lines.line1.substr(53, 8), " 00400-9");
  EXPECT_EQ(lines.line1.substr(44, 8), " 00000+0");
  const TleParseResult reparsed = parse_tle("", lines.line1, lines.line2);
  ASSERT_TRUE(reparsed.ok) << reparsed.error;
  EXPECT_NEAR(reparsed.tle.bstar, 4e-12, 1e-20);
  EXPECT_EQ(reparsed.tle.mean_motion_ddot, 0.0);
}

TEST(TleFormat, ThrowsNamingDragTermsTheColumnsCannotHold) {
  const Tle healthy = Tle::from_elements(
      ClassicalElements::circular(550e3, 53.0, 0.0, 0.0),
      TimePoint::from_iso8601("2024-01-01T00:00:00Z"), 1);
  struct Case {
    const char* field;
    double Tle::*member;
    double value;
  };
  const Case cases[] = {
      {"mean_motion_dot", &Tle::mean_motion_dot, 1.0},
      {"mean_motion_dot", &Tle::mean_motion_dot, 9.9},
      {"mean_motion_dot", &Tle::mean_motion_dot, -12.5},
      {"mean_motion_dot", &Tle::mean_motion_dot, 0.999999999},
      {"mean_motion_ddot", &Tle::mean_motion_ddot, 1e9},
      {"mean_motion_ddot", &Tle::mean_motion_ddot, -0.9999999e9},
      {"bstar", &Tle::bstar, 3e12},
      {"bstar", &Tle::bstar, std::numeric_limits<double>::quiet_NaN()},
      {"bstar", &Tle::bstar, -std::numeric_limits<double>::infinity()},
  };
  for (const Case& c : cases) {
    Tle tle = healthy;
    tle.*c.member = c.value;
    try {
      (void)format_tle(tle);
      ADD_FAILURE() << c.field << " = " << c.value << " formatted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos) << e.what();
    }
  }
}

TEST(TleCatalog, ParsesThreeLineFormat) {
  const Tle a = Tle::from_elements(ClassicalElements::circular(550e3, 53.0, 10.0, 20.0),
                                   TimePoint::from_iso8601("2024-11-18T00:00:00Z"), 1,
                                   "SAT-A");
  const Tle b = Tle::from_elements(ClassicalElements::circular(560e3, 97.6, 30.0, 40.0),
                                   TimePoint::from_iso8601("2024-11-18T00:00:00Z"), 2,
                                   "SAT-B");
  const std::string text = format_tle_catalog({a, b});
  const TleCatalog catalog = parse_tle_catalog(text);
  EXPECT_TRUE(catalog.errors.empty());
  ASSERT_EQ(catalog.entries.size(), 2u);
  EXPECT_EQ(catalog.entries[0].name, "SAT-A");
  EXPECT_EQ(catalog.entries[1].name, "SAT-B");
  EXPECT_EQ(catalog.entries[1].catalog_number, 2);
}

TEST(TleCatalog, ParsesTwoLineFormatWithoutNames) {
  const std::string text = std::string(kIssLine1) + "\n" + kIssLine2 + "\n";
  const TleCatalog catalog = parse_tle_catalog(text);
  ASSERT_EQ(catalog.entries.size(), 1u);
  EXPECT_TRUE(catalog.entries[0].name.empty());
  EXPECT_EQ(catalog.entries[0].catalog_number, 25544);
}

TEST(TleCatalog, StripsZeroPrefixNameLines) {
  const std::string text =
      std::string("0 ISS (ZARYA)\n") + kIssLine1 + "\n" + kIssLine2 + "\n";
  const TleCatalog catalog = parse_tle_catalog(text);
  ASSERT_EQ(catalog.entries.size(), 1u);
  EXPECT_EQ(catalog.entries[0].name, "ISS (ZARYA)");
}

TEST(TleCatalog, SkipsDamagedRecordsAndContinues) {
  std::string corrupted(kIssLine1);
  corrupted[68] = '0';  // break the checksum
  const std::string text = std::string("BAD\n") + corrupted + "\n" + kIssLine2 +
                           "\nGOOD\n" + kIssLine1 + "\n" + kIssLine2 + "\n";
  const TleCatalog catalog = parse_tle_catalog(text);
  ASSERT_EQ(catalog.entries.size(), 1u);
  EXPECT_EQ(catalog.entries[0].name, "GOOD");
  ASSERT_EQ(catalog.errors.size(), 1u);
  EXPECT_NE(catalog.errors[0].find("checksum"), std::string::npos);
}

TEST(TleCatalog, ToleratesCrLfAndBlankLines) {
  const std::string text = std::string("ISS\r\n") + kIssLine1 + "\r\n" + kIssLine2 +
                           "\r\n\r\n";
  const TleCatalog catalog = parse_tle_catalog(text);
  ASSERT_EQ(catalog.entries.size(), 1u) << (catalog.errors.empty() ? "" : catalog.errors[0]);
  EXPECT_EQ(catalog.entries[0].name, "ISS");
}

TEST(TleCatalog, DanglingLineOneReported) {
  const TleCatalog catalog = parse_tle_catalog(std::string(kIssLine1) + "\n");
  EXPECT_TRUE(catalog.entries.empty());
  ASSERT_EQ(catalog.errors.size(), 1u);
}

TEST(TleCatalog, EmptyInputIsEmptyCatalog) {
  const TleCatalog catalog = parse_tle_catalog("");
  EXPECT_TRUE(catalog.entries.empty());
  EXPECT_TRUE(catalog.errors.empty());
}

// Overwrites TLE columns [start_col, start_col+text.size()) (1-based) and
// recomputes the checksum, so validation tests exercise the field checks
// rather than tripping the checksum guard.
std::string with_field(const std::string& line, std::size_t start_col,
                       const std::string& text) {
  std::string out = line;
  out.replace(start_col - 1, text.size(), text);
  out[68] = static_cast<char>('0' + tle_checksum(out));
  return out;
}

bool has_issue_for(const TleParseResult& result, const std::string& field) {
  for (const core::ConfigIssue& issue : result.issues) {
    if (issue.field == field) return true;
  }
  return false;
}

TEST(TleValidation, RejectsOutOfRangeInclination) {
  const std::string bad = with_field(kIssLine2, 9, "191.6416");
  const TleParseResult result = parse_tle("", kIssLine1, bad);
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(has_issue_for(result, "inclination_deg")) << result.error;
}

TEST(TleValidation, RejectsOutOfRangeMeanMotion) {
  // 25 rev/day: no bound orbit above the surface revolves that fast.
  const std::string bad = with_field(kIssLine2, 53, "25.72125391");
  const TleParseResult result = parse_tle("", kIssLine1, bad);
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(has_issue_for(result, "mean_motion")) << result.error;
}

TEST(TleValidation, RejectsOutOfRangeRaan) {
  const std::string bad = with_field(kIssLine2, 18, "367.4627");
  const TleParseResult result = parse_tle("", kIssLine1, bad);
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(has_issue_for(result, "raan_deg")) << result.error;
}

TEST(TleValidation, RejectsUnparsableNumericFieldByName) {
  const std::string bad = with_field(kIssLine2, 35, "xxxxxxxx");  // arg of perigee
  const TleParseResult result = parse_tle("", kIssLine1, bad);
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(has_issue_for(result, "arg_perigee_deg")) << result.error;
  EXPECT_NE(result.error.find("arg_perigee_deg"), std::string::npos);
}

TEST(TleValidation, CollectsEveryIssueNotJustTheFirst) {
  std::string bad = with_field(kIssLine2, 9, "191.6416");
  bad = with_field(bad, 53, "25.72125391");
  const TleParseResult result = parse_tle("", kIssLine1, bad);
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(has_issue_for(result, "inclination_deg")) << result.error;
  EXPECT_TRUE(has_issue_for(result, "mean_motion")) << result.error;
  EXPECT_GE(result.issues.size(), 2u);
}

TEST(TleValidation, ChecksumIssueIsStructured) {
  std::string corrupted(kIssLine1);
  corrupted[68] = '0';
  const TleParseResult result = parse_tle("", corrupted, kIssLine2);
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(has_issue_for(result, "line1.checksum")) << result.error;
}

TEST(TleValidation, ValidLineHasNoIssues) {
  const TleParseResult result = parse_tle("", kIssLine1, kIssLine2);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.issues.empty());
  EXPECT_TRUE(result.error.empty());
}

}  // namespace
}  // namespace mpleo::orbit
