#include "coverage/cities.hpp"

#include <gtest/gtest.h>

#include <set>

#include "util/units.hpp"

namespace mpleo::cov {
namespace {

TEST(Cities, TwentyOneCities) {
  EXPECT_EQ(paper_cities().size(), 21u);
}

TEST(Cities, OnePerCountry) {
  std::set<std::string> countries;
  for (const City& c : paper_cities()) countries.insert(c.country);
  EXPECT_EQ(countries.size(), paper_cities().size());
}

TEST(Cities, MelbourneIncludedForAustralia) {
  bool found = false;
  for (const City& c : paper_cities()) {
    if (c.name == "Melbourne") {
      found = true;
      EXPECT_EQ(c.country, "Australia");
      EXPECT_LT(c.location.latitude_rad, 0.0);  // southern hemisphere
    }
  }
  EXPECT_TRUE(found);
}

TEST(Cities, TokyoIsLargest) {
  const City& first = paper_cities().front();
  EXPECT_EQ(first.name, "Tokyo");
  for (const City& c : paper_cities()) EXPECT_LE(c.population, first.population);
}

TEST(Cities, CoordinatesWithinBounds) {
  for (const City& c : paper_cities()) {
    EXPECT_GE(c.location.latitude_rad, -util::kPi / 2.0);
    EXPECT_LE(c.location.latitude_rad, util::kPi / 2.0);
    EXPECT_GE(c.location.longitude_rad, -util::kPi);
    EXPECT_LE(c.location.longitude_rad, util::kPi);
    EXPECT_GT(c.population, 1e6);
  }
}

TEST(Cities, TaipeiLocation) {
  const City& t = taipei();
  EXPECT_EQ(t.country, "Taiwan");
  EXPECT_NEAR(util::rad_to_deg(t.location.latitude_rad), 25.03, 0.01);
  EXPECT_NEAR(util::rad_to_deg(t.location.longitude_rad), 121.57, 0.01);
}

TEST(Cities, MajorContinentsRepresented) {
  // Spot-check hemispheric spread: at least 4 southern-hemisphere sites and
  // at least 5 western-hemisphere sites.
  int south = 0, west = 0;
  for (const City& c : paper_cities()) {
    if (c.location.latitude_rad < 0.0) ++south;
    if (c.location.longitude_rad < 0.0) ++west;
  }
  EXPECT_GE(south, 4);
  EXPECT_GE(west, 5);
}

}  // namespace
}  // namespace mpleo::cov
