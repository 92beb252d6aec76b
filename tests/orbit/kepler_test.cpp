#include "orbit/kepler.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/angles.hpp"
#include "util/units.hpp"

namespace mpleo::orbit {
namespace {

TEST(Kepler, CircularOrbitIsIdentity) {
  for (double m : {0.0, 0.5, 3.0, 6.0}) {
    EXPECT_NEAR(solve_kepler(m, 0.0), m, 1e-14);
  }
}

TEST(Kepler, KnownSolution) {
  // Vallado example 2-1: M = 235.4 deg, e = 0.4 -> E = 220.512074767 deg.
  const double m = util::deg_to_rad(235.4);
  const double e = 0.4;
  const double E = solve_kepler(m, e);
  EXPECT_NEAR(util::rad_to_deg(util::wrap_two_pi(E)), 220.512074767, 1e-6);
}

TEST(Kepler, ZeroMeanAnomaly) {
  EXPECT_NEAR(solve_kepler(0.0, 0.7), 0.0, 1e-12);
}

TEST(Kepler, SymmetryAboutZero) {
  const double e = 0.3;
  const double m = 1.1;
  EXPECT_NEAR(solve_kepler(-m, e), -solve_kepler(m, e), 1e-11);
}

TEST(Kepler, PreservesBranch) {
  // M outside [-pi, pi] should return E in the same winding.
  const double e = 0.1;
  const double m = 3.0 * util::kTwoPi + 0.5;
  const double E = solve_kepler(m, e);
  EXPECT_NEAR(E - e * std::sin(E), m, 1e-11);
  EXPECT_GT(E, 3.0 * util::kTwoPi - util::kPi);
}

TEST(AnomalyConversions, CircularIdentity) {
  for (double E : {0.0, 1.0, 3.0, 5.5}) {
    EXPECT_NEAR(true_from_eccentric(E, 0.0), E, 1e-12);
  }
}

TEST(AnomalyConversions, PerigeeApogeeFixedPoints) {
  const double e = 0.6;
  EXPECT_NEAR(true_from_eccentric(0.0, e), 0.0, 1e-12);
  EXPECT_NEAR(true_from_eccentric(util::kPi, e), util::kPi, 1e-9);
}

TEST(AnomalyConversions, TrueLeadsEccentricFirstHalf) {
  // Between perigee and apogee the true anomaly is ahead of E for e > 0.
  const double e = 0.4;
  for (double E : {0.3, 1.0, 2.0, 3.0}) {
    EXPECT_GE(true_from_eccentric(E, e), E);
  }
}

struct KeplerCase {
  double mean_anomaly;
  double eccentricity;
};

class KeplerSolveSweep : public ::testing::TestWithParam<KeplerCase> {};

TEST_P(KeplerSolveSweep, ResidualBelowTolerance) {
  const auto [m, e] = GetParam();
  const double E = solve_kepler(m, e);
  EXPECT_NEAR(E - e * std::sin(E), m, 1e-10) << "M=" << m << " e=" << e;
}

// The true anomaly of the solved E names the same conic point: the radius
// a(1 - e cos E) equals p / (1 + e cos nu), and nu lies in E's half-plane
// and 2*pi branch.
TEST_P(KeplerSolveSweep, AnomalyChainStaysOnTheConic) {
  const auto [m, e] = GetParam();
  const double E = solve_kepler(m, e);
  const double nu = true_from_eccentric(E, e);
  EXPECT_NEAR(1.0 - e * std::cos(E), (1.0 - e * e) / (1.0 + e * std::cos(nu)), 1e-9)
      << "M=" << m << " e=" << e;
  EXPECT_GE(std::sin(nu) * std::sin(E), 0.0) << "M=" << m << " e=" << e;
  EXPECT_LT(std::fabs(nu - E), util::kPi) << "M=" << m << " e=" << e;
}

std::vector<KeplerCase> kepler_cases() {
  std::vector<KeplerCase> cases;
  for (double e : {0.0, 1e-4, 0.01, 0.1, 0.3, 0.6, 0.8, 0.95, 0.99}) {
    for (double m_deg = -350.0; m_deg <= 350.0; m_deg += 50.0) {
      cases.push_back({util::deg_to_rad(m_deg), e});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, KeplerSolveSweep, ::testing::ValuesIn(kepler_cases()));

}  // namespace
}  // namespace mpleo::orbit
