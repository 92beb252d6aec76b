#include "orbit/elements.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "orbit/kepler.hpp"
#include "util/units.hpp"

namespace mpleo::orbit {
namespace {

TEST(Elements, CircularConstructor) {
  const ClassicalElements coe = ClassicalElements::circular(550e3, 53.0, 120.0, 45.0);
  EXPECT_NEAR(coe.semi_major_axis_m, util::kEarthMeanRadiusM + 550e3, 1e-6);
  EXPECT_EQ(coe.eccentricity, 0.0);
  EXPECT_NEAR(util::rad_to_deg(coe.inclination_rad), 53.0, 1e-12);
  EXPECT_NEAR(util::rad_to_deg(coe.raan_rad), 120.0, 1e-12);
  EXPECT_NEAR(util::rad_to_deg(coe.mean_anomaly_rad), 45.0, 1e-12);
}

TEST(Elements, PeriodOfLeoOrbit) {
  // ~550 km circular orbit: period ~ 95.6 minutes.
  const ClassicalElements coe = ClassicalElements::circular(550e3, 53.0, 0.0, 0.0);
  EXPECT_NEAR(coe.period_seconds() / 60.0, 95.6, 0.3);
}

TEST(ElementsToState, CircularEquatorialAtPerigee) {
  ClassicalElements coe;
  coe.semi_major_axis_m = 7000e3;
  coe.eccentricity = 0.0;
  coe.inclination_rad = 0.0;
  coe.raan_rad = 0.0;
  coe.arg_perigee_rad = 0.0;
  coe.mean_anomaly_rad = 0.0;
  const StateVector s = elements_to_state(coe);
  EXPECT_NEAR(s.position.x, 7000e3, 1e-3);
  EXPECT_NEAR(s.position.y, 0.0, 1e-3);
  EXPECT_NEAR(s.position.z, 0.0, 1e-3);
  // Circular speed = sqrt(mu/a).
  EXPECT_NEAR(s.velocity.norm(), std::sqrt(util::kMuEarth / 7000e3), 1e-6);
  EXPECT_NEAR(s.velocity.y, s.velocity.norm(), 1e-6);  // prograde along +y
}

TEST(ElementsToState, RadiusMatchesConicEquation) {
  ClassicalElements coe;
  coe.semi_major_axis_m = 7200e3;
  coe.eccentricity = 0.05;
  coe.inclination_rad = util::deg_to_rad(53.0);
  coe.raan_rad = util::deg_to_rad(40.0);
  coe.arg_perigee_rad = util::deg_to_rad(30.0);
  coe.mean_anomaly_rad = 0.0;  // at perigee
  const StateVector s = elements_to_state(coe);
  EXPECT_NEAR(s.position.norm(), coe.semi_major_axis_m * (1.0 - coe.eccentricity), 1e-3);
}

TEST(ElementsToState, InclinationBoundsZ) {
  const ClassicalElements coe = ClassicalElements::circular(550e3, 53.0, 10.0, 77.0);
  const StateVector s = elements_to_state(coe);
  const double max_z = s.position.norm() * std::sin(coe.inclination_rad);
  EXPECT_LE(std::fabs(s.position.z), max_z + 1.0);
}

TEST(ElementsToState, VisVivaEnergyHolds) {
  ClassicalElements coe;
  coe.semi_major_axis_m = 6928e3;
  coe.eccentricity = 0.12;
  coe.inclination_rad = util::deg_to_rad(97.6);
  coe.raan_rad = 1.0;
  coe.arg_perigee_rad = 2.0;
  coe.mean_anomaly_rad = 2.5;
  const StateVector s = elements_to_state(coe);
  const double energy = s.velocity.norm_squared() / 2.0 - util::kMuEarth / s.position.norm();
  EXPECT_NEAR(energy, -util::kMuEarth / (2.0 * coe.semi_major_axis_m), 1e-3);
}

TEST(ElementsToState, CircularOrbitKeepsRadiusAndSpeed) {
  const ClassicalElements coe = ClassicalElements::circular(550e3, 53.0, 100.0, 200.0);
  const StateVector s = elements_to_state(coe);
  EXPECT_NEAR(s.position.norm(), coe.semi_major_axis_m, 1e-3);
  EXPECT_NEAR(s.velocity.norm(), std::sqrt(util::kMuEarth / coe.semi_major_axis_m), 1e-6);
  EXPECT_NEAR(dot(s.position, s.velocity), 0.0, 1e-3 * s.position.norm());
}

struct ElementsCase {
  double a, e, i_deg, raan_deg, argp_deg, m_deg;
};

// The state carries the elements' conserved quantities: vis-viva energy,
// angular momentum |h| = sqrt(mu * p) with h.z / |h| = cos(i), the conic
// radius at the solved true anomaly, and the node line at the RAAN.
class ElementsToStateSweep : public ::testing::TestWithParam<ElementsCase> {};

TEST_P(ElementsToStateSweep, StateCarriesTheElementsInvariants) {
  const auto p = GetParam();
  ClassicalElements coe;
  coe.semi_major_axis_m = p.a;
  coe.eccentricity = p.e;
  coe.inclination_rad = util::deg_to_rad(p.i_deg);
  coe.raan_rad = util::deg_to_rad(p.raan_deg);
  coe.arg_perigee_rad = util::deg_to_rad(p.argp_deg);
  coe.mean_anomaly_rad = util::deg_to_rad(p.m_deg);

  const StateVector s = elements_to_state(coe);
  const double mu = util::kMuEarth;
  const double energy = s.velocity.norm_squared() / 2.0 - mu / s.position.norm();
  EXPECT_NEAR(energy / (-mu / (2.0 * p.a)), 1.0, 1e-9);

  const util::Vec3 h = cross(s.position, s.velocity);
  EXPECT_NEAR(h.norm() / std::sqrt(mu * coe.semi_latus_rectum_m()), 1.0, 1e-9);
  EXPECT_NEAR(h.z / h.norm(), std::cos(coe.inclination_rad), 1e-9);

  const double nu = true_from_eccentric(solve_kepler(coe.mean_anomaly_rad, p.e), p.e);
  EXPECT_NEAR(s.position.norm(), coe.semi_latus_rectum_m() / (1.0 + p.e * std::cos(nu)),
              1e-6 * p.a);

  // The ascending node k x h points along the RAAN (undefined when equatorial).
  if (p.i_deg > 0.0) {
    const util::Vec3 node{-h.y, h.x, 0.0};
    EXPECT_NEAR(std::atan2(node.y, node.x),
                std::atan2(std::sin(coe.raan_rad), std::cos(coe.raan_rad)), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ElementsToStateSweep,
    ::testing::Values(ElementsCase{6928e3, 0.0, 53.0, 10.0, 0.0, 45.0},
                      ElementsCase{6928e3, 0.001, 53.0, 350.0, 90.0, 180.0},
                      ElementsCase{7150e3, 0.1, 97.6, 200.0, 270.0, 300.0},
                      ElementsCase{6900e3, 0.0, 0.0, 0.0, 0.0, 120.0},    // equatorial circular
                      ElementsCase{7000e3, 0.05, 0.0, 0.0, 45.0, 30.0},   // equatorial elliptic
                      ElementsCase{7000e3, 0.0, 90.0, 60.0, 0.0, 250.0},  // polar circular
                      ElementsCase{26560e3, 0.6, 63.4, 120.0, 270.0, 10.0}  // Molniya-like
                      ));

}  // namespace
}  // namespace mpleo::orbit
