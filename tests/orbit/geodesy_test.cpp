#include "orbit/geodesy.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace mpleo::orbit {
namespace {

using util::Vec3;

TEST(Geodesy, EquatorPrimeMeridian) {
  const Vec3 p = geodetic_to_ecef(Geodetic::from_degrees(0.0, 0.0, 0.0));
  EXPECT_NEAR(p.x, util::kEarthEquatorialRadiusM, 1e-6);
  EXPECT_NEAR(p.y, 0.0, 1e-6);
  EXPECT_NEAR(p.z, 0.0, 1e-6);
}

TEST(Geodesy, NorthPole) {
  const Vec3 p = geodetic_to_ecef(Geodetic::from_degrees(90.0, 0.0, 0.0));
  EXPECT_NEAR(p.x, 0.0, 1e-6);
  EXPECT_NEAR(p.y, 0.0, 1e-6);
  // Polar radius b = a(1-f) ~ 6356752.3 m.
  EXPECT_NEAR(p.z, 6356752.3142, 1e-3);
}

TEST(Geodesy, AltitudeAddsAlongNormal) {
  const Vec3 ground = geodetic_to_ecef(Geodetic::from_degrees(45.0, 10.0, 0.0));
  const Vec3 high = geodetic_to_ecef(Geodetic::from_degrees(45.0, 10.0, 1000.0));
  EXPECT_NEAR((high - ground).norm(), 1000.0, 1e-6);
}

TEST(Geodesy, EcefToGeodeticKnownPoint) {
  // Taipei.
  const Geodetic in = Geodetic::from_degrees(25.0330, 121.5654, 50.0);
  const Geodetic out = ecef_to_geodetic(geodetic_to_ecef(in));
  EXPECT_NEAR(out.latitude_rad, in.latitude_rad, 1e-9);
  EXPECT_NEAR(out.longitude_rad, in.longitude_rad, 1e-12);
  EXPECT_NEAR(out.altitude_m, in.altitude_m, 1e-4);
}

TEST(Geodesy, EciEcefRoundTrip) {
  // Rotating by -gmst undoes the rotation by gmst.
  const Vec3 eci{7000e3, -1234e3, 3456e3};
  const double gmst = 1.234;
  const Vec3 back = eci_to_ecef(eci_to_ecef(eci, gmst), -gmst);
  EXPECT_NEAR(back.x, eci.x, 1e-6);
  EXPECT_NEAR(back.y, eci.y, 1e-6);
  EXPECT_NEAR(back.z, eci.z, 1e-6);
}

TEST(Geodesy, EciEcefPreservesNormAndZ) {
  const Vec3 eci{6500e3, 2000e3, -1500e3};
  const Vec3 ecef = eci_to_ecef(eci, 0.777);
  EXPECT_NEAR(ecef.norm(), eci.norm(), 1e-6);
  EXPECT_DOUBLE_EQ(ecef.z, eci.z);
}

TEST(Geodesy, ZeroGmstIsIdentity) {
  const Vec3 eci{1.0, 2.0, 3.0};
  const Vec3 ecef = eci_to_ecef(eci, 0.0);
  EXPECT_DOUBLE_EQ(ecef.x, eci.x);
  EXPECT_DOUBLE_EQ(ecef.y, eci.y);
}

TEST(Topocentric, ZenithTarget) {
  const Geodetic site = Geodetic::from_degrees(25.0, 121.5, 0.0);
  const TopocentricFrame frame(site);
  // A point 550 km along the local up vector.
  const Vec3 target = frame.origin_ecef() + 550e3 * frame.up();
  EXPECT_NEAR(frame.elevation_rad(target), util::kPi / 2.0, 1e-9);
  EXPECT_NEAR(frame.range_m(target), 550e3, 1e-6);
  EXPECT_TRUE(frame.visible_above(target, std::sin(util::deg_to_rad(89.0))));
}

TEST(Topocentric, HorizonTarget) {
  const Geodetic site = Geodetic::from_degrees(0.0, 0.0, 0.0);
  const TopocentricFrame frame(site);
  const Vec3 target = frame.origin_ecef() + 1000e3 * frame.north();
  EXPECT_NEAR(frame.elevation_rad(target), 0.0, 1e-9);
}

TEST(Topocentric, BelowHorizonNotVisible) {
  const TopocentricFrame frame(Geodetic::from_degrees(40.0, -75.0, 0.0));
  const Vec3 below = frame.origin_ecef() - 100e3 * frame.up();
  EXPECT_LT(frame.elevation_rad(below), 0.0);
  EXPECT_FALSE(frame.visible_above(below, 0.0));
}

TEST(Topocentric, VisibleAboveMatchesElevation) {
  const TopocentricFrame frame(Geodetic::from_degrees(25.0, 121.5, 0.0));
  util::Xoshiro256PlusPlus rng(3);
  const double mask_deg = 25.0;
  const double sin_mask = std::sin(util::deg_to_rad(mask_deg));
  for (int i = 0; i < 200; ++i) {
    // Random targets in a shell 300-1500 km above the site's tangent plane.
    const Vec3 dir = Vec3{rng.normal(), rng.normal(), rng.normal()}.normalized();
    const Vec3 target = frame.origin_ecef() + rng.uniform(300e3, 1500e3) * dir;
    const bool by_elevation =
        frame.elevation_rad(target) >= util::deg_to_rad(mask_deg) - 1e-12;
    EXPECT_EQ(frame.visible_above(target, sin_mask), by_elevation);
  }
}

TEST(Topocentric, BasisIsOrthonormal) {
  const TopocentricFrame frame(Geodetic::from_degrees(-33.5, 151.0, 100.0));
  EXPECT_NEAR(frame.up().norm(), 1.0, 1e-12);
  EXPECT_NEAR(frame.east().norm(), 1.0, 1e-12);
  EXPECT_NEAR(frame.north().norm(), 1.0, 1e-12);
  EXPECT_NEAR(dot(frame.up(), frame.east()), 0.0, 1e-12);
  EXPECT_NEAR(dot(frame.up(), frame.north()), 0.0, 1e-12);
  EXPECT_NEAR(dot(frame.east(), frame.north()), 0.0, 1e-12);
}

class GeodeticRoundTripSweep
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(GeodeticRoundTripSweep, EcefRoundTrips) {
  const auto [lat, lon, alt] = GetParam();
  const Geodetic in = Geodetic::from_degrees(lat, lon, alt);
  const Geodetic out = ecef_to_geodetic(geodetic_to_ecef(in));
  EXPECT_NEAR(out.latitude_rad, in.latitude_rad, 1e-9);
  EXPECT_NEAR(out.altitude_m, in.altitude_m, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Sweep, GeodeticRoundTripSweep,
                         ::testing::Combine(::testing::Values(-80.0, -45.0, 0.0, 30.0, 60.0,
                                                              89.0),
                                            ::testing::Values(-179.0, -30.0, 0.0, 121.5),
                                            ::testing::Values(0.0, 550e3)));

}  // namespace
}  // namespace mpleo::orbit
