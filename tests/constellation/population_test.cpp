// PopulationSampler: the mega-workload terminal sampler must be
// deterministic (same seed, same sites — the bench's bit-identity depends on
// it), stay inside the configured latitude belt, and actually concentrate
// mass around the paper's metro areas instead of sampling a uniform sphere.
#include "constellation/population.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "coverage/cities.hpp"
#include "orbit/geodesy.hpp"
#include "util/units.hpp"

namespace mpleo::constellation {
namespace {

double angular_distance_rad(const orbit::Geodetic& a, const orbit::Geodetic& b) {
  const double s = std::sin(a.latitude_rad) * std::sin(b.latitude_rad) +
                   std::cos(a.latitude_rad) * std::cos(b.latitude_rad) *
                       std::cos(a.longitude_rad - b.longitude_rad);
  return std::acos(std::clamp(s, -1.0, 1.0));
}

TEST(PopulationSampler, SameSeedSameSites) {
  const PopulationSampler sampler;
  const std::vector<orbit::Geodetic> a = sampler.sample(500, 42);
  const std::vector<orbit::Geodetic> b = sampler.sample(500, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].latitude_rad, b[i].latitude_rad);
    EXPECT_EQ(a[i].longitude_rad, b[i].longitude_rad);
    EXPECT_EQ(a[i].altitude_m, b[i].altitude_m);
  }
  // A different seed must not reproduce the same stream.
  const std::vector<orbit::Geodetic> c = sampler.sample(500, 43);
  bool any_different = false;
  for (std::size_t i = 0; i < c.size() && !any_different; ++i) {
    any_different = a[i].latitude_rad != c[i].latitude_rad ||
                    a[i].longitude_rad != c[i].longitude_rad;
  }
  EXPECT_TRUE(any_different);
}

TEST(PopulationSampler, SitesStayInsideTheLatitudeBelt) {
  PopulationSamplerConfig config;
  config.max_latitude_deg = 60.0;
  const PopulationSampler sampler(config);
  const double max_lat = util::deg_to_rad(config.max_latitude_deg) + 1e-9;
  for (const orbit::Geodetic& g : sampler.sample(2000, 7)) {
    EXPECT_LE(std::abs(g.latitude_rad), max_lat);
    EXPECT_GT(g.longitude_rad, -util::kPi - 1e-9);
    EXPECT_LE(g.longitude_rad, util::kPi + 1e-9);
    EXPECT_EQ(g.altitude_m, 0.0);
  }
}

TEST(PopulationSampler, ConcentratesMassAroundCities) {
  const PopulationSampler sampler;
  ASSERT_GT(sampler.cell_count(), 0u);
  const std::vector<orbit::Geodetic> sites = sampler.sample(20000, 11);
  const auto sites_within = [&](const orbit::Geodetic& centre, double radius_deg) {
    const double radius = util::deg_to_rad(radius_deg);
    return std::count_if(sites.begin(), sites.end(), [&](const orbit::Geodetic& g) {
      return angular_distance_rad(g, centre) <= radius;
    });
  };

  // Equal caps around a metro centre and an empty-ocean point (the south
  // Pacific point below is far from every city in the paper's list): the
  // city's holds far more sites, and the ocean's still gets the uniform
  // floor's trickle rather than none.
  const orbit::Geodetic tokyo = orbit::Geodetic::from_degrees(35.7, 139.7);
  const orbit::Geodetic ocean = orbit::Geodetic::from_degrees(-45.0, -120.0);
  const auto city_sites = sites_within(tokyo, 10.0);
  const auto ocean_sites = sites_within(ocean, 10.0);
  EXPECT_GT(ocean_sites, 0);
  EXPECT_GT(city_sites, 10 * ocean_sites);

  // Sampled sites land near cities far more often than an area-uniform draw
  // would. The 21 splat disks cover a small fraction of the sphere, yet most
  // of the mass (1 - uniform_floor_fraction) lives inside them.
  const std::vector<cov::City>& cities = cov::paper_cities();
  const double radius = util::deg_to_rad(8.0);
  std::size_t near_city = 0;
  for (const orbit::Geodetic& g : sites) {
    for (const cov::City& city : cities) {
      if (angular_distance_rad(g, city.location) <= radius) {
        ++near_city;
        break;
      }
    }
  }
  EXPECT_GT(near_city, sites.size() / 2);
}

TEST(PopulationSampler, StreamApiMatchesBulkApi) {
  const PopulationSampler sampler;
  const std::vector<orbit::Geodetic> bulk = sampler.sample(64, 99);
  util::Xoshiro256PlusPlus rng(99);
  for (const orbit::Geodetic& expected : bulk) {
    const orbit::Geodetic got = sampler.sample(rng);
    EXPECT_EQ(got.latitude_rad, expected.latitude_rad);
    EXPECT_EQ(got.longitude_rad, expected.longitude_rad);
  }
}

TEST(PopulationSampler, RejectsOutOfRangeConfig) {
  PopulationSamplerConfig bad_band;
  bad_band.band_height_deg = 0.0;
  EXPECT_THROW(PopulationSampler{bad_band}, std::invalid_argument);

  PopulationSamplerConfig bad_lat;
  bad_lat.max_latitude_deg = 95.0;
  EXPECT_THROW(PopulationSampler{bad_lat}, std::invalid_argument);

  PopulationSamplerConfig bad_floor;
  bad_floor.uniform_floor_fraction = 1.5;
  EXPECT_THROW(PopulationSampler{bad_floor}, std::invalid_argument);
}

}  // namespace
}  // namespace mpleo::constellation
