// Property tests: coverage-engine invariants over randomized constellations
// — the physical monotonicity and consistency properties every figure bench
// assumes.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "coverage/engine.hpp"
#include "util/rng.hpp"

namespace mpleo::cov {
namespace {

const orbit::TimePoint kEpoch = orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z");

orbit::TimeGrid short_grid() {
  return orbit::TimeGrid::over_duration(kEpoch, 12.0 * 3600.0, 180.0);
}

std::vector<constellation::Satellite> random_constellation(util::Xoshiro256PlusPlus& rng,
                                                           std::size_t count) {
  std::vector<constellation::Satellite> sats;
  for (std::size_t i = 0; i < count; ++i) {
    constellation::Satellite sat;
    sat.id = static_cast<constellation::SatelliteId>(i);
    sat.elements = orbit::ClassicalElements::circular(
        rng.uniform(500e3, 600e3), rng.uniform(0.0, 98.0), rng.uniform(0.0, 360.0),
        rng.uniform(0.0, 360.0));
    sat.epoch = kEpoch;
    sats.push_back(sat);
  }
  return sats;
}

class CoverageProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CoverageProperty, AddingSatellitesIsMonotone) {
  util::Xoshiro256PlusPlus rng(GetParam());
  const CoverageEngine engine(short_grid(), 25.0);
  const auto sites = sites_from_cities(paper_cities());
  auto sats = random_constellation(rng, 6);

  double previous = 0.0;
  for (std::size_t n = 1; n <= sats.size(); ++n) {
    const double covered = engine.weighted_coverage_seconds(
        std::span(sats.data(), n), sites);
    EXPECT_GE(covered, previous - 1e-9);
    previous = covered;
  }
}

TEST_P(CoverageProperty, WeightedCoverageIsConvexCombination) {
  util::Xoshiro256PlusPlus rng(GetParam() ^ 0x11);
  const CoverageEngine engine(short_grid(), 25.0);
  const auto sites = sites_from_cities(paper_cities());
  const auto sats = random_constellation(rng, 4);

  const double weighted = engine.weighted_coverage_seconds(sats, sites);
  double min_site = engine.grid().duration_seconds(), max_site = 0.0;
  for (const GroundSite& site : sites) {
    const double covered =
        engine.stats(engine.coverage_mask(sats, site.frame)).covered_seconds;
    min_site = std::min(min_site, covered);
    max_site = std::max(max_site, covered);
  }
  EXPECT_GE(weighted, min_site - 1e-6);
  EXPECT_LE(weighted, max_site + 1e-6);
}

TEST_P(CoverageProperty, MaskStatsRevisitConsistency) {
  util::Xoshiro256PlusPlus rng(GetParam() ^ 0x22);
  const CoverageEngine engine(short_grid(), 25.0);
  const orbit::TopocentricFrame site(orbit::Geodetic::from_degrees(
      rng.uniform(-50.0, 50.0), rng.uniform(-180.0, 180.0)));
  const auto sats = random_constellation(rng, 3);

  const StepMask mask = engine.coverage_mask(sats, site);
  const CoverageStats stats = engine.stats(mask);

  // The same numbers from the mask's runs: passes are the runs, and gaps lie
  // between them and at either end of the window. The max gap here comes
  // from run edges, not from longest_zero_run.
  const double step = engine.grid().step_seconds;
  const double window = static_cast<double>(mask.step_count()) * step;
  const std::vector<Interval> runs = mask.to_intervals(step);
  double covered = 0.0;
  double max_gap = 0.0;
  double cursor = 0.0;
  for (const Interval& run : runs) {
    covered += run.length();
    max_gap = std::max(max_gap, run.start - cursor);
    cursor = run.end;
  }
  max_gap = std::max(max_gap, window - cursor);

  EXPECT_EQ(stats.pass_count, runs.size());
  EXPECT_NEAR(stats.covered_fraction, covered / window, 1e-12);
  EXPECT_NEAR(stats.max_gap_seconds, max_gap, 1e-9);
}

TEST_P(CoverageProperty, CacheAgreesWithDirectEngine) {
  util::Xoshiro256PlusPlus rng(GetParam() ^ 0x33);
  const CoverageEngine engine(short_grid(), 25.0);
  const auto sites = sites_from_cities(paper_cities());
  const auto sats = random_constellation(rng, 5);

  VisibilityCache cache(engine, sats, sites);
  std::vector<std::size_t> all(sats.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;

  const double via_cache =
      cache.weighted_coverage_fraction(all) * engine.grid().duration_seconds();
  const double direct = engine.weighted_coverage_seconds(sats, sites);
  EXPECT_NEAR(via_cache, direct, 1e-6);
}

TEST_P(CoverageProperty, SubsetCoverageNeverExceedsSuperset) {
  util::Xoshiro256PlusPlus rng(GetParam() ^ 0x44);
  const CoverageEngine engine(short_grid(), 25.0);
  const auto sites = sites_from_cities(paper_cities());
  const auto sats = random_constellation(rng, 6);
  VisibilityCache cache(engine, sats, sites);

  std::vector<std::size_t> all(sats.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  const auto subset_indices = rng.sample_without_replacement(sats.size(), 3);

  EXPECT_LE(cache.weighted_coverage_fraction(subset_indices),
            cache.weighted_coverage_fraction(all) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoverageProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace mpleo::cov
