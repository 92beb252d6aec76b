#include "coverage/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "constellation/starlink.hpp"
#include "coverage/visibility.hpp"
#include "sim/run_context.hpp"
#include "util/units.hpp"

namespace mpleo::cov {
namespace {

orbit::TimeGrid day_grid(double step = 60.0) {
  return orbit::TimeGrid::over_duration(
      orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z"), 86400.0, step);
}

constellation::Satellite make_sat(double alt, double incl, double raan, double phase,
                                  const orbit::TimePoint& epoch) {
  constellation::Satellite sat;
  sat.elements = orbit::ClassicalElements::circular(alt, incl, raan, phase);
  sat.epoch = epoch;
  return sat;
}

// The paper's §2 idle-time metric, as fig3 computes it: the fraction of the
// window during which the satellite sees none of the sites.
double idle_fraction(const CoverageEngine& engine, const constellation::Satellite& sat,
                     std::span<const GroundSite> sites) {
  StepMask busy(engine.grid().count);
  for (const StepMask& mask : engine.visibility_masks(sat, sites)) busy |= mask;
  return 1.0 - busy.fraction();
}

TEST(CoverageEngine, RejectsBadConfig) {
  EXPECT_THROW(CoverageEngine(day_grid(), -1.0), std::invalid_argument);
  EXPECT_THROW(CoverageEngine(day_grid(), 90.0), std::invalid_argument);
  orbit::TimeGrid empty;
  EXPECT_THROW(CoverageEngine(empty, 25.0), std::invalid_argument);
}

TEST(CoverageEngine, VisibilityMaskMatchesPassFinder) {
  const orbit::TimeGrid grid = day_grid(30.0);
  const CoverageEngine engine(grid, 25.0);
  const auto sat = make_sat(550e3, 53.0, 10.0, 20.0, grid.start);
  const orbit::TopocentricFrame site(orbit::Geodetic::from_degrees(25.0, 121.5));

  const StepMask mask = engine.visibility_mask(sat, site);
  const double mask_seconds = static_cast<double>(mask.count()) * grid.step_seconds;

  double pass_seconds = 0.0;
  for (const Pass& p : find_passes(engine.ephemeris(sat), site, grid, 25.0)) {
    pass_seconds += p.duration_s();
  }
  EXPECT_NEAR(mask_seconds, pass_seconds, 1e-6);
}

TEST(CoverageEngine, MultiSiteSweepMatchesSingleSite) {
  const orbit::TimeGrid grid = day_grid();
  const CoverageEngine engine(grid, 25.0);
  const auto sat = make_sat(550e3, 53.0, 77.0, 120.0, grid.start);

  const std::vector<GroundSite> sites = sites_from_cities(paper_cities());
  const auto multi = engine.visibility_masks(sat, sites);
  ASSERT_EQ(multi.size(), sites.size());
  for (std::size_t j = 0; j < sites.size(); j += 5) {
    EXPECT_EQ(multi[j], engine.visibility_mask(sat, sites[j].frame));
  }
}

TEST(CoverageEngine, CoverageMaskIsUnionOfSingles) {
  const orbit::TimeGrid grid = day_grid();
  const CoverageEngine engine(grid, 25.0);
  const orbit::TopocentricFrame site(orbit::Geodetic::from_degrees(25.0, 121.5));

  std::vector<constellation::Satellite> sats;
  for (double raan : {0.0, 60.0, 120.0}) {
    sats.push_back(make_sat(550e3, 53.0, raan, raan * 2.0, grid.start));
  }
  StepMask expected(grid.count);
  for (const auto& sat : sats) expected |= engine.visibility_mask(sat, site);
  EXPECT_EQ(engine.coverage_mask(sats, site), expected);
}

TEST(CoverageEngine, MoreSatellitesNeverReduceCoverage) {
  const orbit::TimeGrid grid = day_grid();
  const CoverageEngine engine(grid, 25.0);
  const orbit::TopocentricFrame site(orbit::Geodetic::from_degrees(25.0, 121.5));

  std::vector<constellation::Satellite> sats;
  double previous = 0.0;
  for (int i = 0; i < 8; ++i) {
    sats.push_back(make_sat(550e3, 53.0, 45.0 * i, 30.0 * i, grid.start));
    const double covered = engine.stats(engine.coverage_mask(sats, site)).covered_fraction;
    EXPECT_GE(covered, previous);
    previous = covered;
  }
}

TEST(CoverageEngine, StatsConsistency) {
  const orbit::TimeGrid grid = day_grid();
  const CoverageEngine engine(grid, 25.0);
  const orbit::TopocentricFrame site(orbit::Geodetic::from_degrees(25.0, 121.5));
  const auto sat = make_sat(550e3, 53.0, 10.0, 20.0, grid.start);

  const CoverageStats stats = engine.stats(engine.visibility_mask(sat, site));
  EXPECT_NEAR(stats.covered_seconds + stats.uncovered_seconds, grid.duration_seconds(),
              1e-6);
  EXPECT_GE(stats.max_gap_seconds, 0.0);
  EXPECT_LE(stats.max_gap_seconds, grid.duration_seconds());
  if (stats.covered_fraction > 0.0) EXPECT_GE(stats.pass_count, 1u);
}

// A grid of `count` steps of `step` seconds, for stats on hand-made masks.
orbit::TimeGrid steps_grid(std::size_t count, double step) {
  orbit::TimeGrid grid = day_grid(step);
  grid.count = count;
  return grid;
}

StepMask mask_from_pattern(const std::string& pattern) {
  StepMask m(pattern.size());
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    if (pattern[i] == '1') m.set(i);
  }
  return m;
}

TEST(CoverageEngine, StatsOfAnEmptyMaskIsOneWindowLongGap) {
  const CoverageEngine engine(steps_grid(100, 60.0));
  const CoverageStats stats = engine.stats(StepMask(100));
  EXPECT_EQ(stats.pass_count, 0u);
  EXPECT_DOUBLE_EQ(stats.max_gap_seconds, 6000.0);
  EXPECT_DOUBLE_EQ(stats.covered_fraction, 0.0);
  EXPECT_DOUBLE_EQ(stats.uncovered_seconds, 6000.0);
}

TEST(CoverageEngine, StatsOfAFullMaskHasNoGap) {
  const CoverageEngine engine(steps_grid(50, 60.0));
  const CoverageStats stats = engine.stats(mask_from_pattern(std::string(50, '1')));
  EXPECT_EQ(stats.pass_count, 1u);
  EXPECT_DOUBLE_EQ(stats.max_gap_seconds, 0.0);
  EXPECT_DOUBLE_EQ(stats.covered_fraction, 1.0);
  EXPECT_DOUBLE_EQ(stats.covered_seconds, 3000.0);
}

TEST(CoverageEngine, StatsOfAPatternCountPassesAndTheLongestGap) {
  // Gaps of 2 (leading), 3 and 1 (trailing) steps around passes of 2 and 2.
  const CoverageEngine engine(steps_grid(10, 10.0));
  const CoverageStats stats = engine.stats(mask_from_pattern("0011000110"));
  EXPECT_EQ(stats.pass_count, 2u);
  EXPECT_DOUBLE_EQ(stats.max_gap_seconds, 30.0);
  EXPECT_DOUBLE_EQ(stats.covered_fraction, 0.4);
  EXPECT_DOUBLE_EQ(stats.covered_seconds, 40.0);
  EXPECT_DOUBLE_EQ(stats.uncovered_seconds, 60.0);
}

TEST(CoverageEngine, SingleLeoSatelliteIsMostlyIdle) {
  // The paper's §2 anchor: one satellite serving one city is ~99% idle.
  const orbit::TimeGrid grid = orbit::TimeGrid::over_duration(
      orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z"), 3.0 * 86400.0, 60.0);
  const CoverageEngine engine(grid, 25.0);
  const auto sat = make_sat(550e3, 53.0, 121.0, 25.0, grid.start);
  const std::vector<GroundSite> one_city{GroundSite::from_city(taipei())};
  const double idle = idle_fraction(engine, sat, one_city);
  EXPECT_GT(idle, 0.97);
  EXPECT_LE(idle, 1.0);
}

TEST(CoverageEngine, IdleDecreasesWithMoreCities) {
  const orbit::TimeGrid grid = day_grid();
  const CoverageEngine engine(grid, 25.0);
  const auto sat = make_sat(550e3, 53.0, 10.0, 200.0, grid.start);
  const auto& cities = paper_cities();

  const std::vector<GroundSite> few = sites_from_cities(std::span(cities).subspan(0, 3));
  const std::vector<GroundSite> many = sites_from_cities(cities);
  EXPECT_GE(idle_fraction(engine, sat, few), idle_fraction(engine, sat, many));
}

TEST(CoverageEngine, WeightedCoverageBetweenMinAndMax) {
  const orbit::TimeGrid grid = day_grid();
  const CoverageEngine engine(grid, 25.0);
  const std::vector<GroundSite> sites = sites_from_cities(paper_cities());

  std::vector<constellation::Satellite> sats;
  for (double raan : {0.0, 90.0, 180.0, 270.0}) {
    sats.push_back(make_sat(550e3, 53.0, raan, raan, grid.start));
  }
  const double weighted = engine.weighted_coverage_seconds(sats, sites);

  double min_cov = grid.duration_seconds(), max_cov = 0.0;
  for (const GroundSite& site : sites) {
    const double c =
        engine.stats(engine.coverage_mask(sats, site.frame)).covered_seconds;
    min_cov = std::min(min_cov, c);
    max_cov = std::max(max_cov, c);
  }
  EXPECT_GE(weighted, min_cov - 1e-6);
  EXPECT_LE(weighted, max_cov + 1e-6);
}

TEST(CoverageEngine, LowerMaskNeverReducesCoverage) {
  const orbit::TimeGrid grid = day_grid();
  const CoverageEngine tight(grid, 40.0);
  const CoverageEngine loose(grid, 15.0);
  const orbit::TopocentricFrame site(orbit::Geodetic::from_degrees(25.0, 121.5));
  const auto sat = make_sat(550e3, 53.0, 10.0, 20.0, grid.start);
  EXPECT_GE(loose.visibility_mask(sat, site).count(),
            tight.visibility_mask(sat, site).count());
}

TEST(VisibilityCache, MatchesDirectComputation) {
  const orbit::TimeGrid grid = day_grid();
  const CoverageEngine engine(grid, 25.0);
  const std::vector<GroundSite> sites = sites_from_cities(paper_cities());

  std::vector<constellation::Satellite> catalog;
  for (double raan : {0.0, 30.0, 60.0, 90.0}) {
    catalog.push_back(make_sat(550e3, 53.0, raan, raan * 3.0, grid.start));
  }
  VisibilityCache cache(engine, catalog, sites);
  EXPECT_EQ(cache.satellite_count(), 4u);
  EXPECT_EQ(cache.site_count(), sites.size());

  for (std::size_t s = 0; s < catalog.size(); ++s) {
    EXPECT_EQ(cache.mask(s, 0), engine.visibility_mask(catalog[s], sites[0].frame));
  }

  const std::vector<std::size_t> all{0, 1, 2, 3};
  const double via_cache =
      cache.weighted_coverage_fraction(all) * grid.duration_seconds();
  const double direct = engine.weighted_coverage_seconds(catalog, sites);
  EXPECT_NEAR(via_cache, direct, 1e-6);
}

TEST(VisibilityCache, UnionMaskMatchesManualUnion) {
  const orbit::TimeGrid grid = day_grid();
  const CoverageEngine engine(grid, 25.0);
  const std::vector<GroundSite> sites{GroundSite::from_city(taipei())};

  std::vector<constellation::Satellite> catalog;
  for (double phase : {0.0, 120.0, 240.0}) {
    catalog.push_back(make_sat(550e3, 53.0, 50.0, phase, grid.start));
  }
  VisibilityCache cache(engine, catalog, sites);
  const std::vector<std::size_t> subset{0, 2};
  StepMask manual = cache.mask(0, 0);
  manual |= cache.mask(2, 0);
  EXPECT_EQ(cache.union_mask(subset, 0), manual);
}

TEST(VisibilityCache, ParallelPrecomputeIsBitIdenticalToSerial) {
  const orbit::TimeGrid grid = day_grid();
  const CoverageEngine engine(grid, 25.0);
  const std::vector<GroundSite> sites = sites_from_cities(paper_cities());

  std::vector<constellation::Satellite> catalog;
  for (double raan : {0.0, 24.0, 48.0, 72.0, 96.0, 120.0}) {
    catalog.push_back(make_sat(550e3, 53.0, raan, raan * 2.0, grid.start));
  }

  sim::RunContext serial_context;
  VisibilityCache serial(engine, catalog, sites);
  serial.precompute_all(serial_context);

  sim::RunContext pooled_context;
  pooled_context.use_threads(4);
  VisibilityCache parallel(engine, catalog, sites);
  parallel.precompute_all(pooled_context);

  for (std::size_t s = 0; s < catalog.size(); ++s) {
    for (std::size_t j = 0; j < sites.size(); ++j) {
      ASSERT_EQ(serial.mask(s, j), parallel.mask(s, j)) << "sat " << s << " site " << j;
    }
  }
}

TEST(VisibilityCache, PrecomputeMatchesLazyFill) {
  const orbit::TimeGrid grid = day_grid();
  const CoverageEngine engine(grid, 25.0);
  const std::vector<GroundSite> sites = sites_from_cities(paper_cities());

  std::vector<constellation::Satellite> catalog;
  for (double phase : {0.0, 90.0, 180.0, 270.0}) {
    catalog.push_back(make_sat(560e3, 70.0, 15.0, phase, grid.start));
  }

  sim::RunContext context;
  context.use_threads(3);
  VisibilityCache eager(engine, catalog, sites);
  eager.precompute_all(context);
  VisibilityCache lazy(engine, catalog, sites);

  for (std::size_t s = 0; s < catalog.size(); ++s) {
    EXPECT_EQ(eager.mask(s, 2), lazy.mask(s, 2));
  }
}

TEST(VisibilityCache, UnionMasksMatchesPerSiteUnion) {
  const orbit::TimeGrid grid = day_grid();
  const CoverageEngine engine(grid, 25.0);
  const std::vector<GroundSite> sites = sites_from_cities(paper_cities());

  std::vector<constellation::Satellite> catalog;
  for (double raan : {0.0, 45.0, 90.0, 135.0, 180.0}) {
    catalog.push_back(make_sat(550e3, 53.0, raan, raan * 2.0, grid.start));
  }
  VisibilityCache cache(engine, catalog, sites);
  const std::vector<std::size_t> subset{4, 1, 3};
  const std::vector<StepMask> per_site = cache.union_masks(subset);
  ASSERT_EQ(per_site.size(), sites.size());
  for (std::size_t j = 0; j < sites.size(); ++j) {
    EXPECT_EQ(per_site[j], cache.union_mask(subset, j)) << "site " << j;
  }
  EXPECT_EQ(cache.weighted_coverage_fraction(subset), cache.weighted_fraction(per_site));
  EXPECT_EQ(cache.union_masks({}), std::vector<StepMask>(sites.size(), StepMask(grid.count)));
  EXPECT_THROW((void)cache.weighted_fraction(std::span<const StepMask>(per_site).first(1)),
               std::invalid_argument);
}

TEST(VisibilityCache, OutOfRangeIndicesThrow) {
  const orbit::TimeGrid grid = day_grid();
  const CoverageEngine engine(grid, 25.0);
  const std::vector<GroundSite> sites{GroundSite::from_city(taipei()),
                                      GroundSite::from_city(paper_cities().front())};
  std::vector<constellation::Satellite> catalog;
  for (double phase : {0.0, 180.0}) {
    catalog.push_back(make_sat(550e3, 53.0, 50.0, phase, grid.start));
  }
  VisibilityCache cache(engine, catalog, sites);
  const std::vector<std::size_t> bad_satellite{0, 2};
  const std::vector<std::size_t> fleet{0, 1};

  const auto expect_out_of_range = [&] {
    EXPECT_THROW((void)cache.mask(2, 0), std::out_of_range);
    EXPECT_THROW((void)cache.mask(0, 2), std::out_of_range);
    EXPECT_THROW((void)cache.union_mask(bad_satellite, 0), std::out_of_range);
    EXPECT_THROW((void)cache.union_mask(fleet, 2), std::out_of_range);
    EXPECT_THROW((void)cache.union_masks(bad_satellite), std::out_of_range);
    EXPECT_THROW((void)cache.weighted_coverage_fraction(bad_satellite), std::out_of_range);
  };
  // Before any fill an unchecked index would read past the storage; after
  // precompute_all, site == site_count() would alias the next satellite.
  expect_out_of_range();
  sim::RunContext context;
  cache.precompute_all(context);
  expect_out_of_range();
  EXPECT_EQ(cache.mask(1, 1), engine.visibility_mask(catalog[1], sites[1].frame));
}

TEST(CoverageEngine, DefaultBackendFlowsIntoEveryConsumer) {
  const orbit::TimeGrid grid = day_grid(60.0);
  const auto sat = make_sat(550e3, 53.0, 10.0, 20.0, grid.start);
  const orbit::TopocentricFrame site(orbit::Geodetic::from_degrees(25.0, 121.5));

  const CoverageEngine j2(grid, 25.0);
  const CoverageEngine sgp4(grid, 25.0, orbit::PropagatorBackend::kSgp4);
  EXPECT_EQ(j2.default_backend(), orbit::PropagatorBackend::kJ2Analytic);
  EXPECT_EQ(sgp4.default_backend(), orbit::PropagatorBackend::kSgp4);

  // The no-backend ephemeris entry point follows the engine default and
  // matches the explicit-backend overload exactly.
  const orbit::EphemerisTable via_default = sgp4.ephemeris(sat);
  const orbit::EphemerisTable via_explicit =
      sgp4.ephemeris(sat, orbit::PropagatorBackend::kSgp4);
  ASSERT_EQ(via_default.size(), via_explicit.size());
  for (std::size_t k = 0; k < via_default.size(); ++k) {
    EXPECT_EQ(via_default.x()[k], via_explicit.x()[k]);
  }
  // The two backends genuinely propagate differently.
  double max_delta = 0.0;
  const orbit::EphemerisTable j2_table = j2.ephemeris(sat);
  for (std::size_t k = 0; k < via_default.size(); ++k) {
    max_delta =
        std::max(max_delta, (via_default.position_ecef(k) - j2_table.position_ecef(k)).norm());
  }
  EXPECT_GT(max_delta, 1.0);

  // A catalog-level fill reports the backend that actually ran.
  const std::vector<constellation::Satellite> sats{sat};
  EXPECT_EQ(sgp4.ephemerides(sats).backend(0), orbit::PropagatorBackend::kSgp4);
  EXPECT_EQ(j2.ephemerides(sats).backend(0), orbit::PropagatorBackend::kJ2Analytic);
}

TEST(CoverageEngine, FindPassesMatchesVisibilityMaskRuns) {
  const orbit::TimeGrid grid = day_grid(30.0);
  const CoverageEngine engine(grid, 25.0);
  const auto sat = make_sat(550e3, 53.0, 10.0, 20.0, grid.start);
  const orbit::TopocentricFrame site(orbit::Geodetic::from_degrees(25.0, 121.5));

  const auto passes = find_passes(engine.ephemeris(sat), site, grid, 25.0);
  const auto runs = engine.visibility_mask(sat, site).to_intervals(grid.step_seconds);
  ASSERT_FALSE(passes.empty());
  ASSERT_EQ(passes.size(), runs.size());
  for (std::size_t i = 0; i < passes.size(); ++i) {
    EXPECT_EQ(passes[i].start_offset_s, runs[i].start) << i;
    EXPECT_EQ(passes[i].end_offset_s, runs[i].end) << i;
    EXPECT_GE(passes[i].max_elevation_rad, util::deg_to_rad(25.0)) << i;
  }
}

TEST(CoverageEngine, EmptySatelliteSetHasZeroCoverage) {
  const orbit::TimeGrid grid = day_grid();
  const CoverageEngine engine(grid, 25.0);
  const std::vector<GroundSite> sites = sites_from_cities(paper_cities());
  EXPECT_EQ(engine.weighted_coverage_seconds({}, sites), 0.0);
}

}  // namespace
}  // namespace mpleo::cov
