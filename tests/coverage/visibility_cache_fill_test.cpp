// VisibilityCache fills through orbit::EphemerisFill: lane groups of up to
// four circular J2 satellites on the AVX2 kernel, everything else (and every
// lazy fill) one satellite at a time on the scalar path. Whatever the pool
// size, SIMD mode or backend, each stored mask must equal the per-satellite
// oracle CoverageEngine::visibility_masks(satellite, sites), and the fill
// counters must count only the satellites precompute_all itself filled.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <tuple>
#include <vector>

#include "coverage/cities.hpp"
#include "coverage/engine.hpp"
#include "orbit/simd.hpp"
#include "sim/run_context.hpp"
#include "support/simd_mode_guard.hpp"
#include "util/units.hpp"

namespace mpleo::cov {
namespace {

constellation::Satellite make_sat(const orbit::ClassicalElements& elements,
                                  const orbit::TimePoint& epoch) {
  constellation::Satellite sat;
  sat.elements = elements;
  sat.epoch = epoch;
  return sat;
}

// 4k + 3 satellites: fifteen circular J2 orbits (five each at 53, 70 and
// 97.6 degrees, so under AVX2 three full lane groups and a tail group of
// three) and four eccentric ones (e ~ 0.01), interleaved so lane groups
// gather satellites from across the catalog.
std::vector<constellation::Satellite> mixed_catalog(const orbit::TimePoint& epoch) {
  std::vector<constellation::Satellite> catalog;
  for (int i = 0; i < 5; ++i) {
    const double raan = 72.0 * i;
    catalog.push_back(make_sat(orbit::ClassicalElements::circular(550e3, 53.0, raan, 31.0 * i),
                               epoch));
    catalog.push_back(make_sat(
        orbit::ClassicalElements::circular(570e3, 70.0, raan + 20.0, 47.0 * i), epoch));
    catalog.push_back(make_sat(
        orbit::ClassicalElements::circular(560e3, 97.6, raan + 40.0, 59.0 * i), epoch));
    if (i < 4) {
      orbit::ClassicalElements eccentric =
          orbit::ClassicalElements::circular(700e3, 45.0 + 12.0 * i, raan + 10.0, 90.0 * i);
      eccentric.eccentricity = 0.008 + 0.001 * i;
      eccentric.arg_perigee_rad = util::deg_to_rad(33.0 * i);
      catalog.push_back(make_sat(eccentric, epoch));
    }
  }
  return catalog;
}

// Every paper city plus a site near the north pole, which only the
// sun-synchronous satellites reach.
std::vector<GroundSite> paper_cities_and_pole() {
  std::vector<GroundSite> sites = sites_from_cities(paper_cities());
  sites.push_back(
      {"north-pole", orbit::TopocentricFrame(orbit::Geodetic::from_degrees(88.5, 10.0)), 1.0});
  return sites;
}

using FillCase = std::tuple<std::size_t, orbit::SimdMode>;

class VisibilityCacheLaneFill : public ::testing::TestWithParam<FillCase> {};

TEST_P(VisibilityCacheLaneFill, EveryMaskMatchesThePerSatelliteOracle) {
  const auto [threads, simd] = GetParam();
  if (simd == orbit::SimdMode::kAvx2 && !orbit::cpu_supports_avx2()) {
    GTEST_SKIP() << "no AVX2 on this machine";
  }
  orbit::SimdModeGuard guard;
  orbit::force_simd_mode(simd);

  // Twelve hours at 60 s: 721 steps, across eleven resync blocks.
  const orbit::TimeGrid grid = orbit::TimeGrid::over_duration(
      orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z"), 12.0 * 3600.0, 60.0);
  const std::vector<constellation::Satellite> catalog = mixed_catalog(grid.start);
  ASSERT_EQ(catalog.size() % 4, 3u);
  const std::vector<GroundSite> sites = paper_cities_and_pole();
  // Filled lazily before precompute_all: a circular satellite and two
  // eccentric ones, which leaves fourteen circular satellites to fill, so
  // the last lane group runs two padded lanes.
  const std::vector<std::size_t> lazy{1, 3, 7};

  for (const orbit::PropagatorBackend backend :
       {orbit::PropagatorBackend::kJ2Analytic, orbit::PropagatorBackend::kSgp4}) {
    SCOPED_TRACE(orbit::to_string(backend));
    const CoverageEngine engine(grid, 25.0, backend);
    VisibilityCache cache(engine, catalog, sites);
    for (const std::size_t sat : lazy) (void)cache.mask(sat, 0);

    sim::RunContext context;
    if (threads > 1) context.use_threads(threads);
    cache.precompute_all(context);

    std::size_t fresh_visible = 0;
    std::size_t total_visible = 0;
    for (std::size_t s = 0; s < catalog.size(); ++s) {
      const std::vector<StepMask> oracle = engine.visibility_masks(catalog[s], sites);
      for (std::size_t j = 0; j < sites.size(); ++j) {
        ASSERT_EQ(cache.mask(s, j), oracle[j]) << "sat " << s << " site " << j;
        total_visible += oracle[j].count();
        if (std::find(lazy.begin(), lazy.end(), s) == lazy.end()) {
          fresh_visible += oracle[j].count();
        }
      }
    }
    // The catalog must exercise visibility, or the identity is vacuous.
    EXPECT_GT(total_visible, 0u);
    EXPECT_EQ(context.metrics().counter_value("cov.masks_filled"),
              (catalog.size() - lazy.size()) * sites.size());
    EXPECT_EQ(context.metrics().counter_value("cov.visible_steps"), fresh_visible);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoolsAndSimdModes, VisibilityCacheLaneFill,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{3}),
                       ::testing::Values(orbit::SimdMode::kScalar, orbit::SimdMode::kAvx2)),
    [](const ::testing::TestParamInfo<FillCase>& param) {
      return "threads" + std::to_string(std::get<0>(param.param)) + "_" +
             orbit::to_string(std::get<1>(param.param));
    });

}  // namespace
}  // namespace mpleo::cov
