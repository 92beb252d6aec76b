// Property tests for the mega-scale footprint pruning chain: the spatial
// index, the family cone, and the latitude-band reachability test may only
// ever SKIP (satellite, site, step) work — any pruned combination must be
// provably invisible, so masks built through the pruned chain stay
// bit-identical to the exhaustive pair scan.
#include "coverage/footprint_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "coverage/engine.hpp"
#include "coverage/step_mask.hpp"
#include "coverage/visibility_cull.hpp"
#include "obs/metrics.hpp"
#include "orbit/elements.hpp"
#include "orbit/ephemeris.hpp"
#include "orbit/geodesy.hpp"
#include "orbit/propagator.hpp"
#include "orbit/simd.hpp"
#include "orbit/time.hpp"
#include "support/simd_mode_guard.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
#include "util/vec3.hpp"

namespace mpleo::cov {
namespace {

constexpr double kMaskDeg = 25.0;

orbit::TimeGrid test_grid() {
  // Six hours at 60 s: enough revolutions for every fleet member to sweep
  // its full latitude range while keeping the exhaustive reference cheap.
  return orbit::TimeGrid::over_duration(
      orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z"), 6.0 * 3600.0, 60.0);
}

// Random sites across the inhabited latitudes, plus pinned polar edge cases
// (the latitude-band math is most fragile at the caps).
std::vector<orbit::TopocentricFrame> make_sites(std::uint64_t seed,
                                                std::size_t count) {
  util::Xoshiro256PlusPlus rng(seed);
  std::vector<orbit::TopocentricFrame> frames;
  frames.reserve(count + 4);
  for (std::size_t i = 0; i < count; ++i) {
    frames.emplace_back(orbit::Geodetic::from_degrees(rng.uniform(-80.0, 80.0),
                                                      rng.uniform(-180.0, 180.0)));
  }
  frames.emplace_back(orbit::Geodetic::from_degrees(89.5, 0.0));
  frames.emplace_back(orbit::Geodetic::from_degrees(-89.5, 123.0));
  frames.emplace_back(orbit::Geodetic::from_degrees(85.0, -179.9));
  frames.emplace_back(orbit::Geodetic::from_degrees(-85.0, 179.9));
  return frames;
}

// Randomised fleet spanning the cull's hard cases: circular LEO at mixed
// inclinations, eccentric orbits (r varies, so the family cone must bound
// with extremes), and a polar pass.
std::vector<orbit::EphemerisTable> make_tables(std::uint64_t seed,
                                               const orbit::TimeGrid& grid) {
  util::Xoshiro256PlusPlus rng(seed);
  std::vector<orbit::ClassicalElements> elements;
  for (int i = 0; i < 4; ++i) {
    elements.push_back(orbit::ClassicalElements::circular(
        rng.uniform(400e3, 1200e3), rng.uniform(0.0, 98.0),
        rng.uniform(0.0, 360.0), rng.uniform(0.0, 360.0)));
  }
  for (int i = 0; i < 2; ++i) {
    orbit::ClassicalElements el;
    el.semi_major_axis_m = rng.uniform(7100e3, 7600e3);
    el.eccentricity = rng.uniform(0.02, 0.06);  // perigee stays above ~400 km
    el.inclination_rad = util::deg_to_rad(rng.uniform(20.0, 97.0));
    el.raan_rad = rng.uniform(0.0, 2.0 * util::kPi);
    el.arg_perigee_rad = rng.uniform(0.0, 2.0 * util::kPi);
    el.mean_anomaly_rad = rng.uniform(0.0, 2.0 * util::kPi);
    elements.push_back(el);
  }
  elements.push_back(orbit::ClassicalElements::circular(
      550e3, 90.0, rng.uniform(0.0, 360.0), rng.uniform(0.0, 360.0)));

  std::vector<orbit::EphemerisTable> tables;
  tables.reserve(elements.size());
  const orbit::GmstTable gmst = orbit::GmstTable::for_grid(grid);
  for (const orbit::ClassicalElements& el : elements) {
    const orbit::KeplerianPropagator prop(el, grid.start);
    tables.push_back(orbit::EphemerisTable::compute(prop, grid, gmst));
  }
  return tables;
}

StepMask exhaustive_mask(const orbit::EphemerisTable& table,
                         const orbit::TopocentricFrame& frame, double sin_mask) {
  StepMask mask(table.size());
  for (std::size_t s = 0; s < table.size(); ++s) {
    if (frame.visible_above(table.position_ecef(s), sin_mask)) mask.set(s);
  }
  return mask;
}

class FootprintIndexProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FootprintIndexProperty, PrunedMasksBitIdenticalToExhaustive) {
  const std::uint64_t seed = GetParam();
  const orbit::TimeGrid grid = test_grid();
  const std::vector<orbit::TopocentricFrame> frames = make_sites(seed, 60);
  const std::vector<orbit::EphemerisTable> tables = make_tables(seed, grid);
  const FootprintIndex index(frames);
  const double sin_mask = std::sin(util::deg_to_rad(kMaskDeg));
  const SiteLatitudePrune prune(frames, kMaskDeg);

  std::vector<FootprintIndex::Range> ranges;
  for (const orbit::EphemerisTable& table : tables) {
    const FootprintCone cone =
        FootprintCone::make(table.min_radius_m(), table.max_radius_m(),
                            index.min_site_radius_m(), kMaskDeg);
    ASSERT_FALSE(cone.exhaustive);
    const double threshold = cone.dot_threshold(table.min_radius_m(), table.max_radius_m());

    // The pruned chain, exactly as the scheduler's footprint-stream path
    // walks it: cap query -> cone dot test -> exact visible_above.
    std::vector<StepMask> pruned(frames.size(), StepMask(table.size()));
    for (std::size_t s = 0; s < table.size(); ++s) {
      const util::Vec3 pos = table.position_ecef(s);
      ranges.clear();
      index.query_cap(pos, cone.psi_rad, ranges);
      for (const FootprintIndex::Range& r : ranges) {
        for (std::uint32_t j = r.begin; j < r.end; ++j) {
          const double dot = index.unit_x()[j] * pos.x +
                             index.unit_y()[j] * pos.y +
                             index.unit_z()[j] * pos.z;
          if (dot < threshold) continue;
          const std::uint32_t site = index.site_ids()[j];
          if (frames[site].visible_above(pos, sin_mask)) pruned[site].set(s);
        }
      }
    }

    const double reach = prune.reach_rad(table);
    std::size_t total_visible = 0;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const StepMask expected = exhaustive_mask(table, frames[i], sin_mask);
      EXPECT_EQ(pruned[i], expected) << "seed " << seed << " site " << i;
      total_visible += expected.count();

      // The site-latitude prune is the coarser layer the coverage engine
      // and the scheduler's leg table use: false must imply a provably
      // empty mask.
      if (!prune.reachable(reach, i)) {
        EXPECT_EQ(expected.count(), 0u) << "seed " << seed << " site " << i;
      }
    }
    // The fleet geometry must actually exercise visibility, or the
    // bit-identity assertion above is vacuous.
    EXPECT_GT(total_visible, 0u) << "seed " << seed;
  }
}

TEST_P(FootprintIndexProperty, QueryCapIsSupersetOfCapMembership) {
  const std::uint64_t seed = GetParam();
  util::Xoshiro256PlusPlus rng(seed ^ 0x9e3779b97f4a7c15ULL);
  const std::vector<orbit::TopocentricFrame> frames = make_sites(seed, 80);
  const FootprintIndex index(frames);
  ASSERT_EQ(index.site_count(), frames.size());

  std::vector<FootprintIndex::Range> ranges;
  for (int trial = 0; trial < 50; ++trial) {
    // Random cap centre on the sphere (area-uniform) at LEO-ish radius.
    const double z = rng.uniform(-1.0, 1.0);
    const double lon = rng.uniform(0.0, 2.0 * util::kPi);
    const double rho = std::sqrt(std::max(0.0, 1.0 - z * z));
    const double radius = rng.uniform(6.8e6, 7.5e6);
    const util::Vec3 center{radius * rho * std::cos(lon),
                            radius * rho * std::sin(lon), radius * z};
    const double psi = rng.uniform(0.02, 1.2);

    ranges.clear();
    index.query_cap(center, psi, ranges);
    std::vector<bool> returned(frames.size(), false);
    std::uint32_t prev_end = 0;
    for (const FootprintIndex::Range& r : ranges) {
      ASSERT_LE(prev_end, r.begin);  // disjoint, ascending
      ASSERT_LT(r.begin, r.end);
      ASSERT_LE(r.end, index.site_count());
      prev_end = r.end;
      for (std::uint32_t j = r.begin; j < r.end; ++j) {
        returned[index.site_ids()[j]] = true;
      }
    }

    const double inv_norm = 1.0 / center.norm();
    const double cos_psi = std::cos(psi);
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const util::Vec3& origin = frames[i].origin_ecef();
      const double r = origin.norm();
      if (!(r > 0.0)) continue;
      const double cos_angle = (origin.x * center.x + origin.y * center.y +
                                origin.z * center.z) *
                               inv_norm / r;
      // Strictly inside the cap (with margin) must be in the superset.
      if (cos_angle > cos_psi + 1e-9) {
        EXPECT_TRUE(returned[i]) << "seed " << seed << " trial " << trial
                                 << " site " << i;
      }
    }
  }
}

TEST_P(FootprintIndexProperty, CulledFillsBitIdenticalToExhaustive) {
  // The zenith-cone cull behind both VisibilityCuller fills — the StepMask
  // one and the counted word-span one the scheduler packs its station masks
  // with — only skips steps, so both masks equal the exhaustive scan, from
  // the horizon through the proof-of-coverage mask (10 deg) to near zenith.
  // The negative mask takes the culler's exhaustive branch.
  const std::uint64_t seed = GetParam();
  const orbit::TimeGrid grid = test_grid();
  std::vector<orbit::TopocentricFrame> frames = make_sites(seed, 60);
  const std::vector<orbit::EphemerisTable> tables = make_tables(seed, grid);
  // One site at the geodetic foot of each satellite at some step: its
  // ellipsoid normal passes through the satellite, which clears every mask
  // below 90 deg there, so no mask's comparison is vacuous.
  util::Xoshiro256PlusPlus rng(seed ^ 0x5a5a5a5aULL);
  for (const orbit::EphemerisTable& table : tables) {
    orbit::Geodetic foot = orbit::ecef_to_geodetic(
        table.position_ecef(static_cast<std::size_t>(rng.uniform(0.0, 0.99) *
                                                     static_cast<double>(table.size()))));
    foot.altitude_m = 0.0;
    frames.emplace_back(foot);
  }

  for (const double mask_deg : {0.0, 10.0, kMaskDeg, 60.0, 89.5, -5.0}) {
    const VisibilityCuller culler(grid, mask_deg);
    obs::MetricsRegistry metrics;
    const CullCounters counters{metrics.counter("masks"), metrics.counter("visible")};
    std::uint64_t total_visible = 0;
    for (const orbit::EphemerisTable& table : tables) {
      for (std::size_t i = 0; i < frames.size(); ++i) {
        const StepMask expected = exhaustive_mask(table, frames[i], culler.sin_mask());
        StepMask mask(table.size());
        culler.fill(table, frames[i], mask);
        EXPECT_EQ(mask, expected) << "seed " << seed << " mask " << mask_deg << " site " << i;

        std::vector<std::uint64_t> words(expected.words().size(), 0);
        culler.fill(table, frames[i], words, counters);
        EXPECT_TRUE(std::equal(words.begin(), words.end(), expected.words().begin()))
            << "seed " << seed << " mask " << mask_deg << " site " << i;
        total_visible += expected.count();
      }
    }
    EXPECT_EQ(metrics.counter_value("masks"), tables.size() * frames.size());
    EXPECT_EQ(metrics.counter_value("visible"), total_visible);
    EXPECT_GT(total_visible, 0u) << "seed " << seed << " mask " << mask_deg;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FootprintIndexProperty,
                         ::testing::Values(0, 1, 2, 3, 4, 5));

TEST(FootprintCone, DegenerateGeometryFallsBackToExhaustive) {
  EXPECT_TRUE(FootprintCone::make(7e6, 7.5e6, 6.37e6, -1.0).exhaustive);
  EXPECT_TRUE(FootprintCone::make(7e6, 7.5e6, 6.37e6, 90.0).exhaustive);
  EXPECT_TRUE(FootprintCone::make(7e6, 7.5e6, 0.0, 25.0).exhaustive);
  EXPECT_TRUE(FootprintCone::make(0.0, 7.5e6, 6.37e6, 25.0).exhaustive);
  // Satellite family not safely above the sites.
  EXPECT_TRUE(FootprintCone::make(6.3e6, 6.37e6, 6.37e6, 25.0).exhaustive);
  // Healthy LEO geometry prunes.
  const FootprintCone cone = FootprintCone::make(6.92e6, 6.93e6, 6.37e6, 25.0);
  EXPECT_FALSE(cone.exhaustive);
  EXPECT_GT(cone.psi_rad, 0.0);
  EXPECT_LT(cone.psi_rad, util::kPi / 2.0);
}

TEST(FootprintCone, FamilyConeContainsMemberCones) {
  // Widening the radius family can only widen the cone.
  const FootprintCone tight = FootprintCone::make(6.92e6, 6.93e6, 6.37e6, 25.0);
  const FootprintCone wide = FootprintCone::make(6.80e6, 7.40e6, 6.35e6, 25.0);
  EXPECT_GE(wide.psi_rad, tight.psi_rad);
}

TEST(FootprintCone, MaskConeIsMakeWithoutTheAcos) {
  // The culler and the proof-of-coverage window build cones from a Mask,
  // with no libm call; the scheduler and the latitude prune call make. Both
  // are one cone, and make's psi_rad is the angle of its cos/sin form.
  util::Xoshiro256PlusPlus rng(29);
  for (int trial = 0; trial < 500; ++trial) {
    const double mask_deg = trial % 10 == 0 ? 0.0 : rng.uniform(0.0, 89.9);
    const double r_min = util::kEarthEquatorialRadiusM + rng.uniform(350e3, 2000e3);
    const double r_max = trial % 3 == 0 ? r_min : r_min + rng.uniform(0.0, 400e3);
    const double site_r_min = util::kEarthEquatorialRadiusM - rng.uniform(0.0, 30e3);
    const FootprintCone made = FootprintCone::make(r_min, r_max, site_r_min, mask_deg);
    const FootprintCone built(FootprintCone::Mask(mask_deg), r_min, r_max, site_r_min);
    ASSERT_FALSE(made.exhaustive) << "trial " << trial;
    ASSERT_FALSE(built.exhaustive) << "trial " << trial;
    EXPECT_EQ(built.cos_psi, made.cos_psi) << "trial " << trial;
    EXPECT_EQ(built.sin_psi, made.sin_psi) << "trial " << trial;
    EXPECT_EQ(built.dot_threshold(r_min, r_max), made.dot_threshold(r_min, r_max))
        << "trial " << trial;
    EXPECT_EQ(built.psi_rad, util::kPi) << "trial " << trial;
    EXPECT_GT(made.psi_rad, 0.0) << "trial " << trial;
    EXPECT_LT(made.psi_rad, util::kPi / 2.0) << "trial " << trial;
    EXPECT_NEAR(std::cos(made.psi_rad), made.cos_psi, 1e-12) << "trial " << trial;
    EXPECT_NEAR(std::sin(made.psi_rad), made.sin_psi, 1e-12) << "trial " << trial;
  }
  // Degenerate inputs leave both paths exhaustive.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double mask_deg : {-1.0, 90.0, nan}) {
    EXPECT_TRUE(FootprintCone(FootprintCone::Mask(mask_deg), 6.92e6, 6.93e6, 6.37e6).exhaustive)
        << mask_deg;
  }
  const FootprintCone::Mask mask(kMaskDeg);
  EXPECT_TRUE(FootprintCone(mask, 6.3e6, 6.37e6, 6.37e6).exhaustive);
  EXPECT_TRUE(FootprintCone(mask, 6.93e6, 6.92e6, 6.37e6).exhaustive);
  EXPECT_TRUE(FootprintCone(mask, 6.92e6, nan, 6.37e6).exhaustive);
  EXPECT_EQ(FootprintCone(mask, 0.0, 6.93e6, 6.37e6).dot_threshold(0.0, 6.93e6),
            -std::numeric_limits<double>::infinity());
}

TEST(FootprintCone, WideningPastPiIsExhaustive) {
  const double r_min = 6.92e6;
  const double r_max = 6.93e6;
  const FootprintCone cone = FootprintCone::make(r_min, r_max, 6.37e6, 25.0);
  const FootprintCone near =
      cone.widened(FootprintCone::Widening(util::kPi - cone.psi_rad - 1e-3));
  EXPECT_FALSE(near.exhaustive);
  EXPECT_NEAR(near.psi_rad, util::kPi - 1e-3, 1e-12);
  EXPECT_TRUE(std::isfinite(near.dot_threshold(r_min, r_max)));
  // At or past pi, or for an angle outside [0, pi), the widening passes
  // every position; so does any widening of an exhaustive cone.
  for (const double angle : {util::kPi - cone.psi_rad + 1e-3, util::kPi, -0.1}) {
    const FootprintCone wide = cone.widened(FootprintCone::Widening(angle));
    EXPECT_TRUE(wide.exhaustive) << angle;
    EXPECT_EQ(wide.dot_threshold(r_min, r_max), -std::numeric_limits<double>::infinity())
        << angle;
  }
  EXPECT_TRUE(FootprintCone::make(r_min, r_max, 6.37e6, 90.0)
                  .widened(FootprintCone::Widening(0.0))
                  .exhaustive);
}

TEST(SiteLatitudePrune, ReachBoundsTheSitesATableCanSee) {
  const orbit::TimeGrid grid = test_grid();
  const orbit::KeplerianPropagator low_inclination(
      orbit::ClassicalElements::circular(550e3, 10.0, 40.0, 0.0), grid.start);
  const orbit::EphemerisTable table = orbit::EphemerisTable::compute(
      low_inclination, grid, orbit::GmstTable::for_grid(grid));
  const std::vector<orbit::TopocentricFrame> sites{
      orbit::TopocentricFrame(orbit::Geodetic::from_degrees(5.0, 20.0)),
      orbit::TopocentricFrame(orbit::Geodetic::from_degrees(-60.0, 20.0)),
      orbit::TopocentricFrame(orbit::Geodetic::from_degrees(89.5, 0.0))};
  // A 10 deg orbit with a cone of a few degrees reaches the tropics only.
  const SiteLatitudePrune prune(sites, kMaskDeg);
  const double reach = prune.reach_rad(table);
  EXPECT_GT(reach, util::deg_to_rad(10.0));
  EXPECT_LT(reach, util::deg_to_rad(30.0));
  EXPECT_TRUE(prune.reachable(reach, 0));
  EXPECT_FALSE(prune.reachable(reach, 1));
  EXPECT_FALSE(prune.reachable(reach, 2));
  // Without a cone (a mask outside [0, 90)) every site stays reachable.
  for (const double mask_deg : {-1.0, 90.0}) {
    const SiteLatitudePrune open(sites, mask_deg);
    EXPECT_EQ(open.reach_rad(table), std::numeric_limits<double>::infinity()) << mask_deg;
  }
}

TEST(SiteLatitudePrune, GroundSitesAndFramesPruneAlike) {
  // The coverage engine builds the prune from its GroundSites and the
  // scheduler's leg table from bare frames: the same sites prune alike.
  const orbit::TimeGrid grid = test_grid();
  const std::vector<orbit::TopocentricFrame> frames = make_sites(3, 40);
  std::vector<GroundSite> sites;
  sites.reserve(frames.size());
  for (const orbit::TopocentricFrame& frame : frames) sites.push_back({"site", frame});
  const std::vector<orbit::EphemerisTable> tables = make_tables(3, grid);
  for (const double mask_deg : {0.0, 10.0, kMaskDeg}) {
    const SiteLatitudePrune from_frames(frames, mask_deg);
    const SiteLatitudePrune from_sites(sites, mask_deg);
    std::size_t pruned = 0;
    for (const orbit::EphemerisTable& table : tables) {
      const double reach = from_frames.reach_rad(table);
      EXPECT_EQ(from_sites.reach_rad(table), reach) << mask_deg;
      for (std::size_t i = 0; i < frames.size(); ++i) {
        EXPECT_EQ(from_sites.reachable(reach, i), from_frames.reachable(reach, i))
            << mask_deg << " site " << i;
        if (!from_frames.reachable(reach, i)) ++pruned;
      }
    }
    EXPECT_GT(pruned, 0u) << mask_deg;  // some site is out of some table's reach
  }
}

// Random cones at the edges of their inputs: radius ranges at 350-2,000 km
// altitude (circular and eccentric spreads), sites on and below the
// ellipsoid over site radius floors at or below them, and masks across [0,
// 89.9] deg. Satellites are placed within a hair of a site's mask at any
// azimuth, often at an end of the radius range, where only the cone's
// margins keep a visible pair inside it.
class FootprintConeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FootprintConeProperty, ContainsEveryVisiblePairUnderEveryWidening) {
  util::Xoshiro256PlusPlus rng(GetParam());
  std::size_t visible = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const double mask_deg = trial % 8 == 0 ? 0.0 : rng.uniform(0.0, 89.9);
    const double r_min = util::kEarthEquatorialRadiusM + rng.uniform(350e3, 2000e3);
    const double r_max = trial % 3 == 0 ? r_min : r_min + rng.uniform(0.0, 400e3);
    const orbit::TopocentricFrame site(orbit::Geodetic::from_degrees(
        rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0),
        trial % 2 == 0 ? 0.0 : rng.uniform(-500.0, 0.0)));
    const util::Vec3& origin = site.origin_ecef();
    const double site_r = origin.norm();
    const double site_r_min = trial % 4 == 0 ? site_r : site_r - rng.uniform(0.0, 20e3);
    const FootprintCone cone = FootprintCone::make(r_min, r_max, site_r_min, mask_deg);
    ASSERT_FALSE(cone.exhaustive) << "trial " << trial;
    const double threshold = cone.dot_threshold(r_min, r_max);
    EXPECT_EQ(cone.widened(FootprintCone::Widening(0.0)).dot_threshold(r_min, r_max),
              threshold)
        << "trial " << trial;

    std::vector<double> thresholds{threshold};
    for (const double angle : {rng.uniform(0.0, 1e-3), rng.uniform(0.0, 0.5)}) {
      const FootprintCone wide = cone.widened(FootprintCone::Widening(angle));
      if (!wide.exhaustive) {
        EXPECT_GE(wide.psi_rad, cone.psi_rad) << "trial " << trial;
        EXPECT_LE(wide.cos_psi, cone.cos_psi) << "trial " << trial;
      }
      thresholds.push_back(wide.dot_threshold(r_min, r_max));
    }

    const double mask_rad = util::deg_to_rad(mask_deg);
    const double sin_mask = std::sin(mask_rad);
    const util::Vec3 unit = origin / site_r;
    for (int k = 0; k < 8; ++k) {
      const double r = k % 3 == 0 ? r_min : k % 3 == 1 ? r_max : rng.uniform(r_min, r_max);
      const double el = mask_rad + rng.uniform(-1e-3, 4e-3);
      const double az = rng.uniform(0.0, 2.0 * util::kPi);
      const util::Vec3 dir = std::cos(el) * (std::cos(az) * site.north() +
                                             std::sin(az) * site.east()) +
                             std::sin(el) * site.up();
      // |origin + rho * dir| = r, on the far side of the site.
      const double along = util::dot(origin, dir);
      const double rho = -along + std::sqrt(along * along - site_r * site_r + r * r);
      const util::Vec3 p = origin + rho * dir;
      if (!site.visible_above(p, sin_mask)) continue;
      ++visible;
      const double dot = util::dot(unit, p);
      for (const double t : thresholds) {
        EXPECT_GE(dot, t) << "trial " << trial << " mask " << mask_deg << " r " << r;
      }
    }
  }
  EXPECT_GT(visible, 5000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FootprintConeProperty, ::testing::Values(7u, 42u, 1234u));

// The exact per-step maximum of |z| / r, or 1 at a non-positive radius: the
// oracle the O(1) max_abs_sin_latitude is checked against.
double scanned_max_abs_sin_latitude(const orbit::EphemerisTable& table) {
  double max_sin = 0.0;
  for (std::size_t k = 0; k < table.size(); ++k) {
    if (!(table.radius_m()[k] > 0.0)) return 1.0;
    max_sin = std::max(max_sin, std::abs(table.z()[k]) / table.radius_m()[k]);
  }
  return std::min(max_sin, 1.0);
}

class MaxAbsSinLatitude : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxAbsSinLatitude, BoundsThePerStepScanOnEveryFill) {
  util::Xoshiro256PlusPlus rng(GetParam());
  const orbit::TimeGrid grid = test_grid();
  // Six circular J2 specs (a full lane group and a group of two under
  // AVX2), three eccentric J2 specs and three SGP4 specs.
  std::vector<orbit::EphemerisSpec> specs;
  for (int i = 0; i < 6; ++i) {
    specs.push_back({orbit::ClassicalElements::circular(
                         rng.uniform(400e3, 1200e3), rng.uniform(0.0, 180.0),
                         rng.uniform(0.0, 360.0), rng.uniform(0.0, 360.0)),
                     grid.start});
  }
  for (int i = 0; i < 3; ++i) {
    orbit::ClassicalElements el = orbit::ClassicalElements::circular(
        rng.uniform(900e3, 1200e3), rng.uniform(20.0, 98.0), rng.uniform(0.0, 360.0),
        rng.uniform(0.0, 360.0));
    el.eccentricity = rng.uniform(0.005, 0.05);
    specs.push_back({el, grid.start});
  }
  for (int i = 0; i < 3; ++i) {
    orbit::EphemerisSpec spec{orbit::ClassicalElements::circular(
                                  rng.uniform(500e3, 1200e3), rng.uniform(30.0, 98.0),
                                  rng.uniform(0.0, 360.0), rng.uniform(0.0, 360.0)),
                              grid.start};
    spec.backend = orbit::PropagatorBackend::kSgp4;
    specs.push_back(spec);
  }
  const auto check = [&](const orbit::EphemerisTable& table, std::size_t i,
                         const char* fill) {
    const double bound = max_abs_sin_latitude(table);
    const double scanned = scanned_max_abs_sin_latitude(table);
    EXPECT_GE(bound, scanned) << fill << " spec " << i;
    if (specs[i].backend == orbit::PropagatorBackend::kJ2Analytic &&
        specs[i].elements.eccentricity == 0.0) {
      EXPECT_NEAR(bound, scanned, 1e-12) << fill << " spec " << i;
    }
  };

  const orbit::GmstTable gmst = orbit::GmstTable::for_grid(grid);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    check(orbit::EphemerisTable::compute(orbit::make_propagator(specs[i]), grid, gmst), i,
          "scalar");
  }
  if (!orbit::cpu_supports_avx2()) return;  // no lane kernel to check
  orbit::SimdModeGuard guard;
  orbit::force_simd_mode(orbit::SimdMode::kAvx2);
  const orbit::EphemerisSet lanes = orbit::EphemerisSet::compute(specs, grid);
  for (std::size_t i = 0; i < specs.size(); ++i) check(lanes.table(i), i, "lane");
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxAbsSinLatitude, ::testing::Values(3u, 17u, 2024u));

TEST(MaxAbsSinLatitude, EmptyAndNonPositiveRadiusTablesKeepTheScanAnswers) {
  EXPECT_EQ(max_abs_sin_latitude(orbit::EphemerisTable{}), 0.0);
  const orbit::TimeGrid empty_grid{test_grid().start, 60.0, 0};
  const orbit::KeplerianPropagator leo(orbit::ClassicalElements::circular(550e3, 53.0, 0.0, 0.0),
                                       empty_grid.start);
  const orbit::EphemerisTable empty_table =
      orbit::EphemerisTable::compute(leo, empty_grid, orbit::GmstTable::for_grid(empty_grid));
  EXPECT_EQ(max_abs_sin_latitude(empty_table), 0.0);

  // e = 1.5 without J2 rates: r = a (1 - e cos E) goes negative near
  // perigee, so the table holds non-positive radii.
  orbit::ClassicalElements unbound = orbit::ClassicalElements::circular(550e3, 53.0, 0.0, 0.0);
  unbound.eccentricity = 1.5;
  const orbit::KeplerianPropagator degenerate(unbound, empty_grid.start,
                                              orbit::Perturbation::kNone);
  const orbit::EphemerisTable table = orbit::EphemerisTable::compute(
      degenerate, test_grid(), orbit::GmstTable::for_grid(test_grid()));
  ASSERT_FALSE(table.min_radius_m() > 0.0);
  EXPECT_EQ(max_abs_sin_latitude(table), 1.0);
  EXPECT_EQ(scanned_max_abs_sin_latitude(table), 1.0);
}

TEST(FootprintIndex, EmptyIndexYieldsNothing) {
  const FootprintIndex index{std::span<const orbit::TopocentricFrame>{}};
  EXPECT_EQ(index.site_count(), 0u);
  EXPECT_EQ(index.min_site_radius_m(), 0.0);
  std::vector<FootprintIndex::Range> ranges;
  index.query_cap({7e6, 0.0, 0.0}, 0.3, ranges);
  EXPECT_TRUE(ranges.empty());
}

}  // namespace
}  // namespace mpleo::cov
