// Global coverage map and incentive field: renders an ASCII map of where a
// constellation provides service, finds the worst coverage holes, and shows
// the §3.2 hole-weighted reward multipliers that steer the next launches.
//
//   ./coverage_map [--days=1 --step=300]
#include <cstdio>

#include "core/mpleo.hpp"

using namespace mpleo;

int main(int argc, char** argv) {
  sim::Scenario scenario;
  try {
    scenario = sim::parse_scenario(argc, argv,
                                   sim::Scenario{.duration_s = 86400.0, .step_s = 300.0});
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  std::printf("scenario: %s\n\n", sim::describe(scenario).c_str());

  // A 200-satellite sample of the Starlink catalog (an early MP-LEO).
  const auto catalog = constellation::build_starlink_catalog(scenario.epoch);
  util::Xoshiro256PlusPlus rng(scenario.seed);
  const auto sats = constellation::sample_satellites(catalog, 200, rng);

  const cov::CoverageEngine engine(scenario.grid(), scenario.elevation_mask_deg);
  const cov::EarthGrid grid(6.0);
  std::printf("computing coverage of %zu satellites over %zu grid cells...\n\n",
              sats.size(), grid.size());
  const std::vector<double> fractions = cov::cell_coverage(engine, grid, sats);

  std::printf("time-averaged coverage map ('#'>=90%%, '+'>=60%%, '-'>=30%%, '.'>0):\n\n");
  std::fputs(cov::ascii_coverage_map(grid, fractions).c_str(), stdout);

  std::printf("\nglobal area-weighted coverage: %s\n",
              util::Table::pct(cov::global_coverage_fraction(grid, fractions)).c_str());

  std::printf("\nworst coverage holes:\n");
  for (std::size_t cell : cov::worst_cells(fractions, 5)) {
    const auto& center = grid.cells()[cell].center;
    std::printf("  lat %+6.1f lon %+7.1f : covered %s\n",
                util::rad_to_deg(center.latitude_rad),
                util::rad_to_deg(center.longitude_rad),
                util::Table::pct(fractions[cell]).c_str());
  }

  // The incentive field: what operating one more satellite earns, by orbit.
  const auto multipliers = core::reward_multipliers(fractions, core::IncentiveConfig{});
  std::printf("\nexpected reward rate (tokens/hour) of one added satellite:\n");
  for (const double incl : {0.0, 43.0, 53.0, 70.0, 97.6}) {
    constellation::Satellite probe;
    probe.elements = orbit::ClassicalElements::circular(550e3, incl, 30.0, 0.0);
    probe.epoch = scenario.epoch;
    const double rate = core::expected_reward_rate(engine, grid, multipliers, probe);
    std::printf("  inclination %5.1f deg : %.4f\n", incl, rate);
  }
  std::printf("\nthe best-paying inclination is the one whose ground track dwells\n"
              "in the under-covered bands of the map above (for this 53-degree-\n"
              "heavy sample, the equatorial gap) — rewards follow coverage holes,\n"
              "which is the paper's §3.2/§3.3 incentive alignment.\n");
  return 0;
}
