// Incremental deployment planner (§3.3): given today's constellation, where
// should the next k satellites go? Runs the greedy gap-filling optimizer and
// prints a launch plan with the marginal population-weighted coverage each
// slot buys — the quantity a revenue-seeking MP-LEO participant maximizes.
//
//   ./gap_filling_planner [--days=2 --step=120]
#include <cstdio>

#include "core/mpleo.hpp"

using namespace mpleo;

int main(int argc, char** argv) {
  sim::Scenario scenario;
  try {
    scenario = sim::parse_scenario(argc, argv,
                                   sim::Scenario{.duration_s = 2.0 * 86400.0, .step_s = 120.0});
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  std::printf("scenario: %s\n\n", sim::describe(scenario).c_str());

  // Today's constellation: two sparse planes (an early MP-LEO deployment).
  std::vector<constellation::Satellite> base =
      constellation::single_plane(550e3, 53.0, 0.0, 5, scenario.epoch);
  const auto second = constellation::single_plane(550e3, 53.0, 90.0, 3, scenario.epoch,
                                                  20.0, 100);
  base.insert(base.end(), second.begin(), second.end());

  const cov::CoverageEngine engine(scenario.grid(), scenario.elevation_mask_deg);
  const auto sites = cov::sites_from_cities(cov::paper_cities());
  const core::PlacementOptimizer optimizer(engine, sites);

  const double window = engine.grid().duration_seconds();
  const double before = engine.weighted_coverage_seconds(base, sites);
  std::printf("current constellation: %zu satellites, weighted coverage %s (%.1f%%)\n\n",
              base.size(), util::Table::duration(before).c_str(),
              100.0 * before / window);

  // Candidate slots: the coarse LEO grid (12 RAAN x 12 phase x 4 incl x 3 alt).
  const auto slots = constellation::enumerate_slots(constellation::SlotGrid::coarse_leo());
  std::printf("searching %zu candidate slots for the next 5 launches...\n\n",
              slots.size());

  const auto picks = optimizer.plan_incremental(base, slots, scenario.epoch, 5);

  util::Table plan({"launch #", "orbital slot", "marginal gain", "cumulative coverage"});
  double cumulative = before;
  int launch = 1;
  for (const auto& pick : picks) {
    cumulative += pick.gained_weighted_seconds;
    plan.add_row({std::to_string(launch++), pick.slot.label,
                  util::Table::duration(pick.gained_weighted_seconds),
                  util::Table::pct(cumulative / window)});
  }
  std::fputs(plan.to_string().c_str(), stdout);

  std::printf(
      "\nnote how the planner spreads slots across planes/inclinations instead\n"
      "of clustering near existing satellites — the incentive alignment the\n"
      "paper's §3.3 argues makes MP-LEO constellations naturally robust.\n");
  return 0;
}
