// Figure 4c: which orbital factor buys the most coverage? Base: 4 Starlink-
// like satellites (53 deg inclination, same plane, ~90 deg apart in phase).
// Candidates: (1) different inclination (43 deg), (2) same plane/phase but
// different altitude, (3) same plane, different phase.
//
// Paper anchors: the inclination change wins (~1h11m gain); the other two
// factors still contribute >30 minutes each.
#include "bench_common.hpp"
#include "core/placement.hpp"

using namespace mpleo;

int main(int argc, char** argv) {
  const sim::Scenario scenario = bench::start(
      argc, argv, "Fig 4c: inclination vs altitude vs phase",
      "different inclination best (~1h11m); altitude and phase each >30min");
  const cov::CoverageEngine engine(scenario.grid(), scenario.elevation_mask_deg,
                                   scenario.propagator);

  const auto base =
      constellation::single_plane(546e3, 53.0, 0.0, 4, scenario.epoch);
  const std::vector<cov::GroundSite> sites =
      cov::sites_from_cities(cov::paper_cities());
  const core::PlacementOptimizer optimizer(engine, sites);

  // Candidate categories mirror the paper: 43-deg inclination; +25 km
  // altitude at the same plane/phase; 45-deg phase shift (midpoint of the
  // 90-deg spacing).
  const auto candidates =
      constellation::factor_candidates(base.front().elements, 43.0, 25e3, 45.0);
  const auto evals = optimizer.evaluate(base, candidates, scenario.epoch);

  util::Table table({"candidate", "coverage gain", "gain (min)"});
  for (const auto& e : evals) {
    table.add_row({e.slot.label, bench::hours(e.gained_weighted_seconds),
                   util::Table::num(e.gained_weighted_seconds / 60.0, 1)});
  }
  std::fputs(table.to_string().c_str(), stdout);

  const auto best = std::max_element(
      evals.begin(), evals.end(), [](const auto& a, const auto& b) {
        return a.gained_weighted_seconds < b.gained_weighted_seconds;
      });
  std::printf("\nbest factor: %s (paper: inclination change)\n", best->slot.label.c_str());
  return 0;
}
