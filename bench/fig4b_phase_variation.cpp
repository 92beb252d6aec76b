// Figure 4b: impact of phase placement. Base: 12 satellites in one orbital
// plane (53 deg, 546 km) spaced 30 deg apart. A 13th satellite is added at
// phase offsets 1..29 deg from one of them.
//
// Paper anchor: the midpoint (15 deg — farthest from both neighbours) yields
// the maximum coverage improvement.
#include "bench_common.hpp"
#include "core/placement.hpp"

using namespace mpleo;

int main(int argc, char** argv) {
  const sim::Scenario scenario = bench::start(
      argc, argv, "Fig 4b: coverage gain vs in-plane phase offset",
      "gain peaks at the 15-deg midpoint between two existing satellites");
  const cov::CoverageEngine engine(scenario.grid(), scenario.elevation_mask_deg,
                                   scenario.propagator);

  const auto base =
      constellation::single_plane(546e3, 53.0, 0.0, 12, scenario.epoch);
  const std::vector<cov::GroundSite> sites =
      cov::sites_from_cities(cov::paper_cities());
  const core::PlacementOptimizer optimizer(engine, sites);

  std::vector<double> offsets;
  for (int deg = 1; deg <= 29; ++deg) offsets.push_back(static_cast<double>(deg));
  const auto candidates =
      constellation::phase_offset_candidates(base.front().elements, offsets);
  const auto evals = optimizer.evaluate(base, candidates, scenario.epoch);

  double best_gain = 0.0;
  int best_offset = 0;
  util::Table table({"phase offset (deg)", "coverage gain", "gain (min)"});
  for (std::size_t i = 0; i < evals.size(); ++i) {
    const double gain = evals[i].gained_weighted_seconds;
    table.add_row({std::to_string(static_cast<int>(offsets[i])), bench::hours(gain),
                   util::Table::num(gain / 60.0, 1)});
    if (gain > best_gain) {
      best_gain = gain;
      best_offset = static_cast<int>(offsets[i]);
    }
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::printf("\nbest offset: %d deg (paper: 15 deg midpoint)\n", best_offset);
  return 0;
}
