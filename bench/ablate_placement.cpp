// Ablation: incremental deployment strategies (§3.3). Starting from a small
// base, add 6 satellites using three policies and compare the resulting
// population-weighted coverage:
//   clustered — all additions in the base's plane, adjacent phases
//               (what a naive regional operator might do);
//   random    — uniformly random slots;
//   greedy    — the paper's incentive-aligned gap filling (maximize marginal
//               population-weighted coverage).
#include "bench_common.hpp"
#include "core/placement.hpp"
#include "util/stats.hpp"

using namespace mpleo;

namespace {

double coverage_of(const cov::CoverageEngine& engine,
                   const std::vector<cov::GroundSite>& sites,
                   const std::vector<constellation::Satellite>& sats) {
  return engine.weighted_coverage_seconds(sats, sites);
}

constellation::Satellite place(const orbit::ClassicalElements& coe,
                               orbit::TimePoint epoch) {
  constellation::Satellite sat;
  sat.elements = coe;
  sat.epoch = epoch;
  return sat;
}

}  // namespace

int main(int argc, char** argv) {
  sim::Scenario defaults;
  defaults.duration_s = 2.0 * 86400.0;  // greedy search is the expensive part
  defaults.step_s = 120.0;
  const sim::Scenario scenario = bench::start(
      argc, argv, "Ablation: placement strategy for 6 added satellites",
      "greedy gap-filling > random > same-plane clustering", defaults);

  const cov::CoverageEngine engine(scenario.grid(), scenario.elevation_mask_deg,
                                   scenario.propagator);
  const std::vector<cov::GroundSite> sites =
      cov::sites_from_cities(cov::paper_cities());
  const auto base = constellation::single_plane(550e3, 53.0, 0.0, 6, scenario.epoch);
  const double window = engine.grid().duration_seconds();
  const double base_cov = coverage_of(engine, sites, base);

  constexpr int kAdditions = 6;

  // Strategy 1: clustered in the same plane right next to satellite 0.
  std::vector<constellation::Satellite> clustered = base;
  for (int i = 0; i < kAdditions; ++i) {
    auto coe = base.front().elements;
    coe.mean_anomaly_rad += util::deg_to_rad(4.0 * (i + 1));
    clustered.push_back(place(coe, scenario.epoch));
  }

  // Strategy 2: random slots (averaged over seeds).
  util::Xoshiro256PlusPlus rng(scenario.seed);
  util::RunningStats random_cov;
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<constellation::Satellite> randomly = base;
    util::Xoshiro256PlusPlus trial_rng = rng.split(static_cast<std::uint64_t>(trial));
    for (int i = 0; i < kAdditions; ++i) {
      randomly.push_back(place(orbit::ClassicalElements::circular(
                                   trial_rng.uniform(525e3, 575e3),
                                   trial_rng.uniform() < 0.75 ? 53.0 : 97.6,
                                   trial_rng.uniform(0.0, 360.0),
                                   trial_rng.uniform(0.0, 360.0)),
                               scenario.epoch));
    }
    random_cov.add(coverage_of(engine, sites, randomly));
  }

  // Strategy 3: greedy gap-filling over a coarse slot grid.
  const core::PlacementOptimizer optimizer(engine, sites);
  constellation::SlotGrid grid;
  for (double raan = 0.0; raan < 360.0; raan += 45.0) grid.raan_values_deg.push_back(raan);
  for (double ph = 0.0; ph < 360.0; ph += 45.0) grid.phase_values_deg.push_back(ph);
  grid.inclination_values_deg = {43.0, 53.0, 70.0, 97.6};
  grid.altitude_values_m = {550e3};
  const auto slots = constellation::enumerate_slots(grid);
  const auto picks = optimizer.plan_incremental(base, slots, scenario.epoch, kAdditions);
  std::vector<constellation::Satellite> greedy = base;
  for (const auto& pick : picks) greedy.push_back(place(pick.slot.elements, scenario.epoch));

  util::Table table({"strategy", "weighted coverage", "% of window", "gain over base"});
  auto add_row = [&](const char* name, double cov) {
    table.add_row({name, bench::hours(cov), util::Table::pct(cov / window),
                   bench::hours(cov - base_cov)});
  };
  add_row("base (6 sats)", base_cov);
  add_row("clustered +6", coverage_of(engine, sites, clustered));
  add_row("random +6 (mean of 5)", random_cov.mean());
  add_row("greedy gap-fill +6", coverage_of(engine, sites, greedy));
  std::fputs(table.to_string().c_str(), stdout);

  std::printf("\ngreedy picks:\n");
  for (const auto& pick : picks) {
    std::printf("  %-28s +%s\n", pick.slot.label.c_str(),
                bench::hours(pick.gained_weighted_seconds).c_str());
  }
  return 0;
}
