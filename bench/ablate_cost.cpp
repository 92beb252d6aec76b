// Ablation (§1-2 economics): cost per covered hour for sovereign
// constellations of increasing size vs contributing 50 satellites to a
// shared 1000-satellite MP-LEO. Coverage numbers are measured (Taipei
// receiver, sampled Starlink catalog); costs come from core::CostModel.
#include "bench_common.hpp"
#include "core/cost_model.hpp"
#include "util/stats.hpp"

using namespace mpleo;

namespace {

double mean_taipei_coverage(cov::VisibilityCache& cache, const bench::Experiment& exp,
                            std::size_t n, std::size_t runs,
                            util::Xoshiro256PlusPlus& rng) {
  util::RunningStats covered;
  for (std::size_t run = 0; run < runs; ++run) {
    util::Xoshiro256PlusPlus run_rng = rng.split(n * 53 + run);
    const auto indices =
        constellation::sample_indices(exp.catalog.size(), n, run_rng);
    covered.add(cache.union_mask(indices, 0).fraction());
  }
  return covered.mean();
}

}  // namespace

int main(int argc, char** argv) {
  sim::Scenario defaults;
  defaults.runs = 10;
  const sim::Scenario scenario = bench::start(
      argc, argv, "Ablation: economics of sovereign vs shared constellations",
      "mega-constellations cost $10-30B; 50 shared satellites buy ~1000-sat "
      "coverage at ~5% of the cost",
      defaults);
  bench::Experiment exp(scenario);

  const std::vector<cov::GroundSite> taipei{cov::GroundSite::from_city(cov::taipei())};
  cov::VisibilityCache cache(exp.engine, exp.catalog, taipei);
  cache.precompute_all(exp.context);
  util::Xoshiro256PlusPlus rng(scenario.seed);

  core::CostModel model;
  constexpr std::size_t kGroundStations = 2;

  util::Table table({"strategy", "sats funded", "Taipei coverage", "lifetime cost",
                     "cost per covered hour"});
  auto add_row = [&](const char* name, std::size_t funded, double coverage) {
    const double cost = model.lifetime_cost(funded, kGroundStations);
    table.add_row({name, std::to_string(funded), util::Table::pct(coverage),
                   "$" + util::Table::num(cost / 1e6, 0) + "M",
                   coverage > 0.0
                       ? "$" + util::Table::num(model.cost_per_covered_hour(
                                                    funded, kGroundStations, coverage),
                                                0)
                       : "n/a"});
  };

  for (const std::size_t n : {100UL, 500UL, 1000UL}) {
    const double coverage = mean_taipei_coverage(cache, exp, n, scenario.runs, rng);
    add_row("sovereign", n, coverage);
  }
  // MP-LEO: fund 50, ride the shared 1000.
  const double shared_cov = mean_taipei_coverage(cache, exp, 1000, scenario.runs, rng);
  add_row("MP-LEO (50 of shared 1000)", 50, shared_cov);
  std::fputs(table.to_string().c_str(), stdout);

  const core::SharingAdvantage advantage = core::sharing_advantage(model, 1000, 50, 2);
  std::printf("\nsame-coverage cost ratio sovereign/shared: %.1fx ($%.0fM vs $%.0fM)\n",
              advantage.cost_ratio, advantage.sovereign_lifetime_cost / 1e6,
              advantage.shared_lifetime_cost / 1e6);

  // The intro's headline number.
  core::CostModel mega;
  mega.satellite_unit_cost = 1.0e6;
  mega.launch_cost_per_satellite = 1.2e6;
  std::printf("mega-constellation CAPEX (12000 sats, 100 gateways): $%.1fB "
              "(paper quotes $10-30B)\n",
              mega.constellation_capex(12000, 100) / 1e9);
  return 0;
}
