// Figure 5: coverage reduction when a random half of the constellation
// denies service, for constellations of 200, 500, 1000, 2000 satellites.
//
// Paper anchors: L=200 -> ~24% coverage drop (~1d16h of weighted coverage
// time); the loss shrinks to ~0.4% at L=2000.
#include "bench_common.hpp"
#include "core/robustness.hpp"
#include "util/stats.hpp"

using namespace mpleo;

int main(int argc, char** argv) {
  const sim::Scenario scenario = bench::start(
      argc, argv, "Fig 5: half the constellation withdraws",
      "L=200 -> ~24% drop (1d16h); L=2000 -> ~0.4% drop");
  bench::Experiment exp(scenario);

  const std::vector<cov::GroundSite> sites =
      cov::sites_from_cities(cov::paper_cities());
  cov::VisibilityCache cache(exp.engine, exp.catalog, sites);
  cache.precompute_all(exp.context);
  util::Xoshiro256PlusPlus rng(scenario.seed);
  const double window = exp.engine.grid().duration_seconds();

  util::Table table({"satellites (L)", "coverage before", "coverage after L/2 exit",
                     "lost time", "coverage drop %"});

  for (const std::size_t total : {200UL, 500UL, 1000UL, 2000UL}) {
    util::RunningStats before, after, drop_abs;
    for (std::size_t run = 0; run < scenario.runs; ++run) {
      util::Xoshiro256PlusPlus run_rng = rng.split(total * 7919 + run);
      const auto base =
          constellation::sample_indices(exp.catalog.size(), total, run_rng);
      // Withdraw a random half of the base.
      const auto pick = run_rng.sample_without_replacement(total, total / 2);
      std::vector<std::size_t> withdrawn;
      withdrawn.reserve(pick.size());
      for (std::size_t p : pick) withdrawn.push_back(base[p]);

      const core::WithdrawalImpact impact =
          core::withdrawal_impact(cache, base, withdrawn);
      before.add(impact.before_fraction);
      after.add(impact.after_fraction);
      // The paper's Fig-5 "% drop in coverage" is the absolute drop in the
      // weighted coverage fraction (24.17% at L=200, 0.37% at L=2000).
      drop_abs.add(impact.drop_fraction());
    }
    table.add_row({std::to_string(total), util::Table::pct(before.mean()),
                   util::Table::pct(after.mean()),
                   bench::hours((before.mean() - after.mean()) * window),
                   util::Table::pct(drop_abs.mean())});
  }
  std::fputs(table.to_string().c_str(), stdout);
  return 0;
}
