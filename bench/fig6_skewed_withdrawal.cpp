// Figure 6: coverage reduction when the LARGEST party of an 11-party,
// 1000-satellite MP-LEO constellation denies service, as the contribution
// ratio is skewed from 1:1:...:1 to 10:1:...:1.
//
// Paper anchors: equal contributions (91 satellites each) minimize the loss;
// at 10:1 (500 + 10x50) the loss is ~5.5% of weighted coverage (~10 h/week),
// but the network remains serviceable.
#include "bench_common.hpp"
#include "core/robustness.hpp"
#include "util/stats.hpp"

using namespace mpleo;

int main(int argc, char** argv) {
  const sim::Scenario scenario = bench::start(
      argc, argv, "Fig 6: largest party of 11 withdraws (1000 sats)",
      "equal split -> minimal loss; 10:1 skew -> ~5.5% loss (~10h/week)");
  bench::Experiment exp(scenario);

  constexpr std::size_t kTotal = 1000;
  constexpr std::size_t kOtherParties = 10;

  const std::vector<cov::GroundSite> sites =
      cov::sites_from_cities(cov::paper_cities());
  cov::VisibilityCache cache(exp.engine, exp.catalog, sites);
  cache.precompute_all(exp.context);
  util::Xoshiro256PlusPlus rng(scenario.seed);
  const double window = exp.engine.grid().duration_seconds();

  util::Table table({"ratio", "largest party sats", "coverage drop %", "lost time",
                     "coverage after"});

  for (std::size_t ratio = 1; ratio <= 10; ++ratio) {
    const auto sizes = core::partition_by_ratio(kTotal, ratio, kOtherParties);
    util::RunningStats drop, after_stat;
    for (std::size_t run = 0; run < scenario.runs; ++run) {
      util::Xoshiro256PlusPlus run_rng = rng.split(ratio * 104729 + run);
      const auto base =
          constellation::sample_indices(exp.catalog.size(), kTotal, run_rng);
      const auto parties = core::assign_to_parties(base, sizes);

      const core::WithdrawalImpact impact =
          core::withdrawal_impact(cache, base, parties.front());
      drop.add(impact.drop_fraction());
      after_stat.add(impact.after_fraction);
    }
    table.add_row({std::to_string(ratio) + ":1", std::to_string(sizes.front()),
                   util::Table::pct(drop.mean()), bench::hours(drop.mean() * window),
                   util::Table::pct(after_stat.mean())});
  }
  std::fputs(table.to_string().c_str(), stdout);
  return 0;
}
