// Figure 4a: population-weighted coverage gain from adding one randomly
// sampled satellite to an existing constellation of 1, 100, or 500.
//
// Paper anchors: base of 1 -> average gain over 1 hour, maximum over 4
// hours; gains shrink as the base grows.
#include "bench_common.hpp"
#include "util/stats.hpp"

using namespace mpleo;

int main(int argc, char** argv) {
  const sim::Scenario scenario = bench::start(
      argc, argv, "Fig 4a: marginal coverage of one added satellite",
      "base 1 -> ~1h avg gain (max >4h); decreasing for bases 100 and 500");
  bench::Experiment exp(scenario);

  const std::vector<cov::GroundSite> sites =
      cov::sites_from_cities(cov::paper_cities());
  cov::VisibilityCache cache(exp.engine, exp.catalog, sites);
  cache.precompute_all(exp.context);
  util::Xoshiro256PlusPlus rng(scenario.seed);
  const double window = exp.engine.grid().duration_seconds();

  util::Table table({"base satellites", "gain avg", "gain sd", "gain max", "gain min"});

  for (const std::size_t base_size : {1UL, 100UL, 500UL}) {
    util::RunningStats gain;
    for (std::size_t run = 0; run < scenario.runs; ++run) {
      util::Xoshiro256PlusPlus run_rng = rng.split(base_size * 1000 + run);
      auto indices =
          constellation::sample_indices(exp.catalog.size(), base_size + 1, run_rng);
      const std::vector<std::size_t> base(indices.begin(), indices.end() - 1);
      const double before = cache.weighted_coverage_fraction(base);
      const double after = cache.weighted_coverage_fraction(indices);
      gain.add((after - before) * window);
    }
    table.add_row({std::to_string(base_size), bench::hours(gain.mean()),
                   bench::hours(gain.stddev()), bench::hours(gain.max()),
                   bench::hours(gain.min())});
  }
  std::fputs(table.to_string().c_str(), stdout);
  return 0;
}
