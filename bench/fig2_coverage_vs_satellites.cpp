// Figure 2: percentage of time without coverage vs number of satellites,
// for a receiver in Taipei, sampling satellites from the Starlink catalog.
//
// Paper anchors: 100 satellites -> >50% uncovered with gaps over an hour;
// >=1000 satellites -> >=99.5% coverage.
#include "bench_common.hpp"
#include "util/stats.hpp"

using namespace mpleo;

int main(int argc, char** argv) {
  const sim::Scenario scenario = bench::start(
      argc, argv, "Fig 2: coverage gap vs constellation size (Taipei)",
      "100 sats -> >50% uncovered (gaps >1h); 1000 sats -> >=99.5% covered");
  bench::Experiment exp(scenario);

  const std::vector<cov::GroundSite> taipei{cov::GroundSite::from_city(cov::taipei())};
  cov::VisibilityCache cache(exp.engine, exp.catalog, taipei);
  cache.precompute_all(exp.context);
  util::Xoshiro256PlusPlus rng(scenario.seed);

  util::Table table({"satellites", "uncovered % (mean±sd)", "max gap (mean)",
                     "max gap (worst run)", "covered %"});

  for (const std::size_t n : {10UL, 50UL, 100UL, 200UL, 500UL, 1000UL, 2000UL}) {
    util::RunningStats uncovered, max_gap;
    for (std::size_t run = 0; run < scenario.runs; ++run) {
      util::Xoshiro256PlusPlus run_rng = rng.split(run);
      const auto indices =
          constellation::sample_indices(exp.catalog.size(), n, run_rng);
      const cov::CoverageStats stats =
          exp.engine.stats(cache.union_mask(indices, 0));
      uncovered.add(1.0 - stats.covered_fraction);
      max_gap.add(stats.max_gap_seconds);
    }
    table.add_row({std::to_string(n),
                   util::Table::pct(uncovered.mean()) + " ± " +
                       util::Table::pct(uncovered.stddev()),
                   bench::hours(max_gap.mean()), bench::hours(max_gap.max()),
                   util::Table::pct(1.0 - uncovered.mean())});
  }
  std::fputs(table.to_string().c_str(), stdout);
  return 0;
}
