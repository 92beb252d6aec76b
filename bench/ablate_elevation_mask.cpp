// Ablation: sensitivity of the Fig-2 curve to the terminal elevation mask.
// The paper's conclusions rest on footprint geometry; this quantifies how
// the uncovered-time curve shifts with the mask (15/25/35 deg).
#include "bench_common.hpp"
#include "util/stats.hpp"

using namespace mpleo;

int main(int argc, char** argv) {
  sim::Scenario defaults;
  defaults.runs = 10;
  const sim::Scenario scenario = bench::start(
      argc, argv, "Ablation: elevation mask vs coverage gap (Taipei)",
      "lower masks enlarge footprints and shift the Fig-2 curve left",
      defaults);

  util::Table table({"mask (deg)", "N=100 uncovered %", "N=500 uncovered %",
                     "N=1000 uncovered %", "footprint % of Earth"});

  for (const double mask : {15.0, 25.0, 35.0}) {
    sim::Scenario variant = scenario;
    variant.elevation_mask_deg = mask;
    bench::Experiment exp(variant);
    const std::vector<cov::GroundSite> taipei{cov::GroundSite::from_city(cov::taipei())};
    cov::VisibilityCache cache(exp.engine, exp.catalog, taipei);
    cache.precompute_all(exp.context);
    util::Xoshiro256PlusPlus rng(scenario.seed);

    std::vector<std::string> row{util::Table::num(mask, 0)};
    for (const std::size_t n : {100UL, 500UL, 1000UL}) {
      util::RunningStats uncovered;
      for (std::size_t run = 0; run < scenario.runs; ++run) {
        util::Xoshiro256PlusPlus run_rng = rng.split(n * 31 + run);
        const auto indices =
            constellation::sample_indices(exp.catalog.size(), n, run_rng);
        uncovered.add(1.0 - cache.union_mask(indices, 0).fraction());
      }
      row.push_back(util::Table::pct(uncovered.mean()));
    }
    row.push_back(util::Table::pct(cov::footprint_area_fraction(550e3, mask), 3));
    table.add_row(std::move(row));
  }
  std::fputs(table.to_string().c_str(), stdout);
  return 0;
}
