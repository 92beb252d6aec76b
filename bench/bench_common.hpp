// Shared plumbing for the figure-reproduction benches: scenario parsing,
// catalog/engine construction, and the paper-expectation banner.
#pragma once

#include <cstdio>
#include <string>

#if defined(__GLIBC__)
#include <climits>
#include <malloc.h>
#endif

#include "core/mpleo.hpp"

namespace mpleo::bench {

// Keeps glibc from handing freed arena pages back to the OS. The benches
// allocate and free large mask/table working sets between repetitions;
// with the default trim threshold every repetition re-faults every page and
// the measurement mostly times the kernel's page-fault path (~3x slower).
// No-op on non-glibc platforms.
inline void disable_malloc_trim() {
#if defined(__GLIBC__)
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
#endif
}

struct Experiment {
  sim::Scenario scenario;
  cov::CoverageEngine engine;
  std::vector<constellation::Satellite> catalog;
  // Shared run context (pool sized by scenario.threads, metrics, trace);
  // non-copyable, so Experiment is constructed in place and stays put.
  sim::RunContext context;

  explicit Experiment(const sim::Scenario& sc)
      : scenario(sc),
        engine(sc.grid(), sc.elevation_mask_deg, sc.propagator),
        catalog(constellation::build_starlink_catalog(
            sc.epoch, {.include_gen2 = sc.include_gen2_catalog})),
        context(sc) {}
};

// Parses flags and prints the standard banner. Exits the process with a
// usage message on bad flags.
inline sim::Scenario start(int argc, char** argv, const char* title,
                           const char* paper_claim, sim::Scenario defaults = {}) {
  disable_malloc_trim();
  sim::Scenario scenario;
  try {
    scenario = sim::parse_scenario(argc, argv, defaults);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
  std::printf("=== %s ===\n", title);
  std::printf("paper: %s\n", paper_claim);
  std::printf("setup: %s\n\n", sim::describe(scenario).c_str());
  return scenario;
}

inline std::string hours(double seconds) { return util::Table::duration(seconds); }

}  // namespace mpleo::bench
