// Robustness analysis (§3.4): what happens to coverage when satellites or
// whole parties leave — permanently (withdrawal, Figures 5 and 6) or
// transiently (fault-injection resilience sweeps with recovery).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "coverage/engine.hpp"
#include "util/rng.hpp"

namespace mpleo::cov {
class VisibilityCache;
}
namespace mpleo::sim {
class RunContext;
}

namespace mpleo::core {

struct WithdrawalImpact {
  double before_fraction = 0.0;   // weighted coverage before withdrawal
  double after_fraction = 0.0;    // weighted coverage after withdrawal
  // Absolute drop in weighted coverage fraction, in [0, 1].
  [[nodiscard]] double drop_fraction() const noexcept {
    return before_fraction - after_fraction;
  }
  // Drop relative to the pre-withdrawal coverage (the paper's "% drop in
  // coverage" in Fig. 5), in [0, 1]; 0 when nothing was covered before.
  [[nodiscard]] double relative_drop() const noexcept {
    return before_fraction > 0.0 ? drop_fraction() / before_fraction : 0.0;
  }
};

// Coverage impact of removing `withdrawn` (indices into the cache's catalog)
// from `base` (ditto). `withdrawn` must be a subset of `base`. The fractions
// are bit-identical to cache.weighted_coverage_fraction of `base` and of the
// survivors: since base = survivors + withdrawn, the base union is the
// survivors' union OR the withdrawn satellites' union, so each site unions
// every base satellite once.
[[nodiscard]] WithdrawalImpact withdrawal_impact(cov::VisibilityCache& cache,
                                                 std::span<const std::size_t> base,
                                                 std::span<const std::size_t> withdrawn);

// Splits `total` satellites across 1 + others parties with the paper's Fig-6
// ratio scheme r:1:...:1 — the first (largest) party receives r shares, each
// of the `others` parties one share. Sizes sum exactly to `total` (remainder
// distributed to the largest party).
[[nodiscard]] std::vector<std::size_t> partition_by_ratio(std::size_t total, std::size_t ratio,
                                                          std::size_t others);

// Assigns `indices` (already sampled) to parties with the given sizes, in
// order; returns per-party index lists. sum(sizes) must equal indices.size().
[[nodiscard]] std::vector<std::vector<std::size_t>> assign_to_parties(
    std::span<const std::size_t> indices, std::span<const std::size_t> sizes);

// Transient-failure Monte-Carlo sweep: instead of withdrawing satellites
// forever, satellites fail at a Poisson rate and come back after an
// exponential repair time, turning Fig-5's two-point before/after analysis
// into MTBF/MTTR resilience curves.
struct ResilienceConfig {
  // Sweep axis: per-satellite failure initiations per day.
  std::vector<double> failure_rates_per_sat_day = {0.0, 0.25, 0.5, 1.0, 2.0, 4.0};
  double mttr_seconds = 6.0 * 3600.0;  // mean repair duration
  std::size_t runs = 10;
  std::uint64_t seed = 42;
};

struct ResiliencePoint {
  double failure_rate_per_sat_day = 0.0;
  double mttr_seconds = 0.0;
  // Weighted coverage fraction under faults, averaged over runs.
  double mean_coverage_fraction = 0.0;
  // Coverage retained relative to the fault-free baseline, in [0, 1].
  double mean_served_fraction = 0.0;
  // Mean over runs of the worst per-site continuous outage.
  double mean_worst_gap_seconds = 0.0;
};

// Sweeps coverage vs failure rate for the given satellite set (indices into
// the cache's catalog), pooled across Monte-Carlo runs on the context's pool
// (the cache is precomputed first; results are bit-identical for a given
// seed regardless of thread count). Failure candidates are drawn once per
// run at the envelope (maximum) rate and thinned per sweep point — common
// random numbers — so within every run the outage set grows with the rate
// and the served fraction is monotonically non-increasing by construction,
// not merely in expectation. Points come back in config order. Sweep time
// and point/run counts land in context.metrics() under "resilience.", the
// cache fill's under "cov.".
[[nodiscard]] std::vector<ResiliencePoint> resilience_sweep(
    cov::VisibilityCache& cache, std::span<const std::size_t> satellite_indices,
    const ResilienceConfig& config, sim::RunContext& context);

}  // namespace mpleo::core
