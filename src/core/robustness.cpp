#include "core/robustness.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fault/timeline.hpp"
#include "obs/metrics.hpp"
#include "sim/run_context.hpp"
#include "util/thread_pool.hpp"

namespace mpleo::core {
namespace {

double draw_exponential(util::Xoshiro256PlusPlus& rng, double mean_s) {
  return -mean_s * std::log1p(-rng.uniform());
}

}  // namespace

WithdrawalImpact withdrawal_impact(cov::VisibilityCache& cache,
                                   std::span<const std::size_t> base,
                                   std::span<const std::size_t> withdrawn) {
  std::vector<std::uint8_t> gone(cache.satellite_count(), 0);
  for (const std::size_t idx : withdrawn) {
    if (idx < gone.size()) gone[idx] = 1;
  }
  // Split base into survivors and the withdrawn satellites it holds.
  std::vector<std::size_t> survivors;
  std::vector<std::size_t> removed;
  survivors.reserve(base.size());
  removed.reserve(withdrawn.size());
  for (const std::size_t idx : base) {
    (idx < gone.size() && gone[idx] != 0 ? removed : survivors).push_back(idx);
  }
  if (removed.size() != withdrawn.size()) {
    throw std::invalid_argument("withdrawal_impact: withdrawn is not a subset of base");
  }

  // base = survivors + removed, so OR-ing the removed satellites' union into
  // the survivors' gives base's union bit for bit: each site unions every
  // base satellite once instead of the base and then the survivors again.
  const std::vector<cov::StepMask> after = cache.union_masks(survivors);
  std::vector<cov::StepMask> before = cache.union_masks(removed);
  for (std::size_t j = 0; j < before.size(); ++j) before[j] |= after[j];

  WithdrawalImpact impact;
  impact.before_fraction = cache.weighted_fraction(before);
  impact.after_fraction = cache.weighted_fraction(after);
  return impact;
}

std::vector<std::size_t> partition_by_ratio(std::size_t total, std::size_t ratio,
                                            std::size_t others) {
  if (ratio == 0) throw std::invalid_argument("partition_by_ratio: ratio must be >= 1");
  const std::size_t shares = ratio + others;
  if (shares == 0 || total == 0) {
    throw std::invalid_argument("partition_by_ratio: empty partition");
  }
  const std::size_t unit = total / shares;
  if (unit == 0) {
    throw std::invalid_argument("partition_by_ratio: total too small for ratio");
  }
  std::vector<std::size_t> sizes;
  sizes.reserve(1 + others);
  sizes.push_back(ratio * unit + (total - unit * shares));  // largest + remainder
  for (std::size_t i = 0; i < others; ++i) sizes.push_back(unit);
  return sizes;
}

std::vector<std::vector<std::size_t>> assign_to_parties(
    std::span<const std::size_t> indices, std::span<const std::size_t> sizes) {
  std::size_t total = 0;
  for (std::size_t s : sizes) total += s;
  if (total != indices.size()) {
    throw std::invalid_argument("assign_to_parties: sizes do not sum to index count");
  }
  std::vector<std::vector<std::size_t>> parties;
  parties.reserve(sizes.size());
  std::size_t cursor = 0;
  for (std::size_t s : sizes) {
    parties.emplace_back(indices.begin() + static_cast<std::ptrdiff_t>(cursor),
                         indices.begin() + static_cast<std::ptrdiff_t>(cursor + s));
    cursor += s;
  }
  return parties;
}

std::vector<ResiliencePoint> resilience_sweep(cov::VisibilityCache& cache,
                                              std::span<const std::size_t> satellite_indices,
                                              const ResilienceConfig& config,
                                              sim::RunContext& context) {
  obs::ScopedTimer timer(context.metrics().histogram("resilience.sweep_seconds"));
  const std::vector<double>& rates = config.failure_rates_per_sat_day;
  if (rates.empty()) {
    throw std::invalid_argument("resilience_sweep: no failure rates");
  }
  for (const double rate : rates) {
    if (!(rate >= 0.0)) {
      throw std::invalid_argument("resilience_sweep: failure rates must be >= 0");
    }
  }
  if (!(config.mttr_seconds > 0.0)) {
    throw std::invalid_argument("resilience_sweep: MTTR must be > 0");
  }
  if (config.runs == 0) throw std::invalid_argument("resilience_sweep: runs must be > 0");

  cache.precompute_all(context);  // after this, every query is pure mask reads

  const orbit::TimeGrid& grid = cache.engine().grid();
  const double window = grid.duration_seconds();
  const double baseline = cache.weighted_coverage_fraction(satellite_indices);
  const double rate_max = *std::max_element(rates.begin(), rates.end());
  const std::size_t n_rates = rates.size();

  std::vector<double> coverage(config.runs * n_rates, 0.0);
  std::vector<double> worst_gap(config.runs * n_rates, 0.0);
  const util::Xoshiro256PlusPlus base(config.seed);

  const auto run_one = [&](std::size_t run) {
    // Failure candidates at the envelope rate, shared by every sweep point
    // of this run: point at rate r keeps candidate i iff accept_i < r /
    // rate_max, so a lower rate's outages are a subset of a higher rate's
    // and coverage is monotone in the rate within the run.
    struct Candidate {
      std::size_t position;
      double start_s;
      double repair_s;
      double accept;
    };
    std::vector<Candidate> candidates;
    const util::Xoshiro256PlusPlus run_stream = base.split(run);
    if (rate_max > 0.0) {
      const double mean_gap_s = 86400.0 / rate_max;
      for (std::size_t p = 0; p < satellite_indices.size(); ++p) {
        util::Xoshiro256PlusPlus sat_stream = run_stream.split(p);
        double t = 0.0;
        while (true) {
          t += draw_exponential(sat_stream, mean_gap_s);
          if (t >= window) break;
          const double repair = draw_exponential(sat_stream, config.mttr_seconds);
          candidates.push_back({p, t, repair, sat_stream.uniform()});
        }
      }
    }

    for (std::size_t ri = 0; ri < n_rates; ++ri) {
      fault::FaultTimeline timeline(grid, cache.satellite_count(), 0);
      for (const Candidate& c : candidates) {
        if (c.accept * rate_max >= rates[ri]) continue;
        const double end = std::min(c.start_s + c.repair_s, window);
        if (end > c.start_s) {
          timeline.add_satellite_outage(satellite_indices[c.position], c.start_s, end);
        }
      }
      double covered = 0.0;
      double gap = 0.0;
      const std::vector<cov::StepMask> masks = cache.union_masks(satellite_indices, &timeline);
      for (std::size_t j = 0; j < masks.size(); ++j) {
        covered += cache.site_weight(j) * masks[j].fraction();
        gap = std::max(gap, static_cast<double>(masks[j].longest_zero_run()) *
                                grid.step_seconds);
      }
      coverage[run * n_rates + ri] = covered;
      worst_gap[run * n_rates + ri] = gap;
    }
  };

  if (util::ThreadPool* const pool = context.pool(); pool != nullptr) {
    pool->parallel_for(config.runs, run_one);
  } else {
    for (std::size_t run = 0; run < config.runs; ++run) run_one(run);
  }

  std::vector<ResiliencePoint> points(n_rates);
  for (std::size_t ri = 0; ri < n_rates; ++ri) {
    double cov_sum = 0.0;
    double gap_sum = 0.0;
    for (std::size_t run = 0; run < config.runs; ++run) {
      cov_sum += coverage[run * n_rates + ri];
      gap_sum += worst_gap[run * n_rates + ri];
    }
    ResiliencePoint& point = points[ri];
    point.failure_rate_per_sat_day = rates[ri];
    point.mttr_seconds = config.mttr_seconds;
    point.mean_coverage_fraction = cov_sum / static_cast<double>(config.runs);
    point.mean_served_fraction =
        baseline > 0.0 ? point.mean_coverage_fraction / baseline : 0.0;
    point.mean_worst_gap_seconds = gap_sum / static_cast<double>(config.runs);
  }
  context.metrics().counter("resilience.points").add(points.size());
  context.metrics().counter("resilience.runs").add(points.size() * config.runs);
  return points;
}

}  // namespace mpleo::core
