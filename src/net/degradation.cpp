#include "net/degradation.hpp"

#include <algorithm>
#include <cmath>

#include "net/scheduler.hpp"

namespace mpleo::net {

std::vector<core::ConfigIssue> DegradationPolicy::validate() const {
  std::vector<core::ConfigIssue> issues;
  const auto add = [&issues](const char* field, std::string message) {
    issues.push_back({"net.scheduler.degradation", field, std::move(message)});
  };
  for (const double threshold : shed_below) {
    if (!std::isfinite(threshold) || threshold < 0.0 || threshold > 1.0) {
      add("shed_below", "thresholds must be fractions in [0, 1]");
      break;
    }
  }
  for (std::size_t k = 1; k < shed_below.size(); ++k) {
    if (shed_below[k] < shed_below[k - 1]) {
      add("shed_below",
          "thresholds must be non-decreasing by tier (higher tier sheds first)");
      break;
    }
  }
  if (!std::isfinite(spare_hysteresis_margin) || spare_hysteresis_margin < 0.0) {
    add("spare_hysteresis_margin",
        "must be finite and >= 0, got " + std::to_string(spare_hysteresis_margin));
  }
  if (!(backoff_multiplier >= 1.0) || !std::isfinite(backoff_multiplier)) {
    add("backoff_multiplier",
        "must be finite and >= 1, got " + std::to_string(backoff_multiplier));
  }
  if (backoff_initial_steps > backoff_max_steps) {
    add("backoff_max_steps", "must be >= backoff_initial_steps");
  }
  return issues;
}

double DegradationPolicy::shed_threshold(std::uint32_t party) const noexcept {
  if (shed_below.empty()) return 0.0;
  const std::size_t tier = party < party_tier.size() ? party_tier[party] : 0;
  return shed_below[std::min(tier, shed_below.size() - 1)];
}

std::size_t ReacquisitionBackoff::on_failure() noexcept {
  clean_streak_ = 0;
  ++consecutive_;
  if (initial_ == 0) return 0;
  // initial * multiplier^(n-1), saturating at max_ without overflow.
  const auto cap = static_cast<double>(max_);
  double steps = static_cast<double>(initial_);
  for (std::size_t i = 1; i < consecutive_ && steps < cap; ++i) steps *= multiplier_;
  // Saturate before the cast: a product past the cap (up to inf) does not
  // fit in size_t. Below it, ceil(steps) <= max_ holds because converting
  // max_ rounds to the nearest double.
  if (!(steps < cap)) return max_;
  return std::min<std::size_t>(max_, static_cast<std::size_t>(std::ceil(steps)));
}

void ReacquisitionBackoff::on_clean_step() noexcept {
  if (consecutive_ == 0) return;
  ++clean_streak_;
  if (clean_streak_ >= horizon_) {
    consecutive_ = 0;
    clean_streak_ = 0;
  }
}

SloAccumulator::SloAccumulator(std::size_t party_count, std::size_t terminal_count,
                               std::size_t window_steps, double dt_step)
    : window_steps_(std::max<std::size_t>(1, window_steps)),
      dt_step_(dt_step),
      terminal_count_(terminal_count),
      served_seconds_by_party_(party_count, 0.0),
      unserved_seconds_by_party_(party_count, 0.0),
      shed_seconds_by_party_(party_count, 0.0),
      prev_satellite_(terminal_count, kNoSat),
      detach_step_(terminal_count, kNoDetach) {}

void SloAccumulator::on_failure_detach(std::size_t terminal, std::size_t step) {
  if (terminal >= detach_step_.size()) return;
  // A terminal already recovering keeps its first detach step — the recovery
  // clock measures the whole outage episode, not the latest aftershock.
  if (detach_step_[terminal] == kNoDetach) detach_step_[terminal] = step;
}

void SloAccumulator::on_shed(std::uint32_t party) {
  ++shed_terminal_steps_;
  if (party < shed_seconds_by_party_.size()) {
    shed_seconds_by_party_[party] += dt_step_;
  }
}

void SloAccumulator::record_step(const StepSchedule& schedule,
                                 std::span<const Terminal> terminals) {
  for (const LinkAssignment& link : schedule.links) {
    const std::size_t ti = link.terminal_index;
    const std::uint32_t party = terminals[ti].owner_party;
    if (party < served_seconds_by_party_.size()) {
      served_seconds_by_party_[party] += dt_step_;
    }
    const std::uint32_t sat = static_cast<std::uint32_t>(link.satellite_index);
    if (prev_satellite_[ti] != kNoSat && prev_satellite_[ti] != sat) ++grant_flaps_;
    if (detach_step_[ti] != kNoDetach) {
      recovery_seconds_.push_back(
          static_cast<double>(schedule.step - detach_step_[ti]) * dt_step_);
      detach_step_[ti] = kNoDetach;
    }
  }
  for (const std::size_t ti : schedule.unserved_terminals) {
    const std::uint32_t party = terminals[ti].owner_party;
    if (party < unserved_seconds_by_party_.size()) {
      unserved_seconds_by_party_[party] += dt_step_;
    }
  }
  // Serving-satellite memory for the flap count: a gap resets comparison.
  std::vector<std::uint32_t>& prev = prev_satellite_;
  for (const std::size_t ti : schedule.unserved_terminals) prev[ti] = kNoSat;
  for (const LinkAssignment& link : schedule.links) {
    prev[link.terminal_index] = static_cast<std::uint32_t>(link.satellite_index);
  }
  step_served_fraction_.push_back(
      terminal_count_ == 0 ? 1.0
                           : static_cast<double>(schedule.links.size()) /
                                 static_cast<double>(terminal_count_));
}

SloStats SloAccumulator::finish() const {
  SloStats stats;
  stats.window_steps = window_steps_;
  stats.shed_seconds_by_party = shed_seconds_by_party_;
  stats.shed_terminal_steps = shed_terminal_steps_;
  stats.grant_flaps = grant_flaps_;
  stats.recovery_seconds = recovery_seconds_;
  stats.availability_by_party.resize(served_seconds_by_party_.size(), 1.0);
  double served_total = 0.0;
  double unserved_total = 0.0;
  for (std::size_t p = 0; p < served_seconds_by_party_.size(); ++p) {
    const double demand = served_seconds_by_party_[p] + unserved_seconds_by_party_[p];
    stats.availability_by_party[p] =
        demand > 0.0 ? served_seconds_by_party_[p] / demand : 1.0;
    served_total += served_seconds_by_party_[p];
    unserved_total += unserved_seconds_by_party_[p];
  }
  const double demand_total = served_total + unserved_total;
  stats.availability = demand_total > 0.0 ? served_total / demand_total : 1.0;
  for (const std::size_t step : detach_step_) {
    if (step != kNoDetach) ++stats.unrecovered_terminals;
  }
  // Worst sliding window of the per-step served fraction, via prefix sums.
  const std::size_t steps = step_served_fraction_.size();
  if (steps > 0) {
    const std::size_t window = std::min(window_steps_, steps);
    std::vector<double> prefix(steps + 1, 0.0);
    for (std::size_t k = 0; k < steps; ++k) {
      prefix[k + 1] = prefix[k] + step_served_fraction_[k];
    }
    double worst = 1.0;
    for (std::size_t begin = 0; begin + window <= steps; ++begin) {
      worst = std::min(worst, (prefix[begin + window] - prefix[begin]) /
                                  static_cast<double>(window));
    }
    stats.worst_window_availability = worst;
  }
  return stats;
}

}  // namespace mpleo::net
