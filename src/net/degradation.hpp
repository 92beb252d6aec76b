// Graceful-degradation policy for the bent-pipe scheduler (§3.4).
//
// Under correlated shocks (fault::EventBook) the raw scheduler fails
// abruptly: every terminal contends for the surviving beams, spare grants
// flap as storm-degraded capacity oscillates across beam boundaries, and a
// mass outage triggers a thundering herd of simultaneous re-acquisitions.
// DegradationPolicy adds three mitigations, each OFF by default so a
// default-constructed policy is bit-identical to the pre-policy scheduler:
//
//  * Priority-tiered load shedding: when the fleet's healthy-beam fraction
//    collapses below a tier's threshold, terminals of parties mapped to that
//    tier are shed (deliberately unserved) so higher tiers keep service.
//  * Sticky spare grants (hysteresis): a terminal re-uses last step's spare
//    satellite unless a competitor beats it by a capacity margin, so grants
//    do not flap during storm edges.
//  * Bounded exponential re-acquisition backoff: consecutive failure-forced
//    detaches back off initial * multiplier^(n-1) steps, capped, resetting
//    after a clean horizon — spreading the re-acquisition herd after mass
//    outages. With initial == max every failure holds the same `initial`
//    steps: a constant re-pointing delay. It is the only re-acquisition
//    hold; with the backoff off, re-acquisition is instant.
//
// SLO observation (SloStats) is orthogonal: slo_window_steps > 0 makes runs
// carry per-party availability, worst-window availability, time-to-recover
// samples, shed counters and grant-flap counts — it never changes links.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/validation.hpp"
#include "net/terminal.hpp"

namespace mpleo::net {

struct StepSchedule;

struct DegradationPolicy {
  // Master switch for the behavioral knobs (shedding, hysteresis,
  // exponential backoff). false = bit-identical to the pre-policy scheduler
  // regardless of the other fields.
  bool enabled = false;

  // party_tier[p] is party p's shedding tier (0 = most important, shed
  // last); parties beyond the vector are tier 0. shed_below[k] is the
  // healthy-beam fraction below which tier-k terminals are shed; tiers
  // beyond the vector use the last entry, an empty vector never sheds.
  // Healthy-beam fraction = sum over satellites of degraded_beam_count /
  // (satellite_count * beams_per_satellite), 1.0 on the no-fault path.
  std::vector<std::uint32_t> party_tier;
  std::vector<double> shed_below;

  // Sticky spare grants: keep last step's spare satellite unless an
  // alternative offers more than (1 + margin) x its capacity. <= 0 disables
  // (every spare grant re-resolved from scratch, the historical behavior).
  double spare_hysteresis_margin = 0.0;

  // Bounded exponential re-acquisition backoff; 0 initial steps = instant
  // re-acquisition, backoff_initial_steps == backoff_max_steps = a constant
  // hold of that many steps per failure.
  std::size_t backoff_initial_steps = 0;
  double backoff_multiplier = 2.0;
  std::size_t backoff_max_steps = 64;
  // Steps without a failure-forced detach after which the consecutive-
  // failure count resets to zero.
  std::size_t backoff_clean_horizon_steps = 16;

  // SLO observation window (steps) for worst-window availability; > 0
  // engages ScheduleResult::slo. Purely observational: never changes links,
  // and works with enabled == false.
  std::size_t slo_window_steps = 0;

  // Component "net.scheduler.degradation".
  [[nodiscard]] std::vector<core::ConfigIssue> validate() const;

  // The shedding threshold for a party under this policy (0 = never shed).
  [[nodiscard]] double shed_threshold(std::uint32_t party) const noexcept;
};

// Per-terminal bounded exponential backoff state machine, extracted so the
// property tests can drive it directly: on_failure() returns the hold for
// the n-th consecutive failure — monotone non-decreasing in n and capped at
// max_steps — and a clean_horizon of failure-free steps resets n.
class ReacquisitionBackoff {
 public:
  ReacquisitionBackoff() = default;
  ReacquisitionBackoff(std::size_t initial_steps, double multiplier,
                       std::size_t max_steps, std::size_t clean_horizon_steps) noexcept
      : initial_(initial_steps),
        multiplier_(multiplier),
        max_(max_steps),
        horizon_(clean_horizon_steps) {}

  // Registers a failure-forced detach; returns the backoff hold in steps.
  std::size_t on_failure() noexcept;
  // Registers one step without a failure for this terminal.
  void on_clean_step() noexcept;

  [[nodiscard]] std::size_t consecutive_failures() const noexcept {
    return consecutive_;
  }

 private:
  std::size_t initial_ = 0;
  double multiplier_ = 2.0;
  std::size_t max_ = 64;
  std::size_t horizon_ = 16;
  std::size_t consecutive_ = 0;
  std::size_t clean_streak_ = 0;
};

// SLO aggregates of one scheduler run, engaged by slo_window_steps > 0.
struct SloStats {
  std::size_t window_steps = 0;
  // served / (served + unserved) terminal-seconds; parties without
  // terminals report 1.0 (no demand, nothing missed).
  std::vector<double> availability_by_party;
  std::vector<double> shed_seconds_by_party;
  double availability = 0.0;
  // Minimum over every `window_steps`-wide sliding window of the mean
  // per-step served-terminal fraction.
  double worst_window_availability = 1.0;
  // Grant transitions: links whose terminal was served by a different
  // satellite the previous step (service gaps reset the comparison).
  std::uint64_t grant_flaps = 0;
  std::uint64_t shed_terminal_steps = 0;
  // Completed failure-detach -> next-served durations, in seconds, in
  // detach order; terminals still unrecovered at the end are counted apart.
  std::vector<double> recovery_seconds;
  std::size_t unrecovered_terminals = 0;

  friend bool operator==(const SloStats&, const SloStats&) = default;
};

// Streaming accumulator behind SloStats, stepped identically by run() and
// run_reference() so the SLO section obeys the same bit-identity contract
// as the links themselves.
class SloAccumulator {
 public:
  SloAccumulator() = default;  // disengaged
  SloAccumulator(std::size_t party_count, std::size_t terminal_count,
                 std::size_t window_steps, double dt_step);

  [[nodiscard]] bool engaged() const noexcept { return window_steps_ > 0; }

  void on_failure_detach(std::size_t terminal, std::size_t step);
  void on_shed(std::uint32_t party);
  void record_step(const StepSchedule& schedule, std::span<const Terminal> terminals);

  [[nodiscard]] SloStats finish() const;

 private:
  static constexpr std::size_t kNoDetach = static_cast<std::size_t>(-1);
  static constexpr std::uint32_t kNoSat = 0xFFFFFFFFu;

  std::size_t window_steps_ = 0;
  double dt_step_ = 0.0;
  std::size_t terminal_count_ = 0;
  std::vector<double> served_seconds_by_party_;
  std::vector<double> unserved_seconds_by_party_;
  std::vector<double> shed_seconds_by_party_;
  std::uint64_t shed_terminal_steps_ = 0;
  std::uint64_t grant_flaps_ = 0;
  std::vector<std::uint32_t> prev_satellite_;
  std::vector<std::size_t> detach_step_;
  std::vector<double> recovery_seconds_;
  std::vector<double> step_served_fraction_;
};

}  // namespace mpleo::net
