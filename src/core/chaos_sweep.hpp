// Chaos sweep: the decentralization claim under correlated failures (§2,
// §3.4). The same seeded fault::EventBook (common random numbers) is
// compiled against two topologies of EQUAL fleet size — a centralized
// single-party operator owning every satellite, terminal and station, and
// the decentralized multi-party consortium — and each cell replays the
// events through the degradation-policy scheduler, recording the SLO
// metrics (availability, worst-window availability, time-to-recover, grant
// flaps). A party-withdrawal shock is a total network loss for the
// centralized operator but a quarter-fleet loss for the consortium; the
// bench gates decentralized worst-window availability >= centralized on the
// withdrawal-bearing profiles, plus the empty-book identity flag (an empty
// book and a disabled policy must replay bit-identically to the plain
// fault-free run) and a hysteresis A/B flap count on the storm profile.
#pragma once

#include <cstdint>
#include <vector>

#include "core/validation.hpp"
#include "fault/event_book.hpp"
#include "net/degradation.hpp"

namespace mpleo::sim {
class RunContext;
}

namespace mpleo::core {

struct ChaosSweepConfig {
  // Replay window (the event presets scale to it) and scheduler grid.
  double duration_s = 6.0 * 3600.0;
  double step_s = 60.0;
  double elevation_mask_deg = 25.0;
  // Event book seeding: identical for every cell (CRN), so a profile's
  // draws are shared between the centralized and decentralized topologies.
  std::uint64_t event_seed = 2042;
  double event_intensity = 1.0;
  std::vector<fault::EventProfile> profiles = {
      fault::EventProfile::kStorm, fault::EventProfile::kBlackout,
      fault::EventProfile::kWithdrawal, fault::EventProfile::kMixed};
  // Degradation policy applied to every chaos cell (the identity pair always
  // runs with a disabled default policy instead). slo_window_steps is forced
  // over it so every cell reports SLO stats.
  net::DegradationPolicy policy;
  std::size_t slo_window_steps = 30;

  // Component "core.chaos_sweep".
  [[nodiscard]] std::vector<core::ConfigIssue> validate() const;
};

// One (event profile, topology) replay.
struct ChaosCell {
  fault::EventProfile profile = fault::EventProfile::kOff;
  bool decentralized = false;
  net::SloStats slo;
  std::size_t failure_forced_detaches = 0;
  double reacquisition_wait_seconds = 0.0;
  // Summary of slo.recovery_seconds (0 when no terminal ever detached).
  double mean_recovery_s = 0.0;
  double max_recovery_s = 0.0;
};

struct ChaosSweepResult {
  // Cells in config.profiles order, decentralized before centralized.
  std::vector<ChaosCell> cells;
  // Empty book + disabled policy replayed bit-identically (the whole
  // ScheduleResult, kept steps included) to the plain fault-free run.
  bool empty_book_identity = false;
  // Hysteresis A/B on the decentralized storm cell: grant flaps with the
  // sweep policy's spare margin vs the same policy with margin 0.
  std::uint64_t storm_flaps_hysteresis_on = 0;
  std::uint64_t storm_flaps_hysteresis_off = 0;
};

// Replays every profile against both topologies over the reference workload
// (sim::build_workload at reference scale: a 500-satellite Walker shell,
// 200 terminals, 20 stations, 4 parties; the centralized twin is the same
// fleet with every owner collapsed to party 0). The context supplies the
// phase-1 pool and metrics registry ("chaos_sweep." counters); results are
// bit-identical for any pool size. Throws std::invalid_argument (unified
// ConfigIssue report) on malformed config.
[[nodiscard]] ChaosSweepResult chaos_sweep(const ChaosSweepConfig& config,
                                           sim::RunContext& context);

}  // namespace mpleo::core
