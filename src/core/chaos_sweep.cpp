#include "core/chaos_sweep.hpp"

#include <cmath>
#include <utility>

#include "net/scheduler.hpp"
#include "obs/metrics.hpp"
#include "sim/run_context.hpp"
#include "sim/workload.hpp"

namespace mpleo::core {
namespace {

// The centralized twin: the identical fleet with every owner collapsed to
// party 0, so the only degree of freedom between the two topologies is who
// owns what — satellites, orbits, sites and radios are shared bit-for-bit
// (and so are the event book's draws, which key on asset indices).
sim::Workload centralize(sim::Workload workload) {
  for (constellation::Satellite& sat : workload.satellites) sat.owner_party = 0;
  for (net::Terminal& terminal : workload.terminals) terminal.owner_party = 0;
  for (net::GroundStation& station : workload.stations) station.owner_party = 0;
  workload.party_count = 1;
  return workload;
}

// One scheduler run of `workload` under `faults` on the sweep context's
// pool. The run gets its own context, so the caller's context keeps its
// fault timeline and its registry only the sweep's own counters.
net::ScheduleResult replay(const sim::Workload& workload,
                           const net::DegradationPolicy& policy,
                           const orbit::TimeGrid& grid,
                           const fault::FaultTimeline* faults, bool keep_steps,
                           const sim::RunContext& context) {
  net::SchedulerConfig config = workload.scheduler;
  config.degradation = policy;
  const net::BentPipeScheduler scheduler(config, workload.satellites,
                                         workload.terminals, workload.stations);
  sim::RunContext run_context;
  run_context.use_pool(context.pool()).use_faults(faults);
  return scheduler.run(grid, workload.party_count, run_context, keep_steps);
}

ChaosCell make_cell(fault::EventProfile profile, bool decentralized,
                    const net::ScheduleResult& result) {
  ChaosCell cell;
  cell.profile = profile;
  cell.decentralized = decentralized;
  if (result.slo.has_value()) cell.slo = *result.slo;
  cell.failure_forced_detaches = result.failure_forced_detaches;
  cell.reacquisition_wait_seconds = result.reacquisition_wait_seconds;
  double sum = 0.0;
  for (const double seconds : cell.slo.recovery_seconds) {
    sum += seconds;
    cell.max_recovery_s = std::max(cell.max_recovery_s, seconds);
  }
  if (!cell.slo.recovery_seconds.empty()) {
    cell.mean_recovery_s =
        sum / static_cast<double>(cell.slo.recovery_seconds.size());
  }
  return cell;
}

}  // namespace

std::vector<core::ConfigIssue> ChaosSweepConfig::validate() const {
  std::vector<core::ConfigIssue> issues;
  const auto add = [&issues](const char* field, std::string message) {
    issues.push_back({"core.chaos_sweep", field, std::move(message)});
  };
  if (!(duration_s > 0.0) || duration_s > 1e300) {
    add("duration_s", "must be finite and > 0");
  }
  if (!(step_s > 0.0) || step_s > 1e300) {
    add("step_s", "must be finite and > 0");
  } else if (duration_s > 0.0 && duration_s <= 1e300 &&
             !(duration_s / step_s < static_cast<double>(orbit::TimeGrid::kMaxSteps))) {
    // The bound TimeGrid::over_duration enforces, reported before any grid
    // is built.
    add("step_s", "duration_s / step_s exceeds the grid maximum of " +
                      std::to_string(orbit::TimeGrid::kMaxSteps) + " steps");
  }
  if (!(elevation_mask_deg >= 0.0) || !(elevation_mask_deg < 90.0)) {
    add("elevation_mask_deg", "must be in [0, 90)");
  }
  if (!(event_intensity >= 0.0) || event_intensity > 1e300) {
    add("event_intensity", "must be finite and >= 0");
  }
  if (profiles.empty()) add("profiles", "must name at least one event profile");
  for (const fault::EventProfile profile : profiles) {
    if (profile == fault::EventProfile::kOff) {
      add("profiles", "kOff is not a chaos cell (the identity pair covers it)");
      break;
    }
  }
  if (slo_window_steps == 0) add("slo_window_steps", "must be > 0");
  for (core::ConfigIssue& issue : policy.validate()) {
    issues.push_back(std::move(issue));
  }
  return issues;
}

ChaosSweepResult chaos_sweep(const ChaosSweepConfig& config,
                             sim::RunContext& context) {
  core::throw_if_invalid("core::chaos_sweep", config.validate());

  sim::Scenario scenario;
  scenario.duration_s = config.duration_s;
  scenario.step_s = config.step_s;
  scenario.elevation_mask_deg = config.elevation_mask_deg;
  const sim::Workload decentralized = sim::build_workload(scenario);
  const sim::Workload centralized = centralize(decentralized);
  const orbit::TimeGrid grid = scenario.grid();

  net::DegradationPolicy policy = config.policy;
  policy.slo_window_steps = config.slo_window_steps;

  obs::Counter cells_counter = context.metrics().counter("chaos_sweep.cells");
  obs::Counter events_counter = context.metrics().counter("chaos_sweep.events");

  ChaosSweepResult result;
  for (const fault::EventProfile profile : config.profiles) {
    const fault::EventBook book = fault::EventBook::preset(
        profile, grid.duration_seconds(), config.event_seed,
        config.event_intensity);
    events_counter.add(book.event_count());
    for (const bool dec : {true, false}) {
      const sim::Workload& workload = dec ? decentralized : centralized;
      const fault::FaultTimeline timeline =
          book.compile(grid, workload.satellites, workload.stations);
      const net::ScheduleResult run =
          replay(workload, policy, grid, &timeline, false, context);
      result.cells.push_back(make_cell(profile, dec, run));
      cells_counter.add(1);
    }
  }

  // Empty-book identity: an empty book compiled onto a fresh timeline plus a
  // disabled policy must replay bit-identically to the plain fault-free run.
  {
    const fault::EventBook empty_book(config.event_seed);
    const fault::FaultTimeline empty_timeline = empty_book.compile(
        grid, decentralized.satellites, decentralized.stations);
    const net::DegradationPolicy disabled;
    const net::ScheduleResult with_book =
        replay(decentralized, disabled, grid, &empty_timeline, true, context);
    const net::ScheduleResult baseline =
        replay(decentralized, disabled, grid, nullptr, true, context);
    result.empty_book_identity = with_book == baseline;
  }

  // Hysteresis A/B: the decentralized storm cell with the sweep policy's
  // spare margin vs the same policy with the margin zeroed. Flap counts come
  // from the SLO section, so both runs keep it engaged.
  {
    const fault::EventBook storm_book = fault::EventBook::preset(
        fault::EventProfile::kStorm, grid.duration_seconds(), config.event_seed,
        config.event_intensity);
    const fault::FaultTimeline storm_timeline = storm_book.compile(
        grid, decentralized.satellites, decentralized.stations);
    net::DegradationPolicy margin_off = policy;
    margin_off.spare_hysteresis_margin = 0.0;
    const net::ScheduleResult on =
        replay(decentralized, policy, grid, &storm_timeline, false, context);
    const net::ScheduleResult off =
        replay(decentralized, margin_off, grid, &storm_timeline, false, context);
    result.storm_flaps_hysteresis_on = on.slo.has_value() ? on.slo->grant_flaps : 0;
    result.storm_flaps_hysteresis_off =
        off.slo.has_value() ? off.slo->grant_flaps : 0;
  }

  return result;
}

}  // namespace mpleo::core
