// Scenario -> concrete workload: the one place the scale presets turn into
// satellites, terminals, stations and a scheduler config. The mega-scale
// acceptance run, the CI smoke and mpleo-bench all build it from a Scenario
// (a ScalePreset applied with Scenario::apply_scale or --scale=), so the
// workload definition cannot drift between them.
#pragma once

#include <cstddef>
#include <vector>

#include "constellation/shell.hpp"
#include "net/ground_station.hpp"
#include "net/scheduler.hpp"
#include "net/terminal.hpp"
#include "sim/scenario.hpp"

namespace mpleo::sim {

// A fully-specified scheduler workload. `scheduler` carries the preset's
// streaming knobs (chunk size and candidate cap for the mega presets;
// defaults for reference scale) and the scenario's propagator backend.
struct Workload {
  std::vector<constellation::Satellite> satellites;
  std::vector<net::Terminal> terminals;
  std::vector<net::GroundStation> stations;
  std::size_t party_count = 4;
  net::SchedulerConfig scheduler;
};

// Builds the workload for scenario.scale:
//
//  * kMega / kMegaSmoke — the synthetic Gen2-scale Starlink catalog
//    (29,520 satellites; the smoke preset truncates to 3,000) serving
//    scenario.terminal_count population-gridded terminals and
//    scenario.station_count stations (constellation::PopulationSampler,
//    fixed seeds so every run sees the same sites), with the streaming
//    scheduler preset (2-step chunks and a top-4 candidate cap; the
//    scheduler keeps one chunk slot per producer, the pool lanes plus the
//    consuming thread, 2 to 4).
//  * kReference — the 500-satellite Walker shell x 200 grid-spread
//    terminals x 20 stations workload the scheduler-compare bench has
//    always used, with a default scheduler config.
//
// Satellite/terminal/station owners round-robin over party_count (4).
// Throws std::invalid_argument (unified ConfigIssue report) when the
// scenario is invalid.
[[nodiscard]] Workload build_workload(const Scenario& scenario);

}  // namespace mpleo::sim
