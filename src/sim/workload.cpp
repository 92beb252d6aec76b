#include "sim/workload.hpp"

#include "constellation/population.hpp"
#include "constellation/starlink.hpp"
#include "core/validation.hpp"

namespace mpleo::sim {
namespace {

// Fixed site seeds: the mega workload is a *benchmark*, so every run (CI
// smoke, acceptance run, regression bisects) must schedule the same sites.
constexpr std::uint32_t kTerminalSeed = 0x6d656761u;  // "mega"
constexpr std::uint32_t kStationSeed = 0x67737173u;   // "gsqs"

Workload build_mega(const Scenario& scenario) {
  Workload w;
  w.satellites = constellation::build_starlink_gen2_catalog(scenario.epoch);
  if (scenario.scale == ScalePreset::kMegaSmoke && w.satellites.size() > 3000) {
    w.satellites.resize(3000);
  }
  for (std::size_t i = 0; i < w.satellites.size(); ++i) {
    w.satellites[i].owner_party = static_cast<std::uint32_t>(i % w.party_count);
  }

  // Terminals and stations follow the population grid (city-weighted with an
  // area-uniform floor), so candidate density concentrates where the paper's
  // demand does instead of spreading uniformly over the oceans.
  const constellation::PopulationSampler sampler;
  const std::vector<orbit::Geodetic> terminal_sites =
      sampler.sample(scenario.terminal_count, kTerminalSeed);
  const std::vector<orbit::Geodetic> station_sites =
      sampler.sample(scenario.station_count, kStationSeed);

  w.terminals.resize(scenario.terminal_count);
  for (std::uint32_t i = 0; i < scenario.terminal_count; ++i) {
    w.terminals[i].id = i;
    w.terminals[i].owner_party = i % static_cast<std::uint32_t>(w.party_count);
    w.terminals[i].location = terminal_sites[i];
    w.terminals[i].radio = net::default_user_terminal();
    w.terminals[i].demand_bps = 50e6;
  }
  w.stations.resize(scenario.station_count);
  for (std::uint32_t i = 0; i < scenario.station_count; ++i) {
    w.stations[i].id = i;
    w.stations[i].owner_party = i % static_cast<std::uint32_t>(w.party_count);
    w.stations[i].location = station_sites[i];
    w.stations[i].radio = net::default_ground_station();
  }

  // The mega streaming preset: 2-step chunks, so a slot's candidate output
  // stays small and a day's 721 chunks balance over every producer, and
  // top-4 candidates per terminal.
  w.scheduler.stream_chunk_steps = 2;
  w.scheduler.max_candidates_per_terminal = 4;
  return w;
}

Workload build_reference(const Scenario& scenario) {
  Workload w;
  constellation::WalkerShell shell;
  shell.plane_count = 25;
  shell.sats_per_plane = 20;
  w.satellites = shell.build(scenario.epoch);
  for (std::size_t i = 0; i < w.satellites.size(); ++i) {
    w.satellites[i].owner_party = static_cast<std::uint32_t>(i % w.party_count);
  }

  w.terminals.reserve(200);
  for (std::uint32_t i = 0; i < 200; ++i) {
    net::Terminal t;
    t.id = i;
    t.owner_party = i % static_cast<std::uint32_t>(w.party_count);
    t.location = orbit::Geodetic::from_degrees(
        -52.0 + 104.0 * static_cast<double>(i % 20) / 19.0,
        -180.0 + 360.0 * static_cast<double>(i / 20) / 10.0);
    t.radio = net::default_user_terminal();
    t.demand_bps = 50e6;
    w.terminals.push_back(t);
  }
  w.stations.reserve(20);
  for (std::uint32_t i = 0; i < 20; ++i) {
    net::GroundStation gs;
    gs.id = i;
    gs.owner_party = i % static_cast<std::uint32_t>(w.party_count);
    gs.location = orbit::Geodetic::from_degrees(
        -48.0 + 96.0 * static_cast<double>(i % 5) / 4.0,
        -170.0 + 360.0 * static_cast<double>(i / 5) / 4.0);
    gs.radio = net::default_ground_station();
    w.stations.push_back(gs);
  }
  return w;
}

}  // namespace

Workload build_workload(const Scenario& scenario) {
  core::throw_if_invalid("sim::build_workload", scenario.validate());
  Workload w;
  switch (scenario.scale) {
    case ScalePreset::kMega:
    case ScalePreset::kMegaSmoke:
      w = build_mega(scenario);
      break;
    case ScalePreset::kReference:
      w = build_reference(scenario);
      break;
  }
  w.scheduler.propagator_backend = scenario.propagator;
  return w;
}

}  // namespace mpleo::sim
