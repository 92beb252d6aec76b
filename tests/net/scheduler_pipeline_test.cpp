// Equivalence tests for the two-phase pipelined scheduler: on randomized
// fleets — mixed ownership (including unowned satellites), degraded beams,
// re-acquisition backoff, spare-priority weights, parties with no ground
// stations, and fleets with no terminals or no stations at all — run() must
// reproduce run_reference() bit for bit, down to link ordering, faulted and
// unfaulted, for every thread-pool size.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "constellation/shell.hpp"
#include "coverage/engine.hpp"
#include "fault/timeline.hpp"
#include "net/scheduler.hpp"
#include "orbit/ephemeris.hpp"
#include "orbit/geodesy.hpp"
#include "sim/run_context.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace mpleo::net {
namespace {

using constellation::Satellite;

const orbit::TimePoint kEpoch = orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z");

struct RandomFleet {
  SchedulerConfig config;
  std::vector<Satellite> satellites;
  std::vector<Terminal> terminals;
  std::vector<GroundStation> stations;
  std::size_t party_count = 0;
};

RandomFleet make_fleet(std::uint64_t seed) {
  util::Xoshiro256PlusPlus rng(seed);
  RandomFleet f;
  f.party_count = 2 + rng.uniform_index(3);
  f.config.beams_per_satellite = 1 + static_cast<int>(rng.uniform_index(3));
  // A constant re-acquisition hold of 0-3 steps: the policy's backoff with
  // initial == max.
  const std::size_t hold = rng.uniform_index(4);
  f.config.degradation.enabled = true;
  f.config.degradation.backoff_initial_steps = hold;
  f.config.degradation.backoff_max_steps = hold;
  if (rng.uniform() < 0.5) {
    for (std::size_t p = 0; p < f.party_count; ++p) {
      f.config.spare_priority_by_party.push_back(rng.uniform(0.0, 5.0));
    }
  }

  const std::size_t n_sats = 3 + rng.uniform_index(6);
  for (std::size_t i = 0; i < n_sats; ++i) {
    Satellite sat;
    sat.id = static_cast<constellation::SatelliteId>(i);
    sat.owner_party = rng.uniform() < 0.15
                          ? Satellite::kUnowned
                          : static_cast<std::uint32_t>(rng.uniform_index(f.party_count));
    sat.elements = orbit::ClassicalElements::circular(
        rng.uniform(500e3, 700e3), rng.uniform(40.0, 70.0), rng.uniform(0.0, 360.0),
        rng.uniform(0.0, 360.0));
    sat.epoch = kEpoch;
    f.satellites.push_back(sat);
  }

  const std::size_t n_terms = 2 + rng.uniform_index(6);
  for (std::size_t i = 0; i < n_terms; ++i) {
    Terminal t;
    t.id = static_cast<TerminalId>(i);
    t.owner_party = static_cast<std::uint32_t>(rng.uniform_index(f.party_count));
    t.location = orbit::Geodetic::from_degrees(rng.uniform(-35.0, 35.0),
                                               rng.uniform(0.0, 60.0));
    t.radio = default_user_terminal();
    t.demand_bps = rng.uniform(10e6, 200e6);
    f.terminals.push_back(t);
  }

  // Stations never belong to the last party, so at least one party always
  // contends with an empty ground segment (its terminals must ride spare
  // capacity through other parties' stations — i.e. not at all, under the
  // same-party-station rule — and stay unserved).
  const std::size_t n_stations = 1 + rng.uniform_index(4);
  for (std::size_t i = 0; i < n_stations; ++i) {
    GroundStation gs;
    gs.id = static_cast<GroundStationId>(i);
    gs.owner_party = static_cast<std::uint32_t>(rng.uniform_index(f.party_count - 1));
    gs.location = orbit::Geodetic::from_degrees(rng.uniform(-35.0, 35.0),
                                                rng.uniform(0.0, 60.0));
    gs.radio = default_ground_station();
    f.stations.push_back(gs);
  }
  return f;
}

fault::FaultTimeline make_faults(const orbit::TimeGrid& grid, const RandomFleet& fleet,
                                 std::uint64_t seed) {
  util::Xoshiro256PlusPlus rng(seed ^ 0x9e3779b97f4a7c15ULL);
  fault::FaultTimeline faults(grid, fleet.satellites.size(), fleet.stations.size());
  const double span = grid.duration_seconds();
  for (std::size_t si = 0; si < fleet.satellites.size(); ++si) {
    if (rng.uniform() < 0.4) {
      const double start = rng.uniform(0.0, 0.7 * span);
      faults.add_satellite_outage(si, start, start + rng.uniform(0.05, 0.3) * span);
    }
    if (rng.uniform() < 0.4) {
      const double start = rng.uniform(0.0, 0.7 * span);
      faults.add_transponder_degradation(si, start,
                                         start + rng.uniform(0.05, 0.3) * span,
                                         rng.uniform(0.2, 0.9));
    }
  }
  for (std::size_t gi = 0; gi < fleet.stations.size(); ++gi) {
    if (rng.uniform() < 0.4) {
      const double start = rng.uniform(0.0, 0.7 * span);
      faults.add_station_outage(gi, start, start + rng.uniform(0.05, 0.3) * span);
    }
  }
  return faults;
}

orbit::TimeGrid test_grid() {
  // 90 minutes at 60 s: one orbit's worth of rises and sets, and enough
  // steps (90) to cross a StepMask word boundary inside the pipeline.
  return orbit::TimeGrid::over_duration(kEpoch, 5400.0, 60.0);
}

// One run() with kept steps through a fresh context: serial unless `pool`
// is given, healthy unless `faults` is.
ScheduleResult run_steps(const BentPipeScheduler& scheduler, const orbit::TimeGrid& grid,
                         std::size_t party_count, const fault::FaultTimeline* faults = nullptr,
                         util::ThreadPool* pool = nullptr) {
  sim::RunContext context;
  context.use_pool(pool).use_faults(faults);
  return scheduler.run(grid, party_count, context, /*keep_steps=*/true);
}

// One fleet of the identity suite: make_fleet(seed), optionally with a whole
// side of the ground segment removed — no terminals (an empty spatial index)
// or no stations (no downlink leg, so nothing is ever servable).
struct FleetCase {
  std::uint64_t seed = 0;
  bool drop_terminals = false;
  bool drop_stations = false;
};

// Full fleets print as the bare seed, which names their test cases.
std::ostream& operator<<(std::ostream& os, const FleetCase& c) {
  os << c.seed;
  if (c.drop_terminals) os << "_no_terminals";
  if (c.drop_stations) os << "_no_stations";
  return os;
}

RandomFleet make_case_fleet(const FleetCase& c) {
  RandomFleet f = make_fleet(c.seed);
  if (c.drop_terminals) f.terminals.clear();
  if (c.drop_stations) f.stations.clear();
  return f;
}

std::vector<FleetCase> fleet_cases() {
  std::vector<FleetCase> cases;
  for (std::uint64_t seed = 0; seed < 12; ++seed) cases.push_back({seed});
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    cases.push_back({seed, /*drop_terminals=*/true, false});
    cases.push_back({seed, false, /*drop_stations=*/true});
  }
  return cases;
}

class SchedulerPipeline : public ::testing::TestWithParam<FleetCase> {};

TEST_P(SchedulerPipeline, MatchesReferenceBitForBit) {
  const RandomFleet f = make_case_fleet(GetParam());
  const BentPipeScheduler scheduler(f.config, f.satellites, f.terminals, f.stations);
  const orbit::TimeGrid grid = test_grid();

  const ScheduleResult reference =
      scheduler.run_reference(grid, f.party_count, nullptr, /*keep_steps=*/true);
  const ScheduleResult pipelined = run_steps(scheduler, grid, f.party_count);
  EXPECT_TRUE(pipelined == reference);
}

TEST_P(SchedulerPipeline, FaultedMatchesReferenceBitForBit) {
  const RandomFleet f = make_case_fleet(GetParam());
  const BentPipeScheduler scheduler(f.config, f.satellites, f.terminals, f.stations);
  const orbit::TimeGrid grid = test_grid();
  const fault::FaultTimeline faults = make_faults(grid, f, GetParam().seed);

  const ScheduleResult reference =
      scheduler.run_reference(grid, f.party_count, &faults, /*keep_steps=*/true);
  const ScheduleResult pipelined = run_steps(scheduler, grid, f.party_count, &faults);
  EXPECT_TRUE(pipelined == reference);
}

TEST_P(SchedulerPipeline, PoolSizeNeverChangesResult) {
  const RandomFleet f = make_case_fleet(GetParam());
  const BentPipeScheduler scheduler(f.config, f.satellites, f.terminals, f.stations);
  const orbit::TimeGrid grid = test_grid();
  const fault::FaultTimeline faults = make_faults(grid, f, GetParam().seed);

  const ScheduleResult serial = run_steps(scheduler, grid, f.party_count);
  const ScheduleResult serial_faulted = run_steps(scheduler, grid, f.party_count, &faults);
  for (const std::size_t threads : {1u, 2u, 3u}) {
    util::ThreadPool pool(threads);
    const ScheduleResult pooled = run_steps(scheduler, grid, f.party_count, nullptr, &pool);
    EXPECT_TRUE(pooled == serial) << "pool size " << threads;
    const ScheduleResult pooled_faulted =
        run_steps(scheduler, grid, f.party_count, &faults, &pool);
    EXPECT_TRUE(pooled_faulted == serial_faulted) << "pool size " << threads;
  }
}

// run() drops a station's downlink legs at the steps where
// FaultTimeline::station_available reports it down, and that contract counts
// every step past the timeline's own grid as healthy. So timelines on a
// shorter and a longer grid than the run's (same start and step), the short
// one with station 0 out until its last step, and one with station 0 out for
// the whole run, must each match run_reference, serial and pooled.
TEST_P(SchedulerPipeline, OffGridTimelinesMatchReference) {
  const RandomFleet f = make_case_fleet(GetParam());
  const BentPipeScheduler scheduler(f.config, f.satellites, f.terminals, f.stations);
  const orbit::TimeGrid grid = test_grid();  // 90 steps
  const orbit::TimeGrid short_grid = orbit::TimeGrid::over_duration(kEpoch, 2700.0, 60.0);
  const orbit::TimeGrid long_grid = orbit::TimeGrid::over_duration(kEpoch, 3 * 5400.0, 60.0);
  ASSERT_LT(short_grid.count, grid.count);
  ASSERT_GT(long_grid.count, grid.count);

  fault::FaultTimeline short_faults = make_faults(short_grid, f, GetParam().seed);
  fault::FaultTimeline whole_run = make_faults(grid, f, GetParam().seed);
  if (!f.stations.empty()) {
    short_faults.add_station_outage(0, 0.5 * short_grid.duration_seconds(),
                                    short_grid.duration_seconds());
    whole_run.add_station_outage(0, 0.0, grid.duration_seconds());
  }
  const fault::FaultTimeline long_faults = make_faults(long_grid, f, GetParam().seed);

  util::ThreadPool pool(3);
  const fault::FaultTimeline* const timelines[] = {&short_faults, &long_faults, &whole_run};
  for (const fault::FaultTimeline* faults : timelines) {
    SCOPED_TRACE(faults == &short_faults ? "short" : faults == &long_faults ? "long" : "whole");
    const ScheduleResult reference =
        scheduler.run_reference(grid, f.party_count, faults, /*keep_steps=*/true);
    EXPECT_TRUE(run_steps(scheduler, grid, f.party_count, faults) == reference);
    EXPECT_TRUE(run_steps(scheduler, grid, f.party_count, faults, &pool) == reference);
  }
}

TEST(SchedulerPipeline, RegenerativeRelayMatchesReference) {
  // No preset, bench or example runs the regenerative relay, so its Shannon
  // terms in the downlink fill and the uplink combine run only here: every
  // fleet case, serial, pooled and faulted, against run_reference.
  double served_seconds = 0.0;
  util::ThreadPool pool(3);
  for (const FleetCase& c : fleet_cases()) {
    SCOPED_TRACE(::testing::PrintToString(c));
    RandomFleet f = make_case_fleet(c);
    f.config.relay_mode = RelayMode::kRegenerative;
    const BentPipeScheduler scheduler(f.config, f.satellites, f.terminals, f.stations);
    const orbit::TimeGrid grid = test_grid();
    const fault::FaultTimeline faults = make_faults(grid, f, c.seed);

    const ScheduleResult reference =
        scheduler.run_reference(grid, f.party_count, nullptr, /*keep_steps=*/true);
    EXPECT_TRUE(run_steps(scheduler, grid, f.party_count) == reference);
    EXPECT_TRUE(run_steps(scheduler, grid, f.party_count, nullptr, &pool) == reference);
    EXPECT_TRUE(run_steps(scheduler, grid, f.party_count, &faults) ==
                scheduler.run_reference(grid, f.party_count, &faults, /*keep_steps=*/true));
    served_seconds += reference.total_served_seconds;
  }
  EXPECT_GT(served_seconds, 0.0);  // some case granted a link
}

// Party 0 owns two stations at one site, so their downlink SNRs are bit-equal
// and the lower index must win every tie, and a third station elsewhere.
// With `half_bandwidth` that third station's bandwidth_hz is halved, so a
// higher end-to-end SNR through it need not mean a higher capacity. Party 1
// has one station.
RandomFleet make_tie_fleet(bool half_bandwidth) {
  RandomFleet f;
  f.party_count = 2;
  f.config.beams_per_satellite = 2;
  f.config.elevation_mask_deg = 10.0;
  constellation::WalkerShell shell;
  shell.plane_count = 12;
  shell.sats_per_plane = 12;
  f.satellites = shell.build(kEpoch);
  for (std::size_t i = 0; i < f.satellites.size(); ++i) {
    f.satellites[i].owner_party = static_cast<std::uint32_t>(i % f.party_count);
  }
  util::Xoshiro256PlusPlus rng(19);
  for (std::uint32_t i = 0; i < 40; ++i) {
    Terminal t;
    t.id = i;
    t.owner_party = i % 2;
    t.location = orbit::Geodetic::from_degrees(rng.uniform(30.0, 45.0), rng.uniform(0.0, 15.0));
    t.radio = default_user_terminal();
    t.demand_bps = 50e6;
    f.terminals.push_back(t);
  }
  const auto add_station = [&f](std::uint32_t party, double lat_deg, double lon_deg) {
    GroundStation gs;
    gs.id = static_cast<GroundStationId>(f.stations.size());
    gs.owner_party = party;
    gs.location = orbit::Geodetic::from_degrees(lat_deg, lon_deg);
    gs.radio = default_ground_station();
    f.stations.push_back(gs);
  };
  add_station(0, 38.0, 8.0);
  add_station(0, 38.0, 8.0);
  add_station(0, 33.0, 2.0);
  add_station(1, 40.0, 10.0);
  if (half_bandwidth) f.stations[2].radio.bandwidth_hz /= 2.0;
  return f;
}

// The reference rule for one (terminal, satellite position): the same-party
// station in view with the highest compute_relay capacity, the lowest index
// on ties. Returns {station, capacity}; capacity 0 when none qualifies.
std::pair<std::size_t, double> reference_station(const RandomFleet& f, const Terminal& term,
                                                 const util::Vec3& pos, double sin_mask) {
  const orbit::TopocentricFrame term_frame(term.location);
  std::pair<std::size_t, double> best{0, 0.0};
  for (std::size_t gi = 0; gi < f.stations.size(); ++gi) {
    const GroundStation& gs = f.stations[gi];
    const orbit::TopocentricFrame gs_frame(gs.location);
    if (gs.owner_party != term.owner_party || !gs_frame.visible_above(pos, sin_mask)) continue;
    const double capacity =
        compute_relay(term.radio, f.config.transponder, gs.radio, term_frame.range_m(pos),
                      gs_frame.range_m(pos), f.config.relay_mode)
            .end_to_end_capacity_bps;
    if (capacity > best.second) best = {gi, capacity};
  }
  return best;
}

TEST(SchedulerPipeline, TransparentStationTiesMatchReference) {
  // The transparent combine ranks a pair's stations by end-to-end SNR and
  // takes log2 only near the best one. Bit-equal SNRs must still resolve to
  // the lower station index, and a station with a higher SNR but half the
  // bandwidth must lose to the full-bandwidth one — serial, pooled, exact
  // against run_reference, and capped against the rule itself.
  const orbit::TimeGrid grid = test_grid();
  util::ThreadPool pool(3);
  for (const bool half_bandwidth : {false, true}) {
    SCOPED_TRACE(half_bandwidth ? "half-bandwidth third station" : "uniform bandwidth");
    const RandomFleet f = make_tie_fleet(half_bandwidth);
    const BentPipeScheduler scheduler(f.config, f.satellites, f.terminals, f.stations);
    const ScheduleResult reference =
        scheduler.run_reference(grid, f.party_count, nullptr, /*keep_steps=*/true);
    EXPECT_TRUE(run_steps(scheduler, grid, f.party_count) == reference);
    EXPECT_TRUE(run_steps(scheduler, grid, f.party_count, nullptr, &pool) == reference);

    const orbit::EphemerisSet eph =
        orbit::EphemerisSet::compute(cov::ephemeris_specs(f.satellites), grid);
    const double sin_mask = std::sin(util::deg_to_rad(f.config.elevation_mask_deg));
    for (const std::size_t cap : {std::size_t{1}, std::size_t{4}}) {
      SchedulerConfig config = f.config;
      config.max_candidates_per_terminal = cap;
      const BentPipeScheduler capped(config, f.satellites, f.terminals, f.stations);
      const ScheduleResult serial = run_steps(capped, grid, f.party_count);
      EXPECT_TRUE(run_steps(capped, grid, f.party_count, nullptr, &pool) == serial)
          << "cap=" << cap;
      for (const StepSchedule& step : serial.steps) {
        for (const LinkAssignment& link : step.links) {
          const auto [station, capacity] = reference_station(
              f, f.terminals[link.terminal_index],
              eph.table(link.satellite_index).position_ecef(step.step), sin_mask);
          EXPECT_EQ(link.station_index, station) << "cap=" << cap << " step=" << step.step;
          EXPECT_EQ(link.capacity_bps, capacity) << "cap=" << cap << " step=" << step.step;
        }
      }
    }

    // The fleet must exercise both rules: grants through the tied pair, and
    // (half bandwidth) grants through it while the third station offers a
    // higher end-to-end SNR.
    std::size_t tied_grants = 0;
    std::size_t outranked_by_snr = 0;
    for (const StepSchedule& step : reference.steps) {
      for (const LinkAssignment& link : step.links) {
        EXPECT_NE(link.station_index, 1u) << "the tie went to the higher index";
        if (link.station_index != 0) continue;
        ++tied_grants;
        const Terminal& term = f.terminals[link.terminal_index];
        const util::Vec3 pos = eph.table(link.satellite_index).position_ecef(step.step);
        const orbit::TopocentricFrame term_frame(term.location);
        const orbit::TopocentricFrame third(f.stations[2].location);
        if (!third.visible_above(pos, sin_mask)) continue;
        const auto snr_via = [&](std::size_t gi) {
          return compute_relay(term.radio, f.config.transponder, f.stations[gi].radio,
                               term_frame.range_m(pos),
                               orbit::TopocentricFrame(f.stations[gi].location).range_m(pos),
                               f.config.relay_mode)
              .end_to_end_snr_linear;
        };
        if (snr_via(2) > snr_via(0)) ++outranked_by_snr;
      }
    }
    EXPECT_GT(tied_grants, 0u);
    if (half_bandwidth) {
      EXPECT_GT(outranked_by_snr, 0u);
    }
  }
}

// Every satellite of a Walker shell three times: index i + n is an exact
// twin of i (same owner and elements), so their positions are bit-identical
// and every key of one twin ties the other's; index i + 2n sits 4 nm higher,
// so its ranges differ from i's in the last few bits, where the key and the
// dB chain round differently and key order need not be capacity order.
// Party 0 also owns two stations at one site and a fifth 4 nm above it, so
// station keys tie, or nearly tie, too; and the first four terminals
// transmit 50 dB below the rest, so their end-to-end SNRs straddle the key's
// floor (-30 dB). One beam per satellite makes the second twin serve
// whenever the first is taken, and a hysteresis margin of 1e-15 puts every
// sticky bar between twins inside the key window. `variant` 1 halves the
// third station's bandwidth, so the stations rank by capacity key; variant
// 2 runs the regenerative relay, and there terminals 4 and 5 sit at the
// stations' site with the transponder's transmit chain while the site's
// stations take its receive chain, so their uplink capacity equals the
// downlink's bit for bit and only an exact comparison of the two can pick
// the station.
RandomFleet make_twin_fleet(int variant) {
  RandomFleet f = make_tie_fleet(/*half_bandwidth=*/variant == 1);
  GroundStation raised = f.stations[0];
  raised.id = static_cast<GroundStationId>(f.stations.size());
  raised.location.altitude_m += 4e-9;
  f.stations.push_back(raised);
  f.config.beams_per_satellite = 1;
  f.config.degradation.enabled = true;
  f.config.degradation.spare_hysteresis_margin = 1e-15;
  if (variant == 2) f.config.relay_mode = RelayMode::kRegenerative;
  constellation::WalkerShell shell;
  shell.plane_count = 8;
  shell.sats_per_plane = 8;
  f.satellites = shell.build(kEpoch);
  const std::size_t n = f.satellites.size();
  for (std::size_t i = 0; i < n; ++i) {
    f.satellites[i].owner_party = static_cast<std::uint32_t>(i % f.party_count);
  }
  for (const double raise_m : {0.0, 4e-9}) {
    for (std::size_t i = 0; i < n; ++i) {
      Satellite twin = f.satellites[i];
      twin.id = static_cast<constellation::SatelliteId>(f.satellites.size());
      twin.elements.semi_major_axis_m += raise_m;
      f.satellites.push_back(twin);
    }
  }
  f.terminals.resize(34);
  for (std::size_t i = 0; i < 4; ++i) f.terminals[i].radio.transmit_power_dbw -= 50.0;
  if (variant == 2) {
    for (const std::size_t gi : {0u, 1u, 4u}) {
      f.stations[gi].radio.receive_gain_dbi = f.config.transponder.receive.receive_gain_dbi;
      f.stations[gi].radio.system_noise_temp_k = f.config.transponder.receive.system_noise_temp_k;
    }
    for (const std::size_t ti : {4u, 5u}) {
      f.terminals[ti].owner_party = f.stations[0].owner_party;
      f.terminals[ti].location = f.stations[0].location;
      f.terminals[ti].radio = f.config.transponder.transmit;
    }
  }
  return f;
}

// An independent model of a capped run on a fault-free grid: each terminal
// keeps its top `cap` own and top `cap` spare satellites by compute_relay
// capacity (the lower satellite index first on ties); grants run owner-first
// in terminal order, each to the first strict maximum among kept satellites
// with a beam left, except that a spare grant stays on last step's satellite
// unless the best beats it by more than the hysteresis margin.
std::vector<StepSchedule> capped_model(const RandomFleet& f, const orbit::TimeGrid& grid,
                                       const orbit::EphemerisSet& eph, std::size_t cap) {
  struct Option {
    std::size_t satellite = 0;
    std::size_t station = 0;
    double capacity = 0.0;
  };
  constexpr std::size_t kNone = ~std::size_t{0};
  const double sin_mask = std::sin(util::deg_to_rad(f.config.elevation_mask_deg));
  const double margin = f.config.degradation.spare_hysteresis_margin;
  std::vector<std::size_t> previous(f.terminals.size(), kNone);
  std::vector<StepSchedule> steps;
  for (std::size_t step = 0; step < grid.count; ++step) {
    std::vector<std::vector<Option>> kept(f.terminals.size());
    for (std::size_t ti = 0; ti < f.terminals.size(); ++ti) {
      const Terminal& term = f.terminals[ti];
      const orbit::TopocentricFrame frame(term.location);
      std::vector<Option> own, spare;
      for (std::size_t si = 0; si < f.satellites.size(); ++si) {
        const util::Vec3 pos = eph.table(si).position_ecef(step);
        if (!frame.visible_above(pos, sin_mask)) continue;
        const auto [station, capacity] = reference_station(f, term, pos, sin_mask);
        if (!(capacity > 0.0)) continue;
        (f.satellites[si].owner_party == term.owner_party ? own : spare)
            .push_back({si, station, capacity});
      }
      for (std::vector<Option>* options : {&own, &spare}) {
        std::stable_sort(options->begin(), options->end(),
                         [](const Option& a, const Option& b) { return a.capacity > b.capacity; });
        if (options->size() > cap) options->resize(cap);
        kept[ti].insert(kept[ti].end(), options->begin(), options->end());
      }
      std::sort(kept[ti].begin(), kept[ti].end(),
                [](const Option& a, const Option& b) { return a.satellite < b.satellite; });
    }

    StepSchedule schedule;
    schedule.step = step;
    std::vector<int> beams(f.satellites.size(), f.config.beams_per_satellite);
    std::vector<bool> served(f.terminals.size(), false);
    for (const bool spare_pass : {false, true}) {
      for (std::size_t ti = 0; ti < f.terminals.size(); ++ti) {
        if (served[ti]) continue;
        const std::uint32_t party = f.terminals[ti].owner_party;
        const Option* best = nullptr;
        const Option* held = nullptr;
        for (const Option& option : kept[ti]) {
          const bool own = f.satellites[option.satellite].owner_party == party;
          if (beams[option.satellite] <= 0 || own == spare_pass) continue;
          if (spare_pass && option.satellite == previous[ti]) held = &option;
          if (best == nullptr || option.capacity > best->capacity) best = &option;
        }
        if (best == nullptr) continue;
        if (held != nullptr && held != best && !(best->capacity > held->capacity * (1.0 + margin))) {
          best = held;
        }
        --beams[best->satellite];
        served[ti] = true;
        schedule.links.push_back({ti, best->satellite, best->station, best->capacity, spare_pass});
      }
    }
    for (std::size_t ti = 0; ti < f.terminals.size(); ++ti) {
      if (!served[ti]) schedule.unserved_terminals.push_back(ti);
    }
    std::fill(previous.begin(), previous.end(), kNone);
    for (const LinkAssignment& link : schedule.links) {
      previous[link.terminal_index] = link.satellite_index;
    }
    steps.push_back(std::move(schedule));
  }
  return steps;
}

TEST(SchedulerPipeline, TwinSatelliteKeyTiesMatchReference) {
  // Keys that tie or nearly tie across twin satellites, across stations at
  // one site, at the sticky bar and below the SNR floor must all resolve
  // through exact capacities: serial, pooled and faulted against
  // run_reference, and capped at K = 1 and K = 4 against an independent
  // model.
  const orbit::TimeGrid grid = test_grid();
  util::ThreadPool pool(3);
  for (const int variant : {0, 1, 2}) {
    SCOPED_TRACE(variant == 0 ? "uniform bandwidth" : variant == 1 ? "half-bandwidth station"
                                                                   : "regenerative");
    const RandomFleet f = make_twin_fleet(variant);
    const std::size_t n = f.satellites.size() / 3;
    const orbit::EphemerisSet eph =
        orbit::EphemerisSet::compute(cov::ephemeris_specs(f.satellites), grid);
    for (std::size_t si = 0; si < n; ++si) {
      for (std::size_t step = 0; step < grid.count; step += 7) {
        const util::Vec3 a = eph.table(si).position_ecef(step);
        const util::Vec3 b = eph.table(n + si).position_ecef(step);
        ASSERT_TRUE(a.x == b.x && a.y == b.y && a.z == b.z) << "twin " << si;
      }
    }

    const BentPipeScheduler scheduler(f.config, f.satellites, f.terminals, f.stations);
    const ScheduleResult reference =
        scheduler.run_reference(grid, f.party_count, nullptr, /*keep_steps=*/true);
    sim::RunContext context;
    EXPECT_TRUE(scheduler.run(grid, f.party_count, context, /*keep_steps=*/true) == reference);
    // More exact capacities than grants: the near-tie path ran.
    EXPECT_GT(context.metrics().counter_value("sched.exact_capacity_evaluations"),
              context.metrics().counter_value("sched.links_granted"));
    EXPECT_TRUE(run_steps(scheduler, grid, f.party_count, nullptr, &pool) == reference);
    const fault::FaultTimeline faults = make_faults(grid, f, 23);
    EXPECT_TRUE(run_steps(scheduler, grid, f.party_count, &faults) ==
                scheduler.run_reference(grid, f.party_count, &faults, /*keep_steps=*/true));

    // The fleet must exercise the ties: second twins and weak terminals
    // served, and a sticky decision that only the margin decides.
    bool second_twin_served = false;
    bool weak_terminal_served = false;
    for (const StepSchedule& step : reference.steps) {
      for (const LinkAssignment& link : step.links) {
        second_twin_served |= link.satellite_index >= n && link.satellite_index < 2 * n;
        weak_terminal_served |= link.terminal_index < 4;
      }
    }
    EXPECT_TRUE(second_twin_served);
    EXPECT_TRUE(weak_terminal_served);
    SchedulerConfig no_hysteresis = f.config;
    no_hysteresis.degradation.spare_hysteresis_margin = 0.0;
    EXPECT_FALSE(BentPipeScheduler(no_hysteresis, f.satellites, f.terminals, f.stations)
                     .run_reference(grid, f.party_count, nullptr, /*keep_steps=*/true) ==
                 reference);

    for (const std::size_t cap : {std::size_t{1}, std::size_t{4}}) {
      SchedulerConfig config = f.config;
      config.max_candidates_per_terminal = cap;
      const BentPipeScheduler capped(config, f.satellites, f.terminals, f.stations);
      const ScheduleResult serial = run_steps(capped, grid, f.party_count);
      EXPECT_TRUE(serial.steps == capped_model(f, grid, eph, cap)) << "cap=" << cap;
      EXPECT_TRUE(run_steps(capped, grid, f.party_count, nullptr, &pool) == serial)
          << "cap=" << cap;
    }
  }
}

TEST(SchedulerPipeline, EmptyFaultTimelineMatchesPlainRun) {
  const RandomFleet f = make_fleet(7);
  const BentPipeScheduler scheduler(f.config, f.satellites, f.terminals, f.stations);
  const orbit::TimeGrid grid = test_grid();
  const fault::FaultTimeline empty;

  const ScheduleResult plain = run_steps(scheduler, grid, f.party_count);
  const ScheduleResult with_empty = run_steps(scheduler, grid, f.party_count, &empty);
  EXPECT_TRUE(with_empty == plain);
}

TEST(SchedulerPipeline, AggregatesMatchWithoutKeptSteps) {
  // keep_steps=false drops the per-step lists from both paths; the aggregate
  // comparison must still hold (and the steps vectors compare equal-empty).
  const RandomFleet f = make_fleet(11);
  const BentPipeScheduler scheduler(f.config, f.satellites, f.terminals, f.stations);
  const orbit::TimeGrid grid = test_grid();

  const ScheduleResult reference = scheduler.run_reference(grid, f.party_count);
  sim::RunContext context;
  const ScheduleResult pipelined = scheduler.run(grid, f.party_count, context);
  EXPECT_TRUE(pipelined == reference);
  EXPECT_TRUE(pipelined.steps.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerPipeline, ::testing::ValuesIn(fleet_cases()));

// The footprint stream's shape — chunk size, and the pool size that sets
// the slot count — never changes the result, capped or not.
class SchedulerFootprintStream : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerFootprintStream, ChunkSlotAndPoolShapeNeverChangeResult) {
  const RandomFleet f = make_fleet(GetParam());
  const orbit::TimeGrid grid = test_grid();
  const fault::FaultTimeline faults = make_faults(grid, f, GetParam());

  const BentPipeScheduler baseline(f.config, f.satellites, f.terminals, f.stations);
  const ScheduleResult expected = run_steps(baseline, grid, f.party_count, &faults);

  for (const std::size_t chunk_steps : {std::size_t{8}, std::size_t{16}}) {
    SchedulerConfig config = f.config;
    config.stream_chunk_steps = chunk_steps;
    const BentPipeScheduler scheduler(config, f.satellites, f.terminals, f.stations);
    const ScheduleResult serial = run_steps(scheduler, grid, f.party_count, &faults);
    EXPECT_TRUE(serial == expected) << "chunk_steps=" << chunk_steps;
    // 3 and 4 slots, with 2 to 4 lanes.
    for (const std::size_t threads : {2u, 3u, 4u}) {
      util::ThreadPool pool(threads);
      const ScheduleResult pooled =
          run_steps(scheduler, grid, f.party_count, &faults, &pool);
      EXPECT_TRUE(pooled == expected)
          << "chunk_steps=" << chunk_steps << " pool=" << threads;
    }
  }
}

TEST_P(SchedulerFootprintStream, CandidateCapIsDeterministicAcrossShapes) {
  // A finite cap may legitimately drop low-capacity candidates, so the result
  // is not compared against the exact path — but it must be a pure function
  // of the inputs: pool size (and with it the slot count) and chunk shape
  // cannot change it.
  RandomFleet f = make_fleet(GetParam());
  f.config.max_candidates_per_terminal = 2;
  const orbit::TimeGrid grid = test_grid();

  const BentPipeScheduler baseline(f.config, f.satellites, f.terminals, f.stations);
  const ScheduleResult expected = run_steps(baseline, grid, f.party_count);

  SchedulerConfig reshaped = f.config;
  reshaped.stream_chunk_steps = 8;
  const BentPipeScheduler scheduler(reshaped, f.satellites, f.terminals, f.stations);
  EXPECT_TRUE(run_steps(scheduler, grid, f.party_count) == expected);
  for (const std::size_t threads : {2u, 3u}) {
    util::ThreadPool pool(threads);
    const ScheduleResult pooled = run_steps(scheduler, grid, f.party_count, nullptr, &pool);
    EXPECT_TRUE(pooled == expected) << "pool=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerFootprintStream,
                         ::testing::Range<std::uint64_t>(0, 8));

// A fixed two-shell fleet dense enough that a terminal routinely sees more
// than K own and K spare candidates, with one beam per satellite so the cap
// changes who gets served. The capped run is approximate by design, so
// run_reference cannot be its oracle; the totals below were recorded from
// an independent (chunk-wide, satellite-major) implementation of the capped
// fill and pin the top-K selection against restructuring. The fleet's 80
// terminals sit on the default path with no phase-1 option set, so the
// totals also pin that the cap binds at small terminal counts.
RandomFleet make_golden_fleet() {
  RandomFleet f;
  f.party_count = 3;
  f.config.beams_per_satellite = 1;
  f.config.elevation_mask_deg = 10.0;
  constellation::WalkerShell low;
  low.plane_count = 22;
  low.sats_per_plane = 22;
  constellation::WalkerShell high;
  high.altitude_m = 1100e3;
  high.inclination_deg = 70.0;
  high.plane_count = 10;
  high.sats_per_plane = 10;
  f.satellites = low.build(kEpoch);
  for (Satellite& sat : high.build(kEpoch, 484)) f.satellites.push_back(sat);
  for (std::size_t i = 0; i < f.satellites.size(); ++i) {
    f.satellites[i].owner_party = static_cast<std::uint32_t>(i % f.party_count);
  }

  util::Xoshiro256PlusPlus rng(20241118);
  for (std::uint32_t i = 0; i < 80; ++i) {
    Terminal t;
    t.id = i;
    t.owner_party = i % 3;
    t.location = orbit::Geodetic::from_degrees(rng.uniform(20.0, 50.0),
                                               rng.uniform(0.0, 20.0));
    t.radio = default_user_terminal();
    t.demand_bps = 50e6;
    f.terminals.push_back(t);
  }
  for (std::uint32_t i = 0; i < 12; ++i) {
    GroundStation gs;
    gs.id = i;
    gs.owner_party = i % 3;
    gs.location = orbit::Geodetic::from_degrees(rng.uniform(20.0, 50.0),
                                                rng.uniform(0.0, 20.0));
    gs.radio = default_ground_station();
    f.stations.push_back(gs);
  }
  return f;
}

struct GoldenTotals {
  std::uint64_t links = 0;
  std::uint64_t spare_links = 0;
  std::uint64_t unserved = 0;
  // FNV-1a over (step, terminal, satellite, station) of every grant in order.
  std::uint64_t link_hash = 0;

  friend bool operator==(const GoldenTotals&, const GoldenTotals&) = default;
  friend std::ostream& operator<<(std::ostream& os, const GoldenTotals& g) {
    return os << "{" << g.links << ", " << g.spare_links << ", " << g.unserved << ", 0x"
              << std::hex << g.link_hash << std::dec << "}";
  }
};

GoldenTotals golden_totals(const ScheduleResult& result) {
  GoldenTotals g;
  g.link_hash = 0xcbf29ce484222325ULL;
  const auto mix = [&g](std::uint64_t value) {
    g.link_hash = (g.link_hash ^ value) * 0x100000001b3ULL;
  };
  for (const StepSchedule& step : result.steps) {
    for (const LinkAssignment& link : step.links) {
      mix(step.step);
      mix(link.terminal_index);
      mix(link.satellite_index);
      mix(link.station_index);
      ++g.links;
      if (link.spare) ++g.spare_links;
    }
    g.unserved += step.unserved_terminals.size();
  }
  return g;
}

TEST(SchedulerFootprintStreamGolden, CappedTotalsMatchRecordedValues) {
  const RandomFleet f = make_golden_fleet();
  // Three hours: chunks cross mask-word boundaries.
  const orbit::TimeGrid grid = orbit::TimeGrid::over_duration(kEpoch, 3 * 3600.0, 60.0);

  const BentPipeScheduler exact(f.config, f.satellites, f.terminals, f.stations);
  const ScheduleResult uncapped = run_steps(exact, grid, f.party_count);

  const std::pair<std::size_t, GoldenTotals> recorded[] = {
      {2, {3922, 444, 10558, 0x063852fdbaf5d902ULL}},
      {4, {5012, 528, 9468, 0x1ce8ccb70bbc05ddULL}},
  };
  for (const auto& [cap, expected] : recorded) {
    SchedulerConfig config = f.config;
    config.max_candidates_per_terminal = cap;
    config.stream_chunk_steps = 8;
    const BentPipeScheduler scheduler(config, f.satellites, f.terminals, f.stations);
    const ScheduleResult serial = run_steps(scheduler, grid, f.party_count);
    EXPECT_EQ(golden_totals(serial), expected) << "cap=" << cap;
    // The cap must bind on this fleet, or the totals would pin nothing.
    EXPECT_FALSE(golden_totals(serial) == golden_totals(uncapped)) << "cap=" << cap;
    util::ThreadPool pool(3);
    const ScheduleResult pooled = run_steps(scheduler, grid, f.party_count, nullptr, &pool);
    EXPECT_TRUE(pooled == serial) << "cap=" << cap;
  }
}

TEST(SchedulerPipeline, PartyMaskCollisionsMatchReference) {
  // Phase 1 gates pairs on a per-(step, satellite) mask with bit party & 63,
  // so parties 64 apart pass each other's gate and the combine must still
  // match the exact party. Every other golden-fleet terminal moves to its
  // party + 64, which owns no station: it shares a mask bit with its old
  // party's stations but must never be offered them.
  RandomFleet f = make_golden_fleet();
  const orbit::TimeGrid grid = test_grid();
  const BentPipeScheduler unshifted(f.config, f.satellites, f.terminals, f.stations);
  bool shifted_terminal_was_served = false;
  for (const StepSchedule& step :
       unshifted.run_reference(grid, f.party_count, nullptr, /*keep_steps=*/true).steps) {
    for (const LinkAssignment& link : step.links) {
      shifted_terminal_was_served |= link.terminal_index % 2 == 0;
    }
  }
  EXPECT_TRUE(shifted_terminal_was_served);

  for (std::size_t ti = 0; ti < f.terminals.size(); ti += 2) f.terminals[ti].owner_party += 64;
  f.party_count += 64;
  const BentPipeScheduler scheduler(f.config, f.satellites, f.terminals, f.stations);
  const ScheduleResult reference =
      scheduler.run_reference(grid, f.party_count, nullptr, /*keep_steps=*/true);
  EXPECT_TRUE(run_steps(scheduler, grid, f.party_count) == reference);
  util::ThreadPool pool(3);
  EXPECT_TRUE(run_steps(scheduler, grid, f.party_count, nullptr, &pool) == reference);
}

// The cap binds whatever the fleet size: the golden fleet's first n
// terminals, down to a handful, still contend for one-beam satellites, so
// keeping only each terminal's top candidate changes who is served. The
// uncapped run stays the exact oracle at every size.
class SchedulerCandidateCap : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SchedulerCandidateCap, BindsAtEveryFleetSize) {
  RandomFleet f = make_golden_fleet();
  f.terminals.resize(GetParam());
  const orbit::TimeGrid grid = orbit::TimeGrid::over_duration(kEpoch, 3 * 3600.0, 60.0);

  const BentPipeScheduler exact(f.config, f.satellites, f.terminals, f.stations);
  const ScheduleResult uncapped = run_steps(exact, grid, f.party_count);
  EXPECT_TRUE(uncapped ==
              exact.run_reference(grid, f.party_count, nullptr, /*keep_steps=*/true));

  SchedulerConfig config = f.config;
  config.max_candidates_per_terminal = 1;
  const BentPipeScheduler capped(config, f.satellites, f.terminals, f.stations);
  const ScheduleResult serial = run_steps(capped, grid, f.party_count);
  EXPECT_FALSE(golden_totals(serial) == golden_totals(uncapped))
      << golden_totals(serial) << " vs " << golden_totals(uncapped);
  util::ThreadPool pool(2);
  EXPECT_TRUE(run_steps(capped, grid, f.party_count, nullptr, &pool) == serial);
}

INSTANTIATE_TEST_SUITE_P(TerminalCounts, SchedulerCandidateCap,
                         ::testing::Values(std::size_t{2}, std::size_t{8}, std::size_t{40}),
                         ::testing::PrintToStringParamName());

TEST(SchedulerFootprintStreamConfig, SlotCountFollowsPoolLanesAndChunkCount) {
  // One stream slot per producer — the pool lanes plus the consuming
  // thread — 2 to 4 (a serial run counts as one lane), and never more slots
  // than chunks. A run takes chunks of at most stream_chunk_steps and at
  // least four per lane. perf_simulator's mega gate reads the count from the
  // sched.stream_slots gauge.
  const RandomFleet f = make_fleet(5);
  const auto slots = [&f](const orbit::TimeGrid& grid, std::size_t chunk_steps,
                          std::size_t threads) {
    SchedulerConfig config = f.config;
    config.stream_chunk_steps = chunk_steps;
    const BentPipeScheduler scheduler(config, f.satellites, f.terminals, f.stations);
    sim::RunContext context;
    context.use_threads(threads);
    (void)scheduler.run(grid, f.party_count, context, /*keep_steps=*/false);
    for (const auto& [name, value] : context.metrics().snapshot().gauges) {
      if (name == "sched.stream_slots") return value;
    }
    ADD_FAILURE() << "no sched.stream_slots gauge";
    return 0.0;
  };

  const orbit::TimeGrid grid = test_grid();  // 90 steps
  EXPECT_EQ(slots(grid, 8, 1), 2.0);  // 12 chunks
  EXPECT_EQ(slots(grid, 8, 2), 3.0);
  EXPECT_EQ(slots(grid, 8, 3), 4.0);
  EXPECT_EQ(slots(grid, 8, 4), 4.0);
  EXPECT_EQ(slots(grid, 8, 6), 4.0);
  EXPECT_EQ(slots(grid, 32, 6), 4.0);  // 45 chunks of 2 steps
  EXPECT_EQ(slots(grid, 64, 1), 2.0);  // 6 chunks of 16 steps
  const orbit::TimeGrid short_grid = orbit::TimeGrid::over_duration(kEpoch, 1800.0, 60.0);
  EXPECT_EQ(slots(short_grid, 64, 4), 4.0);  // 31 chunks of 1 step
}

// Phase 1 runs chunks of min(stream_chunk_steps, bit_floor(steps / (4 x
// lanes))) steps, at least one: a three-hour campaign epoch on three lanes
// streams 8-step chunks, while a day on four lanes keeps the configured 64.
// The chunk timer observes once per chunk.
TEST(SchedulerFootprintStreamConfig, ShortRunsSplitIntoFourChunksPerLane) {
  const auto chunks = [](const sim::RunContext& context) -> std::uint64_t {
    for (const auto& [name, histogram] : context.metrics().snapshot().histograms) {
      if (name == "sched.phase1_chunk_seconds") return histogram.count;
    }
    ADD_FAILURE() << "no sched.phase1_chunk_seconds histogram";
    return 0;
  };

  const RandomFleet golden = make_golden_fleet();
  ASSERT_EQ(golden.config.stream_chunk_steps, SchedulerConfig{}.stream_chunk_steps);
  const orbit::TimeGrid epoch = orbit::TimeGrid::over_duration(kEpoch, 3 * 3600.0, 60.0);
  ASSERT_EQ(epoch.count, 181u);
  const BentPipeScheduler scheduler(golden.config, golden.satellites, golden.terminals,
                                    golden.stations);
  util::ThreadPool three(3);
  sim::RunContext context;
  context.use_pool(&three);
  const ScheduleResult pooled =
      scheduler.run(epoch, golden.party_count, context, /*keep_steps=*/true);
  EXPECT_EQ(chunks(context), 23u);  // 181 / 12 = 15 -> 8-step chunks
  EXPECT_TRUE(pooled == scheduler.run_reference(epoch, golden.party_count, nullptr,
                                                /*keep_steps=*/true));

  // perf_simulator --compare-scheduler's shape: a day at 60 s on four lanes.
  const RandomFleet f = make_fleet(5);
  const BentPipeScheduler day_scheduler(f.config, f.satellites, f.terminals, f.stations);
  const orbit::TimeGrid day = orbit::TimeGrid::over_duration(kEpoch, 86400.0, 60.0);
  ASSERT_EQ(day.count, 1441u);
  util::ThreadPool four(4);
  sim::RunContext day_context;
  day_context.use_pool(&four);
  (void)day_scheduler.run(day, f.party_count, day_context, /*keep_steps=*/false);
  EXPECT_EQ(chunks(day_context), 23u);  // 1441 / 16 = 90 -> 64-step chunks
}

TEST(SchedulerFootprintStreamCounters, StageCountsAreShapeInvariantAndNested) {
  // Phase 1 counts pairs at each stage in its own order. The counts are a
  // pure function of fleet and grid, whatever the pool and chunk size, and
  // each stage keeps a subset of the one before. With fewer than 64 parties
  // the party mask is exact, so every visible pair has a same-party station
  // and its best one is always evaluated. Every grant's capacity is
  // computed exactly, so exact evaluations are at least the grants.
  const RandomFleet f = make_golden_fleet();
  const orbit::TimeGrid grid = test_grid();
  const char* const names[] = {"sched.sites_returned",       "sched.cone_survivors",
                               "sched.party_gate_survivors", "sched.exact_visible_pairs",
                               "sched.relay_evaluations",    "sched.exact_capacity_evaluations",
                               "sched.links_granted"};
  const auto stage_counts = [&](std::size_t chunk_steps, std::size_t threads) {
    SchedulerConfig config = f.config;
    config.stream_chunk_steps = chunk_steps;
    config.max_candidates_per_terminal = 4;
    const BentPipeScheduler scheduler(config, f.satellites, f.terminals, f.stations);
    sim::RunContext context;
    context.use_threads(threads);
    (void)scheduler.run(grid, f.party_count, context, /*keep_steps=*/false);
    std::vector<std::uint64_t> counts(std::size(names), 0);
    for (const auto& [name, value] : context.metrics().snapshot().counters) {
      for (std::size_t i = 0; i < std::size(names); ++i) {
        if (name == names[i]) counts[i] = value;
      }
    }
    return counts;
  };

  const std::vector<std::uint64_t> expected = stage_counts(1, 1);
  for (const std::size_t chunk_steps : {std::size_t{1}, std::size_t{64}}) {
    for (const std::size_t threads : {1u, 2u, 4u}) {
      EXPECT_EQ(stage_counts(chunk_steps, threads), expected)
          << "chunk_steps=" << chunk_steps << " threads=" << threads;
    }
  }
  EXPECT_GT(expected[3], 0u);
  EXPECT_GE(expected[0], expected[1]);
  EXPECT_GE(expected[1], expected[2]);
  EXPECT_GE(expected[2], expected[3]);
  EXPECT_GE(expected[4], expected[3]);
  EXPECT_GT(expected[6], 0u);
  EXPECT_GE(expected[5], expected[6]);
}

// The named counters of one run() of `scheduler` over `grid`, serial when
// `threads` is 0.
std::vector<std::uint64_t> run_counters(const BentPipeScheduler& scheduler,
                                        const orbit::TimeGrid& grid, std::size_t party_count,
                                        std::size_t threads,
                                        std::initializer_list<const char*> names) {
  std::optional<util::ThreadPool> pool;
  if (threads > 0) pool.emplace(threads);
  sim::RunContext context;
  context.use_pool(pool.has_value() ? &*pool : nullptr);
  (void)scheduler.run(grid, party_count, context, /*keep_steps=*/false);
  std::vector<std::uint64_t> values;
  for (const char* name : names) values.push_back(context.metrics().counter_value(name));
  return values;
}

// Phase 2 books a candidate skipped for its satellite's beams as a beam
// rejection when no beam is left, and as a withheld rejection when the only
// beams left are reserved from the spare pass. The golden fleet's one-beam
// satellites are contended, so without withholding every skip is a beam
// rejection; reserving every satellite's beam from the spare pass adds
// withheld ones. Both tallies are pool-invariant.
TEST(SchedulerFootprintStreamCounters, BeamAndWithheldRejectionsAreBookedApart) {
  const RandomFleet f = make_golden_fleet();
  const orbit::TimeGrid grid = test_grid();
  const auto rejections = [&](const SchedulerConfig& config, std::size_t threads) {
    const BentPipeScheduler scheduler(config, f.satellites, f.terminals, f.stations);
    const std::vector<std::uint64_t> counts =
        run_counters(scheduler, grid, f.party_count, threads,
                     {"sched.beam_rejections", "sched.spare_withheld_rejections"});
    return std::pair{counts[0], counts[1]};
  };

  SchedulerConfig withholding = f.config;
  withholding.spare_withheld_fraction.assign(f.party_count, 1.0);
  const auto open = rejections(f.config, 0);
  const auto withheld = rejections(withholding, 0);
  EXPECT_GT(open.first, 0u);
  EXPECT_EQ(open.second, 0u);
  EXPECT_GT(withheld.first, 0u);
  EXPECT_GT(withheld.second, 0u);
  for (const std::size_t threads : {2u, 3u}) {
    EXPECT_EQ(rejections(f.config, threads), open) << "threads=" << threads;
    EXPECT_EQ(rejections(withholding, threads), withheld) << "threads=" << threads;
  }
}

// A terminal whose uplink SNR is below 2^-53, so that 1 + SNR rounds to 1,
// has no positive capacity through any station: the reference serves it
// nothing, and phase 1 must emit no candidate for it (a key of 0 would be
// one) while sending each of its visible pairs down the exact path.
TEST(SchedulerFootprintStreamCounters, UnderflowingUplinkEmitsNoCandidate) {
  const RandomFleet f = make_golden_fleet();
  const orbit::TimeGrid grid = test_grid();
  RandomFleet weak = f;
  Terminal whisper = f.terminals.front();
  whisper.id = static_cast<TerminalId>(f.terminals.size());
  whisper.radio.transmit_power_dbw = -200.0;
  weak.terminals.push_back(whisper);

  const BentPipeScheduler base(f.config, f.satellites, f.terminals, f.stations);
  const BentPipeScheduler scheduler(weak.config, weak.satellites, weak.terminals,
                                    weak.stations);
  const std::initializer_list<const char*> names = {"sched.candidates",
                                                    "sched.exact_capacity_evaluations",
                                                    "sched.exact_visible_pairs"};
  const std::vector<std::uint64_t> without = run_counters(base, grid, f.party_count, 0, names);
  const std::vector<std::uint64_t> with = run_counters(scheduler, grid, f.party_count, 0, names);
  EXPECT_EQ(with[0], without[0]);
  EXPECT_GT(with[1], without[1]);
  EXPECT_GT(with[2], without[2]);  // the whisperer does see satellites

  const ScheduleResult reference =
      scheduler.run_reference(grid, f.party_count, nullptr, /*keep_steps=*/true);
  EXPECT_TRUE(run_steps(scheduler, grid, f.party_count) == reference);
  util::ThreadPool pool(3);
  EXPECT_TRUE(run_steps(scheduler, grid, f.party_count, nullptr, &pool) == reference);
  for (const StepSchedule& step : reference.steps) {
    for (const LinkAssignment& link : step.links) {
      EXPECT_NE(link.terminal_index, f.terminals.size());
    }
  }
}

TEST(SchedulerFootprintStreamConfig, RejectsBadStreamShapes) {
  const RandomFleet f = make_fleet(3);
  // Any positive chunk bound runs, and runs the reference schedule: 12
  // gives the serial run chunks of 12 steps, 128 is capped by the grid.
  const orbit::TimeGrid grid = test_grid();
  util::ThreadPool pool(3);
  for (const std::size_t chunk_steps : {std::size_t{12}, std::size_t{128}}) {
    SchedulerConfig config = f.config;
    config.stream_chunk_steps = chunk_steps;
    const BentPipeScheduler scheduler(config, f.satellites, f.terminals, f.stations);
    const ScheduleResult reference =
        scheduler.run_reference(grid, f.party_count, nullptr, /*keep_steps=*/true);
    EXPECT_TRUE(run_steps(scheduler, grid, f.party_count) == reference) << chunk_steps;
    EXPECT_TRUE(run_steps(scheduler, grid, f.party_count, nullptr, &pool) == reference)
        << chunk_steps;
  }
  SchedulerConfig no_chunk = f.config;
  no_chunk.stream_chunk_steps = 0;
  EXPECT_THROW(BentPipeScheduler(no_chunk, f.satellites, f.terminals, f.stations),
               std::invalid_argument);
  SchedulerConfig big_cap = f.config;
  big_cap.max_candidates_per_terminal = 65;
  EXPECT_THROW(BentPipeScheduler(big_cap, f.satellites, f.terminals, f.stations),
               std::invalid_argument);
}

}  // namespace
}  // namespace mpleo::net
