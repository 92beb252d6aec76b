// Property tests: scheduler invariants under randomized fleets, ground
// segments and beam budgets. These are the guarantees the settlement layer
// silently depends on.
#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "net/scheduler.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace mpleo::net {
namespace {

using constellation::Satellite;
using util::Vec3;

struct RandomScenario {
  SchedulerConfig config;
  std::vector<Satellite> satellites;
  std::vector<Terminal> terminals;
  std::vector<GroundStation> stations;
  std::vector<Vec3> positions;
  std::size_t party_count = 0;
};

RandomScenario make_scenario(std::uint64_t seed) {
  util::Xoshiro256PlusPlus rng(seed);
  RandomScenario s;
  s.party_count = 2 + rng.uniform_index(3);
  s.config.beams_per_satellite = 1 + static_cast<int>(rng.uniform_index(4));

  const std::size_t n_sats = 2 + rng.uniform_index(6);
  for (std::size_t i = 0; i < n_sats; ++i) {
    Satellite sat;
    sat.id = static_cast<constellation::SatelliteId>(i);
    sat.owner_party = static_cast<std::uint32_t>(rng.uniform_index(s.party_count));
    s.satellites.push_back(sat);
    // Position somewhere above a random point in a shared region so that
    // visibility outcomes are mixed.
    const double lat = rng.uniform(-30.0, 30.0);
    const double lon = rng.uniform(0.0, 40.0);
    s.positions.push_back(orbit::geodetic_to_ecef(
        orbit::Geodetic::from_degrees(lat, lon, rng.uniform(500e3, 600e3))));
  }

  const std::size_t n_terms = 1 + rng.uniform_index(6);
  for (std::size_t i = 0; i < n_terms; ++i) {
    Terminal t;
    t.id = static_cast<TerminalId>(i);
    t.owner_party = static_cast<std::uint32_t>(rng.uniform_index(s.party_count));
    t.location = orbit::Geodetic::from_degrees(rng.uniform(-25.0, 25.0),
                                               rng.uniform(0.0, 40.0));
    t.radio = default_user_terminal();
    s.terminals.push_back(t);
  }

  const std::size_t n_stations = 1 + rng.uniform_index(4);
  for (std::size_t i = 0; i < n_stations; ++i) {
    GroundStation gs;
    gs.id = static_cast<GroundStationId>(i);
    gs.owner_party = static_cast<std::uint32_t>(rng.uniform_index(s.party_count));
    gs.location = orbit::Geodetic::from_degrees(rng.uniform(-25.0, 25.0),
                                                rng.uniform(0.0, 40.0));
    gs.radio = default_ground_station();
    s.stations.push_back(gs);
  }
  return s;
}

class SchedulerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerProperty, InvariantsHoldOnRandomScenarios) {
  const RandomScenario s = make_scenario(GetParam());
  const BentPipeScheduler scheduler(s.config, s.satellites, s.terminals, s.stations);
  const StepSchedule schedule = scheduler.schedule_step(s.positions, 0);

  // 1. No terminal appears twice (served at most once per step).
  std::set<std::size_t> served;
  for (const LinkAssignment& link : schedule.links) {
    EXPECT_TRUE(served.insert(link.terminal_index).second);
  }

  // 2. Served + unserved partitions the terminal set.
  EXPECT_EQ(served.size() + schedule.unserved_terminals.size(), s.terminals.size());
  for (std::size_t ti : schedule.unserved_terminals) {
    EXPECT_FALSE(served.contains(ti));
  }

  // 3. Beam budget per satellite respected.
  std::vector<int> beams(s.satellites.size(), 0);
  for (const LinkAssignment& link : schedule.links) {
    ++beams[link.satellite_index];
  }
  for (int b : beams) EXPECT_LE(b, s.config.beams_per_satellite);

  // 4. Spare flag is exactly owner mismatch; stations belong to the
  //    terminal's party; capacities are positive.
  for (const LinkAssignment& link : schedule.links) {
    const auto term_owner = s.terminals[link.terminal_index].owner_party;
    const auto sat_owner = s.satellites[link.satellite_index].owner_party;
    EXPECT_EQ(link.spare, term_owner != sat_owner);
    EXPECT_EQ(s.stations[link.station_index].owner_party, term_owner);
    EXPECT_GT(link.capacity_bps, 0.0);
  }
}

TEST_P(SchedulerProperty, OwnerPriorityNeverServesSpareWhenOwnBeamFree) {
  // If a terminal ended up on spare capacity, then every satellite of its
  // own party that could serve it must have been invisible (to terminal or
  // to all of the party's stations) — beams cannot be the excuse, because
  // owner links are assigned first.
  const RandomScenario s = make_scenario(GetParam() ^ 0xABCD);
  const BentPipeScheduler scheduler(s.config, s.satellites, s.terminals, s.stations);
  const StepSchedule schedule = scheduler.schedule_step(s.positions, 0);

  const double sin_mask = std::sin(util::deg_to_rad(s.config.elevation_mask_deg));
  for (const LinkAssignment& link : schedule.links) {
    if (!link.spare) continue;
    const Terminal& term = s.terminals[link.terminal_index];
    const orbit::TopocentricFrame term_frame(term.location);
    for (std::size_t si = 0; si < s.satellites.size(); ++si) {
      if (s.satellites[si].owner_party != term.owner_party) continue;
      if (!term_frame.visible_above(s.positions[si], sin_mask)) continue;
      // Satellite of own party visible to the terminal: no own station may
      // see it (otherwise the owner pass would have taken it — possibly via
      // another terminal of the same party using all beams, which the owner
      // pass fills first and is also "own" service).
      bool any_station = false;
      for (const GroundStation& gs : s.stations) {
        if (gs.owner_party != term.owner_party) continue;
        if (orbit::TopocentricFrame(gs.location)
                .visible_above(s.positions[si], sin_mask)) {
          any_station = true;
          break;
        }
      }
      if (any_station) {
        // The only legitimate reason: the satellite's beams were consumed by
        // own-party terminals in the first pass.
        int own_links_on_sat = 0;
        for (const LinkAssignment& other : schedule.links) {
          if (other.satellite_index == si && !other.spare) ++own_links_on_sat;
        }
        EXPECT_GE(own_links_on_sat, 1)
            << "terminal " << link.terminal_index << " on spare while own satellite "
            << si << " had free beams and full visibility";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

// Re-acquisition backoff invariants under randomized parameters: the hold is
// monotone non-decreasing over consecutive failures, never exceeds the cap,
// and a clean horizon resets the machine to its first-failure hold. With
// initial steps == 0 the machine always returns 0 (instant re-acquisition),
// and with initial == max it returns exactly initial on every failure for
// any multiplier (the constant hold).
class BackoffProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BackoffProperty, MonotoneCappedAndResetsAfterCleanHorizon) {
  util::Xoshiro256PlusPlus rng(GetParam());
  const std::size_t initial = 1 + rng.uniform_index(8);
  const double multiplier = rng.uniform(1.0, 3.0);
  const std::size_t max_steps = initial + rng.uniform_index(64);
  const std::size_t horizon = 1 + rng.uniform_index(10);
  ReacquisitionBackoff backoff(initial, multiplier, max_steps, horizon);

  const std::size_t first = backoff.on_failure();
  EXPECT_EQ(first, initial);  // the first failure holds exactly initial steps
  std::size_t previous = first;
  for (std::size_t n = 2; n <= 24; ++n) {
    // Interleave clean steps strictly inside the horizon: they must never
    // shrink the next hold.
    const std::size_t quiet = rng.uniform_index(horizon);
    for (std::size_t q = 0; q < quiet; ++q) backoff.on_clean_step();
    const std::size_t hold = backoff.on_failure();
    EXPECT_GE(hold, previous) << "failure " << n << " shrank the hold";
    EXPECT_LE(hold, max_steps) << "failure " << n << " exceeded the cap";
    previous = hold;
  }

  // A full clean horizon resets the machine: the next failure pays the
  // first-failure hold again.
  for (std::size_t q = 0; q < horizon; ++q) backoff.on_clean_step();
  EXPECT_EQ(backoff.consecutive_failures(), 0u);
  EXPECT_EQ(backoff.on_failure(), first);

  ReacquisitionBackoff instant(0, multiplier, max_steps, horizon);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(instant.on_failure(), 0u);

  for (const double any_multiplier : {1.0, multiplier, 1e3}) {
    ReacquisitionBackoff constant(initial, any_multiplier, initial, horizon);
    for (std::size_t n = 1; n <= 24; ++n) {
      EXPECT_EQ(constant.on_failure(), initial)
          << "failure " << n << " at multiplier " << any_multiplier;
    }
  }

  // Products past the size_t range saturate at the cap instead of wrapping:
  // a huge multiplier overshoots on the second failure, and a SIZE_MAX cap is
  // only reached once doubling passes 2^64.
  struct Extreme {
    double multiplier;
    std::size_t max_steps;
  };
  for (const Extreme extreme : {Extreme{1e20, max_steps},
                                Extreme{std::numeric_limits<double>::max(), max_steps},
                                Extreme{2.0, std::numeric_limits<std::size_t>::max()}}) {
    ReacquisitionBackoff steep(initial, extreme.multiplier, extreme.max_steps, horizon);
    std::size_t last = steep.on_failure();
    EXPECT_EQ(last, initial);
    for (std::size_t n = 2; n <= 80; ++n) {
      const std::size_t hold = steep.on_failure();
      EXPECT_GE(hold, last) << "failure " << n << " at multiplier " << extreme.multiplier;
      EXPECT_LE(hold, extreme.max_steps) << "failure " << n;
      last = hold;
    }
    EXPECT_EQ(last, extreme.max_steps) << "multiplier " << extreme.multiplier;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackoffProperty,
                         ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace mpleo::net
