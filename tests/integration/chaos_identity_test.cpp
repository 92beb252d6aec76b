// Chaos-layer identity acceptance: an EMPTY fault::EventBook compiled onto a
// timeline plus a DISABLED net::DegradationPolicy must leave every consumer
// bit-identical to the pre-chaos outputs — scheduler links for every pool
// size (run and run_reference, serial and pooled contexts), SLA reports,
// and the per-party outage evidence the reputation/
// receipt layers consume. This is the contract that lets the chaos subsystem
// ride in the default build without perturbing a single existing result.
#include <gtest/gtest.h>

#include "core/sla.hpp"
#include "coverage/engine.hpp"
#include "fault/event_book.hpp"
#include "net/scheduler.hpp"
#include "orbit/geodesy.hpp"
#include "sim/run_context.hpp"

namespace mpleo {
namespace {

const orbit::TimePoint kEpoch = orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z");

orbit::TimeGrid test_grid() {
  return orbit::TimeGrid::over_duration(kEpoch, 7200.0, 60.0);
}

struct Fleet {
  net::SchedulerConfig config;
  std::vector<constellation::Satellite> satellites;
  std::vector<net::Terminal> terminals;
  std::vector<net::GroundStation> stations;
  std::size_t party_count = 3;
};

Fleet make_fleet() {
  Fleet f;
  f.config.beams_per_satellite = 2;
  for (std::size_t i = 0; i < 15; ++i) {
    constellation::Satellite sat;
    sat.id = static_cast<constellation::SatelliteId>(i);
    sat.owner_party = static_cast<std::uint32_t>(i % f.party_count);
    sat.elements = orbit::ClassicalElements::circular(
        540e3 + 15e3 * static_cast<double>(i % 3), 53.0,
        24.0 * static_cast<double>(i), 36.0 * static_cast<double>(i));
    sat.epoch = kEpoch;
    f.satellites.push_back(sat);
  }
  for (std::size_t i = 0; i < 8; ++i) {
    net::Terminal t;
    t.id = static_cast<net::TerminalId>(i);
    t.owner_party = static_cast<std::uint32_t>(i % f.party_count);
    t.location = orbit::Geodetic::from_degrees(
        -40.0 + 11.0 * static_cast<double>(i), 5.0 + 9.0 * static_cast<double>(i));
    t.radio = net::default_user_terminal();
    t.demand_bps = 40e6;
    f.terminals.push_back(t);
  }
  for (std::size_t i = 0; i < 4; ++i) {
    net::GroundStation gs;
    gs.id = static_cast<net::GroundStationId>(i);
    gs.owner_party = static_cast<std::uint32_t>(i % f.party_count);
    gs.location = orbit::Geodetic::from_degrees(
        -30.0 + 14.0 * static_cast<double>(i), 8.0 + 13.0 * static_cast<double>(i));
    gs.radio = net::default_ground_station();
    f.stations.push_back(gs);
  }
  return f;
}

TEST(ChaosIdentity, EmptyBookAndDisabledPolicyMatchEveryPoolSize) {
  const Fleet f = make_fleet();
  const orbit::TimeGrid grid = test_grid();

  const fault::EventBook empty_book(2042);
  const fault::FaultTimeline timeline =
      empty_book.compile(grid, f.satellites, f.stations);
  EXPECT_TRUE(timeline.empty());

  net::SchedulerConfig config = f.config;
  // The disabled policy deliberately carries every knob, so enabled=false
  // alone must neutralize the whole layer.
  config.degradation.enabled = false;
  config.degradation.party_tier = {0, 1, 2};
  config.degradation.shed_below = {0.0, 0.9};
  config.degradation.spare_hysteresis_margin = 0.4;
  config.degradation.backoff_initial_steps = 4;

  const net::BentPipeScheduler before(f.config, f.satellites, f.terminals, f.stations);
  const net::BentPipeScheduler after(config, f.satellites, f.terminals, f.stations);

  sim::RunContext serial;
  const net::ScheduleResult baseline = before.run(grid, f.party_count, serial, true);
  // No timeline vs an empty one, run vs run_reference.
  EXPECT_TRUE(after.run(grid, f.party_count, serial, true) == baseline);
  serial.use_faults(&timeline);
  EXPECT_TRUE(after.run(grid, f.party_count, serial, true) == baseline);
  EXPECT_TRUE(after.run_reference(grid, f.party_count, &timeline, true) == baseline);

  // Pool sizes: hardware-sized and two fixed widths, timeline attached.
  for (const unsigned threads : {0u, 2u, 3u}) {
    sim::Scenario scenario;
    scenario.threads = static_cast<int>(threads);
    sim::RunContext context(scenario);
    context.use_faults(&timeline);
    EXPECT_TRUE(after.run(grid, f.party_count, context, true) == baseline)
        << "threads " << threads;
  }
}

TEST(ChaosIdentity, SlaReportUnchangedByEmptyBookTimeline) {
  const Fleet f = make_fleet();
  const cov::CoverageEngine engine(test_grid(), 25.0);
  const std::vector<cov::GroundSite> sites = {
      {"a", orbit::TopocentricFrame(orbit::Geodetic::from_degrees(10.0, 10.0)), 1.0},
      {"b", orbit::TopocentricFrame(orbit::Geodetic::from_degrees(-20.0, 40.0)), 2.0}};
  cov::VisibilityCache plain_cache(engine, f.satellites, sites);
  cov::VisibilityCache chaos_cache(engine, f.satellites, sites);
  const std::vector<std::size_t> fleet_idx = {0, 1, 2, 3, 4, 5, 6};

  core::SlaTerms terms;
  terms.min_coverage_fraction = 0.5;
  terms.max_gap_seconds = 600.0;
  terms.penalty_per_violation = 25.0;

  sim::RunContext plain_context;
  const core::SlaReport before =
      core::evaluate_sla(terms, plain_cache, fleet_idx, 0, plain_context);

  const fault::EventBook empty_book(7);
  const fault::FaultTimeline timeline =
      empty_book.compile(engine.grid(), f.satellites, f.stations);
  sim::RunContext chaos_context;
  chaos_context.use_faults(&timeline);
  const core::SlaReport after =
      core::evaluate_sla(terms, chaos_cache, fleet_idx, 0, chaos_context);

  EXPECT_EQ(after.compliant, before.compliant);
  EXPECT_EQ(after.total_penalty, before.total_penalty);
  ASSERT_EQ(after.violations.size(), before.violations.size());
  for (std::size_t i = 0; i < before.violations.size(); ++i) {
    EXPECT_EQ(after.violations[i].clause, before.violations[i].clause);
    EXPECT_EQ(after.violations[i].delivered, before.violations[i].delivered);
  }
}

TEST(ChaosIdentity, EmptyBookProducesNoOutageEvidence) {
  // The reputation / receipt layers read outage_seconds_by_party as fault
  // evidence; an empty book must contribute exactly none.
  const Fleet f = make_fleet();
  const fault::EventBook empty_book(7);
  const fault::FaultTimeline timeline =
      empty_book.compile(test_grid(), f.satellites, f.stations);
  std::vector<std::uint32_t> sat_owner;
  std::vector<std::uint32_t> gs_owner;
  for (const constellation::Satellite& sat : f.satellites) {
    sat_owner.push_back(sat.owner_party);
  }
  for (const net::GroundStation& gs : f.stations) gs_owner.push_back(gs.owner_party);
  const std::vector<double> evidence =
      timeline.outage_seconds_by_party(sat_owner, gs_owner, f.party_count);
  ASSERT_EQ(evidence.size(), f.party_count);
  for (const double seconds : evidence) EXPECT_DOUBLE_EQ(seconds, 0.0);
  EXPECT_TRUE(timeline.events().empty());
}

}  // namespace
}  // namespace mpleo
