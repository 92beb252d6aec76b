// Degraded operations: the fault layer threaded through scheduling, handover
// analysis, SLA evaluation, and settlement. SLA evaluation runs through a
// sim::RunContext carrying the timeline; pool-size identity is pinned by
// run_context_identity_test.
#include <gtest/gtest.h>

#include "core/ledger.hpp"
#include "core/sla.hpp"
#include "coverage/engine.hpp"
#include "fault/timeline.hpp"
#include "net/handover.hpp"
#include "net/scheduler.hpp"
#include "orbit/geodesy.hpp"
#include "sim/run_context.hpp"

namespace mpleo {
namespace {

using constellation::Satellite;
using util::Vec3;

net::Terminal make_terminal(double lat, double lon, std::uint32_t party,
                            net::TerminalId id = 0) {
  net::Terminal t;
  t.id = id;
  t.name = "T" + std::to_string(id);
  t.location = orbit::Geodetic::from_degrees(lat, lon);
  t.owner_party = party;
  t.radio = net::default_user_terminal();
  return t;
}

net::GroundStation make_station(double lat, double lon, std::uint32_t party,
                                net::GroundStationId id = 0) {
  net::GroundStation gs;
  gs.id = id;
  gs.name = "G" + std::to_string(id);
  gs.location = orbit::Geodetic::from_degrees(lat, lon);
  gs.owner_party = party;
  gs.radio = net::default_ground_station();
  return gs;
}

Satellite owned_satellite(std::uint32_t party) {
  Satellite sat;
  sat.owner_party = party;
  sat.elements = orbit::ClassicalElements::circular(550e3, 53.0, 0.0, 0.0);
  return sat;
}

Vec3 overhead_of(double lat, double lon) {
  return orbit::geodetic_to_ecef(orbit::Geodetic::from_degrees(lat, lon, 550e3));
}

orbit::TimeGrid make_grid(double duration_s = 600.0, double step_s = 60.0) {
  return orbit::TimeGrid::over_duration(
      orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z"), duration_s, step_s);
}

TEST(DegradedScheduleStep, SatelliteOutageRemovesService) {
  net::SchedulerConfig cfg;
  const net::BentPipeScheduler scheduler(cfg, {owned_satellite(0)},
                                         {make_terminal(10.0, 20.0, 0)},
                                         {make_station(10.5, 20.5, 0)});
  const std::vector<Vec3> positions{overhead_of(10.2, 20.2)};

  fault::FaultTimeline faults(make_grid(), 1, 0);
  faults.add_satellite_outage(0, 0.0, 120.0);  // steps 0 and 1

  EXPECT_TRUE(scheduler.schedule_step(positions, 0, &faults).links.empty());
  EXPECT_EQ(scheduler.schedule_step(positions, 0, &faults).unserved_terminals.size(), 1u);
  // After the repair the same geometry serves again.
  EXPECT_EQ(scheduler.schedule_step(positions, 2, &faults).links.size(), 1u);
}

TEST(DegradedScheduleStep, StationOutageBlocksBentPipe) {
  // Bent-pipe needs both legs: a healthy satellite cannot serve through a
  // failed ground station.
  net::SchedulerConfig cfg;
  const net::BentPipeScheduler scheduler(cfg, {owned_satellite(0)},
                                         {make_terminal(10.0, 20.0, 0)},
                                         {make_station(10.5, 20.5, 0)});
  const std::vector<Vec3> positions{overhead_of(10.2, 20.2)};

  fault::FaultTimeline faults(make_grid(), 1, 1);
  faults.add_station_outage(0, 0.0, 60.0);
  EXPECT_TRUE(scheduler.schedule_step(positions, 0, &faults).links.empty());
  EXPECT_EQ(scheduler.schedule_step(positions, 1, &faults).links.size(), 1u);
}

TEST(DegradedScheduleStep, DegradationReducesOfferedBeams) {
  net::SchedulerConfig cfg;
  cfg.beams_per_satellite = 2;
  std::vector<net::Terminal> terminals{make_terminal(10.0, 20.0, 0, 0),
                                       make_terminal(10.3, 20.3, 0, 1)};
  const net::BentPipeScheduler scheduler(cfg, {owned_satellite(0)}, terminals,
                                         {make_station(10.5, 20.5, 0)});
  const std::vector<Vec3> positions{overhead_of(10.2, 20.2)};

  // Healthy: both terminals get a beam.
  EXPECT_EQ(scheduler.schedule_step(positions, 0).links.size(), 2u);

  // Half the transponder is gone: floor(2 * 0.5) = 1 beam survives.
  fault::FaultTimeline half(make_grid(), 1, 0);
  half.add_transponder_degradation(0, 0.0, 600.0, 0.5);
  const net::StepSchedule degraded = scheduler.schedule_step(positions, 0, &half);
  EXPECT_EQ(degraded.links.size(), 1u);
  EXPECT_EQ(degraded.unserved_terminals.size(), 1u);

  // Degraded below one beam: the satellite is effectively off the air.
  fault::FaultTimeline crippled(make_grid(), 1, 0);
  crippled.add_transponder_degradation(0, 0.0, 600.0, 0.1);
  EXPECT_TRUE(scheduler.schedule_step(positions, 0, &crippled).links.empty());
}

TEST(DegradedScheduleStep, NullEmptyAndIdleTimelinesScheduleTheHealthyStep) {
  net::SchedulerConfig cfg;
  std::vector<net::Terminal> terminals{make_terminal(10.0, 20.0, 0, 0),
                                       make_terminal(10.3, 20.3, 1, 1)};
  const net::BentPipeScheduler scheduler(
      cfg, {owned_satellite(0)}, terminals,
      {make_station(10.5, 20.5, 0, 0), make_station(10.4, 20.4, 1, 1)});
  const std::vector<Vec3> positions{overhead_of(10.2, 20.2)};

  const net::StepSchedule healthy = scheduler.schedule_step(positions, 0);
  ASSERT_EQ(healthy.links.size(), 2u);
  const fault::FaultTimeline empty;
  EXPECT_TRUE(scheduler.schedule_step(positions, 0, &empty) == healthy);
  // A timeline whose only events fall after step 0 leaves step 0 healthy.
  fault::FaultTimeline later(make_grid(), 1, 2);
  later.add_satellite_outage(0, 300.0, 600.0);
  later.add_station_outage(1, 300.0, 600.0);
  EXPECT_TRUE(scheduler.schedule_step(positions, 0, &later) == healthy);
}

TEST(DegradedScheduleStep, BlockedTerminalTakesNoService) {
  net::SchedulerConfig cfg;
  std::vector<net::Terminal> terminals{make_terminal(10.0, 20.0, 0, 0),
                                       make_terminal(10.3, 20.3, 0, 1)};
  const net::BentPipeScheduler scheduler(cfg, {owned_satellite(0)}, terminals,
                                         {make_station(10.5, 20.5, 0)});
  const std::vector<Vec3> positions{overhead_of(10.2, 20.2)};
  fault::FaultTimeline faults(make_grid(), 1, 0);
  faults.add_satellite_outage(0, 590.0, 600.0);  // non-empty, but step 0 healthy

  const std::vector<std::uint8_t> blocked{1, 0};
  const net::StepSchedule schedule =
      scheduler.schedule_step(positions, 0, &faults, blocked);
  ASSERT_EQ(schedule.links.size(), 1u);
  EXPECT_EQ(schedule.links.front().terminal_index, 1u);
  ASSERT_EQ(schedule.unserved_terminals.size(), 1u);
  EXPECT_EQ(schedule.unserved_terminals.front(), 0u);
}

// An 8-satellite fleet over Taipei: enough geometry for real service windows.
net::BentPipeScheduler taipei_scheduler(net::SchedulerConfig cfg) {
  std::vector<Satellite> sats;
  for (double raan : {0.0, 45.0, 90.0, 135.0, 180.0, 225.0, 270.0, 315.0}) {
    Satellite s = owned_satellite(0);
    s.elements = orbit::ClassicalElements::circular(550e3, 53.0, raan, raan);
    s.epoch = orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z");
    sats.push_back(s);
  }
  return net::BentPipeScheduler(cfg, sats, {make_terminal(25.0, 121.5, 0, 0)},
                                {make_station(24.9, 121.4, 0, 0)});
}

TEST(DegradedRun, FullWindowOutageServesNothing) {
  const net::BentPipeScheduler scheduler = taipei_scheduler({});
  const orbit::TimeGrid grid = make_grid(86400.0, 120.0);

  fault::FaultTimeline faults(grid, 8, 0);
  for (std::size_t i = 0; i < 8; ++i) faults.add_satellite_outage(i, 0.0, 86400.0);

  sim::RunContext context;
  context.use_faults(&faults);
  const net::ScheduleResult result = scheduler.run(grid, 1, context);
  EXPECT_DOUBLE_EQ(result.total_served_seconds, 0.0);
  EXPECT_DOUBLE_EQ(result.total_unserved_seconds, grid.duration_seconds());
  // The terminal never attached, so nothing was ever force-detached.
  EXPECT_EQ(result.failure_forced_detaches, 0u);
  EXPECT_DOUBLE_EQ(result.reacquisition_wait_seconds, 0.0);
}

TEST(DegradedRun, AlternatingOutageForcesDetachesAndBackoffCostsService) {
  // Every odd step the entire fleet blinks out, so any link alive at an even
  // step is failure-force-detached at the next step. The 30 s step keeps a
  // pass several steps long, so with a re-acquisition backoff the terminal
  // also sits out healthy even steps mid-pass — backoff strictly costs
  // served seconds.
  const orbit::TimeGrid grid = make_grid(86400.0, 30.0);
  fault::FaultTimeline faults(grid, 8, 0);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t k = 1; k < grid.count; k += 2) {
      const double t = static_cast<double>(k) * grid.step_seconds;
      faults.add_satellite_outage(i, t, t + grid.step_seconds);
    }
  }

  sim::RunContext faulted;
  faulted.use_faults(&faults);
  const net::SchedulerConfig instant;  // no re-acquisition backoff
  const net::ScheduleResult no_backoff = taipei_scheduler(instant).run(grid, 1, faulted);

  net::SchedulerConfig slow;
  slow.degradation.enabled = true;
  slow.degradation.backoff_initial_steps = 4;  // a constant 4-step hold
  slow.degradation.backoff_max_steps = 4;
  const net::ScheduleResult with_backoff = taipei_scheduler(slow).run(grid, 1, faulted);

  sim::RunContext healthy_context;
  const net::ScheduleResult healthy = taipei_scheduler(instant).run(grid, 1, healthy_context);
  EXPECT_GT(healthy.total_served_seconds, 0.0);
  EXPECT_GT(no_backoff.failure_forced_detaches, 0u);
  EXPECT_EQ(no_backoff.reacquisition_wait_seconds, 0.0);
  EXPECT_LT(no_backoff.total_served_seconds, healthy.total_served_seconds);

  EXPECT_GT(with_backoff.failure_forced_detaches, 0u);
  EXPECT_GT(with_backoff.reacquisition_wait_seconds, 0.0);
  EXPECT_LT(with_backoff.total_served_seconds, no_backoff.total_served_seconds);

  // Conservation still holds on the degraded path.
  EXPECT_NEAR(with_backoff.total_served_seconds + with_backoff.total_unserved_seconds,
              grid.duration_seconds(), 1e-6);
}

TEST(FaultHandover, FailureForcedTransitionsAreAttributed) {
  const orbit::TimeGrid grid = make_grid(600.0, 60.0);
  fault::FaultTimeline faults(grid, 3, 0);
  faults.add_satellite_outage(0, 120.0, 180.0);  // sat 0 down at step 2
  faults.add_satellite_outage(1, 240.0, 300.0);  // sat 1 down at step 4

  // Serving timeline: 0,0 -> 1 (forced: sat 0 died), 1 -> gap (forced: sat 1
  // died), then 2 picks up (reconnection, not a handover).
  const std::uint32_t gap = net::kNoSatellite;
  const std::vector<std::uint32_t> timeline{0, 0, 1, 1, gap, 2};

  const net::HandoverStats plain = net::handover_stats(timeline, 60.0);
  EXPECT_EQ(plain.handover_count, 1u);
  EXPECT_EQ(plain.outage_count, 1u);
  EXPECT_EQ(plain.failure_handover_count, 0u);
  EXPECT_EQ(plain.failure_outage_count, 0u);

  const net::HandoverStats attributed = net::handover_stats(timeline, 60.0, &faults);
  EXPECT_EQ(attributed.handover_count, 1u);
  EXPECT_EQ(attributed.outage_count, 1u);
  EXPECT_EQ(attributed.failure_handover_count, 1u);
  EXPECT_EQ(attributed.failure_outage_count, 1u);
  // The non-fault fields are untouched by attribution.
  EXPECT_DOUBLE_EQ(attributed.connected_fraction, plain.connected_fraction);
  EXPECT_DOUBLE_EQ(attributed.mean_dwell_seconds, plain.mean_dwell_seconds);
}

TEST(FaultHandover, FaultedSatelliteNeverServes) {
  std::vector<Satellite> sats;
  for (double raan : {0.0, 90.0, 180.0, 270.0}) {
    Satellite s = owned_satellite(0);
    s.elements = orbit::ClassicalElements::circular(550e3, 53.0, raan, raan);
    s.epoch = orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z");
    sats.push_back(s);
  }
  const orbit::TimeGrid grid = make_grid(86400.0, 120.0);
  const cov::CoverageEngine engine(grid, 25.0);
  const orbit::TopocentricFrame terminal(orbit::Geodetic::from_degrees(25.0, 121.5));

  const fault::FaultTimeline faults =
      fault::FaultTimeline::stochastic(grid, sats.size(), 0,
                                       {6.0 * 3600.0, 2.0 * 3600.0}, {}, 99);
  ASSERT_FALSE(faults.empty());
  const std::vector<std::uint32_t> timeline =
      net::serving_satellite_timeline(engine, sats, terminal, &faults);
  ASSERT_EQ(timeline.size(), grid.count);
  for (std::size_t k = 0; k < timeline.size(); ++k) {
    if (timeline[k] == net::kNoSatellite) continue;
    EXPECT_TRUE(faults.satellite_available(timeline[k], k)) << "step " << k;
  }

  // All satellites out for the whole window: nobody may serve.
  fault::FaultTimeline total(grid, sats.size(), 0);
  for (std::size_t i = 0; i < sats.size(); ++i) {
    total.add_satellite_outage(i, 0.0, grid.duration_seconds() + grid.step_seconds);
  }
  for (const std::uint32_t serving :
       net::serving_satellite_timeline(engine, sats, terminal, &total)) {
    EXPECT_EQ(serving, net::kNoSatellite);
  }
}

TEST(FaultSla, OutageLongerThanMaxGapViolatesAndSettles) {
  // A 36-satellite shell gives the site regular passes; the SLA's gap clause
  // is calibrated just above the healthy worst gap, so only the injected
  // outage can break it — and the penalty must settle on the ledger.
  constellation::WalkerShell shell;
  shell.plane_count = 6;
  shell.sats_per_plane = 6;
  shell.phasing_factor = 1;
  const std::vector<Satellite> sats =
      shell.build(orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z"));
  const orbit::TimeGrid grid = make_grid(86400.0, 300.0);
  const cov::CoverageEngine engine(grid, 25.0);
  const std::vector<cov::GroundSite> sites{
      {"Taipei", orbit::TopocentricFrame(orbit::Geodetic::from_degrees(25.0, 121.5)), 1.0}};
  cov::VisibilityCache cache(engine, sats, sites);

  std::vector<std::size_t> fleet(sats.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) fleet[i] = i;

  const cov::CoverageStats healthy = engine.stats(cache.union_mask(fleet, 0));
  ASSERT_GT(healthy.covered_fraction, 0.0);
  ASSERT_LT(healthy.max_gap_seconds, 0.25 * grid.duration_seconds());

  core::SlaTerms terms;
  terms.min_coverage_fraction = 0.0;  // isolate the gap clause
  terms.max_gap_seconds = healthy.max_gap_seconds + grid.step_seconds;
  terms.penalty_per_violation = 25.0;

  // Healthy geometry complies; bit-identically so through an empty timeline.
  EXPECT_TRUE(core::evaluate_sla(terms, healthy).compliant);
  const fault::FaultTimeline no_faults;
  sim::RunContext healthy_context;
  healthy_context.use_faults(&no_faults);
  EXPECT_TRUE(core::evaluate_sla(terms, cache, fleet, 0, healthy_context).compliant);

  // Everybody out for longer than the allowed gap.
  const double outage_s = terms.max_gap_seconds + 20.0 * grid.step_seconds;
  fault::FaultTimeline faults(grid, sats.size(), 0);
  for (std::size_t i : fleet) faults.add_satellite_outage(i, 0.0, outage_s);

  sim::RunContext faulted_context;
  faulted_context.use_faults(&faults);
  const core::SlaReport report =
      core::evaluate_sla(terms, cache, fleet, 0, faulted_context);
  EXPECT_FALSE(report.compliant);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations.front().clause, core::SlaClause::kMaxGap);
  EXPECT_GT(report.violations.front().delivered, terms.max_gap_seconds);

  core::Ledger ledger;
  const core::AccountId provider = ledger.open_account("provider");
  const core::AccountId customer = ledger.open_account("customer");
  ledger.mint(100.0);
  ASSERT_TRUE(ledger.reward(provider, 100.0));
  ASSERT_TRUE(core::settle_sla_penalty(report, ledger, provider, customer));
  EXPECT_DOUBLE_EQ(ledger.balance(customer), report.total_penalty);
  EXPECT_DOUBLE_EQ(ledger.balance(provider), 100.0 - report.total_penalty);
}

}  // namespace
}  // namespace mpleo
