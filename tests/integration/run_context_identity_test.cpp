// RunContext API acceptance: driving every subsystem through a
// sim::RunContext must be bit-identical for any pool size — a serial
// (pool-less) context, a pooled one and the reference paths all produce
// the same ScheduleResult down to link ordering, the same coverage masks,
// the same SLA reports, the same campaign epochs and resilience points —
// with the metrics/trace recording observing but never perturbing.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/campaign.hpp"
#include "core/robustness.hpp"
#include "core/sla.hpp"
#include "coverage/engine.hpp"
#include "fault/timeline.hpp"
#include "net/scheduler.hpp"
#include "orbit/geodesy.hpp"
#include "sim/run_context.hpp"
#include "util/thread_pool.hpp"

namespace mpleo {
namespace {

const orbit::TimePoint kEpoch = orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z");

orbit::TimeGrid test_grid() {
  // 2 hours at 60 s: enough rises/sets to exercise own-link, spare and
  // detach paths, and enough steps to cross a StepMask word boundary.
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
  f.config.degradation.enabled = true;
  f.config.degradation.backoff_initial_steps = 2;  // a constant 2-step hold
  f.config.degradation.backoff_max_steps = 2;
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

fault::FaultTimeline make_faults(const orbit::TimeGrid& grid, const Fleet& fleet) {
  fault::FaultTimeline faults(grid, fleet.satellites.size(), fleet.stations.size());
  const double span = grid.duration_seconds();
  for (std::size_t si = 0; si < fleet.satellites.size(); si += 2) {
    const double start = 0.05 * span * static_cast<double>(si % 5);
    faults.add_satellite_outage(si, start, start + 0.25 * span);
  }
  for (std::size_t si = 1; si < fleet.satellites.size(); si += 3) {
    faults.add_transponder_degradation(si, 0.1 * span, 0.6 * span, 0.5);
  }
  faults.add_station_outage(1, 0.2 * span, 0.7 * span);
  return faults;
}

TEST(RunContextIdentity, SchedulerMatchesReference) {
  const Fleet f = make_fleet();
  const net::BentPipeScheduler scheduler(f.config, f.satellites, f.terminals,
                                         f.stations);
  const orbit::TimeGrid grid = test_grid();

  const net::ScheduleResult reference =
      scheduler.run_reference(grid, f.party_count, nullptr, /*keep_steps=*/true);

  sim::RunContext serial_context;
  const net::ScheduleResult via_serial =
      scheduler.run(grid, f.party_count, serial_context, /*keep_steps=*/true);
  EXPECT_TRUE(via_serial == reference);
  EXPECT_FALSE(serial_context.metrics().empty());
  EXPECT_EQ(serial_context.metrics().counter_value("sched.steps"), grid.count);

  sim::Scenario pooled_scenario;
  pooled_scenario.threads = 3;
  sim::RunContext pooled_context(pooled_scenario);
  const net::ScheduleResult via_pooled =
      scheduler.run(grid, f.party_count, pooled_context, /*keep_steps=*/true);
  EXPECT_TRUE(via_pooled == reference);
}

TEST(RunContextIdentity, FaultedSchedulerMatchesReference) {
  const Fleet f = make_fleet();
  const net::BentPipeScheduler scheduler(f.config, f.satellites, f.terminals,
                                         f.stations);
  const orbit::TimeGrid grid = test_grid();
  const fault::FaultTimeline faults = make_faults(grid, f);

  const net::ScheduleResult reference =
      scheduler.run_reference(grid, f.party_count, &faults, /*keep_steps=*/true);

  sim::RunContext serial_context;
  serial_context.use_faults(&faults);
  EXPECT_TRUE(scheduler.run(grid, f.party_count, serial_context, /*keep_steps=*/true) ==
              reference);

  sim::Scenario scenario;
  scenario.threads = 2;
  sim::RunContext context(scenario);
  context.use_faults(&faults);
  const net::ScheduleResult via_context =
      scheduler.run(grid, f.party_count, context, /*keep_steps=*/true);
  EXPECT_TRUE(via_context == reference);
  EXPECT_EQ(context.metrics().counter_value("sched.failure_forced_detaches"),
            reference.failure_forced_detaches);
}

TEST(RunContextIdentity, CoverageCacheMasksMatchForAnyContext) {
  const Fleet f = make_fleet();
  const cov::CoverageEngine engine(test_grid(), 25.0);
  const std::vector<cov::GroundSite> sites = {
      {"a", orbit::TopocentricFrame(orbit::Geodetic::from_degrees(10.0, 10.0)), 1.0},
      {"b", orbit::TopocentricFrame(orbit::Geodetic::from_degrees(-20.0, 40.0)), 2.0},
      {"c", orbit::TopocentricFrame(orbit::Geodetic::from_degrees(48.0, -3.0)), 1.0}};

  cov::VisibilityCache lazy(engine, f.satellites, sites);  // serial, on demand
  cov::VisibilityCache eager(engine, f.satellites, sites);
  sim::Scenario scenario;
  scenario.threads = 3;
  sim::RunContext context(scenario);
  eager.precompute_all(context);

  EXPECT_EQ(context.metrics().counter_value("cov.masks_filled"),
            f.satellites.size() * sites.size());
  for (std::size_t s = 0; s < f.satellites.size(); ++s) {
    for (std::size_t j = 0; j < sites.size(); ++j) {
      EXPECT_TRUE(lazy.mask(s, j) == eager.mask(s, j)) << "sat " << s << " site " << j;
    }
  }
}

TEST(RunContextIdentity, EphemeridesMatchForAnyPoolSize) {
  const Fleet f = make_fleet();
  const cov::CoverageEngine engine(test_grid(), 25.0);
  const std::vector<cov::GroundSite> sites = {
      {"a", orbit::TopocentricFrame(orbit::Geodetic::from_degrees(10.0, 10.0)), 1.0}};

  const orbit::EphemerisSet serial = engine.ephemerides(f.satellites);
  util::ThreadPool pool(2);
  const orbit::EphemerisSet pooled = engine.ephemerides(f.satellites, &pool);

  ASSERT_EQ(pooled.size(), serial.size());
  for (std::size_t i = 0; i < f.satellites.size(); ++i) {
    const orbit::EphemerisTable& a = serial.table(i);
    const orbit::EphemerisTable& b = pooled.table(i);
    EXPECT_TRUE(std::ranges::equal(a.x(), b.x()) && std::ranges::equal(a.y(), b.y()) &&
                std::ranges::equal(a.z(), b.z()) &&
                std::ranges::equal(a.radius_m(), b.radius_m()))
        << "sat " << i;
    const auto masks_serial = engine.visibility_masks(a, sites);
    const auto masks_pooled = engine.visibility_masks(b, sites);
    ASSERT_EQ(masks_serial.size(), masks_pooled.size());
    for (std::size_t j = 0; j < masks_serial.size(); ++j) {
      EXPECT_TRUE(masks_serial[j] == masks_pooled[j]) << "sat " << i;
    }
  }
}

TEST(RunContextIdentity, SlaReportMatchesForAnyContext) {
  const Fleet f = make_fleet();
  const cov::CoverageEngine engine(test_grid(), 25.0);
  const std::vector<cov::GroundSite> sites = {
      {"a", orbit::TopocentricFrame(orbit::Geodetic::from_degrees(10.0, 10.0)), 1.0}};
  cov::VisibilityCache serial_cache(engine, f.satellites, sites);
  cov::VisibilityCache pooled_cache(engine, f.satellites, sites);
  const std::vector<std::size_t> fleet_idx = {0, 1, 2, 3, 4, 5, 6};
  const fault::FaultTimeline faults = make_faults(engine.grid(), f);

  core::SlaTerms terms;
  terms.min_coverage_fraction = 0.5;
  terms.max_gap_seconds = 600.0;
  terms.penalty_per_violation = 25.0;

  // Serial context fills the cache lazily; pooled context precomputes the
  // masks in parallel first. The reports must match bit for bit.
  sim::RunContext serial_context;
  serial_context.use_faults(&faults);
  const core::SlaReport legacy =
      core::evaluate_sla(terms, serial_cache, fleet_idx, 0, serial_context);

  sim::Scenario pooled_scenario;
  pooled_scenario.threads = 2;
  sim::RunContext context(pooled_scenario);
  context.use_faults(&faults);
  const core::SlaReport via_context =
      core::evaluate_sla(terms, pooled_cache, fleet_idx, 0, context);

  EXPECT_EQ(via_context.compliant, legacy.compliant);
  EXPECT_EQ(via_context.total_penalty, legacy.total_penalty);
  ASSERT_EQ(via_context.violations.size(), legacy.violations.size());
  for (std::size_t i = 0; i < legacy.violations.size(); ++i) {
    EXPECT_EQ(via_context.violations[i].clause, legacy.violations[i].clause);
    EXPECT_EQ(via_context.violations[i].required, legacy.violations[i].required);
    EXPECT_EQ(via_context.violations[i].delivered, legacy.violations[i].delivered);
  }
  EXPECT_EQ(context.metrics().counter_value("sla.evaluations"), 1u);
  EXPECT_EQ(context.metrics().counter_value("sla.violations"),
            legacy.violations.size());
}

TEST(RunContextIdentity, ResilienceSweepMatchesForAnyPoolSize) {
  const Fleet f = make_fleet();
  const cov::CoverageEngine engine(test_grid(), 25.0);
  const std::vector<cov::GroundSite> sites = {
      {"a", orbit::TopocentricFrame(orbit::Geodetic::from_degrees(10.0, 10.0)), 1.0},
      {"b", orbit::TopocentricFrame(orbit::Geodetic::from_degrees(-20.0, 40.0)), 1.0}};
  cov::VisibilityCache serial_cache(engine, f.satellites, sites);
  cov::VisibilityCache pooled_cache(engine, f.satellites, sites);
  const std::vector<std::size_t> fleet_idx = {0, 1, 2, 3, 4, 5, 6, 7};

  core::ResilienceConfig config;
  config.failure_rates_per_sat_day = {0.0, 1.0, 4.0};
  config.runs = 3;
  config.seed = 7;

  sim::RunContext serial_context;  // no pool
  const std::vector<core::ResiliencePoint> serial =
      core::resilience_sweep(serial_cache, fleet_idx, config, serial_context);

  sim::Scenario scenario;
  scenario.threads = 3;
  sim::RunContext context(scenario);
  const std::vector<core::ResiliencePoint> pooled =
      core::resilience_sweep(pooled_cache, fleet_idx, config, context);

  ASSERT_EQ(pooled.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(pooled[i].mean_coverage_fraction, serial[i].mean_coverage_fraction);
    EXPECT_EQ(pooled[i].mean_served_fraction, serial[i].mean_served_fraction);
    EXPECT_EQ(pooled[i].mean_worst_gap_seconds, serial[i].mean_worst_gap_seconds);
  }
  EXPECT_EQ(context.metrics().counter_value("resilience.points"), serial.size());
  EXPECT_EQ(context.metrics().counter_value("resilience.runs"),
            serial.size() * config.runs);
  EXPECT_EQ(context.metrics().counter_value("cov.masks_filled"),
            f.satellites.size() * sites.size());
}

core::Campaign make_campaign() {
  core::Consortium consortium;
  core::Party a;
  a.name = "A";
  core::Party b;
  b.name = "B";
  const core::PartyId pa = consortium.add_party(a);
  const core::PartyId pb = consortium.add_party(b);
  consortium.contribute(pa, constellation::single_plane(550e3, 53.0, 0.0, 8, kEpoch));
  consortium.contribute(pb,
                        constellation::single_plane(550e3, 53.0, 90.0, 4, kEpoch, 10.0));

  std::vector<net::Terminal> terminals;
  std::vector<net::GroundStation> stations;
  for (std::uint32_t p = 0; p < 2; ++p) {
    net::Terminal t;
    t.id = p;
    t.owner_party = p;
    t.location = orbit::Geodetic::from_degrees(10.0 + 20.0 * p, 15.0 + 30.0 * p);
    t.radio = net::default_user_terminal();
    terminals.push_back(t);
    net::GroundStation gs;
    gs.id = p;
    gs.owner_party = p;
    gs.location = orbit::Geodetic::from_degrees(12.0 + 20.0 * p, 13.0 + 30.0 * p);
    gs.radio = net::default_ground_station();
    stations.push_back(gs);
  }
  core::CampaignConfig config;
  config.start = kEpoch;
  config.epoch_duration_s = 6.0 * 3600.0;
  config.step_s = 300.0;
  return core::Campaign(std::move(consortium), terminals, stations, config, 42);
}

TEST(RunContextIdentity, CampaignEpochMatchesForAnyPoolSize) {
  core::Campaign serial_campaign = make_campaign();
  core::Campaign context_campaign = make_campaign();
  sim::RunContext serial_context;  // no pool
  sim::Scenario scenario;
  scenario.threads = 2;
  sim::RunContext context(scenario);

  for (int epoch = 0; epoch < 2; ++epoch) {
    const core::EpochReport legacy = serial_campaign.run_epoch(serial_context);
    const core::EpochReport via_context = context_campaign.run_epoch(context);
    EXPECT_EQ(via_context.epoch, legacy.epoch);
    EXPECT_EQ(via_context.total_served_seconds, legacy.total_served_seconds);
    EXPECT_EQ(via_context.total_unserved_seconds, legacy.total_unserved_seconds);
    EXPECT_EQ(via_context.service_fairness, legacy.service_fairness);
    EXPECT_EQ(via_context.settlement.total_cleared, legacy.settlement.total_cleared);
    EXPECT_EQ(via_context.emission_minted, legacy.emission_minted);
    EXPECT_EQ(via_context.poc_valid, legacy.poc_valid);
    EXPECT_EQ(via_context.poc_rejected, legacy.poc_rejected);
    EXPECT_EQ(via_context.balances, legacy.balances);
    EXPECT_EQ(via_context.active_satellites, legacy.active_satellites);
  }
  EXPECT_EQ(context.metrics().counter_value("campaign.epochs"), 2u);
  const std::vector<sim::TraceEvent>& events = context.trace().events();
  EXPECT_EQ(std::count_if(events.begin(), events.end(),
                          [](const sim::TraceEvent& e) { return e.category == "campaign"; }),
            2);
}

}  // namespace
}  // namespace mpleo
