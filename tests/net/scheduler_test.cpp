#include "net/scheduler.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "orbit/geodesy.hpp"
#include "sim/run_context.hpp"

namespace mpleo::net {
namespace {

using constellation::Satellite;
using util::Vec3;

Terminal make_terminal(double lat, double lon, std::uint32_t party, TerminalId id = 0) {
  Terminal t;
  t.id = id;
  t.name = "T" + std::to_string(id);
  t.location = orbit::Geodetic::from_degrees(lat, lon);
  t.owner_party = party;
  t.radio = default_user_terminal();
  return t;
}

GroundStation make_station(double lat, double lon, std::uint32_t party,
                           GroundStationId id = 0) {
  GroundStation gs;
  gs.id = id;
  gs.name = "G" + std::to_string(id);
  gs.location = orbit::Geodetic::from_degrees(lat, lon);
  gs.owner_party = party;
  gs.radio = default_ground_station();
  return gs;
}

Satellite owned_satellite(std::uint32_t party) {
  Satellite sat;
  sat.owner_party = party;
  sat.elements = orbit::ClassicalElements::circular(550e3, 53.0, 0.0, 0.0);
  return sat;
}

// A satellite position 550 km above the given geodetic point.
Vec3 overhead_of(double lat, double lon) {
  return orbit::geodetic_to_ecef(orbit::Geodetic::from_degrees(lat, lon, 550e3));
}

TEST(ScheduleStep, AssignsVisibleSatellite) {
  SchedulerConfig cfg;
  const BentPipeScheduler scheduler(cfg, {owned_satellite(0)},
                                    {make_terminal(10.0, 20.0, 0)},
                                    {make_station(10.5, 20.5, 0)});
  const std::vector<Vec3> positions{overhead_of(10.2, 20.2)};
  const StepSchedule schedule = scheduler.schedule_step(positions, 0);
  ASSERT_EQ(schedule.links.size(), 1u);
  EXPECT_TRUE(schedule.unserved_terminals.empty());
  const LinkAssignment& link = schedule.links.front();
  EXPECT_EQ(link.terminal_index, 0u);
  EXPECT_EQ(link.satellite_index, 0u);
  EXPECT_FALSE(link.spare);
  EXPECT_GT(link.capacity_bps, 0.0);
}

TEST(ScheduleStep, NoLinkWithoutGroundStationVisibility) {
  // Bent-pipe requires simultaneous visibility; the GS is on the other side
  // of the planet.
  SchedulerConfig cfg;
  const BentPipeScheduler scheduler(cfg, {owned_satellite(0)},
                                    {make_terminal(10.0, 20.0, 0)},
                                    {make_station(-10.0, -160.0, 0)});
  const std::vector<Vec3> positions{overhead_of(10.0, 20.0)};
  const StepSchedule schedule = scheduler.schedule_step(positions, 0);
  EXPECT_TRUE(schedule.links.empty());
  ASSERT_EQ(schedule.unserved_terminals.size(), 1u);
}

TEST(ScheduleStep, ForeignGroundStationDoesNotServe) {
  // The only GS in range belongs to another party: a participant's terminals
  // connect to their *own* ground stations (§3.1).
  SchedulerConfig cfg;
  const BentPipeScheduler scheduler(cfg, {owned_satellite(0)},
                                    {make_terminal(10.0, 20.0, 0)},
                                    {make_station(10.5, 20.5, /*party=*/1)});
  const std::vector<Vec3> positions{overhead_of(10.2, 20.2)};
  EXPECT_TRUE(scheduler.schedule_step(positions, 0).links.empty());
}

TEST(ScheduleStep, SpareCapacityServesOtherParty) {
  // Party 1 has a terminal + GS but no satellite; party 0's satellite serves
  // it on spare capacity.
  SchedulerConfig cfg;
  const BentPipeScheduler scheduler(cfg, {owned_satellite(0)},
                                    {make_terminal(10.0, 20.0, 1)},
                                    {make_station(10.5, 20.5, 1)});
  const std::vector<Vec3> positions{overhead_of(10.2, 20.2)};
  const StepSchedule schedule = scheduler.schedule_step(positions, 0);
  ASSERT_EQ(schedule.links.size(), 1u);
  EXPECT_TRUE(schedule.links.front().spare);
}

TEST(ScheduleStep, SpareExcludedPartyTakesNothingFromCommons) {
  // Same single-satellite geometry as SpareCapacityServesOtherParty, but
  // party 1 is spare-banned: its terminal goes unserved even though capacity
  // is free.
  SchedulerConfig cfg;
  cfg.spare_exclude_party = {0, 1};
  const BentPipeScheduler scheduler(cfg, {owned_satellite(0)},
                                    {make_terminal(10.0, 20.0, 1)},
                                    {make_station(10.5, 20.5, 1)});
  const std::vector<Vec3> positions{overhead_of(10.2, 20.2)};
  const StepSchedule schedule = scheduler.schedule_step(positions, 0);
  EXPECT_TRUE(schedule.links.empty());
  ASSERT_EQ(schedule.unserved_terminals.size(), 1u);
}

TEST(ScheduleStep, SpareExcludedPartyOffersNothingButServesItself) {
  // The satellite owner is spare-banned: others get nothing from its beams,
  // while its own terminal keeps full service (graceful, not a blackout).
  SchedulerConfig cfg;
  cfg.spare_exclude_party = {1, 0};
  const BentPipeScheduler scheduler(
      cfg, {owned_satellite(0)},
      {make_terminal(10.0, 20.0, 1, 0), make_terminal(10.3, 20.3, 0, 1)},
      {make_station(10.5, 20.5, 0, 0), make_station(10.6, 20.6, 1, 1)});
  const std::vector<Vec3> positions{overhead_of(10.2, 20.2)};
  const StepSchedule schedule = scheduler.schedule_step(positions, 0);
  ASSERT_EQ(schedule.links.size(), 1u);
  EXPECT_EQ(schedule.links.front().terminal_index, 1u);  // owner still served
  EXPECT_FALSE(schedule.links.front().spare);
  EXPECT_EQ(schedule.unserved_terminals.size(), 1u);  // party 1 shut out
}

TEST(ScheduleStep, AllZeroExclusionVectorChangesNothing) {
  SchedulerConfig plain;
  SchedulerConfig governed;
  governed.spare_exclude_party = {0, 0};
  governed.spare_withheld_fraction = {0.0, 0.0};
  const std::vector<Satellite> sats{owned_satellite(0)};
  const std::vector<Terminal> terminals{make_terminal(10.0, 20.0, 1)};
  const std::vector<GroundStation> stations{make_station(10.5, 20.5, 1)};
  const BentPipeScheduler a(plain, sats, terminals, stations);
  const BentPipeScheduler b(governed, sats, terminals, stations);
  const std::vector<Vec3> positions{overhead_of(10.2, 20.2)};
  const StepSchedule sa = a.schedule_step(positions, 0);
  const StepSchedule sb = b.schedule_step(positions, 0);
  ASSERT_EQ(sa.links.size(), sb.links.size());
  ASSERT_EQ(sa.links.size(), 1u);
  EXPECT_EQ(sa.links.front().terminal_index, sb.links.front().terminal_index);
  EXPECT_EQ(sa.unserved_terminals, sb.unserved_terminals);
}

TEST(ScheduleStep, WithheldFractionReservesSpareBeams) {
  // Party 0 withholds half its 2 beams: 1 beam stays reserved for its own
  // traffic, so of two foreign terminals in range only one rides spare.
  SchedulerConfig cfg;
  cfg.beams_per_satellite = 2;
  cfg.spare_withheld_fraction = {0.5, 0.0};
  const BentPipeScheduler scheduler(
      cfg, {owned_satellite(0)},
      {make_terminal(10.0, 20.0, 1, 0), make_terminal(10.3, 20.3, 1, 1)},
      {make_station(10.5, 20.5, 1)});
  const std::vector<Vec3> positions{overhead_of(10.2, 20.2)};
  const StepSchedule schedule = scheduler.schedule_step(positions, 0);
  EXPECT_EQ(schedule.links.size(), 1u);
  EXPECT_EQ(schedule.unserved_terminals.size(), 1u);

  // Full withholding starves the commons entirely.
  cfg.spare_withheld_fraction = {1.0, 0.0};
  const BentPipeScheduler hoarder(
      cfg, {owned_satellite(0)},
      {make_terminal(10.0, 20.0, 1, 0), make_terminal(10.3, 20.3, 1, 1)},
      {make_station(10.5, 20.5, 1)});
  EXPECT_TRUE(hoarder.schedule_step(positions, 0).links.empty());
}

TEST(ScheduleStep, WithheldBeamsStayAvailableToOwner) {
  // Withholding reserves beams from the COMMONS, not from the owner: party
  // 0's own terminals still use all beams.
  SchedulerConfig cfg;
  cfg.beams_per_satellite = 2;
  cfg.spare_withheld_fraction = {1.0};
  const BentPipeScheduler scheduler(
      cfg, {owned_satellite(0)},
      {make_terminal(10.0, 20.0, 0, 0), make_terminal(10.3, 20.3, 0, 1)},
      {make_station(10.5, 20.5, 0)});
  const std::vector<Vec3> positions{overhead_of(10.2, 20.2)};
  EXPECT_EQ(scheduler.schedule_step(positions, 0).links.size(), 2u);
}

TEST(Scheduler, RejectsInvalidWithheldFractions) {
  const std::vector<Satellite> sats{owned_satellite(0)};
  const std::vector<Terminal> terminals{make_terminal(10.0, 20.0, 0)};
  const std::vector<GroundStation> stations{make_station(10.5, 20.5, 0)};
  for (const double bad : {-0.1, 1.5, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    SchedulerConfig cfg;
    cfg.spare_withheld_fraction = {bad};
    EXPECT_THROW(BentPipeScheduler(cfg, sats, terminals, stations),
                 std::invalid_argument);
  }
}

TEST(ScheduleStep, OwnerHasPriorityOverSpare) {
  // One beam, one satellite owned by party 0; both parties have a terminal
  // in range. The owner's terminal wins the beam.
  SchedulerConfig cfg;
  cfg.beams_per_satellite = 1;
  const BentPipeScheduler scheduler(
      cfg, {owned_satellite(0)},
      {make_terminal(10.0, 20.0, 1, 0), make_terminal(10.3, 20.3, 0, 1)},
      {make_station(10.5, 20.5, 0, 0), make_station(10.6, 20.6, 1, 1)});
  const std::vector<Vec3> positions{overhead_of(10.2, 20.2)};
  const StepSchedule schedule = scheduler.schedule_step(positions, 0);
  ASSERT_EQ(schedule.links.size(), 1u);
  EXPECT_EQ(schedule.links.front().terminal_index, 1u);  // the owner's terminal
  EXPECT_FALSE(schedule.links.front().spare);
  ASSERT_EQ(schedule.unserved_terminals.size(), 1u);
  EXPECT_EQ(schedule.unserved_terminals.front(), 0u);
}

TEST(ScheduleStep, BeamLimitCapsAssignments) {
  SchedulerConfig cfg;
  cfg.beams_per_satellite = 2;
  std::vector<Terminal> terminals;
  for (int i = 0; i < 5; ++i) {
    terminals.push_back(make_terminal(10.0 + 0.1 * i, 20.0, 0, static_cast<TerminalId>(i)));
  }
  const BentPipeScheduler scheduler(cfg, {owned_satellite(0)}, terminals,
                                    {make_station(10.5, 20.5, 0)});
  const std::vector<Vec3> positions{overhead_of(10.2, 20.2)};
  const StepSchedule schedule = scheduler.schedule_step(positions, 0);
  EXPECT_EQ(schedule.links.size(), 2u);
  EXPECT_EQ(schedule.unserved_terminals.size(), 3u);
}

TEST(Run, AggregatesOverGrid) {
  SchedulerConfig cfg;
  // Party 0: satellite + terminal + GS near Taipei. Party 1: terminal + GS
  // only (rides spare capacity).
  std::vector<Satellite> sats;
  for (double raan : {0.0, 45.0, 90.0, 135.0, 180.0, 225.0, 270.0, 315.0}) {
    Satellite s = owned_satellite(0);
    s.elements = orbit::ClassicalElements::circular(550e3, 53.0, raan, raan);
    s.epoch = orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z");
    sats.push_back(s);
  }
  const std::vector<Terminal> terminals{make_terminal(25.0, 121.5, 0, 0),
                                        make_terminal(25.1, 121.6, 1, 1)};
  const std::vector<GroundStation> stations{make_station(24.9, 121.4, 0, 0),
                                            make_station(25.2, 121.7, 1, 1)};
  const BentPipeScheduler scheduler(cfg, sats, terminals, stations);

  const orbit::TimeGrid grid = orbit::TimeGrid::over_duration(
      orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z"), 86400.0, 120.0);
  sim::RunContext context;
  const ScheduleResult result = scheduler.run(grid, 2, context);

  ASSERT_EQ(result.per_party.size(), 2u);
  // Party 0 used its own satellites.
  EXPECT_GT(result.per_party[0].own_link_seconds, 0.0);
  // Party 1 rode spare capacity provided by party 0.
  EXPECT_GT(result.per_party[1].spare_used_seconds, 0.0);
  EXPECT_GT(result.per_party[0].spare_provided_seconds, 0.0);
  EXPECT_NEAR(result.per_party[0].spare_provided_seconds,
              result.per_party[1].spare_used_seconds, 1e-9);
  EXPECT_GT(result.per_party[1].bytes_received_from_others, 0.0);
  // With only 8 satellites most of the day is unserved.
  EXPECT_GT(result.total_unserved_seconds, 0.0);
  // Conservation: served + unserved = terminals * window.
  EXPECT_NEAR(result.total_served_seconds + result.total_unserved_seconds,
              2.0 * grid.duration_seconds(), 1e-6);
}

TEST(Run, KeepStepsRetainsSchedules) {
  SchedulerConfig cfg;
  const BentPipeScheduler scheduler(cfg, {owned_satellite(0)},
                                    {make_terminal(25.0, 121.5, 0)},
                                    {make_station(24.9, 121.4, 0)});
  const orbit::TimeGrid grid = orbit::TimeGrid::over_duration(
      orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z"), 3600.0, 60.0);
  sim::RunContext context;
  const ScheduleResult result = scheduler.run(grid, 1, context, /*keep_steps=*/true);
  EXPECT_EQ(result.steps.size(), grid.count);
}

// Identity checks (chaos_sweep's empty-book gate, the pipeline/reference
// suites) compare whole results, so a difference in any one field — the
// optional RF and SLO sections included — must make two results unequal.
TEST(ScheduleResult, EqualityComparesEveryField) {
  ScheduleResult base;
  base.steps.push_back({0, {{0, 1, 2, 5e7, true}}, {3}});
  base.per_party.resize(2);
  base.per_party[1].spare_used_seconds = 60.0;
  base.total_served_seconds = 60.0;

  std::vector<void (*)(ScheduleResult&)> edits{
      [](ScheduleResult& r) { r.steps.front().links.front().capacity_bps = 4e7; },
      [](ScheduleResult& r) { r.steps.front().links.front().spare = false; },
      [](ScheduleResult& r) { r.steps.front().unserved_terminals.clear(); },
      [](ScheduleResult& r) { r.per_party[0].spare_provided_seconds = 60.0; },
      [](ScheduleResult& r) { r.per_party[0].bytes_carried_for_others = 1.0; },
      [](ScheduleResult& r) { r.per_party[1].bytes_received_from_others = 1.0; },
      [](ScheduleResult& r) { r.total_unserved_seconds = 60.0; },
      [](ScheduleResult& r) { r.failure_forced_detaches = 1; },
      [](ScheduleResult& r) { r.reacquisition_wait_seconds = 60.0; },
      [](ScheduleResult& r) { r.rf.emplace(); },
      [](ScheduleResult& r) { r.slo.emplace(); },
  };
  ASSERT_TRUE(base == base);
  for (std::size_t i = 0; i < edits.size(); ++i) {
    ScheduleResult edited = base;
    edits[i](edited);
    EXPECT_FALSE(edited == base) << "edit " << i;
  }
}

TEST(Run, RejectsOutOfRangeOwners) {
  SchedulerConfig cfg;
  const BentPipeScheduler scheduler(cfg, {owned_satellite(3)},
                                    {make_terminal(25.0, 121.5, 0)},
                                    {make_station(24.9, 121.4, 0)});
  const orbit::TimeGrid grid = orbit::TimeGrid::over_duration(
      orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z"), 600.0, 60.0);
  sim::RunContext context;
  EXPECT_THROW((void)scheduler.run(grid, 2, context), std::invalid_argument);
}

TEST(ScheduleStep, SparePriorityOrdersContention) {
  // One beam of spare capacity, two foreign terminals competing. Without
  // weights, the lower terminal index wins; with reputation weights, the
  // higher-weight party wins regardless of index.
  SchedulerConfig cfg;
  cfg.beams_per_satellite = 1;
  const std::vector<Satellite> sats{owned_satellite(0)};
  const std::vector<Terminal> terminals{make_terminal(10.0, 20.0, 1, 0),
                                        make_terminal(10.3, 20.3, 2, 1)};
  const std::vector<GroundStation> stations{make_station(10.5, 20.5, 1, 0),
                                            make_station(10.6, 20.6, 2, 1)};
  const std::vector<Vec3> positions{overhead_of(10.2, 20.2)};

  const BentPipeScheduler fifo(cfg, sats, terminals, stations);
  const StepSchedule fifo_schedule = fifo.schedule_step(positions, 0);
  ASSERT_EQ(fifo_schedule.links.size(), 1u);
  EXPECT_EQ(fifo_schedule.links.front().terminal_index, 0u);

  cfg.spare_priority_by_party = {1.0, 0.2, 0.9};  // party 2 outranks party 1
  const BentPipeScheduler weighted(cfg, sats, terminals, stations);
  const StepSchedule weighted_schedule = weighted.schedule_step(positions, 0);
  ASSERT_EQ(weighted_schedule.links.size(), 1u);
  EXPECT_EQ(weighted_schedule.links.front().terminal_index, 1u);
  EXPECT_TRUE(weighted_schedule.links.front().spare);
}

TEST(ScheduleStep, SparePriorityNeverBlocksOwnService) {
  // Even with zero spare priority, a party's own satellites serve it.
  SchedulerConfig cfg;
  cfg.spare_priority_by_party = {0.0};
  const BentPipeScheduler scheduler(cfg, {owned_satellite(0)},
                                    {make_terminal(10.0, 20.0, 0)},
                                    {make_station(10.5, 20.5, 0)});
  const std::vector<Vec3> positions{overhead_of(10.2, 20.2)};
  const StepSchedule schedule = scheduler.schedule_step(positions, 0);
  ASSERT_EQ(schedule.links.size(), 1u);
  EXPECT_FALSE(schedule.links.front().spare);
}

TEST(Scheduler, RejectsInvalidSparePriorityWeights) {
  const std::vector<Satellite> sats{owned_satellite(0)};
  const std::vector<Terminal> terminals{make_terminal(10.0, 20.0, 0)};
  const std::vector<GroundStation> stations{make_station(10.5, 20.5, 0)};

  SchedulerConfig cfg;
  cfg.spare_priority_by_party = {std::nan("")};
  EXPECT_THROW(BentPipeScheduler(cfg, sats, terminals, stations), std::invalid_argument);

  cfg.spare_priority_by_party = {std::numeric_limits<double>::infinity()};
  EXPECT_THROW(BentPipeScheduler(cfg, sats, terminals, stations), std::invalid_argument);

  cfg.spare_priority_by_party = {-0.5};
  EXPECT_THROW(BentPipeScheduler(cfg, sats, terminals, stations), std::invalid_argument);
}

TEST(Scheduler, NonEmptySparePriorityMustCoverEveryParty) {
  SchedulerConfig cfg;
  cfg.spare_priority_by_party = {1.0, 0.5};  // covers parties 0 and 1 only

  // Terminal owned by party 2: uncovered.
  EXPECT_THROW(BentPipeScheduler(cfg, {owned_satellite(0)},
                                 {make_terminal(10.0, 20.0, 2)},
                                 {make_station(10.5, 20.5, 0)}),
               std::invalid_argument);

  // Satellite owned by party 2: uncovered.
  EXPECT_THROW(BentPipeScheduler(cfg, {owned_satellite(2)},
                                 {make_terminal(10.0, 20.0, 0)},
                                 {make_station(10.5, 20.5, 0)}),
               std::invalid_argument);

  // Unowned satellites are exempt from coverage, and an empty weight vector
  // (FIFO) never restricts party indices.
  EXPECT_NO_THROW(BentPipeScheduler(cfg, {owned_satellite(Satellite::kUnowned)},
                                    {make_terminal(10.0, 20.0, 1)},
                                    {make_station(10.5, 20.5, 1)}));
  cfg.spare_priority_by_party.clear();
  EXPECT_NO_THROW(BentPipeScheduler(cfg, {owned_satellite(7)},
                                    {make_terminal(10.0, 20.0, 5)},
                                    {make_station(10.5, 20.5, 5)}));
}

TEST(Scheduler, RejectsZeroBeams) {
  SchedulerConfig cfg;
  cfg.beams_per_satellite = 0;
  EXPECT_THROW(BentPipeScheduler(cfg, {}, {}, {}), std::invalid_argument);
}

}  // namespace
}  // namespace mpleo::net
