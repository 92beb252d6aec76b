// Integration tests for the §4 open-question prototypes working together:
// incentives steering placement toward holes, reputation feeding scheduler
// priority, DTN bootstrap economics, and ISL-vs-gateway substitution.
#include <gtest/gtest.h>

#include <numeric>

#include "core/mpleo.hpp"

namespace mpleo {
namespace {

const orbit::TimePoint kEpoch = orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z");

TEST(OpenQuestions, IncentiveFieldAgreesWithPlacementOptimizer) {
  // The §3.2/3.3 alignment as an executable statement: the slot the greedy
  // placement optimizer picks for coverage is also among the top earners
  // under hole-weighted rewards.
  const orbit::TimeGrid grid = orbit::TimeGrid::over_duration(kEpoch, 86400.0, 300.0);
  const cov::CoverageEngine engine(grid, 25.0);

  // Base: a single 53-deg plane -> holes at high latitude and away from the
  // plane's longitude band.
  const auto base = constellation::single_plane(550e3, 53.0, 0.0, 8, kEpoch);

  const cov::EarthGrid earth(15.0);
  const auto coverage = cov::cell_coverage(engine, earth, base);
  const auto multipliers = core::reward_multipliers(coverage, core::IncentiveConfig{});

  // Candidates: a few inclination/raan variants.
  constellation::SlotGrid slot_grid;
  slot_grid.raan_values_deg = {0.0, 90.0, 180.0};
  slot_grid.phase_values_deg = {0.0, 180.0};
  slot_grid.inclination_values_deg = {53.0, 97.6};
  slot_grid.altitude_values_m = {550e3};
  const auto slots = constellation::enumerate_slots(slot_grid);

  const auto sites = cov::sites_from_cities(cov::paper_cities());
  const core::PlacementOptimizer optimizer(engine, sites);
  const auto evals = optimizer.evaluate(base, slots, kEpoch);

  // Rank slots by coverage gain and by expected reward; top coverage pick
  // must land in the upper half of the reward ranking (they are different
  // objectives — population-weighted vs area-weighted — but §3.3 claims they
  // correlate).
  std::size_t best_cov = 0;
  for (std::size_t i = 1; i < evals.size(); ++i) {
    if (evals[i].gained_weighted_seconds > evals[best_cov].gained_weighted_seconds) {
      best_cov = i;
    }
  }
  std::vector<double> rewards(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    constellation::Satellite probe;
    probe.elements = slots[i].elements;
    probe.epoch = kEpoch;
    rewards[i] = core::expected_reward_rate(engine, earth, multipliers, probe);
  }
  std::size_t better_reward_count = 0;
  for (std::size_t i = 0; i < rewards.size(); ++i) {
    if (rewards[i] > rewards[best_cov]) ++better_reward_count;
  }
  EXPECT_LE(better_reward_count, rewards.size() / 2);
}

TEST(OpenQuestions, ReputationFeedsSchedulerPriority) {
  // A party caught forging proof-of-coverage receipts loses spare-capacity
  // priority to an honest competitor.
  core::ReputationTracker reputation(3);
  reputation.record_fraud(1, 10);  // party 1 caught forging; party 2 honest

  net::SchedulerConfig cfg;
  cfg.beams_per_satellite = 1;
  cfg.spare_priority_by_party = {reputation.priority_weight(0),
                                 reputation.priority_weight(1),
                                 reputation.priority_weight(2)};

  constellation::Satellite provider;
  provider.owner_party = 0;
  net::Terminal cheat_terminal;
  cheat_terminal.id = 0;
  cheat_terminal.location = orbit::Geodetic::from_degrees(10.0, 20.0);
  cheat_terminal.owner_party = 1;
  cheat_terminal.radio = net::default_user_terminal();
  net::Terminal honest_terminal = cheat_terminal;
  honest_terminal.id = 1;
  honest_terminal.location = orbit::Geodetic::from_degrees(10.3, 20.3);
  honest_terminal.owner_party = 2;

  auto station_for = [](std::uint32_t party, net::GroundStationId id) {
    net::GroundStation gs;
    gs.id = id;
    gs.location = orbit::Geodetic::from_degrees(10.5, 20.5);
    gs.owner_party = party;
    gs.radio = net::default_ground_station();
    return gs;
  };

  const net::BentPipeScheduler scheduler(
      cfg, {provider}, {cheat_terminal, honest_terminal},
      {station_for(1, 0), station_for(2, 1)});
  const std::vector<util::Vec3> positions{orbit::geodetic_to_ecef(
      orbit::Geodetic::from_degrees(10.2, 20.2, 550e3))};
  const net::StepSchedule schedule = scheduler.schedule_step(positions, 0);
  ASSERT_EQ(schedule.links.size(), 1u);
  EXPECT_EQ(schedule.links.front().terminal_index, 1u);  // honest party wins
}

TEST(OpenQuestions, DtnRevenueScalesWithEmissionAndDelivery) {
  // Bootstrap economics end-to-end: a sparse fleet's DTN deliveries earn
  // early-epoch emission; the treasury conserves.
  const orbit::TimeGrid grid = orbit::TimeGrid::over_duration(kEpoch, 2.0 * 86400.0, 60.0);
  const cov::CoverageEngine engine(grid, 10.0);
  const auto fleet = constellation::single_plane(550e3, 97.6, 30.0, 6, kEpoch);

  const std::vector<cov::GroundSite> endpoints{
      {"src", orbit::TopocentricFrame(orbit::Geodetic::from_degrees(69.6, 18.9)), 1.0},
      {"dst", orbit::TopocentricFrame(orbit::Geodetic::from_degrees(59.9, 10.7)), 1.0}};
  cov::StepMask up(grid.count), down(grid.count);
  for (const auto& sat : fleet) {
    const auto masks = engine.visibility_masks(sat, endpoints);
    up |= masks[0];
    down |= masks[1];
  }
  const core::DtnStats stats = core::dtn_stats(up, down, grid.step_seconds);
  ASSERT_GT(stats.delivered, 0u);
  EXPECT_LT(stats.p95_latency_s, 86400.0);  // deliveries within a day at 97.6 deg

  core::Ledger ledger;
  core::EmissionSchedule emission;
  const core::AccountId operator_account = ledger.open_account("operator");
  const double revenue_per_message = 0.001;
  const double epoch0 = emission.epoch_reward(0);
  ledger.mint(epoch0, "epoch 0");
  ASSERT_TRUE(ledger.reward(operator_account,
                            std::min(epoch0, revenue_per_message *
                                                 static_cast<double>(stats.delivered)),
                            "dtn delivery rewards"));
  EXPECT_GT(ledger.balance(operator_account), 0.0);
  EXPECT_NEAR(ledger.sum_of_balances(), ledger.total_minted(), 1e-9);
}

TEST(OpenQuestions, GovernanceGuardsSharedSatelliteThroughCampaignLifecycle) {
  // A 2-of-3 council controls a shared satellite. During a withdrawal the
  // leaving party alone still cannot deorbit it.
  core::QuorumPolicy policy;
  policy.council = {0, 1, 2};
  policy.required = 2;
  core::CommandAuthority authority(policy, 99);

  const auto cmd = authority.propose(42, core::CommandAction::kDeorbit);
  // The withdrawing party (0) tries alone.
  EXPECT_EQ(authority.approve(cmd, core::CommandAuthority::sign(
                                       cmd, 42, core::CommandAction::kDeorbit, 0,
                                       authority.party_key(0))),
            core::CommandStatus::kPending);
  // A second council member must consent.
  EXPECT_EQ(authority.approve(cmd, core::CommandAuthority::sign(
                                       cmd, 42, core::CommandAction::kDeorbit, 2,
                                       authority.party_key(2))),
            core::CommandStatus::kAuthorized);
}

TEST(OpenQuestions, IslsReduceRequiredGateways) {
  // Quantified §4 trade: with ISLs (2 hops), a single remote gateway serves
  // a terminal at least as well as bent-pipe does with the same gateway —
  // and at least as well as fewer hops.
  const orbit::TimeGrid grid = orbit::TimeGrid::over_duration(kEpoch, 6.0 * 3600.0, 300.0);
  const cov::CoverageEngine engine(grid, 25.0);
  const auto sats = constellation::single_plane(550e3, 0.0, 0.0, 24, kEpoch);
  const orbit::TopocentricFrame terminal(orbit::Geodetic::from_degrees(0.0, 100.0));
  const std::vector<cov::GroundSite> gateway{
      {"gw", orbit::TopocentricFrame(orbit::Geodetic::from_degrees(0.0, 0.0)), 1.0}};

  std::size_t previous = 0;
  for (const int hops : {0, 2, 6}) {
    net::IslConfig cfg;
    cfg.max_hops = hops;
    const std::size_t covered =
        net::isl_coverage_mask(engine, sats, terminal, gateway, cfg).count();
    EXPECT_GE(covered, previous);
    previous = covered;
  }
  EXPECT_GT(previous, 0u);  // 6 hops bridge 100 deg of longitude
}

TEST(OpenQuestions, ConjunctionScreeningDrivesCheapAvoidance) {
  // §1's sustainability pipeline end-to-end: screen a crowded shell for
  // close approaches, then check that a small altitude offset of one party
  // clears them.
  const orbit::TimeGrid screen_grid =
      orbit::TimeGrid::over_duration(kEpoch, 6000.0, 5.0);

  // Two operators deconflicted by only 500 m of altitude at the same
  // inclination — the sovereign-constellation crowding case.
  std::vector<constellation::Satellite> shell;
  auto plane_a = constellation::single_plane(550e3, 53.0, 0.0, 6, kEpoch);
  auto plane_b = constellation::single_plane(550.5e3, 53.0, 180.0, 6, kEpoch, 180.0);
  shell.insert(shell.end(), plane_a.begin(), plane_a.end());
  shell.insert(shell.end(), plane_b.begin(), plane_b.end());

  const auto hits = orbit::screen_conjunctions(shell, screen_grid, 25e3);
  ASSERT_FALSE(hits.empty());  // node crossings at ~500 m separation

  // Avoidance: raise one party 5 km past the screening threshold used above.
  auto raised = plane_b;
  for (auto& sat : raised) sat.elements.semi_major_axis_m += 25e3 + 5e3;
  std::vector<constellation::Satellite> fixed = plane_a;
  fixed.insert(fixed.end(), raised.begin(), raised.end());
  // Re-id to keep screening indices meaningful.
  for (std::size_t i = 0; i < fixed.size(); ++i) {
    fixed[i].id = static_cast<constellation::SatelliteId>(i);
  }
  const auto hits_after = orbit::screen_conjunctions(fixed, screen_grid, 25e3);
  // Cross-party approaches are gone; only same-plane neighbours could
  // remain, and those are 60 deg apart (thousands of km).
  EXPECT_TRUE(hits_after.empty());
}

TEST(OpenQuestions, SlaPenaltiesFlowIntoSettlementEconomy) {
  // QoS terms, coverage measurement, and the token ledger close the loop.
  const orbit::TimeGrid grid = orbit::TimeGrid::over_duration(kEpoch, 86400.0, 300.0);
  const cov::CoverageEngine engine(grid, 25.0);
  const auto sparse_fleet = constellation::single_plane(550e3, 53.0, 0.0, 4, kEpoch);

  const orbit::TopocentricFrame taipei_frame(cov::taipei().location);
  const cov::CoverageStats delivered =
      engine.stats(engine.coverage_mask(sparse_fleet, taipei_frame));

  core::SlaTerms premium;
  premium.min_coverage_fraction = 0.95;  // a 4-sat plane cannot deliver this
  premium.max_gap_seconds = 900.0;
  premium.penalty_per_violation = 40.0;
  const core::SlaReport report = core::evaluate_sla(premium, delivered);
  ASSERT_FALSE(report.compliant);

  core::Ledger ledger;
  ledger.mint(500.0);
  const core::AccountId provider = ledger.open_account("provider");
  const core::AccountId customer = ledger.open_account("customer");
  ASSERT_TRUE(ledger.reward(provider, 200.0));
  ASSERT_TRUE(core::settle_sla_penalty(report, ledger, provider, customer));
  EXPECT_DOUBLE_EQ(ledger.balance(customer), report.total_penalty);
  EXPECT_NEAR(ledger.sum_of_balances(), ledger.total_minted(), 1e-9);
}

}  // namespace
}  // namespace mpleo
