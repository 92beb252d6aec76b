// Audit-path contracts of the epoch ephemeris: the campaign audits every
// receipt against tables built once per epoch, and the result must be the
// one the per-(satellite, verifier) overhead masks gave.
//
//   * Golden: per-party PartyAuditStats of a 4-epoch campaign armed with the
//     `mixed` book, RF and the Doppler stage, recorded from the per-pair mask
//     prescreen and pinned for a serial and a pooled run.
//   * One-bit prescreen: on a prepared grid, overhead_at_step equals a fresh
//     overhead_steps(...).test(step) from an unprepared ProofOfCoverage, for
//     random claims including out-of-grid steps and unknown ids, on both
//     backends.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "adversary/audit.hpp"
#include "adversary/policy.hpp"
#include "constellation/population.hpp"
#include "constellation/shell.hpp"
#include "core/campaign.hpp"
#include "core/proof_of_coverage.hpp"
#include "orbit/backend.hpp"
#include "rf/spectrum_plan.hpp"
#include "sim/run_context.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mpleo::core {
namespace {

const orbit::TimePoint kEpoch = orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z");

// Eight parties of one 8-satellite plane each, 96 population-sampled
// terminals and 16 stations; 5 of 8 parties Byzantine, so every behavior of
// the `mixed` book is drawn once.
Campaign make_armed_campaign() {
  Consortium consortium;
  for (std::uint32_t p = 0; p < 8; ++p) {
    Party party;
    party.name = "party-" + std::to_string(p);
    const PartyId id = consortium.add_party(party);
    const double k = static_cast<double>(p);
    (void)consortium.contribute(
        id, constellation::single_plane(550e3 + 15e3 * k, 53.0, 45.0 * k, 8, kEpoch, 7.0 * k));
  }
  const constellation::PopulationSampler sampler;
  const std::vector<orbit::Geodetic> terminal_sites = sampler.sample(96, 11);
  const std::vector<orbit::Geodetic> station_sites = sampler.sample(16, 12);
  std::vector<net::Terminal> terminals(terminal_sites.size());
  for (std::uint32_t i = 0; i < terminals.size(); ++i) {
    terminals[i].id = i;
    terminals[i].owner_party = i % 8;
    terminals[i].location = terminal_sites[i];
    terminals[i].radio = net::default_user_terminal();
  }
  std::vector<net::GroundStation> stations(station_sites.size());
  for (std::uint32_t i = 0; i < stations.size(); ++i) {
    stations[i].id = i;
    stations[i].owner_party = i % 8;
    stations[i].location = station_sites[i];
    stations[i].radio = net::default_ground_station();
  }
  CampaignConfig config;
  config.start = kEpoch;
  config.epoch_duration_s = 3.0 * 3600.0;
  config.step_s = 60.0;
  Campaign campaign(std::move(consortium), std::move(terminals), std::move(stations),
                    config, /*seed=*/21);
  adversary::AuditConfig audit;
  audit.doppler.enabled = true;
  campaign.arm_adversaries(
      adversary::BehaviorBook::sample(8, 0.625,
                                      adversary::mix_for_mode(sim::AdversaryMode::kMixed),
                                      1.0, /*receipts_per_epoch=*/6, /*seed=*/5),
      audit);
  campaign.arm_rf(rf::SpectrumConfig{});
  return campaign;
}

TEST(CampaignAuditGolden, PartyAuditStatsMatchRecorded) {
  // Recorded from the per-pair mask prescreen (one overhead mask per
  // (satellite, verifier) pair, propagated per pair). Field order:
  // submitted, credited, rejected_digest, rejected_geometry,
  // unsolicited_geometry, rejected_duplicate, rejected_unknown,
  // sla_misreports, doppler_checked, rf_doppler_rejections,
  // rf_interference_violations, prescreen_flagged, prescreen_mismatches.
  const std::vector<adversary::PartyAuditStats> recorded = {
      {168, 2, 0, 166, 0, 0, 0, 0, 2, 0, 0, 166, 0},   // honest
      {225, 3, 0, 216, 18, 0, 0, 0, 9, 6, 0, 217, 1},  // forge_receipts
      {204, 7, 0, 197, 0, 0, 0, 0, 7, 0, 0, 197, 0},   // honest
      {208, 4, 0, 180, 0, 0, 0, 0, 28, 24, 0, 185, 7}, // inflate_receipts
      {184, 4, 0, 180, 0, 0, 0, 0, 4, 0, 0, 180, 0},   // honest
      {211, 5, 0, 199, 17, 0, 0, 0, 12, 7, 0, 200, 1}, // collude
      {202, 4, 0, 198, 0, 0, 0, 0, 4, 0, 0, 198, 0},   // withhold_capacity
      {206, 5, 0, 201, 0, 0, 0, 4, 4, 0, 0, 201, 2},   // misreport_sla
  };
  for (const std::size_t threads : {1u, 3u}) {
    sim::Scenario scenario;
    scenario.threads = threads;
    sim::RunContext context(scenario);
    Campaign campaign = make_armed_campaign();
    for (int epoch = 0; epoch < 4; ++epoch) (void)campaign.run_epoch(context);
    const std::vector<adversary::PartyAuditStats>& stats = campaign.auditor().all_stats();
    ASSERT_EQ(stats.size(), recorded.size());
    for (std::size_t p = 0; p < stats.size(); ++p) {
      EXPECT_TRUE(stats[p] == recorded[p]) << "party " << p << " threads " << threads;
    }
  }
}

// Twelve satellites over two planes (one eccentric, so the J2 fill leaves
// the lane-batched kernel for it), 20 verifiers, and a 3 h grid starting
// 10 min after the satellites' epoch.
struct EpochTableFixture {
  std::vector<constellation::Satellite> satellites;
  std::vector<orbit::Geodetic> verifiers;
  orbit::TimeGrid grid = orbit::TimeGrid::over_duration(kEpoch.plus_seconds(600.0),
                                                        3.0 * 3600.0, 60.0);

  EpochTableFixture() {
    satellites = constellation::single_plane(550e3, 53.0, 0.0, 6, kEpoch);
    for (const constellation::Satellite& sat :
         constellation::single_plane(1200e3, 97.6, 40.0, 6, kEpoch, 11.0)) {
      satellites.push_back(sat);
    }
    for (std::size_t i = 0; i < satellites.size(); ++i) {
      satellites[i].id = static_cast<constellation::SatelliteId>(100 + i);
    }
    satellites[3].elements.eccentricity = 0.02;
    verifiers = constellation::PopulationSampler{}.sample(20, 3);
  }

  void register_all(ProofOfCoverage& poc) const {
    for (const constellation::Satellite& sat : satellites) {
      (void)poc.register_satellite(sat, /*consortium_seed=*/9);
    }
    for (const orbit::Geodetic& site : verifiers) (void)poc.register_verifier(site);
  }
};

class ProofOfCoverageEpochTables
    : public ::testing::TestWithParam<orbit::PropagatorBackend> {};

TEST_P(ProofOfCoverageEpochTables, OneBitPrescreenMatchesFreshOverheadSteps) {
  const EpochTableFixture fx;
  ProofOfCoverage::Config config;
  config.propagator_backend = GetParam();
  ProofOfCoverage prepared(config);
  ProofOfCoverage fresh(config);
  fx.register_all(prepared);
  fx.register_all(fresh);
  util::ThreadPool pool(2);
  prepared.prepare_grid(fx.grid, &pool);

  // Whole masks first: the table read and the per-pair fill agree bit for
  // bit on every pair.
  std::map<std::pair<constellation::SatelliteId, std::uint32_t>, cov::StepMask> masks;
  for (const constellation::Satellite& sat : fx.satellites) {
    for (std::uint32_t v = 0; v < fx.verifiers.size(); ++v) {
      cov::StepMask mask = fresh.overhead_steps(sat.id, v, fx.grid);
      EXPECT_TRUE(prepared.overhead_steps(sat.id, v, fx.grid) == mask)
          << "satellite " << sat.id << " verifier " << v;
      masks.emplace(std::pair{sat.id, v}, std::move(mask));
    }
  }
  // A grid other than the prepared one (same length, 30 s later) bypasses
  // the epoch tables.
  const orbit::TimeGrid shifted{fx.grid.start.plus_seconds(30.0), fx.grid.step_seconds,
                                fx.grid.count};
  std::size_t shifted_differs = 0;
  for (const constellation::Satellite& sat : fx.satellites) {
    for (std::uint32_t v = 0; v < fx.verifiers.size(); ++v) {
      const cov::StepMask mask = fresh.overhead_steps(sat.id, v, shifted);
      EXPECT_TRUE(prepared.overhead_steps(sat.id, v, shifted) == mask);
      shifted_differs += mask == masks.at({sat.id, v}) ? 0 : 1;
    }
  }
  EXPECT_GT(shifted_differs, 0u);

  // Random claims: 10% unknown satellites, 5% unknown verifiers, times
  // from 30 min before the grid to 30 min past its end.
  util::Xoshiro256PlusPlus rng(GetParam() == orbit::PropagatorBackend::kSgp4 ? 2 : 1);
  const double span_s = fx.grid.duration_seconds();
  std::size_t before = 0, after = 0, unknown = 0, overhead = 0, clear = 0;
  for (int i = 0; i < 4000; ++i) {
    const constellation::SatelliteId sat =
        rng.uniform(0.0, 1.0) < 0.1
            ? constellation::SatelliteId{999}
            : fx.satellites[rng.uniform_index(fx.satellites.size())].id;
    const auto verifier = static_cast<std::uint32_t>(
        rng.uniform(0.0, 1.0) < 0.05 ? fx.verifiers.size()
                                     : rng.uniform_index(fx.verifiers.size()));
    const double offset_s = rng.uniform(-1800.0, span_s + 1800.0);
    const auto step =
        static_cast<std::int64_t>(std::floor(offset_s / fx.grid.step_seconds));
    const std::optional<bool> bit = prepared.overhead_at_step(sat, verifier, fx.grid, step);
    const auto mask = masks.find({sat, verifier});
    if (mask == masks.end()) {
      EXPECT_FALSE(bit.has_value()) << "satellite " << sat << " verifier " << verifier;
      EXPECT_THROW((void)fresh.overhead_steps(sat, verifier, fx.grid),
                   std::invalid_argument);
      ++unknown;
      continue;
    }
    ASSERT_TRUE(bit.has_value());
    const bool in_grid = step >= 0 && static_cast<std::uint64_t>(step) < fx.grid.count;
    const bool expected = in_grid && mask->second.test(static_cast<std::size_t>(step));
    EXPECT_EQ(*bit, expected) << "satellite " << sat << " verifier " << verifier
                              << " step " << step;
    // Unprepared grids answer the same bit through a per-satellite fill.
    EXPECT_EQ(fresh.overhead_at_step(sat, verifier, fx.grid, step), bit);
    before += step < 0 ? 1 : 0;
    after += step >= static_cast<std::int64_t>(fx.grid.count) ? 1 : 0;
    (*bit ? overhead : clear) += 1;
  }
  // Every branch was exercised.
  EXPECT_GT(before, 0u);
  EXPECT_GT(after, 0u);
  EXPECT_GT(unknown, 0u);
  EXPECT_GT(overhead, 0u);
  EXPECT_GT(clear, 0u);
}

TEST_P(ProofOfCoverageEpochTables, RegisteringAfterPrepareDropsTheTables) {
  const EpochTableFixture fx;
  ProofOfCoverage::Config config;
  config.propagator_backend = GetParam();
  ProofOfCoverage poc(config);
  fx.register_all(poc);
  poc.prepare_grid(fx.grid);
  constellation::Satellite late = fx.satellites.front();
  late.id = 500;
  (void)poc.register_satellite(late, 9);
  // The late satellite has no prepared table; the answer still comes from a
  // fresh fill and matches its twin's (same elements, same epoch).
  EXPECT_TRUE(poc.overhead_steps(late.id, 0, fx.grid) ==
              poc.overhead_steps(fx.satellites.front().id, 0, fx.grid));
}

INSTANTIATE_TEST_SUITE_P(Backends, ProofOfCoverageEpochTables,
                         ::testing::Values(orbit::PropagatorBackend::kJ2Analytic,
                                           orbit::PropagatorBackend::kSgp4),
                         [](const ::testing::TestParamInfo<orbit::PropagatorBackend>& info) {
                           return std::string(orbit::to_string(info.param));
                         });

// The auditor's prescreen through the one-bit read: identical telemetry on a
// prepared and an unprepared ProofOfCoverage, with out-of-grid claims
// flagged and unknown ids not prescreened at all.
TEST(ReceiptAuditorPrescreen, PreparedGridKeepsTelemetry) {
  const EpochTableFixture fx;
  ProofOfCoverage prepared(ProofOfCoverage::Config{});
  ProofOfCoverage fresh(ProofOfCoverage::Config{});
  std::vector<std::uint64_t> keys;
  for (const constellation::Satellite& sat : fx.satellites) {
    keys.push_back(prepared.register_satellite(sat, 9));
    (void)fresh.register_satellite(sat, 9);
  }
  for (const orbit::Geodetic& site : fx.verifiers) {
    (void)prepared.register_verifier(site);
    (void)fresh.register_verifier(site);
  }
  prepared.prepare_grid(fx.grid);

  adversary::ReceiptAuditor on_tables(adversary::AuditConfig{}, 1);
  adversary::ReceiptAuditor per_pair(adversary::AuditConfig{}, 1);
  on_tables.set_audit_grid(fx.grid);
  per_pair.set_audit_grid(fx.grid);
  Ledger ledger_a, ledger_b;
  ledger_a.mint(1e6);
  ledger_b.mint(1e6);
  const AccountId account_a = ledger_a.open_account("a");
  const AccountId account_b = ledger_b.open_account("b");

  util::Xoshiro256PlusPlus rng(4);
  const double span_s = fx.grid.duration_seconds();
  for (int i = 0; i < 1500; ++i) {
    const std::size_t s = rng.uniform_index(fx.satellites.size() + 1);
    const constellation::SatelliteId sat =
        s < fx.satellites.size() ? fx.satellites[s].id : constellation::SatelliteId{999};
    const std::uint64_t key = s < fx.satellites.size() ? keys[s] : 0;
    const auto verifier = static_cast<std::uint32_t>(rng.uniform_index(fx.verifiers.size()));
    const CoverageReceipt receipt = ProofOfCoverage::answer_challenge(
        sat, key, verifier, fx.grid.start.plus_seconds(rng.uniform(-1800.0, span_s + 1800.0)),
        rng.next());
    EXPECT_EQ(on_tables.audit_and_credit(prepared, receipt, 0, ledger_a, account_a),
              per_pair.audit_and_credit(fresh, receipt, 0, ledger_b, account_b));
  }
  EXPECT_TRUE(on_tables.stats(0) == per_pair.stats(0));
  EXPECT_GT(on_tables.stats(0).prescreen_flagged, 0u);
  EXPECT_GT(on_tables.stats(0).rejected_unknown, 0u);

  // An unknown satellite skips the prescreen; a claim before the grid is
  // flagged.
  adversary::ReceiptAuditor single(adversary::AuditConfig{}, 1);
  single.set_audit_grid(fx.grid);
  (void)single.audit_and_credit(
      prepared, ProofOfCoverage::answer_challenge(999, 0, 0, fx.grid.start, 1), 0, ledger_a,
      account_a);
  EXPECT_EQ(single.stats(0).prescreen_flagged, 0u);
  (void)single.audit_and_credit(
      prepared,
      ProofOfCoverage::answer_challenge(fx.satellites[0].id, keys[0], 0,
                                        fx.grid.start.plus_seconds(-120.0), 2),
      0, ledger_a, account_a);
  EXPECT_EQ(single.stats(0).prescreen_flagged, 1u);
}

}  // namespace
}  // namespace mpleo::core
