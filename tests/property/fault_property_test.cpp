// Fault-layer contracts: an empty FaultTimeline is bit-identical to the
// no-fault code path everywhere it is accepted, seeded sweeps reproduce
// exactly, and coverage under common-random-numbers thinning is monotone in
// the failure rate.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/robustness.hpp"
#include "core/sla.hpp"
#include "fault/timeline.hpp"
#include "net/handover.hpp"
#include "net/scheduler.hpp"
#include "sim/run_context.hpp"

namespace mpleo {
namespace {

using constellation::Satellite;

orbit::TimePoint epoch() {
  return orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z");
}

std::vector<Satellite> small_shell() {
  constellation::WalkerShell shell;
  shell.plane_count = 4;
  shell.sats_per_plane = 4;
  shell.phasing_factor = 1;
  std::vector<Satellite> sats = shell.build(epoch());
  for (std::size_t i = 0; i < sats.size(); ++i) {
    sats[i].owner_party = static_cast<std::uint32_t>(i % 2);
  }
  return sats;
}

std::vector<cov::GroundSite> two_sites() {
  return {{"Taipei", orbit::TopocentricFrame(orbit::Geodetic::from_degrees(25.0, 121.5)),
           2.0},
          {"Nairobi", orbit::TopocentricFrame(orbit::Geodetic::from_degrees(-1.3, 36.8)),
           1.0}};
}

void expect_same_usage(const net::PartyUsage& a, const net::PartyUsage& b) {
  EXPECT_DOUBLE_EQ(a.own_link_seconds, b.own_link_seconds);
  EXPECT_DOUBLE_EQ(a.spare_used_seconds, b.spare_used_seconds);
  EXPECT_DOUBLE_EQ(a.spare_provided_seconds, b.spare_provided_seconds);
  EXPECT_DOUBLE_EQ(a.bytes_carried_for_others, b.bytes_carried_for_others);
  EXPECT_DOUBLE_EQ(a.bytes_received_from_others, b.bytes_received_from_others);
  EXPECT_DOUBLE_EQ(a.unserved_terminal_seconds, b.unserved_terminal_seconds);
}

TEST(FaultProperty, EmptyTimelineLeavesSchedulerBitIdentical) {
  std::vector<net::Terminal> terminals;
  std::vector<net::GroundStation> stations;
  for (std::uint32_t p = 0; p < 2; ++p) {
    net::Terminal t;
    t.id = p;
    t.location = orbit::Geodetic::from_degrees(25.0 + 0.2 * p, 121.5);
    t.owner_party = p;
    t.radio = net::default_user_terminal();
    terminals.push_back(t);
    net::GroundStation gs;
    gs.id = p;
    gs.location = orbit::Geodetic::from_degrees(24.8 - 0.2 * p, 121.3);
    gs.owner_party = p;
    gs.radio = net::default_ground_station();
    stations.push_back(gs);
  }
  net::SchedulerConfig cfg;
  // A 5-step re-acquisition hold must be inert without faults.
  cfg.degradation.enabled = true;
  cfg.degradation.backoff_initial_steps = 5;
  cfg.degradation.backoff_max_steps = 5;
  const net::BentPipeScheduler scheduler(cfg, small_shell(), terminals, stations);
  const orbit::TimeGrid grid =
      orbit::TimeGrid::over_duration(epoch(), 6.0 * 3600.0, 120.0);

  sim::RunContext context;
  const net::ScheduleResult plain = scheduler.run(grid, 2, context, /*keep_steps=*/true);
  const fault::FaultTimeline empty_constructed(grid, 16, 2);
  const fault::FaultTimeline default_constructed;
  for (const fault::FaultTimeline* faults :
       {&empty_constructed, &default_constructed}) {
    ASSERT_TRUE(faults->empty());
    context.use_faults(faults);
    const net::ScheduleResult gated = scheduler.run(grid, 2, context, /*keep_steps=*/true);
    EXPECT_DOUBLE_EQ(gated.total_served_seconds, plain.total_served_seconds);
    EXPECT_DOUBLE_EQ(gated.total_unserved_seconds, plain.total_unserved_seconds);
    EXPECT_EQ(gated.failure_forced_detaches, 0u);
    EXPECT_DOUBLE_EQ(gated.reacquisition_wait_seconds, 0.0);
    ASSERT_EQ(gated.per_party.size(), plain.per_party.size());
    for (std::size_t p = 0; p < plain.per_party.size(); ++p) {
      expect_same_usage(gated.per_party[p], plain.per_party[p]);
    }
    ASSERT_EQ(gated.steps.size(), plain.steps.size());
    for (std::size_t k = 0; k < plain.steps.size(); ++k) {
      ASSERT_EQ(gated.steps[k].links.size(), plain.steps[k].links.size());
      for (std::size_t l = 0; l < plain.steps[k].links.size(); ++l) {
        EXPECT_EQ(gated.steps[k].links[l].terminal_index,
                  plain.steps[k].links[l].terminal_index);
        EXPECT_EQ(gated.steps[k].links[l].satellite_index,
                  plain.steps[k].links[l].satellite_index);
        EXPECT_EQ(gated.steps[k].links[l].station_index,
                  plain.steps[k].links[l].station_index);
        EXPECT_DOUBLE_EQ(gated.steps[k].links[l].capacity_bps,
                         plain.steps[k].links[l].capacity_bps);
      }
      EXPECT_EQ(gated.steps[k].unserved_terminals, plain.steps[k].unserved_terminals);
    }
  }
}

TEST(FaultProperty, EmptyTimelineLeavesCoverageAndSlaBitIdentical) {
  const std::vector<Satellite> sats = small_shell();
  const orbit::TimeGrid grid =
      orbit::TimeGrid::over_duration(epoch(), 86400.0, 300.0);
  const cov::CoverageEngine engine(grid, 25.0);
  const std::vector<cov::GroundSite> sites = two_sites();
  cov::VisibilityCache cache(engine, sats, sites);
  std::vector<std::size_t> fleet(sats.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) fleet[i] = i;

  const fault::FaultTimeline empty;
  for (std::size_t j = 0; j < sites.size(); ++j) {
    // StepMask operator== : bit-identical, not merely statistically close.
    EXPECT_EQ(cache.union_mask(fleet, j, &empty), cache.union_mask(fleet, j));
    EXPECT_EQ(cache.union_mask(fleet, j, nullptr), cache.union_mask(fleet, j));
    EXPECT_EQ(engine.coverage_mask(sats, sites[j].frame, &empty),
              engine.coverage_mask(sats, sites[j].frame));
  }
  EXPECT_DOUBLE_EQ(cache.weighted_coverage_fraction(fleet, &empty),
                   cache.weighted_coverage_fraction(fleet));

  core::SlaTerms terms;
  terms.min_coverage_fraction = 0.3;
  terms.max_gap_seconds = 3600.0;
  const core::SlaReport plain =
      core::evaluate_sla(terms, engine.stats(cache.union_mask(fleet, 0)));
  sim::RunContext empty_context;
  empty_context.use_faults(&empty);
  const core::SlaReport gated =
      core::evaluate_sla(terms, cache, fleet, 0, empty_context);
  EXPECT_EQ(gated.compliant, plain.compliant);
  ASSERT_EQ(gated.violations.size(), plain.violations.size());
  for (std::size_t v = 0; v < plain.violations.size(); ++v) {
    EXPECT_EQ(gated.violations[v].clause, plain.violations[v].clause);
    EXPECT_DOUBLE_EQ(gated.violations[v].delivered, plain.violations[v].delivered);
  }
  EXPECT_DOUBLE_EQ(gated.total_penalty, plain.total_penalty);

  // Handover: fault-aware selection with an empty timeline is bit-identical.
  EXPECT_EQ(net::serving_satellite_timeline(engine, sats, sites[0].frame, &empty),
            net::serving_satellite_timeline(engine, sats, sites[0].frame));
}

TEST(FaultProperty, CachedFaultAwareUnionMatchesEngineOracle) {
  const std::vector<Satellite> sats = small_shell();
  // 217 steps: not a multiple of 64, so every mask ends in a partial word.
  const orbit::TimeGrid grid =
      orbit::TimeGrid::over_duration(epoch(), 6.0 * 3600.0, 100.0);
  ASSERT_NE(grid.count % 64, 0u);
  const cov::CoverageEngine engine(grid, 25.0);
  std::vector<cov::GroundSite> sites = two_sites();
  // Far beyond the 53-degree shell's reach: every mask there is empty.
  sites.push_back(
      {"South Pole", orbit::TopocentricFrame(orbit::Geodetic::from_degrees(-89.0, 0.0)), 1.0});
  cov::VisibilityCache cache(engine, sats, sites);
  // Identity indices: fault asset index == catalog index == span index.
  std::vector<std::size_t> fleet(sats.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) fleet[i] = i;

  const fault::FaultTimeline faults = fault::FaultTimeline::stochastic(
      grid, sats.size(), 0, {.mtbf_seconds = 4.0 * 3600.0, .mttr_seconds = 1800.0}, {}, 11);
  std::size_t faulted = 0;
  for (std::size_t s = 0; s < sats.size(); ++s) {
    if (faults.satellite_outage_steps(s) != nullptr) ++faulted;
  }
  // Both branches of the union: satellites with and without outages.
  ASSERT_GT(faulted, 0u);
  ASSERT_LT(faulted, sats.size());

  const std::vector<cov::StepMask> all_sites = cache.union_masks(fleet, &faults);
  ASSERT_EQ(all_sites.size(), sites.size());
  double weighted = 0.0;
  bool faults_bite = false;
  for (std::size_t j = 0; j < sites.size(); ++j) {
    for (std::size_t s = 0; s < sats.size(); ++s) {
      EXPECT_EQ(cache.mask(s, j), engine.visibility_mask(sats[s], sites[j].frame))
          << "sat " << s << " site " << j;
    }
    const cov::StepMask oracle = engine.coverage_mask(sats, sites[j].frame, &faults);
    EXPECT_EQ(cache.union_mask(fleet, j, &faults), oracle) << "site " << j;
    EXPECT_EQ(all_sites[j], oracle) << "site " << j;
    weighted += cache.site_weight(j) * oracle.fraction();
    faults_bite = faults_bite || oracle != cache.union_mask(fleet, j);
  }
  EXPECT_EQ(cache.weighted_coverage_fraction(fleet, &faults), weighted);
  EXPECT_TRUE(faults_bite);
  EXPECT_EQ(cache.union_mask(fleet, 2).count(), 0u);
  EXPECT_GT(cache.union_mask(fleet, 0).count(), 0u);
}

TEST(FaultProperty, ResilienceSweepReproducesAndIsMonotone) {
  const std::vector<Satellite> sats = small_shell();
  const orbit::TimeGrid grid =
      orbit::TimeGrid::over_duration(epoch(), 6.0 * 3600.0, 300.0);
  const cov::CoverageEngine engine(grid, 25.0);
  cov::VisibilityCache cache(engine, sats, two_sites());
  std::vector<std::size_t> fleet(sats.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) fleet[i] = i;

  core::ResilienceConfig config;
  config.failure_rates_per_sat_day = {0.0, 1.0, 4.0, 16.0};
  config.mttr_seconds = 3600.0;
  config.runs = 4;
  config.seed = 7;

  sim::RunContext serial_context;
  sim::RunContext pooled_context;
  pooled_context.use_threads(0);
  const std::vector<core::ResiliencePoint> serial =
      core::resilience_sweep(cache, fleet, config, serial_context);
  const std::vector<core::ResiliencePoint> again =
      core::resilience_sweep(cache, fleet, config, serial_context);
  const std::vector<core::ResiliencePoint> pooled =
      core::resilience_sweep(cache, fleet, config, pooled_context);

  ASSERT_EQ(serial.size(), config.failure_rates_per_sat_day.size());
  ASSERT_EQ(again.size(), serial.size());
  ASSERT_EQ(pooled.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    // Same seed: exact reproduction, serial or pooled.
    EXPECT_DOUBLE_EQ(again[i].mean_coverage_fraction, serial[i].mean_coverage_fraction);
    EXPECT_DOUBLE_EQ(pooled[i].mean_coverage_fraction, serial[i].mean_coverage_fraction);
    EXPECT_DOUBLE_EQ(again[i].mean_worst_gap_seconds, serial[i].mean_worst_gap_seconds);
    EXPECT_DOUBLE_EQ(pooled[i].mean_worst_gap_seconds, serial[i].mean_worst_gap_seconds);
  }

  // Rate 0 is the healthy baseline; thereafter coverage and served fraction
  // never increase with the failure rate, and the worst gap never shrinks.
  EXPECT_DOUBLE_EQ(serial.front().mean_served_fraction, 1.0);
  for (std::size_t i = 1; i < serial.size(); ++i) {
    EXPECT_LE(serial[i].mean_coverage_fraction, serial[i - 1].mean_coverage_fraction);
    EXPECT_LE(serial[i].mean_served_fraction, serial[i - 1].mean_served_fraction);
    EXPECT_GE(serial[i].mean_worst_gap_seconds, serial[i - 1].mean_worst_gap_seconds);
  }
  // A different seed actually changes the draw.
  config.seed = 8;
  const std::vector<core::ResiliencePoint> other =
      core::resilience_sweep(cache, fleet, config, serial_context);
  bool any_difference = false;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    any_difference |=
        other[i].mean_coverage_fraction != serial[i].mean_coverage_fraction;
  }
  EXPECT_TRUE(any_difference);
}

TEST(FaultProperty, StochasticTimelineConvergesToConfiguredMtbfMttr) {
  // The exponential fail/repair model is only trustworthy if the empirical
  // statistics of a long draw converge to the configured means: mean outage
  // duration -> mttr, mean up-time between failures -> mtbf.
  const double mtbf_s = 2.0 * 86400.0;
  const double mttr_s = 6.0 * 3600.0;
  const double horizon_s = 60.0 * 86400.0;
  constexpr std::size_t kSatellites = 40;
  const orbit::TimeGrid grid = orbit::TimeGrid::over_duration(epoch(), horizon_s, 600.0);
  const fault::FaultTimeline timeline = fault::FaultTimeline::stochastic(
      grid, kSatellites, 0, {mtbf_s, mttr_s}, {0.0, 0.0}, /*seed=*/1042);

  // Group outages per satellite in time order to measure up-gaps.
  std::vector<std::vector<fault::OutageRecord>> per_sat(kSatellites);
  for (const fault::OutageRecord& r : timeline.outages()) {
    ASSERT_EQ(r.kind, fault::AssetKind::kSatellite);
    ASSERT_LT(r.asset_index, kSatellites);
    per_sat[r.asset_index].push_back(r);
  }
  double down_sum = 0.0, up_sum = 0.0;
  std::size_t down_count = 0, up_count = 0;
  for (std::vector<fault::OutageRecord>& records : per_sat) {
    std::sort(records.begin(), records.end(),
              [](const fault::OutageRecord& a, const fault::OutageRecord& b) {
                return a.start_offset_s < b.start_offset_s;
              });
    double previous_end = 0.0;
    for (const fault::OutageRecord& r : records) {
      ASSERT_GT(r.duration_s(), 0.0);
      up_sum += r.start_offset_s - previous_end;
      ++up_count;
      previous_end = r.end_offset_s;
      // Truncated tail outages would bias the repair mean low; skip them.
      if (r.end_offset_s < horizon_s) {
        down_sum += r.duration_s();
        ++down_count;
      }
    }
  }
  // ~26 failure/repair cycles per satellite over 60 days -> ~1000 samples;
  // a 10% band is ~3 standard errors for an exponential.
  ASSERT_GT(down_count, 500u);
  ASSERT_GT(up_count, 500u);
  EXPECT_NEAR(down_sum / static_cast<double>(down_count), mttr_s, 0.10 * mttr_s);
  EXPECT_NEAR(up_sum / static_cast<double>(up_count), mtbf_s, 0.10 * mtbf_s);
}

TEST(FaultProperty, StochasticTimelineRespectsDisabledStations) {
  // A purely satellite-side stochastic model must never touch stations.
  const orbit::TimeGrid grid =
      orbit::TimeGrid::over_duration(epoch(), 7.0 * 86400.0, 600.0);
  const fault::FaultTimeline timeline = fault::FaultTimeline::stochastic(
      grid, 12, 6, {86400.0, 3600.0}, {0.0, 3600.0}, 21);
  for (const fault::OutageRecord& r : timeline.outages()) {
    EXPECT_EQ(r.kind, fault::AssetKind::kSatellite);
  }
  for (std::size_t g = 0; g < 6; ++g) {
    EXPECT_EQ(timeline.station_outage_steps(g), nullptr);
  }
}

}  // namespace
}  // namespace mpleo
