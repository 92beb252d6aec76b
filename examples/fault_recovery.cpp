// Failure with recovery: Figure 5 revisited as a *transient* event (§3.4).
//
// The paper's withdrawal experiment removes half the constellation forever.
// Here the same half merely fails — party B's fleet goes dark for six hours
// and comes back — and the fault layer closes the loop economically:
//
//   1. the coverage curve dips during the outage and recovers after it,
//   2. a sim::SimEngine interleaves the fail/repair edges with an hourly
//      health poll (SimEngine::every),
//   3. the outage blows through the SLA's maximum-gap clause and the penalty
//      settles on the token ledger,
//   4. the reputation tracker ingests each party's outage seconds, so the
//      unreliable party's spare-capacity priority erodes.
//
//   ./fault_recovery [--step=60 --mask=25]
#include <algorithm>
#include <cstdio>

#include "core/mpleo.hpp"
#include "sim/engine.hpp"

using namespace mpleo;

int main(int argc, char** argv) {
  sim::Scenario scenario;
  try {
    scenario = sim::parse_scenario(argc, argv,
                                   sim::Scenario{.duration_s = 86400.0, .step_s = 60.0});
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  std::printf("scenario: %s\n\n", sim::describe(scenario).c_str());

  // Two parties contributing interleaved planes of one 48-satellite shell.
  constellation::WalkerShell shell;
  shell.label = "MP";
  shell.plane_count = 6;
  shell.sats_per_plane = 8;
  shell.phasing_factor = 1;
  std::vector<constellation::Satellite> sats = shell.build(scenario.epoch);
  std::vector<std::size_t> fleet_all, fleet_b;
  for (std::size_t i = 0; i < sats.size(); ++i) {
    sats[i].owner_party = static_cast<std::uint32_t>(i % 2);
    fleet_all.push_back(i);
    if (sats[i].owner_party == 1) fleet_b.push_back(i);
  }

  const cov::CoverageEngine engine(scenario.grid(), scenario.elevation_mask_deg);
  const std::vector<cov::GroundSite> sites = cov::sites_from_cities(cov::paper_cities());
  cov::VisibilityCache cache(engine, sats, sites);
  sim::RunContext context(scenario);
  cache.precompute_all(context);

  // Party B's fleet fails at t=6h and is repaired at t=12h.
  const double fail_s = 6.0 * 3600.0;
  const double repair_s = 12.0 * 3600.0;
  fault::FaultTimeline faults(engine.grid(), sats.size(), 0);
  for (std::size_t i : fleet_b) faults.add_satellite_outage(i, fail_s, repair_s);

  // 1. The Fig-5 curve, but with a right-hand side: coverage per 2 h bucket.
  std::printf("weighted coverage per 2h bucket (outage %s .. %s):\n",
              util::Table::duration(fail_s).c_str(),
              util::Table::duration(repair_s).c_str());
  const std::size_t steps = engine.grid().count;
  const std::size_t bucket_steps = static_cast<std::size_t>(7200.0 / scenario.step_s);
  std::vector<cov::StepMask> healthy_masks, faulted_masks;
  for (std::size_t j = 0; j < sites.size(); ++j) {
    healthy_masks.push_back(cache.union_mask(fleet_all, j));
    faulted_masks.push_back(cache.union_mask(fleet_all, j, &faults));
  }
  for (std::size_t b = 0; b * bucket_steps < steps; ++b) {
    const std::size_t lo = b * bucket_steps;
    const std::size_t hi = std::min(steps, lo + bucket_steps);
    double healthy = 0.0, faulted = 0.0;
    for (std::size_t j = 0; j < sites.size(); ++j) {
      std::size_t h = 0, f = 0;
      for (std::size_t k = lo; k < hi; ++k) {
        h += healthy_masks[j].test(k) ? 1u : 0u;
        f += faulted_masks[j].test(k) ? 1u : 0u;
      }
      const double denom = static_cast<double>(hi - lo);
      healthy += cache.site_weight(j) * static_cast<double>(h) / denom;
      faulted += cache.site_weight(j) * static_cast<double>(f) / denom;
    }
    std::printf("  %5s  healthy %5.1f%%  faulted %5.1f%%  %s\n",
                util::Table::duration(static_cast<double>(lo) * scenario.step_s).c_str(),
                healthy * 100.0, faulted * 100.0,
                faulted + 1e-9 < healthy ? "<-- degraded" : "");
  }

  // 2. Discrete-event view: fail/repair edges interleaved with an hourly poll.
  sim::SimEngine sim;
  std::size_t down = 0, fail_edges = 0, repair_edges = 0;
  for (const fault::FaultEvent& ev : faults.events()) {
    sim.at(ev.time_s, [&, ev] {
      if (ev.failed) {
        ++down;
        ++fail_edges;
      } else {
        --down;
        ++repair_edges;
      }
    });
  }
  std::vector<std::size_t> hourly;
  sim.every(3600.0, scenario.duration_s, [&] { hourly.push_back(down); });
  sim.run_until(scenario.duration_s);
  std::printf("\nsim: %zu fail edges, %zu repair edges; satellites down at each hour:\n  ",
              fail_edges, repair_edges);
  for (std::size_t n : hourly) std::printf("%zu ", n);
  std::printf("\n");

  // 3. SLA: party B sells coverage of one city backed by its own fleet. The
  // terms are calibrated to what healthy geometry delivers, so only the
  // injected outage can break them.
  const std::size_t site = 0;
  const cov::CoverageStats healthy_b = engine.stats(cache.union_mask(fleet_b, site));
  core::SlaTerms terms;
  terms.name = sites[site].name + "-coverage";
  terms.min_coverage_fraction = 0.9 * healthy_b.covered_fraction;
  terms.max_gap_seconds = std::max(7200.0, 1.5 * healthy_b.max_gap_seconds);
  terms.penalty_per_violation = 40.0;
  const core::SlaReport before = core::evaluate_sla(terms, healthy_b);
  context.use_faults(&faults);
  const core::SlaReport after =
      core::evaluate_sla(terms, cache, fleet_b, site, context);
  std::printf("\nSLA \"%s\" (min coverage %.1f%%, max gap %s):\n", terms.name.c_str(),
              terms.min_coverage_fraction * 100.0,
              util::Table::duration(terms.max_gap_seconds).c_str());
  std::printf("  healthy: %s\n", before.compliant ? "compliant" : "VIOLATED");
  std::printf("  faulted: %s", after.compliant ? "compliant" : "VIOLATED");
  for (const core::SlaViolation& v : after.violations) {
    std::printf("  [%s required %.3g delivered %.3g]", core::to_string(v.clause),
                v.required, v.delivered);
  }
  std::printf("\n");

  core::Ledger ledger;
  const core::AccountId provider = ledger.open_account("party-B");
  const core::AccountId customer = ledger.open_account("customer");
  ledger.mint(1000.0);
  if (!ledger.reward(provider, 200.0, "service escrow")) return 1;
  if (!core::settle_sla_penalty(after, ledger, provider, customer)) {
    std::printf("  provider could not cover the penalty\n");
  }
  std::printf("  penalty %.1f settled: party-B %.1f, customer %.1f tokens\n",
              after.total_penalty, ledger.balance(provider), ledger.balance(customer));

  // 4. Reputation: downtime erodes the faulty party's spare-capacity weight.
  std::vector<std::uint32_t> owners;
  for (const constellation::Satellite& s : sats) owners.push_back(s.owner_party);
  const std::vector<double> outage_s = faults.outage_seconds_by_party(owners, {}, 2);
  core::ReputationTracker reputation(2);
  for (core::PartyId p = 0; p < 2; ++p) {
    reputation.record_outage(p, outage_s[p]);
  }
  std::printf("\nreputation after the outage epoch:\n");
  for (core::PartyId p = 0; p < 2; ++p) {
    std::printf("  party %c: %6.1f asset-hours down, score %.3f, spare priority %.3f\n",
                p == 0 ? 'A' : 'B', outage_s[p] / 3600.0, reputation.score(p),
                reputation.priority_weight(p));
  }

  std::printf("\nobs: %llu SLA evaluation(s), %llu violation(s) on the run context\n",
              static_cast<unsigned long long>(
                  context.metrics().counter_value("sla.evaluations")),
              static_cast<unsigned long long>(
                  context.metrics().counter_value("sla.violations")));
  return 0;
}
