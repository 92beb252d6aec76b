#include "core/adversary_sweep.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/campaign.hpp"
#include "core/validation.hpp"
#include "coverage/doppler.hpp"
#include "coverage/engine.hpp"
#include "net/ground_station.hpp"
#include "net/terminal.hpp"
#include "obs/metrics.hpp"
#include "sim/run_context.hpp"
#include "sim/scenario.hpp"
#include "util/units.hpp"

namespace mpleo::core {
namespace {

// The synthetic consortium every sweep point re-creates identically: only
// the BehaviorBook differs between points, so any divergence from the f=0
// baseline is attributable to Byzantine behavior, not workload noise.
struct Workload {
  Consortium consortium;
  std::vector<net::Terminal> terminals;
  std::vector<net::GroundStation> stations;
  // All contributed satellites in id order (catalog index == satellite id),
  // owner stamped — the fleet the welfare cache is built over.
  std::vector<constellation::Satellite> catalog;
};

double frac(double x) noexcept { return x - std::floor(x); }

// Low-discrepancy site scatter: golden-ratio increments spread the
// terminals over the habitable band without any RNG (the workload must be
// identical across sweep points and across processes).
orbit::Geodetic terminal_location(std::size_t index) {
  const double lat = -52.0 + 104.0 * frac(0.6180339887498949 * static_cast<double>(index + 1));
  const double lon = -180.0 + 360.0 * frac(0.3819660112501051 * static_cast<double>(index + 1));
  return orbit::Geodetic::from_degrees(lat, lon);
}

Workload build_workload(const AdversarySweepConfig& config, orbit::TimePoint epoch) {
  Workload w;
  for (std::size_t p = 0; p < config.parties; ++p) {
    Party party;
    party.name = "party-" + std::to_string(p);
    const PartyId id = w.consortium.add_party(party);
    (void)w.consortium.contribute(
        id, constellation::single_plane(
                550e3 + 15e3 * static_cast<double>(p), 53.0,
                360.0 * static_cast<double>(p) / static_cast<double>(config.parties),
                static_cast<int>(config.satellites_per_party), epoch,
                7.0 * static_cast<double>(p)));
    for (const constellation::Satellite& sat : w.consortium.party_satellites(id)) {
      w.catalog.push_back(sat);
    }

    for (std::size_t t = 0; t < config.terminals_per_party; ++t) {
      const std::size_t index = p * config.terminals_per_party + t;
      net::Terminal terminal;
      terminal.id = static_cast<net::TerminalId>(index);
      terminal.location = terminal_location(index);
      terminal.owner_party = static_cast<std::uint32_t>(p);
      terminal.radio = net::default_user_terminal();
      w.terminals.push_back(terminal);
    }
    for (std::size_t s = 0; s < config.stations_per_party; ++s) {
      // Each station sits next to one of the party's terminals: bent-pipe
      // service needs both legs up at once, so co-located pairs keep the
      // workload servable.
      const net::Terminal& anchor = w.terminals[p * config.terminals_per_party + s];
      net::GroundStation station;
      station.id = static_cast<net::GroundStationId>(p * config.stations_per_party + s);
      constexpr double kRadToDeg = 57.29577951308232;
      station.location = orbit::Geodetic::from_degrees(
          anchor.location.latitude_rad * kRadToDeg + 0.4,
          anchor.location.longitude_rad * kRadToDeg + 0.4);
      station.owner_party = static_cast<std::uint32_t>(p);
      station.radio = net::default_ground_station();
      w.stations.push_back(station);
    }
  }
  return w;
}

void validate(const AdversarySweepConfig& config) {
  if (config.parties == 0) throw std::invalid_argument("adversary_sweep: parties == 0");
  if (config.satellites_per_party == 0) {
    throw std::invalid_argument("adversary_sweep: satellites_per_party == 0");
  }
  if (config.terminals_per_party == 0) {
    throw std::invalid_argument("adversary_sweep: terminals_per_party == 0");
  }
  if (config.stations_per_party == 0 ||
      config.stations_per_party > config.terminals_per_party) {
    throw std::invalid_argument(
        "adversary_sweep: stations_per_party must be in [1, terminals_per_party]");
  }
  if (config.epochs == 0) throw std::invalid_argument("adversary_sweep: epochs == 0");
  if (!(config.epoch_duration_s > 0.0) || !(config.step_s > 0.0)) {
    throw std::invalid_argument("adversary_sweep: non-positive epoch duration or step");
  }
  require_non_negative(config.service_value_per_hour, "service_value_per_hour");
  require_non_negative(config.intensity, "adversary intensity");
  double previous = 0.0;
  for (const double fraction : config.byzantine_fractions) {
    require_fraction(fraction, "byzantine_fraction");
    if (fraction < previous) {
      throw std::invalid_argument(
          "adversary_sweep: byzantine_fractions must be non-decreasing");
    }
    previous = fraction;
  }
}

}  // namespace

std::vector<AdversarySweepPoint> adversary_sweep(const AdversarySweepConfig& config,
                                                 sim::RunContext& context) {
  validate(config);
  const std::vector<adversary::Behavior> mix =
      config.mix.empty() ? adversary::mix_for_mode(sim::AdversaryMode::kMixed) : config.mix;
  const orbit::TimePoint start = orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z");

  // The honest core: parties still honest at the deepest sweep point. CRN
  // nesting makes this the complement of EVERY point's Byzantine set, so
  // the same sites and the same payoff population are compared across the
  // whole sweep.
  const double deepest =
      config.byzantine_fractions.empty() ? 0.0 : config.byzantine_fractions.back();
  const adversary::BehaviorBook deepest_book =
      adversary::BehaviorBook::sample(config.parties, deepest, mix, config.intensity,
                                      config.receipts_per_epoch, config.seed);
  std::vector<std::uint8_t> honest_core(config.parties, 1);
  for (PartyId p = 0; p < config.parties; ++p) {
    if (!deepest_book.policy(p).honest()) honest_core[p] = 0;
  }

  // Welfare cache: full fleet vs the honest core's terminal sites, on one
  // epoch's grid. Shared by every sweep point (pure mask arithmetic after
  // the precompute).
  const Workload probe = build_workload(config, start);
  std::vector<cov::GroundSite> sites;
  for (const net::Terminal& terminal : probe.terminals) {
    if (honest_core[terminal.owner_party] == 0) continue;
    sites.push_back(cov::GroundSite{"terminal-" + std::to_string(terminal.id),
                                    orbit::TopocentricFrame(terminal.location), 1.0});
  }
  const orbit::TimeGrid grid =
      orbit::TimeGrid::over_duration(start, config.epoch_duration_s, config.step_s);
  const cov::CoverageEngine engine(grid, config.elevation_mask_deg);
  cov::VisibilityCache cache(engine, probe.catalog, sites);
  cache.precompute_all(context);

  const double window_hours =
      static_cast<double>(config.epochs) * config.epoch_duration_s / 3600.0;
  // Running union of excluded parties across points. Exclusions are nested
  // per point already (CRN); the union makes the monotonicity of the gated
  // payoff a set-inclusion fact rather than a property to hope for.
  std::vector<std::uint8_t> excluded_union(config.parties, 0);

  std::vector<AdversarySweepPoint> points;
  points.reserve(config.byzantine_fractions.size());
  for (const double fraction : config.byzantine_fractions) {
    Workload w = build_workload(config, start);
    CampaignConfig campaign_config;
    campaign_config.start = start;
    campaign_config.epoch_duration_s = config.epoch_duration_s;
    campaign_config.step_s = config.step_s;
    campaign_config.scheduler.elevation_mask_deg = config.elevation_mask_deg;
    Campaign campaign(std::move(w.consortium), std::move(w.terminals),
                      std::move(w.stations), campaign_config, config.seed);
    campaign.arm_adversaries(
        adversary::BehaviorBook::sample(config.parties, fraction, mix, config.intensity,
                                        config.receipts_per_epoch, config.seed),
        config.audit, config.quarantine);

    AdversarySweepPoint point;
    point.byzantine_fraction = fraction;
    point.byzantine_parties = campaign.behavior_book().byzantine_count();
    for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
      const EpochReport report = campaign.run_epoch(context);
      if (report.adversary.has_value()) {
        point.fraud_injected +=
            report.adversary->receipts_injected + report.adversary->misreports_injected;
        point.fraud_detected += report.adversary->fraud_detected;
      }
    }

    const adversary::QuarantineManager& quarantine = campaign.quarantine();
    point.quarantined_parties = quarantine.quarantined_count();
    point.expelled_parties = quarantine.expelled_count();
    point.mean_detection_epochs = quarantine.mean_detection_epochs();
    point.total_slashed = quarantine.total_slashed();

    for (PartyId p = 0; p < config.parties; ++p) {
      const bool withholds = campaign.behavior_book().policy(p).withheld_fraction() > 0.0;
      const adversary::TrustState state = quarantine.state(p);
      if (withholds || state == adversary::TrustState::kQuarantined ||
          state == adversary::TrustState::kExpelled) {
        excluded_union[p] = 1;
      }
    }
    std::vector<std::size_t> included;
    included.reserve(probe.catalog.size());
    for (std::size_t si = 0; si < probe.catalog.size(); ++si) {
      if (excluded_union[probe.catalog[si].owner_party] == 0) included.push_back(si);
    }
    point.honest_core_welfare = cache.weighted_coverage_fraction(included);
    point.honest_core_payoff =
        config.service_value_per_hour * point.honest_core_welfare * window_hours;

    double balance_sum = 0.0;
    std::size_t honest_count = 0;
    for (PartyId p = 0; p < config.parties; ++p) {
      if (honest_core[p] == 0) continue;
      balance_sum += campaign.ledger().balance(campaign.account_of(p));
      ++honest_count;
    }
    point.mean_honest_balance =
        honest_count > 0 ? balance_sum / static_cast<double>(honest_count) : 0.0;

    context.metrics().counter("adversary_sweep.points").add(1);
    context.metrics().counter("adversary_sweep.fraud_injected").add(point.fraud_injected);
    context.metrics().counter("adversary_sweep.fraud_detected").add(point.fraud_detected);
    points.push_back(point);
  }
  return points;
}

RfSweepResult rf_adversary_sweep(const AdversarySweepConfig& config,
                                 const RfSweepConfig& rf_config,
                                 sim::RunContext& context) {
  validate(config);
  if (rf_config.doppler_trials == 0) {
    throw std::invalid_argument("rf_adversary_sweep: doppler_trials == 0");
  }
  rf::DopplerAuditConfig doppler = rf_config.doppler;
  doppler.enabled = true;
  throw_if_invalid("rf_adversary_sweep doppler config", doppler.validate());
  throw_if_invalid("rf_adversary_sweep spectrum config", rf_config.spectrum.validate());
  double previous = 0.0;
  for (const double fraction : rf_config.jammer_fractions) {
    require_fraction(fraction, "jammer_fraction");
    if (fraction < previous) {
      throw std::invalid_argument(
          "rf_adversary_sweep: jammer_fractions must be non-decreasing");
    }
    previous = fraction;
  }

  RfSweepResult result;
  const orbit::TimePoint start = orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z");

  // --- Doppler axis: forged vs honest tracks per sophistication level. ---
  // Every trial claims a contact geometry genuinely supports (the insider
  // holds the key and the ephemeris), so the geometric audit passes and only
  // the track fit separates the forger from the honest verifier.
  {
    const Workload w = build_workload(config, start);
    ProofOfCoverage poc{ProofOfCoverage::Config{}};
    std::vector<std::uint64_t> keys;
    keys.reserve(w.catalog.size());
    for (const constellation::Satellite& sat : w.catalog) {
      keys.push_back(poc.register_satellite(sat, config.seed));
    }
    std::vector<std::uint32_t> verifiers;
    verifiers.reserve(w.terminals.size());
    for (const net::Terminal& terminal : w.terminals) {
      verifiers.push_back(poc.register_verifier(terminal.location));
    }
    const orbit::TimeGrid grid =
        orbit::TimeGrid::over_duration(start, config.epoch_duration_s, config.step_s);

    adversary::AuditConfig audit = config.audit;
    audit.doppler = doppler;
    adversary::ReceiptAuditor auditor(audit, config.parties, &context.metrics());
    auditor.set_audit_grid(grid);

    Ledger ledger;
    ledger.mint(1e6, "rf-sweep treasury");
    std::vector<AccountId> accounts;
    accounts.reserve(config.parties);
    for (std::size_t p = 0; p < config.parties; ++p) {
      accounts.push_back(ledger.open_account("party-" + std::to_string(p)));
    }

    // Contact pool: (satellite, verifier, step) claims that verify
    // geometrically AND whose predicted Doppler window is long enough for a
    // conclusive fit — the population the ≥99% detection gate is defined
    // over (shorter windows are inconclusive-accept by design).
    struct Contact {
      std::size_t sat_index = 0;
      std::uint32_t verifier = 0;
      std::size_t step = 0;
      std::vector<double> offsets_s;
      std::vector<double> truth_hz;
      double max_doppler_hz = 0.0;
    };
    const std::vector<double> offsets = doppler.sample_offsets_s();
    std::vector<Contact> pool;
    constexpr std::size_t kPoolTarget = 256;
    for (std::size_t si = 0; si < w.catalog.size() && pool.size() < kPoolTarget; ++si) {
      const constellation::Satellite& sat = w.catalog[si];
      const std::uint32_t verifier = verifiers[si % verifiers.size()];
      const cov::StepMask overhead = poc.overhead_steps(sat.id, verifier, grid);
      for (std::size_t step = 0; step < grid.count && pool.size() < kPoolTarget; ++step) {
        if (!overhead.test(step)) continue;
        const CoverageReceipt probe = ProofOfCoverage::answer_challenge(
            sat.id, keys[si], verifier, grid.at(step), 0);
        if (poc.verify(probe) != ReceiptVerdict::kValid) continue;
        const auto predicted =
            poc.doppler_track(sat.id, verifier, grid.at(step), doppler.carrier_hz, offsets);
        if (predicted.size() < doppler.min_track_samples) continue;
        Contact contact;
        contact.sat_index = si;
        contact.verifier = verifier;
        contact.step = step;
        contact.offsets_s.reserve(predicted.size());
        contact.truth_hz.reserve(predicted.size());
        for (const ProofOfCoverage::DopplerPoint& point : predicted) {
          contact.offsets_s.push_back(point.offset_s);
          contact.truth_hz.push_back(point.doppler_hz);
        }
        contact.max_doppler_hz = cov::max_doppler_bound_hz(
            sat.elements.semi_major_axis_m - util::kEarthMeanRadiusM, doppler.carrier_hz);
        pool.push_back(std::move(contact));
      }
    }
    if (pool.empty()) {
      throw std::logic_error(
          "rf_adversary_sweep: workload has no conclusive contact windows");
    }

    constexpr rf::ForgeryLevel kLevels[] = {
        rf::ForgeryLevel::kFlatTone, rf::ForgeryLevel::kLinearRamp,
        rf::ForgeryLevel::kTimeMirrored, rf::ForgeryLevel::kEphemerisExact};
    util::Xoshiro256PlusPlus rng = util::Xoshiro256PlusPlus(config.seed).split(0xDF01);
    for (const rf::ForgeryLevel level : kLevels) {
      RfDopplerPoint point;
      point.level = level;
      point.gated = rf::detectable(level);
      for (std::size_t trial = 0; trial < rf_config.doppler_trials; ++trial) {
        const Contact& contact = pool[rng.uniform_index(pool.size())];
        const constellation::Satellite& sat = w.catalog[contact.sat_index];
        const PartyId owner = sat.owner_party;
        // Forged claim: fabricated track at the level's sophistication.
        {
          const CoverageReceipt receipt = ProofOfCoverage::answer_challenge(
              sat.id, keys[contact.sat_index], contact.verifier, grid.at(contact.step),
              rng.next());
          rf::DopplerObservation track;
          track.carrier_hz = doppler.carrier_hz;
          track.offsets_s = contact.offsets_s;
          track.doppler_hz =
              rf::forge_doppler_track(level, contact.truth_hz, contact.max_doppler_hz, rng);
          const ReceiptVerdict verdict = auditor.audit_and_credit(
              poc, receipt, owner, ledger, accounts[owner],
              adversary::ReceiptProvenance::kSubmission, &track);
          ++point.forged_submitted;
          if (verdict == ReceiptVerdict::kRfImplausible) ++point.forged_rejected;
        }
        // Honest twin: same contact, true curve plus receiver noise.
        {
          const CoverageReceipt receipt = ProofOfCoverage::answer_challenge(
              sat.id, keys[contact.sat_index], contact.verifier, grid.at(contact.step),
              rng.next());
          rf::DopplerObservation track;
          track.carrier_hz = doppler.carrier_hz;
          track.offsets_s = contact.offsets_s;
          track.doppler_hz = rf::observe_doppler_track(
              contact.truth_hz, doppler.measurement_noise_hz, rng);
          const ReceiptVerdict verdict = auditor.audit_and_credit(
              poc, receipt, owner, ledger, accounts[owner],
              adversary::ReceiptProvenance::kChallenge, &track);
          ++point.honest_submitted;
          if (verdict == ReceiptVerdict::kRfImplausible) ++point.honest_flagged;
        }
      }
      point.detection_rate =
          point.forged_submitted > 0
              ? static_cast<double>(point.forged_rejected) /
                    static_cast<double>(point.forged_submitted)
              : 0.0;
      context.metrics().counter("rf_sweep.forged_submitted").add(point.forged_submitted);
      context.metrics().counter("rf_sweep.forged_rejected").add(point.forged_rejected);
      context.metrics().counter("rf_sweep.honest_flagged").add(point.honest_flagged);
      result.doppler.push_back(std::move(point));
    }
  }

  // --- Jamming axis: one campaign per nested jammer fraction. ---
  for (const double fraction : rf_config.jammer_fractions) {
    Workload w = build_workload(config, start);
    CampaignConfig campaign_config;
    campaign_config.start = start;
    campaign_config.epoch_duration_s = config.epoch_duration_s;
    campaign_config.step_s = config.step_s;
    campaign_config.scheduler.elevation_mask_deg = config.elevation_mask_deg;
    Campaign campaign(std::move(w.consortium), std::move(w.terminals),
                      std::move(w.stations), campaign_config, config.seed);
    const adversary::Behavior jam_mix[] = {adversary::Behavior::kJamming};
    campaign.arm_adversaries(
        adversary::BehaviorBook::sample(config.parties, fraction, jam_mix,
                                        config.intensity, config.receipts_per_epoch,
                                        config.seed),
        config.audit, config.quarantine);
    campaign.arm_rf(rf_config.spectrum);

    RfJammingPoint point;
    point.jammer_fraction = fraction;
    point.jamming_parties = campaign.behavior_book().byzantine_count();
    for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
      const EpochReport report = campaign.run_epoch(context);
      if (!report.adversary.has_value()) continue;
      if (epoch == 0) {
        // Epoch 0 is the welfare probe: quarantine sanctions only bite from
        // the next epoch's scheduling pass, so link selection is identical
        // across fractions and realized/nominal is monotone by construction.
        point.capacity_nominal_bps = report.adversary->rf_nominal_bps;
        point.capacity_realized_bps =
            report.adversary->rf_nominal_bps - report.adversary->rf_capacity_lost_bps;
      }
      point.violations_detected += report.adversary->rf_interference_violations;
    }
    point.honest_welfare = point.capacity_nominal_bps > 0.0
                               ? point.capacity_realized_bps / point.capacity_nominal_bps
                               : 1.0;
    const adversary::QuarantineManager& quarantine = campaign.quarantine();
    point.quarantined_parties = quarantine.quarantined_count();
    point.expelled_parties = quarantine.expelled_count();
    point.total_slashed = quarantine.total_slashed();
    context.metrics().counter("rf_sweep.jamming_points").add(1);
    context.metrics()
        .counter("rf_sweep.violations_detected")
        .add(point.violations_detected);
    result.jamming.push_back(point);
  }
  return result;
}

}  // namespace mpleo::core
