#include "core/campaign.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/reputation.hpp"
#include "coverage/doppler.hpp"
#include "coverage/step_mask.hpp"
#include "obs/metrics.hpp"
#include "sim/run_context.hpp"
#include "util/units.hpp"

namespace mpleo::core {

struct Campaign::AdversaryHarness {
  adversary::BehaviorBook book;
  adversary::ReceiptAuditor auditor;
  adversary::QuarantineManager quarantine;
  ReputationTracker reputation;
  // Last receipt the honest spot checks credited per party — the material an
  // inflation attack resubmits for double pay.
  std::vector<std::optional<CoverageReceipt>> recent_valid;
  // Auditor fraud totals at the start of the running epoch, for per-epoch
  // detection deltas in the report.
  std::uint64_t fraud_at_epoch_start = 0;
  std::uint64_t doppler_rejections_at_epoch_start = 0;
  std::uint64_t rf_violations_at_epoch_start = 0;

  // RF layer, present only after Campaign::arm_rf: the spectrum plan carved
  // over the consortium, the interference environment built from the book's
  // jamming/squatting masks, and the Doppler-track sophistication forgers
  // fabricate at.
  struct RfState {
    rf::SpectrumConfig spectrum;
    rf::SpectrumPlan plan;
    rf::InterferenceEnvironment environment;
    rf::ForgeryLevel forgery_level = rf::ForgeryLevel::kFlatTone;
  };
  std::optional<RfState> rf;

  AdversaryHarness(adversary::BehaviorBook b, adversary::AuditConfig audit_config,
                   adversary::QuarantineConfig quarantine_config, std::size_t party_count)
      : book(std::move(b)),
        auditor(audit_config, party_count),
        quarantine(quarantine_config, party_count),
        reputation(party_count),
        recent_valid(party_count) {}
};

Campaign::~Campaign() = default;
Campaign::Campaign(Campaign&&) noexcept = default;

void Campaign::arm_adversaries(adversary::BehaviorBook book,
                               adversary::AuditConfig audit_config,
                               adversary::QuarantineConfig quarantine_config) {
  harness_ = std::make_unique<AdversaryHarness>(std::move(book), audit_config,
                                                quarantine_config,
                                                consortium_.parties().size());
}

namespace {
[[noreturn]] void throw_unarmed() {
  throw std::logic_error("Campaign: not armed (call arm_adversaries first)");
}
}  // namespace

void Campaign::arm_rf(rf::SpectrumConfig spectrum, rf::ForgeryLevel forgery_level) {
  if (harness_ == nullptr) throw_unarmed();
  rf::SpectrumPlan plan =
      rf::SpectrumPlan::equal_partition(spectrum, consortium_.parties().size());
  rf::InterferenceEnvironment environment(spectrum, plan,
                                          harness_->book.jamming_mask(),
                                          harness_->book.squatting_mask());
  harness_->rf.emplace(AdversaryHarness::RfState{spectrum, std::move(plan),
                                                 std::move(environment), forgery_level});
}

bool Campaign::rf_armed() const noexcept {
  return harness_ != nullptr && harness_->rf.has_value();
}

const rf::InterferenceEnvironment* Campaign::rf_environment() const noexcept {
  if (harness_ == nullptr || !harness_->rf.has_value()) return nullptr;
  return &harness_->rf->environment;
}

const adversary::BehaviorBook& Campaign::behavior_book() const {
  if (harness_ == nullptr) throw_unarmed();
  return harness_->book;
}
const adversary::ReceiptAuditor& Campaign::auditor() const {
  if (harness_ == nullptr) throw_unarmed();
  return harness_->auditor;
}
const adversary::QuarantineManager& Campaign::quarantine() const {
  if (harness_ == nullptr) throw_unarmed();
  return harness_->quarantine;
}
const ReputationTracker& Campaign::adversary_reputation() const {
  if (harness_ == nullptr) throw_unarmed();
  return harness_->reputation;
}

Campaign::Campaign(Consortium consortium, std::vector<net::Terminal> terminals,
                   std::vector<net::GroundStation> stations, CampaignConfig config,
                   std::uint64_t seed)
    : consortium_(std::move(consortium)),
      terminals_(std::move(terminals)),
      stations_(std::move(stations)),
      config_(config),
      poc_(config.poc),
      rng_(seed),
      clock_(config.start) {
  const std::size_t party_count = consortium_.parties().size();
  if (party_count == 0) throw std::invalid_argument("Campaign: no parties");
  for (const net::Terminal& t : terminals_) {
    if (t.owner_party >= party_count) {
      throw std::invalid_argument("Campaign: terminal owner out of range");
    }
  }
  for (const net::GroundStation& gs : stations_) {
    if (gs.owner_party >= party_count) {
      throw std::invalid_argument("Campaign: station owner out of range");
    }
  }

  // Ledger bootstrap: one account per party, seeded with the grant. The
  // treasury is pre-funded with enough to cover grants; emissions mint more
  // per epoch.
  ledger_.mint(config_.bootstrap_grant * static_cast<double>(party_count),
               "bootstrap funding");
  for (const Party& party : consortium_.parties()) {
    const AccountId account = ledger_.open_account(party.name);
    accounts_.push_back(account);
    if (!ledger_.reward(account, config_.bootstrap_grant, "bootstrap grant")) {
      throw std::logic_error("Campaign: bootstrap grant failed");
    }
  }

  // Register satellites and verifiers for proof-of-coverage.
  for (const constellation::Satellite& sat : consortium_.active_satellites()) {
    satellite_keys_.push_back(poc_.register_satellite(sat, seed));
    registered_satellite_ids_.push_back(sat.id);
  }
  for (const net::Terminal& t : terminals_) {
    verifier_ids_.push_back(poc_.register_verifier(t.location));
  }
}

std::size_t Campaign::withdraw_party(PartyId party) {
  return consortium_.withdraw_party(party);
}

EpochReport Campaign::run_epoch(sim::RunContext& context) {
  obs::ScopedTimer epoch_timer(context.metrics().histogram("campaign.epoch_seconds"));
  EpochReport report;
  report.epoch = next_epoch_;
  report.window_start = clock_;

  const std::vector<constellation::Satellite> sats = consortium_.active_satellites();
  report.active_satellites = sats.size();
  const std::size_t party_count = consortium_.parties().size();
  std::vector<std::size_t> active_of_registration(registered_satellite_ids_.size(),
                                                  kInactive);
  for (std::size_t i = 0; i < sats.size(); ++i) {
    if (const std::optional<std::size_t> ri = poc_.registration_index(sats[i].id)) {
      active_of_registration[*ri] = i;
    }
  }

  // 1. Schedule the epoch.
  const orbit::TimeGrid grid =
      orbit::TimeGrid::over_duration(clock_, config_.epoch_duration_s, config_.step_s);
  net::SchedulerConfig scheduler_config = config_.scheduler;
  if (harness_ != nullptr) {
    harness_->auditor.set_metrics(&context.metrics());
    harness_->quarantine.set_metrics(&context.metrics());
    // One batched ephemeris per registered satellite for the epoch: the
    // audit prescreen and the forgers' overhead masks read these tables.
    poc_.prepare_grid(grid, context.pool());
    harness_->auditor.set_audit_grid(grid);
    const adversary::PartyAuditStats audit_totals = harness_->auditor.totals();
    harness_->fraud_at_epoch_start = audit_totals.fraud_total();
    harness_->doppler_rejections_at_epoch_start = audit_totals.rf_doppler_rejections;
    harness_->rf_violations_at_epoch_start = audit_totals.rf_interference_violations;
    // RF: an armed environment with at least one active jammer/squatter feeds
    // the scheduler's post-grant degradation; otherwise the config keeps its
    // null default and the run is bit-identical to the pre-RF scheduler.
    if (harness_->rf.has_value() && harness_->rf->environment.any_interferer()) {
      scheduler_config.rf = &harness_->rf->environment;
    }
    // Spare-commons governance for this epoch: quarantine sanctions from
    // prior epochs and the book's withholding fractions. Both vectors stay
    // absent when all-trivial, so an armed campaign with an empty book runs
    // the scheduler on the exact historical config.
    std::vector<std::uint8_t> exclusion = harness_->quarantine.spare_exclusion();
    if (std::any_of(exclusion.begin(), exclusion.end(),
                    [](std::uint8_t e) { return e != 0; })) {
      scheduler_config.spare_exclude_party = std::move(exclusion);
    }
    std::vector<double> withheld = harness_->book.withheld_fractions(party_count);
    if (std::any_of(withheld.begin(), withheld.end(),
                    [](double f) { return f > 0.0; })) {
      scheduler_config.spare_withheld_fraction = std::move(withheld);
    }
  }
  const net::BentPipeScheduler scheduler(scheduler_config, sats, terminals_, stations_);
  net::ScheduleResult usage = scheduler.run(grid, party_count, context);
  report.total_served_seconds = usage.total_served_seconds;
  report.total_unserved_seconds = usage.total_unserved_seconds;
  report.service_fairness = service_fairness(usage);

  // 2. Settle spare-capacity usage.
  report.settlement = settle(usage, accounts_, config_.settlement, ledger_);

  // 3. Proof-of-coverage spot checks: every terminal challenges random
  // registered satellites at random times in the epoch.
  const bool doppler_audit =
      harness_ != nullptr && harness_->auditor.config().doppler.enabled;
  std::vector<double> doppler_offsets;
  std::optional<util::Xoshiro256PlusPlus> doppler_rng;
  if (doppler_audit) {
    doppler_offsets = harness_->auditor.config().doppler.sample_offsets_s();
    // Honest measurement noise draws from a dedicated (book seed, epoch)
    // stream, never from rng_ — the honest challenge schedule stays invariant
    // whether or not the Doppler stage is on.
    doppler_rng.emplace(util::Xoshiro256PlusPlus(harness_->book.seed())
                            .split(0x0DDF)
                            .split(next_epoch_));
  }
  for (std::size_t ti = 0; ti < terminals_.size(); ++ti) {
    for (std::size_t c = 0; c < config_.poc_challenges_per_terminal_per_epoch; ++c) {
      if (registered_satellite_ids_.empty()) break;
      const std::size_t pick = rng_.uniform_index(registered_satellite_ids_.size());
      const orbit::TimePoint when =
          clock_.plus_seconds(rng_.uniform(0.0, config_.epoch_duration_s));
      const CoverageReceipt receipt = ProofOfCoverage::answer_challenge(
          registered_satellite_ids_[pick], satellite_keys_[pick], verifier_ids_[ti],
          when, rng_.next());
      if (active_of_registration[pick] == kInactive) continue;  // withdrawn
      const std::uint32_t owner = sats[active_of_registration[pick]].owner_party;
      // With the Doppler stage on, the honest verifier also measures the RF
      // track of its own challenge: the ephemeris prediction plus receiver
      // noise, over whatever part of the sample window the pass covers.
      rf::DopplerObservation observation;
      const rf::DopplerObservation* track = nullptr;
      if (doppler_audit) {
        const rf::DopplerAuditConfig& dcfg = harness_->auditor.config().doppler;
        const auto predicted = poc_.doppler_track(receipt.satellite, receipt.verifier,
                                                  receipt.time, dcfg.carrier_hz,
                                                  doppler_offsets);
        observation.carrier_hz = dcfg.carrier_hz;
        std::vector<double> truth;
        observation.offsets_s.reserve(predicted.size());
        truth.reserve(predicted.size());
        for (const auto& point : predicted) {
          observation.offsets_s.push_back(point.offset_s);
          truth.push_back(point.doppler_hz);
        }
        observation.doppler_hz =
            rf::observe_doppler_track(truth, dcfg.measurement_noise_hz, *doppler_rng);
        track = &observation;
      }
      // Armed campaigns route the same credit decision through the audit
      // engine (identical verdicts and ledger entries; the auditor adds the
      // per-party evidence trail the quarantine ladder runs on).
      const ReceiptVerdict verdict =
          harness_ != nullptr
              ? harness_->auditor.audit_and_credit(poc_, receipt, owner, ledger_,
                                                   accounts_[owner],
                                                   adversary::ReceiptProvenance::kChallenge,
                                                   track)
              : poc_.verify_and_reward(receipt, ledger_, accounts_[owner]);
      if (verdict == ReceiptVerdict::kValid) {
        ++report.poc_valid;
        if (harness_ != nullptr) harness_->recent_valid[owner] = receipt;
      } else {
        ++report.poc_rejected;
      }
    }
  }

  // 3b. Byzantine behavior: receipt/SLA injections, then the quarantine
  // ladder converts this epoch's audit evidence into sanctions effective
  // from the next epoch's scheduling pass.
  if (harness_ != nullptr) {
    inject_adversary_behavior(grid, sats, active_of_registration, usage, report);
  }

  // 4. Epoch emission, distributed by stake. Parties under sanction
  // (quarantined or expelled) forfeit their share — it stays in the
  // treasury rather than rewarding confirmed misbehavior.
  report.emission_minted = config_.emission.epoch_reward(next_epoch_);
  if (report.emission_minted > 0.0) {
    ledger_.mint(report.emission_minted, "epoch emission");
    for (const Party& party : consortium_.parties()) {
      if (harness_ != nullptr &&
          consortium_.party_status(party.id) != PartyStatus::kActive) {
        continue;
      }
      const double share = consortium_.stake(party.id) * report.emission_minted;
      if (share > 0.0) {
        (void)ledger_.reward(accounts_[party.id], share, "emission by stake");
      }
    }
  }

  report.usage = std::move(usage.per_party);
  report.balances.reserve(party_count);
  for (AccountId account : accounts_) report.balances.push_back(ledger_.balance(account));

  context.metrics().counter("campaign.epochs").add(1);
  context.metrics().counter("campaign.poc_valid").add(report.poc_valid);
  context.metrics().counter("campaign.poc_rejected").add(report.poc_rejected);
  std::ostringstream line;
  line << "epoch " << report.epoch << ": satellites=" << report.active_satellites
       << " served=" << report.total_served_seconds << "s unserved="
       << report.total_unserved_seconds << "s poc=" << report.poc_valid << "/"
       << report.poc_valid + report.poc_rejected << " minted=" << report.emission_minted;
  if (report.adversary.has_value()) {
    context.metrics()
        .counter("campaign.adversary_receipts_injected")
        .add(report.adversary->receipts_injected);
    context.metrics()
        .counter("campaign.adversary_fraud_detected")
        .add(report.adversary->fraud_detected);
    line << " adversary: injected=" << report.adversary->receipts_injected
         << " fraud_detected=" << report.adversary->fraud_detected
         << " quarantined=" << report.adversary->quarantined_parties
         << " expelled=" << report.adversary->expelled_parties;
  }
  context.trace().record(clock_.seconds_since(config_.start), "campaign", line.str());

  clock_ = clock_.plus_seconds(config_.epoch_duration_s);
  ++next_epoch_;
  return report;
}

void Campaign::inject_adversary_behavior(
    const orbit::TimeGrid& grid, const std::vector<constellation::Satellite>& sats,
    const std::vector<std::size_t>& active_of_registration, const net::ScheduleResult& usage,
    EpochReport& report) {
  AdversaryHarness& h = *harness_;
  AdversaryEpochSummary summary;
  const std::size_t party_count = consortium_.parties().size();

  // RF plan violations attributed by the scheduler's interference accounting
  // become audit evidence before the quarantine ladder runs. Continuous
  // off-plan emission is observable at every victim terminal, so detection
  // within the epoch is a certainty — a boosted jammer yields two independent
  // direction-finding fixes, a quieter squatter one.
  if (usage.rf.has_value()) {
    for (PartyId party = 0;
         party < party_count && party < usage.rf->violation_inr_by_party.size();
         ++party) {
      const double inr = usage.rf->violation_inr_by_party[party];
      if (inr <= 0.0) continue;
      const bool jams = h.rf.has_value() && h.rf->environment.jams(party);
      h.auditor.record_interference_violations(party, jams ? 2 : 1, inr);
    }
    summary.rf_nominal_bps = usage.rf->nominal_bps_total;
    summary.rf_capacity_lost_bps =
        usage.rf->nominal_bps_total - usage.rf->realized_bps_total;
  }

  // Registration indices (into satellite_keys_) of each party's still-active
  // satellites: the keys an insider forger actually holds.
  std::vector<std::vector<std::size_t>> party_regs(party_count);
  for (std::size_t ri = 0; ri < active_of_registration.size(); ++ri) {
    if (active_of_registration[ri] == kInactive) continue;
    const std::uint32_t owner = sats[active_of_registration[ri]].owner_party;
    if (owner < party_count) party_regs[owner].push_back(ri);
  }

  for (PartyId party = 0; party < party_count; ++party) {
    const adversary::PartyPolicy& policy = h.book.policy(party);
    if (policy.honest()) continue;
    if (consortium_.party_status(party) == PartyStatus::kWithdrawn) continue;
    // Behavior randomness comes from the book's (seed, party, epoch) stream,
    // never from the campaign rng_ — honest draws stay invariant under any
    // adversary configuration.
    util::Xoshiro256PlusPlus rng = h.book.stream(party, next_epoch_);

    switch (policy.behavior) {
      case adversary::Behavior::kForgeReceipts:
      case adversary::Behavior::kCollude:
      case adversary::Behavior::kInflateReceipts: {
        // Forgery material: keys of own satellites — or, for a coalition,
        // of any member's satellites (shared keys).
        std::vector<std::size_t> regs;
        if (policy.behavior == adversary::Behavior::kCollude) {
          for (PartyId member : h.book.coalition_of(party)) {
            if (member < party_count) {
              regs.insert(regs.end(), party_regs[member].begin(),
                          party_regs[member].end());
            }
          }
        } else {
          regs = party_regs[party];
        }
        for (std::size_t i = 0; i < policy.receipts_per_epoch; ++i) {
          if (policy.behavior == adversary::Behavior::kInflateReceipts &&
              h.recent_valid[party].has_value()) {
            // Inflation: resubmit an already-credited receipt verbatim. The
            // ledger's content-hash guard verdicts it kDuplicate.
            (void)h.auditor.audit_and_credit(poc_, *h.recent_valid[party], party,
                                             ledger_, accounts_[party],
                                             adversary::ReceiptProvenance::kSubmission);
            ++summary.receipts_injected;
            continue;
          }
          if (regs.empty() || verifier_ids_.empty() || grid.count == 0) break;
          // Forgery: a correctly signed receipt (the insider holds the key)
          // claiming a contact at a step the ephemeris says never happened.
          const std::size_t ri = regs[rng.uniform_index(regs.size())];
          const constellation::SatelliteId sat_id = registered_satellite_ids_[ri];
          const std::uint32_t verifier =
              verifier_ids_[rng.uniform_index(verifier_ids_.size())];
          const cov::StepMask overhead = poc_.overhead_steps(sat_id, verifier, grid);
          if (h.auditor.config().doppler.enabled) {
            // RF-era forgery: the insider signs a receipt for a step the
            // geometry DOES support (it holds the key and the ephemeris) and
            // fabricates the accompanying Doppler track at the armed
            // sophistication. Digest and geometry both pass; only the track
            // fit can catch it.
            std::size_t rf_step = rng.uniform_index(grid.count);
            bool overhead_found = false;
            for (std::size_t probe = 0; probe < grid.count; ++probe) {
              const std::size_t s = (rf_step + probe) % grid.count;
              if (overhead.test(s)) {
                rf_step = s;
                overhead_found = true;
                break;
              }
            }
            if (overhead_found) {
              const CoverageReceipt forged = ProofOfCoverage::answer_challenge(
                  sat_id, satellite_keys_[ri], verifier, grid.at(rf_step), rng.next());
              const rf::DopplerAuditConfig& dcfg = h.auditor.config().doppler;
              const auto predicted = poc_.doppler_track(
                  sat_id, verifier, forged.time, dcfg.carrier_hz, dcfg.sample_offsets_s());
              rf::DopplerObservation fabricated;
              fabricated.carrier_hz = dcfg.carrier_hz;
              std::vector<double> truth;
              for (const auto& point : predicted) {
                fabricated.offsets_s.push_back(point.offset_s);
                truth.push_back(point.doppler_hz);
              }
              // Fabricated magnitudes stay inside the physical Doppler
              // envelope at the satellite's altitude — the forger is not
              // naive about scale, only (below kEphemerisExact) about shape.
              const double altitude_m =
                  sats[active_of_registration[ri]].elements.semi_major_axis_m -
                  util::kEarthMeanRadiusM;
              const rf::ForgeryLevel level =
                  h.rf.has_value() ? h.rf->forgery_level : rf::ForgeryLevel::kFlatTone;
              fabricated.doppler_hz = rf::forge_doppler_track(
                  level, truth, cov::max_doppler_bound_hz(altitude_m, dcfg.carrier_hz),
                  rng);
              (void)h.auditor.audit_and_credit(poc_, forged, party, ledger_,
                                               accounts_[party],
                                               adversary::ReceiptProvenance::kSubmission,
                                               &fabricated);
              ++summary.receipts_injected;
              ++summary.rf_forgeries_injected;
              continue;
            }
            // Satellite never overhead for this verifier: fall through to the
            // classic geometric forgery below.
          }
          std::size_t step = rng.uniform_index(grid.count);
          bool gap_found = false;
          for (std::size_t probe = 0; probe < grid.count; ++probe) {
            const std::size_t s = (step + probe) % grid.count;
            if (!overhead.test(s)) {
              step = s;
              gap_found = true;
              break;
            }
          }
          CoverageReceipt receipt = ProofOfCoverage::answer_challenge(
              sat_id, satellite_keys_[ri], verifier, grid.at(step), rng.next());
          if (!gap_found || poc_.verify(receipt) == ReceiptVerdict::kValid) {
            // Always overhead, or mask-boundary round-off let geometry pass:
            // degrade to a key-less forgery the MAC check rejects instead.
            receipt.digest ^= 1;
          }
          (void)h.auditor.audit_and_credit(poc_, receipt, party, ledger_,
                                           accounts_[party],
                                           adversary::ReceiptProvenance::kSubmission);
          ++summary.receipts_injected;
        }
        break;
      }
      case adversary::Behavior::kMisreportSla: {
        const net::PartyUsage& pu = usage.per_party[party];
        const double measured = pu.own_link_seconds + pu.spare_used_seconds;
        const double inflation = policy.sla_inflation();
        // A claim inside the audit tolerance is indistinguishable from
        // measurement noise — the adversary only overclaims when the
        // inflation would actually move the settlement.
        if (measured > 0.0 && inflation > 1.0 + h.auditor.config().sla_tolerance) {
          ++summary.misreports_injected;
          if (h.auditor.audit_sla_claim(party, measured * inflation, measured)) {
            ++summary.misreports_detected;
          }
        }
        break;
      }
      case adversary::Behavior::kWithholdCapacity:
        // Expressed upstream through SchedulerConfig::spare_withheld_fraction;
        // nothing to inject at settlement time.
        break;
      case adversary::Behavior::kJamming:
      case adversary::Behavior::kSpectrumSquatting:
        // Expressed upstream through the scheduler's interference
        // environment; the violation evidence was recorded from the
        // schedule's RF accounting above.
        break;
      case adversary::Behavior::kHonest:
        break;
    }
  }

  // Sanctions: this epoch's evidence escalates trust states, slashes stakes
  // and (eventually) expels repeat offenders.
  h.quarantine.observe_epoch(next_epoch_, h.auditor, ledger_, accounts_, consortium_,
                             &h.reputation);
  summary.quarantined_parties = h.quarantine.quarantined_count();
  summary.expelled_parties = h.quarantine.expelled_count();
  summary.slashed_total = h.quarantine.total_slashed();
  const adversary::PartyAuditStats totals = h.auditor.totals();
  summary.fraud_detected =
      static_cast<std::size_t>(totals.fraud_total() - h.fraud_at_epoch_start);
  summary.rf_doppler_rejections = static_cast<std::size_t>(
      totals.rf_doppler_rejections - h.doppler_rejections_at_epoch_start);
  summary.rf_interference_violations = static_cast<std::size_t>(
      totals.rf_interference_violations - h.rf_violations_at_epoch_start);
  report.adversary = summary;
}

}  // namespace mpleo::core
