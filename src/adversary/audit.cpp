#include "adversary/audit.hpp"

#include <algorithm>

#include "core/validation.hpp"
#include "obs/metrics.hpp"
#include "util/rounding.hpp"

namespace mpleo::adversary {

ReceiptAuditor::ReceiptAuditor(AuditConfig config, std::size_t party_count,
                               obs::MetricsRegistry* metrics)
    : config_(config), stats_(party_count), metrics_(metrics) {
  core::require_non_negative(config_.sla_tolerance, "sla_tolerance");
  core::throw_if_invalid("adversary::AuditConfig", config_.doppler.validate());
  if (config_.doppler.enabled) doppler_offsets_ = config_.doppler.sample_offsets_s();
}

void ReceiptAuditor::count(obs::Counter& handle, std::string_view name, std::uint64_t delta) {
  if (!handle) handle = metrics_->counter(name);
  handle.add(delta);
}

void ReceiptAuditor::observe(obs::Histogram& handle, std::string_view name, double value) {
  if (!handle) handle = metrics_->histogram(name);
  handle.observe(value);
}

core::ReceiptVerdict ReceiptAuditor::audit_and_credit(const core::ProofOfCoverage& poc,
                                                      const core::CoverageReceipt& receipt,
                                                      core::PartyId owner_party,
                                                      core::Ledger& ledger,
                                                      core::AccountId owner_account,
                                                      ReceiptProvenance provenance,
                                                      const rf::DopplerObservation* doppler) {
  PartyAuditStats& stats = stats_.at(owner_party);
  ++stats.submitted;

  // Prescreen against the ephemeris-kernel visibility bit: does the audit
  // grid place the claimed satellite over the claimed verifier at the
  // claimed step? Analytics only — the bit quantises to grid steps, so the
  // exact-geometry check below stays authoritative. Unknown ids are not
  // prescreened; the authoritative verdict reports them.
  bool prescreen_overhead = true;
  bool prescreened = false;
  if (grid_.has_value()) {
    // The claimed time is a party's claim: clamp its step index into
    // [-1, count] before the integer conversion (NaN goes to -1). Both ends
    // lie off the grid, where overhead_at_step reads false.
    const double index = receipt.time.seconds_since(grid_->start) / grid_->step_seconds;
    const double count = static_cast<double>(grid_->count);
    const std::int64_t step =
        util::floor_to_int64(index >= -1.0 ? std::min(index, count) : -1.0);
    if (const std::optional<bool> overhead =
            poc.overhead_at_step(receipt.satellite, receipt.verifier, *grid_, step)) {
      prescreened = true;
      prescreen_overhead = *overhead;
      if (!prescreen_overhead) ++stats.prescreen_flagged;
    }
  }

  // One verify per receipt. RF grounding: a claim that passes digest and
  // exact geometry must also carry a Doppler track whose SHAPE matches what
  // the shared ephemeris kernel predicts for the claimed pass (constant
  // oscillator offset removed; see rf::fit_doppler_track). Decided before
  // crediting, so an implausible receipt never touches the ledger.
  core::ReceiptVerdict verdict = poc.verify(receipt);
  bool doppler_rejected = false;
  if (config_.doppler.enabled && verdict == core::ReceiptVerdict::kValid) {
    const std::vector<core::ProofOfCoverage::DopplerPoint> predicted =
        poc.doppler_track(receipt.satellite, receipt.verifier, receipt.time,
                          config_.doppler.carrier_hz, doppler_offsets_);
    // A window with fewer measurable samples than min_track_samples cannot
    // pin a curve shape: inconclusive, fall through to the geometric path.
    if (predicted.size() >= config_.doppler.min_track_samples) {
      ++stats.doppler_checked;
      std::vector<double> measured;
      std::vector<double> expected;
      if (doppler != nullptr) {
        const std::size_t have =
            std::min(doppler->offsets_s.size(), doppler->doppler_hz.size());
        for (const core::ProofOfCoverage::DopplerPoint& point : predicted) {
          for (std::size_t i = 0; i < have; ++i) {
            if (doppler->offsets_s[i] == point.offset_s) {
              measured.push_back(doppler->doppler_hz[i]);
              expected.push_back(point.doppler_hz);
              break;
            }
          }
        }
      }
      if (measured.size() < config_.doppler.min_track_samples) {
        // The pass was measurable and the claimant brought no (or too little)
        // track: implausible for a contact it says it had.
        doppler_rejected = true;
      } else {
        const rf::TrackFit fit = rf::fit_doppler_track(measured, expected);
        if (metrics_ != nullptr) {
          observe(instruments_.doppler_rms_hz, "audit.doppler_rms_hz", fit.rms_hz);
        }
        doppler_rejected = fit.rms_hz > config_.doppler.rms_tolerance_hz;
      }
    }
  }

  if (doppler_rejected) verdict = core::ReceiptVerdict::kRfImplausible;
  if (verdict == core::ReceiptVerdict::kValid) verdict = poc.credit(receipt, ledger, owner_account);
  switch (verdict) {
    case core::ReceiptVerdict::kValid: ++stats.credited; break;
    case core::ReceiptVerdict::kBadDigest: ++stats.rejected_digest; break;
    case core::ReceiptVerdict::kNotOverhead:
      ++stats.rejected_geometry;
      if (provenance == ReceiptProvenance::kSubmission) ++stats.unsolicited_geometry;
      break;
    case core::ReceiptVerdict::kDuplicate: ++stats.rejected_duplicate; break;
    case core::ReceiptVerdict::kRfImplausible: ++stats.rf_doppler_rejections; break;
    case core::ReceiptVerdict::kUnknownSatellite:
    case core::ReceiptVerdict::kUnknownVerifier: ++stats.rejected_unknown; break;
  }
  if (prescreened) {
    const bool exact_overhead = verdict != core::ReceiptVerdict::kNotOverhead;
    if (prescreen_overhead != exact_overhead) ++stats.prescreen_mismatches;
  }

  if (metrics_ != nullptr) {
    Instruments& m = instruments_;
    count(m.receipts_submitted, "audit.receipts_submitted");
    switch (verdict) {
      case core::ReceiptVerdict::kValid:
        count(m.receipts_credited, "audit.receipts_credited");
        break;
      case core::ReceiptVerdict::kBadDigest:
      case core::ReceiptVerdict::kDuplicate:
        count(m.fraud_detected, "audit.fraud_detected");
        break;
      case core::ReceiptVerdict::kRfImplausible:
        count(m.rf_doppler_rejections, "audit.rf_doppler_rejections");
        count(m.fraud_detected, "audit.fraud_detected");
        break;
      case core::ReceiptVerdict::kNotOverhead:
        if (provenance == ReceiptProvenance::kSubmission) {
          count(m.fraud_detected, "audit.fraud_detected");
        } else {
          count(m.challenge_geometry_misses, "audit.challenge_geometry_misses");
        }
        break;
      case core::ReceiptVerdict::kUnknownSatellite:
      case core::ReceiptVerdict::kUnknownVerifier:
        count(m.receipts_unknown, "audit.receipts_unknown");
        break;
    }
    if (prescreened && !prescreen_overhead) {
      count(m.prescreen_flagged, "audit.prescreen_flagged");
    }
  }
  return verdict;
}

bool ReceiptAuditor::audit_sla_claim(core::PartyId party, double claimed_seconds,
                                     double measured_seconds) {
  core::require_non_negative(claimed_seconds, "claimed_seconds");
  core::require_non_negative(measured_seconds, "measured_seconds");
  const bool misreport = claimed_seconds > measured_seconds * (1.0 + config_.sla_tolerance);
  if (misreport) {
    ++stats_.at(party).sla_misreports;
    if (metrics_ != nullptr) count(instruments_.sla_misreports, "audit.sla_misreports");
  }
  return misreport;
}

void ReceiptAuditor::record_interference_violations(core::PartyId party,
                                                    std::uint64_t events,
                                                    double total_inr) {
  if (events == 0) return;
  stats_.at(party).rf_interference_violations += events;
  if (metrics_ != nullptr) {
    count(instruments_.rf_interference_violations, "audit.rf_interference_violations", events);
    observe(instruments_.rf_violation_inr, "audit.rf_violation_inr", total_inr);
  }
}

const PartyAuditStats& ReceiptAuditor::stats(core::PartyId party) const {
  return stats_.at(party);
}

PartyAuditStats ReceiptAuditor::totals() const {
  PartyAuditStats total;
  for (const PartyAuditStats& s : stats_) {
    total.submitted += s.submitted;
    total.credited += s.credited;
    total.rejected_digest += s.rejected_digest;
    total.rejected_geometry += s.rejected_geometry;
    total.unsolicited_geometry += s.unsolicited_geometry;
    total.rejected_duplicate += s.rejected_duplicate;
    total.rejected_unknown += s.rejected_unknown;
    total.sla_misreports += s.sla_misreports;
    total.doppler_checked += s.doppler_checked;
    total.rf_doppler_rejections += s.rf_doppler_rejections;
    total.rf_interference_violations += s.rf_interference_violations;
    total.prescreen_flagged += s.prescreen_flagged;
    total.prescreen_mismatches += s.prescreen_mismatches;
  }
  return total;
}

}  // namespace mpleo::adversary
