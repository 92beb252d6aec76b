#include "adversary/quarantine.hpp"

#include <algorithm>
#include <utility>

#include "core/validation.hpp"
#include "obs/metrics.hpp"

namespace mpleo::adversary {

QuarantineManager::QuarantineManager(QuarantineConfig config, std::size_t party_count,
                                     obs::MetricsRegistry* metrics)
    : config_(config),
      records_(party_count),
      last_fraud_totals_(party_count, 0),
      metrics_(metrics) {
  core::require_fraction(config_.stake_slash_fraction, "stake_slash_fraction");
}

void QuarantineManager::observe_epoch(std::size_t epoch, const ReceiptAuditor& auditor,
                                      core::Ledger& ledger,
                                      std::span<const core::AccountId> accounts,
                                      core::Consortium& consortium,
                                      core::ReputationTracker* reputation) {
  for (core::PartyId party = 0; party < records_.size(); ++party) {
    PartyTrustRecord& record = records_[party];
    if (record.state == TrustState::kExpelled) continue;

    const std::uint64_t total = auditor.stats(party).fraud_total();
    const std::uint64_t fresh = total - last_fraud_totals_[party];
    last_fraud_totals_[party] = total;
    record.fraud_last_epoch = fresh;
    record.fraud_seen += fresh;  // accumulated since the last reset, not raw totals
    if (fresh > 0 && record.first_fraud_epoch == PartyTrustRecord::kNever) {
      record.first_fraud_epoch = epoch;
    }
    if (reputation != nullptr && fresh > 0) {
      reputation->record_fraud(party, static_cast<std::size_t>(fresh));
    }

    switch (record.state) {
      case TrustState::kTrusted:
        if (fresh >= config_.suspect_threshold && config_.suspect_threshold > 0) {
          record.state = TrustState::kSuspected;
        }
        [[fallthrough]];
      case TrustState::kSuspected:
        if (record.fraud_seen >= config_.quarantine_threshold) {
          record.state = TrustState::kQuarantined;
          record.quarantined_epoch = epoch;
          record.quarantined_fraud_epochs = 0;
          record.clean_epochs = 0;
          consortium.quarantine_party(party);
          // Slash: a fraction of the party's stake moves to the treasury.
          // The transfer can only fail on a zero balance, in which case
          // there is nothing to slash anyway.
          if (party < accounts.size()) {
            const double slash = core::Consortium::slash_amount(
                ledger.balance(accounts[party]), config_.stake_slash_fraction);
            if (slash > 0.0 &&
                ledger.transfer(accounts[party], core::Ledger::kTreasury, slash,
                                "quarantine slash")) {
              record.slashed_total += slash;
            }
          }
          const std::size_t since = record.first_fraud_epoch == PartyTrustRecord::kNever
                                        ? 0
                                        : epoch - record.first_fraud_epoch;
          detections_.emplace_back(record.first_fraud_epoch, epoch);
          if (metrics_ != nullptr) {
            metrics_->counter("quarantine.quarantined").add(1);
            metrics_
                ->histogram("quarantine.detection_epochs",
                            obs::MetricsRegistry::default_count_bounds())
                .observe(static_cast<double>(since));
          }
        }
        break;
      case TrustState::kQuarantined:
        if (fresh > 0) {
          record.clean_epochs = 0;
          if (++record.quarantined_fraud_epochs >= config_.expel_after_quarantined_epochs) {
            record.state = TrustState::kExpelled;
            consortium.withdraw_party(party);
            if (metrics_ != nullptr) metrics_->counter("quarantine.expelled").add(1);
          }
        } else if (++record.clean_epochs >= config_.reinstate_after_clean_epochs) {
          // Probation, not absolution: back to kSuspected with the evidence
          // counter reset so a relapse re-runs the full escalation.
          record.state = TrustState::kSuspected;
          record.fraud_seen = 0;
          record.quarantined_fraud_epochs = 0;
          record.clean_epochs = 0;
          consortium.reinstate_party(party);
          if (metrics_ != nullptr) metrics_->counter("quarantine.reinstated").add(1);
        }
        break;
      case TrustState::kExpelled:
        break;
    }
  }
}

TrustState QuarantineManager::state(core::PartyId party) const {
  return records_.at(party).state;
}

const PartyTrustRecord& QuarantineManager::record(core::PartyId party) const {
  return records_.at(party);
}

std::vector<std::uint8_t> QuarantineManager::spare_exclusion() const {
  std::vector<std::uint8_t> mask(records_.size(), 0);
  for (std::size_t party = 0; party < records_.size(); ++party) {
    const TrustState state = records_[party].state;
    mask[party] =
        (state == TrustState::kQuarantined || state == TrustState::kExpelled) ? 1 : 0;
  }
  return mask;
}

std::size_t QuarantineManager::quarantined_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(records_.begin(), records_.end(), [](const PartyTrustRecord& r) {
        return r.state == TrustState::kQuarantined;
      }));
}

std::size_t QuarantineManager::expelled_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(records_.begin(), records_.end(), [](const PartyTrustRecord& r) {
        return r.state == TrustState::kExpelled;
      }));
}

double QuarantineManager::total_slashed() const noexcept {
  double total = 0.0;
  for (const PartyTrustRecord& record : records_) total += record.slashed_total;
  return total;
}

double QuarantineManager::mean_detection_epochs() const noexcept {
  if (detections_.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& [first_fraud, quarantined] : detections_) {
    sum += first_fraud == PartyTrustRecord::kNever
               ? 0.0
               : static_cast<double>(quarantined - first_fraud);
  }
  return sum / static_cast<double>(detections_.size());
}

}  // namespace mpleo::adversary
