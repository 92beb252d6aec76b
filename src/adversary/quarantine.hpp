// Quarantine and slashing: turning audit evidence into consortium sanctions.
//
// The QuarantineManager watches ReceiptAuditor fraud evidence epoch by epoch
// and walks each party through a trust ladder:
//
//   kTrusted --fraud >= suspect_threshold--> kSuspected
//   kSuspected --cumulative fraud >= quarantine_threshold--> kQuarantined
//     (stake slashed via Consortium::slash_amount, party barred from the
//      spare commons and the capacity market, reputation penalised)
//   kQuarantined --fraud continues for expel_after_quarantined_epochs-->
//     kExpelled (consortium withdrawal — satellites leave the active set;
//      terminal state)
//   kQuarantined --clean for reinstate_after_clean_epochs--> kSuspected
//     (consortium reinstated; evidence counter reset, trust stays probationary)
//
// Sanctions degrade service gracefully, never punitively: a quarantined
// party's satellites keep serving its own terminals (scheduler
// spare_exclude_party semantics), it simply stops drawing on — or feeding —
// the shared spare pool until reinstated.
//
// Detection latency (epochs from a party's first fraud evidence to its
// quarantine) lands in the "quarantine.detection_epochs" histogram — the
// paper-level question is how fast a decentralized audit trail isolates a
// Byzantine member.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/consortium.hpp"
#include "core/ledger.hpp"
#include "core/party.hpp"
#include "core/reputation.hpp"

#include "adversary/audit.hpp"

namespace mpleo::obs {
class MetricsRegistry;
}

namespace mpleo::adversary {

enum class TrustState : std::uint8_t {
  kTrusted,
  kSuspected,
  kQuarantined,
  kExpelled,  // terminal
};

struct QuarantineConfig {
  // Fraud events in one epoch that turn kTrusted into kSuspected.
  std::uint64_t suspect_threshold = 1;
  // Cumulative fraud events that trigger quarantine.
  std::uint64_t quarantine_threshold = 4;
  // Epochs with fresh fraud evidence while quarantined before expulsion.
  std::size_t expel_after_quarantined_epochs = 3;
  // Clean quarantined epochs before reinstatement (back to kSuspected).
  std::size_t reinstate_after_clean_epochs = 4;
  // Fraction of the party's token balance slashed to the treasury at the
  // moment of quarantine; validated to [0, 1] by core::require_fraction.
  double stake_slash_fraction = 0.5;
};

// Per-party sanction bookkeeping surfaced to reports and tests.
struct PartyTrustRecord {
  TrustState state = TrustState::kTrusted;
  std::uint64_t fraud_seen = 0;          // cumulative audited fraud events
  std::uint64_t fraud_last_epoch = 0;    // fresh evidence in the last epoch
  std::size_t first_fraud_epoch = kNever;
  std::size_t quarantined_epoch = kNever;
  std::size_t quarantined_fraud_epochs = 0;  // fraud epochs while quarantined
  std::size_t clean_epochs = 0;              // consecutive clean epochs
  double slashed_total = 0.0;                // tokens taken to the treasury

  static constexpr std::size_t kNever = static_cast<std::size_t>(-1);

  friend bool operator==(const PartyTrustRecord&, const PartyTrustRecord&) = default;
};

class QuarantineManager {
 public:
  // `metrics` and `reputation` may be null. Throws core::ValidationError on
  // an out-of-range stake_slash_fraction.
  QuarantineManager(QuarantineConfig config, std::size_t party_count,
                    obs::MetricsRegistry* metrics = nullptr);

  // Processes one epoch of audit evidence: diffs the auditor's cumulative
  // per-party stats against the last observation, escalates trust states,
  // executes slashing on `ledger` (party account -> treasury) and membership
  // sanctions on `consortium`, and penalises `reputation` (if non-null) per
  // fresh fraud event. `accounts` maps party id -> ledger account (the
  // campaign's mapping). Call once per epoch, after auditing and before
  // emission, with `epoch` strictly increasing.
  void observe_epoch(std::size_t epoch, const ReceiptAuditor& auditor,
                     core::Ledger& ledger, std::span<const core::AccountId> accounts,
                     core::Consortium& consortium,
                     core::ReputationTracker* reputation = nullptr);

  // Re-points instrumentation (e.g. at the RunContext registry of the epoch
  // being run). Null detaches it.
  void set_metrics(obs::MetricsRegistry* metrics) noexcept { metrics_ = metrics; }

  [[nodiscard]] TrustState state(core::PartyId party) const;
  [[nodiscard]] const PartyTrustRecord& record(core::PartyId party) const;
  [[nodiscard]] const std::vector<PartyTrustRecord>& records() const noexcept {
    return records_;
  }

  // Byte-per-party mask (1 = quarantined or expelled) for the scheduler's
  // spare_exclude_party / the market's excluded_parties. All-zero while
  // every party is trusted.
  [[nodiscard]] std::vector<std::uint8_t> spare_exclusion() const;

  [[nodiscard]] std::size_t quarantined_count() const noexcept;
  [[nodiscard]] std::size_t expelled_count() const noexcept;
  [[nodiscard]] double total_slashed() const noexcept;
  // Mean epochs from first fraud evidence to quarantine over every party
  // ever quarantined; 0 when none was.
  [[nodiscard]] double mean_detection_epochs() const noexcept;

  [[nodiscard]] const QuarantineConfig& config() const noexcept { return config_; }

 private:
  QuarantineConfig config_;
  std::vector<PartyTrustRecord> records_;
  std::vector<std::uint64_t> last_fraud_totals_;  // auditor cumulative at last epoch
  // (first fraud epoch, quarantine epoch) pairs for every quarantine event.
  std::vector<std::pair<std::size_t, std::size_t>> detections_;
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace mpleo::adversary
