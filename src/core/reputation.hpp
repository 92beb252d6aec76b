// Reputation: the consortium's memory of good behavior (§3.2's "what
// constitutes good behavior" and the §1 requirement that parties cannot
// "deny service to others while continuing to benefit").
//
// Scores move on evidence, and only down: audit-confirmed fraud and asset
// downtime lower them. The score maps to a service-priority weight the
// scheduler layer can apply to spare capacity contention.
#pragma once

#include <cstddef>
#include <vector>

#include "core/party.hpp"

namespace mpleo::core {

class ReputationTracker {
 public:
  struct Config {
    double initial = 0.5;
    // Per audit-confirmed fraudulent receipt / SLA misreport (see
    // adversary::ReceiptAuditor).
    double fraud_penalty = 0.20;
    // Per hour of a party's assets being down (fault::FaultTimeline outage
    // records). Uptime earns nothing; downtime erodes trust.
    double outage_penalty_per_hour = 0.005;
    double floor = 0.0;
    double ceiling = 1.0;
  };

  explicit ReputationTracker(std::size_t party_count)
      : ReputationTracker(party_count, Config{}) {}
  ReputationTracker(std::size_t party_count, Config config);

  // Feed `count` audit-confirmed fraud events (forged/inflated receipts,
  // SLA misreports) for one party. Zero count is a no-op.
  void record_fraud(PartyId party, std::size_t count);
  // Feed an epoch's accumulated asset downtime for one party (e.g. one
  // entry of fault::FaultTimeline::outage_seconds_by_party). Zero seconds
  // is a no-op. Precondition: outage_seconds >= 0.
  void record_outage(PartyId party, double outage_seconds);

  [[nodiscard]] double score(PartyId party) const;
  // Spare-capacity priority weight in [0.1, 1]: parties never starve
  // entirely (degradation proportional, not punitive blackout).
  [[nodiscard]] double priority_weight(PartyId party) const;
  [[nodiscard]] std::size_t party_count() const noexcept { return scores_.size(); }

 private:
  Config config_;
  std::vector<double> scores_;
};

}  // namespace mpleo::core
