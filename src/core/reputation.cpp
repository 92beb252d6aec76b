#include "core/reputation.hpp"

#include <algorithm>
#include <stdexcept>

namespace mpleo::core {

ReputationTracker::ReputationTracker(std::size_t party_count, Config config)
    : config_(config), scores_(party_count, config.initial) {
  if (party_count == 0) {
    throw std::invalid_argument("ReputationTracker: no parties");
  }
  if (config_.floor > config_.ceiling || config_.initial < config_.floor ||
      config_.initial > config_.ceiling) {
    throw std::invalid_argument("ReputationTracker: inconsistent score bounds");
  }
}

void ReputationTracker::record_fraud(PartyId party, std::size_t count) {
  if (count == 0) return;
  double& score = scores_.at(party);
  score -= config_.fraud_penalty * static_cast<double>(count);
  score = std::clamp(score, config_.floor, config_.ceiling);
}

void ReputationTracker::record_outage(PartyId party, double outage_seconds) {
  if (outage_seconds < 0.0) {
    throw std::invalid_argument("ReputationTracker: negative outage seconds");
  }
  double& score = scores_.at(party);
  score -= config_.outage_penalty_per_hour * outage_seconds / 3600.0;
  score = std::clamp(score, config_.floor, config_.ceiling);
}

double ReputationTracker::score(PartyId party) const { return scores_.at(party); }

double ReputationTracker::priority_weight(PartyId party) const {
  return 0.1 + 0.9 * score(party);
}

}  // namespace mpleo::core
