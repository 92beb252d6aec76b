#include "core/placement.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

namespace mpleo::core {

PlacementOptimizer::PlacementOptimizer(const cov::CoverageEngine& engine,
                                       std::span<const cov::GroundSite> sites)
    : engine_(&engine), sites_(sites.begin(), sites.end()) {
  double total = 0.0;
  for (const cov::GroundSite& site : sites_) total += site.weight;
  weights_.reserve(sites_.size());
  for (const cov::GroundSite& site : sites_) {
    weights_.push_back(total > 0.0 ? site.weight / total : 0.0);
  }
}

std::vector<cov::StepMask> PlacementOptimizer::union_masks(
    std::span<const constellation::Satellite> satellites) const {
  std::vector<cov::StepMask> unions(sites_.size(),
                                    cov::StepMask(engine_->grid().count));
  for (const constellation::Satellite& sat : satellites) {
    const std::vector<cov::StepMask> per_site = engine_->visibility_masks(sat, sites_);
    for (std::size_t j = 0; j < sites_.size(); ++j) unions[j] |= per_site[j];
  }
  return unions;
}

std::vector<PlacementEvaluation> PlacementOptimizer::evaluate(
    std::span<const constellation::Satellite> base,
    std::span<const constellation::CandidateSlot> candidates,
    orbit::TimePoint candidate_epoch) const {
  const std::vector<cov::StepMask> base_masks = union_masks(base);
  const double window = engine_->grid().duration_seconds();

  double base_weighted = 0.0;
  for (std::size_t j = 0; j < sites_.size(); ++j) {
    base_weighted += weights_[j] * base_masks[j].fraction() * window;
  }

  std::vector<PlacementEvaluation> evals;
  evals.reserve(candidates.size());
  for (const constellation::CandidateSlot& slot : candidates) {
    constellation::Satellite probe;
    probe.name = slot.label;
    probe.elements = slot.elements;
    probe.epoch = candidate_epoch;
    const std::vector<cov::StepMask> probe_masks = engine_->visibility_masks(probe, sites_);

    double gain = 0.0;
    for (std::size_t j = 0; j < sites_.size(); ++j) {
      cov::StepMask fresh = probe_masks[j];
      fresh.subtract(base_masks[j]);
      gain += weights_[j] * fresh.fraction() * window;
    }
    evals.push_back({slot, base_weighted, gain});
  }
  return evals;
}

std::vector<PlacementEvaluation> PlacementOptimizer::plan_incremental(
    std::vector<constellation::Satellite> base,
    std::span<const constellation::CandidateSlot> candidates,
    orbit::TimePoint candidate_epoch, std::size_t count) const {
  const double window = engine_->grid().duration_seconds();

  // A candidate's masks depend only on its own elements, never on the
  // growing base, so compute them once up front instead of re-propagating
  // every remaining candidate on every greedy round.
  std::vector<std::vector<cov::StepMask>> candidate_masks;
  candidate_masks.reserve(candidates.size());
  for (const constellation::CandidateSlot& slot : candidates) {
    constellation::Satellite probe;
    probe.name = slot.label;
    probe.elements = slot.elements;
    probe.epoch = candidate_epoch;
    candidate_masks.push_back(engine_->visibility_masks(probe, sites_));
  }

  // The base union grows by OR-ing in each pick — bit-identical to
  // recomputing it from scratch with the placed satellites appended.
  std::vector<cov::StepMask> base_masks = union_masks(base);
  std::vector<std::size_t> remaining(candidates.size());
  std::iota(remaining.begin(), remaining.end(), std::size_t{0});

  std::vector<PlacementEvaluation> picks;
  for (std::size_t round = 0; round < count && !remaining.empty(); ++round) {
    double base_weighted = 0.0;
    for (std::size_t j = 0; j < sites_.size(); ++j) {
      base_weighted += weights_[j] * base_masks[j].fraction() * window;
    }

    std::size_t best_pos = 0;
    double best_gain = -std::numeric_limits<double>::infinity();
    for (std::size_t pos = 0; pos < remaining.size(); ++pos) {
      const std::vector<cov::StepMask>& probe_masks = candidate_masks[remaining[pos]];
      double gain = 0.0;
      for (std::size_t j = 0; j < sites_.size(); ++j) {
        cov::StepMask fresh = probe_masks[j];
        fresh.subtract(base_masks[j]);
        gain += weights_[j] * fresh.fraction() * window;
      }
      if (gain > best_gain) {
        best_gain = gain;
        best_pos = pos;
      }
    }

    const std::size_t best_index = remaining[best_pos];
    picks.push_back({candidates[best_index], base_weighted, best_gain});
    for (std::size_t j = 0; j < sites_.size(); ++j) {
      base_masks[j] |= candidate_masks[best_index][j];
    }
    remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(best_pos));
  }
  return picks;
}

}  // namespace mpleo::core
