// Incremental placement (§3.3): where should the next satellite go?
//
// The paper's finding: marginal population-weighted coverage gain is
// maximized by placing new satellites *far* from existing ones — different
// phase, plane, or inclination — and this incentive-aligned placement is
// exactly what also makes the constellation robust to withdrawals.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "constellation/designer.hpp"
#include "constellation/shell.hpp"
#include "coverage/engine.hpp"

namespace mpleo::core {

struct PlacementEvaluation {
  constellation::CandidateSlot slot;
  double base_weighted_seconds = 0.0;
  double gained_weighted_seconds = 0.0;  // marginal coverage from adding the slot
};

class PlacementOptimizer {
 public:
  // `engine` and `sites` define the coverage objective (typically the
  // population-weighted 21-city set).
  PlacementOptimizer(const cov::CoverageEngine& engine,
                     std::span<const cov::GroundSite> sites);

  // Marginal weighted coverage (seconds) of adding each candidate to `base`,
  // evaluated against the same base; results are returned in candidate
  // order (not sorted) so callers can plot sweeps (Fig. 4b).
  [[nodiscard]] std::vector<PlacementEvaluation> evaluate(
      std::span<const constellation::Satellite> base,
      std::span<const constellation::CandidateSlot> candidates,
      orbit::TimePoint candidate_epoch) const;

  // Greedy gap-filling: picks `count` slots one at a time, each maximizing
  // marginal gain against base + previous picks. Returns picks in order.
  // Candidate masks are computed once and reused across rounds; results are
  // identical to re-evaluating every round.
  [[nodiscard]] std::vector<PlacementEvaluation> plan_incremental(
      std::vector<constellation::Satellite> base,
      std::span<const constellation::CandidateSlot> candidates,
      orbit::TimePoint candidate_epoch, std::size_t count) const;

 private:
  // Per-site union masks of a satellite set (the reusable part of the eval).
  [[nodiscard]] std::vector<cov::StepMask> union_masks(
      std::span<const constellation::Satellite> satellites) const;

  const cov::CoverageEngine* engine_;
  std::vector<cov::GroundSite> sites_;
  std::vector<double> weights_;  // normalised
};

}  // namespace mpleo::core
