// Service-level agreements (§4 "Market design": "What kinds of
// quality-of-service can they provide?").
//
// An SLA binds a provider to measurable service: minimum coverage fraction
// and maximum continuous outage. Compliance is evaluated against the same
// CoverageStats the rest of the stack produces, and violations settle as
// ledger penalties — so QoS is enforceable inside the token economy rather
// than by promise.
#pragma once

#include <string>
#include <vector>

#include "core/ledger.hpp"
#include "coverage/engine.hpp"

namespace mpleo::sim {
class RunContext;
}

namespace mpleo::core {

struct SlaTerms {
  std::string name = "standard";
  double min_coverage_fraction = 0.95;
  double max_gap_seconds = 3600.0;
  // Penalty per violated clause, paid provider -> customer at settlement.
  double penalty_per_violation = 25.0;
};

enum class SlaClause {
  kCoverageFraction,
  kMaxGap,
};

[[nodiscard]] const char* to_string(SlaClause clause) noexcept;

struct SlaViolation {
  SlaClause clause = SlaClause::kCoverageFraction;
  double required = 0.0;
  double delivered = 0.0;
};

struct SlaReport {
  bool compliant = true;
  std::vector<SlaViolation> violations;
  double total_penalty = 0.0;
};

// Evaluates the coverage clauses against a site's coverage statistics.
[[nodiscard]] SlaReport evaluate_sla(const SlaTerms& terms,
                                     const cov::CoverageStats& coverage);

// Evaluates the coverage clauses on the fault-degraded union of
// `satellite_indices` at `site_index`: outages carve real gaps into the
// coverage timeline, so a failure longer than max_gap_seconds violates the
// SLA even when the orbital geometry alone would have complied. The
// context's timeline degrades the union (none = healthy; an empty timeline
// is bit-identical to the healthy union) and its pool precomputes the
// cache's visibility masks in parallel across satellites first
// (bit-identical to the lazy serial fill). Evaluation time and violation
// counts land in context.metrics() under "sla.", the pooled fill's under
// "cov.".
[[nodiscard]] SlaReport evaluate_sla(const SlaTerms& terms, cov::VisibilityCache& cache,
                                     std::span<const std::size_t> satellite_indices,
                                     std::size_t site_index, sim::RunContext& context);

// Executes the penalty transfer; returns false when the provider cannot pay
// (the shortfall is recorded by the caller — an undercollateralised provider
// is itself a reputation event).
[[nodiscard]] bool settle_sla_penalty(const SlaReport& report, Ledger& ledger,
                                      AccountId provider, AccountId customer);

}  // namespace mpleo::core
