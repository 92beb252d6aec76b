#include "core/sla.hpp"

#include "fault/timeline.hpp"
#include "obs/metrics.hpp"
#include "sim/run_context.hpp"

namespace mpleo::core {
const char* to_string(SlaClause clause) noexcept {
  switch (clause) {
    case SlaClause::kCoverageFraction: return "coverage-fraction";
    case SlaClause::kMaxGap: return "max-gap";
  }
  return "?";
}

SlaReport evaluate_sla(const SlaTerms& terms, const cov::CoverageStats& coverage) {
  SlaReport report;
  if (coverage.covered_fraction < terms.min_coverage_fraction) {
    report.violations.push_back({SlaClause::kCoverageFraction,
                                 terms.min_coverage_fraction,
                                 coverage.covered_fraction});
  }
  if (coverage.max_gap_seconds > terms.max_gap_seconds) {
    report.violations.push_back(
        {SlaClause::kMaxGap, terms.max_gap_seconds, coverage.max_gap_seconds});
  }
  report.compliant = report.violations.empty();
  report.total_penalty =
      terms.penalty_per_violation * static_cast<double>(report.violations.size());
  return report;
}

SlaReport evaluate_sla(const SlaTerms& terms, cov::VisibilityCache& cache,
                       std::span<const std::size_t> satellite_indices,
                       std::size_t site_index, sim::RunContext& context) {
  obs::ScopedTimer timer(context.metrics().histogram("sla.evaluate_seconds"));
  if (context.pool() != nullptr) cache.precompute_all(context);
  const cov::StepMask mask =
      cache.union_mask(satellite_indices, site_index, context.faults());
  const SlaReport report = evaluate_sla(terms, cache.engine().stats(mask));
  context.metrics().counter("sla.evaluations").add(1);
  context.metrics().counter("sla.violations").add(report.violations.size());
  return report;
}

bool settle_sla_penalty(const SlaReport& report, Ledger& ledger, AccountId provider,
                        AccountId customer) {
  if (report.total_penalty <= 0.0) return true;
  return ledger.transfer(provider, customer, report.total_penalty, "SLA penalty");
}

}  // namespace mpleo::core
