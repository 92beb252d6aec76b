// The simulator's single entry-point facade: one RunContext holds everything
// a run needs — the Scenario, the worker pool, the (optional, borrowed)
// fault timeline, the trace recorder and the metrics registry — so subsystem
// APIs take `sim::RunContext&` instead of growing tails of optional
// parameters.
//
// Each parallel operation has exactly one entry point. One whose metrics a
// bench reads takes the context (BentPipeScheduler::run,
// Campaign::run_epoch, evaluate_sla, VisibilityCache::precompute_all,
// resilience_sweep, chaos_sweep, adversary_sweep). A fill whose caller
// already times it takes a util::ThreadPool* (EphemerisSet::compute,
// CoverageEngine::ephemerides, ProofOfCoverage::prepare_grid); callers
// holding a context pass context.pool().
//
// Contract: results never depend on the pool size, including none — same
// ScheduleResult down to link ordering, same coverage masks; the pool only
// changes wall-clock time. Faults reach every faultable subsystem through
// faults(), and metrics/tracing observe without perturbing.
#pragma once

#include <cstddef>
#include <memory>

#include "fault/timeline.hpp"
#include "obs/metrics.hpp"
#include "sim/scenario.hpp"
#include "sim/trace.hpp"
#include "util/thread_pool.hpp"

namespace mpleo::sim {

class RunContext {
 public:
  // Sizes the pool from scenario.threads: 1 (the default) runs serial with
  // no pool at all, 0 sizes to the hardware concurrency, N spins up N
  // threads (workers + caller).
  RunContext() : RunContext(Scenario{}) {}
  explicit RunContext(Scenario scenario);
  ~RunContext();

  // Non-copyable and non-movable: subsystems hold references across a run,
  // and the owned pool's workers must never outlive a moved-from shell.
  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  [[nodiscard]] const Scenario& scenario() const noexcept { return scenario_; }
  [[nodiscard]] orbit::TimeGrid grid() const { return scenario_.grid(); }

  // The pool driving parallel phases; nullptr means serial.
  [[nodiscard]] util::ThreadPool* pool() const noexcept { return pool_; }
  [[nodiscard]] std::size_t thread_count() const noexcept {
    return pool_ != nullptr ? pool_->thread_count() : 1;
  }
  // Replaces the pool with an owned one of `count` threads (1 = serial,
  // 0 = hardware concurrency), or borrows an external pool (nullptr =
  // serial). Borrowed pools must outlive every run driven through this
  // context.
  RunContext& use_threads(std::size_t count);
  RunContext& use_pool(util::ThreadPool* pool);

  // The fault timeline every faultable subsystem sees; nullptr = healthy.
  // The context borrows it: the timeline must outlive the runs.
  [[nodiscard]] const fault::FaultTimeline* faults() const noexcept { return faults_; }
  RunContext& use_faults(const fault::FaultTimeline* timeline);
  RunContext& clear_faults();

  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }

  [[nodiscard]] TraceRecorder& trace() noexcept { return trace_; }
  [[nodiscard]] const TraceRecorder& trace() const noexcept { return trace_; }

 private:
  Scenario scenario_;
  std::unique_ptr<util::ThreadPool> owned_pool_;
  util::ThreadPool* pool_ = nullptr;
  const fault::FaultTimeline* faults_ = nullptr;
  TraceRecorder trace_;
  obs::MetricsRegistry metrics_;
};

}  // namespace mpleo::sim
