#include "sim/run_context.hpp"

namespace mpleo::sim {

RunContext::RunContext(Scenario scenario) : scenario_(std::move(scenario)) {
  if (scenario_.threads != 1) {
    owned_pool_ = std::make_unique<util::ThreadPool>(scenario_.threads);
    pool_ = owned_pool_.get();
  }
}

RunContext::~RunContext() = default;

RunContext& RunContext::use_threads(std::size_t count) {
  scenario_.threads = count;
  owned_pool_.reset();
  pool_ = nullptr;
  if (count != 1) {
    owned_pool_ = std::make_unique<util::ThreadPool>(count);
    pool_ = owned_pool_.get();
  }
  return *this;
}

RunContext& RunContext::use_pool(util::ThreadPool* pool) {
  owned_pool_.reset();
  pool_ = pool;
  return *this;
}

RunContext& RunContext::use_faults(const fault::FaultTimeline* timeline) {
  faults_ = timeline;
  return *this;
}

RunContext& RunContext::clear_faults() {
  faults_ = nullptr;
  return *this;
}

}  // namespace mpleo::sim
