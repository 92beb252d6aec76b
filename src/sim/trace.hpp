// Structured trace recording for simulation runs: benches and examples use
// it to explain *why* a number came out (which party withdrew when, which
// proofs failed, ...).
#pragma once

#include <string>
#include <vector>

namespace mpleo::sim {

struct TraceEvent {
  double time_s = 0.0;
  std::string category;  // e.g. "withdrawal", "poc", "market"
  std::string message;
};

class TraceRecorder {
 public:
  void record(double time_s, std::string category, std::string message);

  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept { return events_; }

  // Renders "t=123.0s [category] message" lines.
  [[nodiscard]] std::string to_string() const;

  void clear() noexcept { events_.clear(); }

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace mpleo::sim
