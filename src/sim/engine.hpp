// Simulation engine: a clock driving the event queue, with periodic-task
// support. Used by the market/withdrawal examples where discrete events
// (party exits, price updates, proof-of-coverage challenges) are interleaved
// with the stepped coverage timeline.
#pragma once

#include "sim/event_queue.hpp"

namespace mpleo::sim {

class SimEngine {
 public:
  [[nodiscard]] double now() const noexcept { return now_s_; }

  // Schedules at an absolute time (>= now).
  void at(double time_s, EventCallback callback);
  // Schedules `callback` every `period_s` starting at now + period_s until
  // `until_s` (exclusive).
  void every(double period_s, double until_s, const EventCallback& callback);

  // Runs events until the queue is empty or the next event is past `end_s`.
  // The clock finishes at min(end_s, last event time).
  void run_until(double end_s);

  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }

 private:
  EventQueue queue_;
  double now_s_ = 0.0;
};

}  // namespace mpleo::sim
