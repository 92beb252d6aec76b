// Discrete-event queue: time-ordered callbacks with FIFO tie-breaking.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace mpleo::sim {

using EventCallback = std::function<void()>;

class EventQueue {
 public:
  // Schedules `callback` at absolute simulation time `time_s`.
  // Events at equal times fire in scheduling order.
  void schedule(double time_s, EventCallback callback);

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  // Time of the earliest pending event. Precondition: !empty().
  [[nodiscard]] double next_time() const;

  // Pops and runs the earliest event; returns its time. Precondition: !empty().
  double run_next();

 private:
  struct Entry {
    double time;
    std::uint64_t sequence;
    EventCallback callback;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::uint64_t next_sequence_ = 0;
};

}  // namespace mpleo::sim
