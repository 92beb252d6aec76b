#include "sim/event_queue.hpp"

#include <stdexcept>
#include <utility>

namespace mpleo::sim {

void EventQueue::schedule(double time_s, EventCallback callback) {
  if (!callback) throw std::invalid_argument("EventQueue::schedule: null callback");
  heap_.push(Entry{time_s, next_sequence_++, std::move(callback)});
}

double EventQueue::next_time() const {
  if (heap_.empty()) throw std::logic_error("EventQueue::next_time: queue empty");
  return heap_.top().time;
}

double EventQueue::run_next() {
  if (heap_.empty()) throw std::logic_error("EventQueue::run_next: queue empty");
  // priority_queue::top() is const; move out via const_cast is UB-adjacent,
  // so copy the callback handle (std::function copy) and pop first.
  Entry entry = heap_.top();
  heap_.pop();
  entry.callback();
  return entry.time;
}

}  // namespace mpleo::sim
