#include "sim/engine.hpp"

#include <algorithm>
#include <stdexcept>

namespace mpleo::sim {

void SimEngine::at(double time_s, EventCallback callback) {
  if (time_s < now_s_) throw std::invalid_argument("SimEngine::at: time in the past");
  queue_.schedule(time_s, std::move(callback));
}

void SimEngine::every(double period_s, double until_s, const EventCallback& callback) {
  if (period_s <= 0.0) throw std::invalid_argument("SimEngine::every: period must be > 0");
  // Each firing is now + k * period, not an accumulated t += period: the
  // accumulated form drifts by one ulp per firing, which over multi-day
  // horizons walks periodic tasks (fault/repair polls, price updates) off
  // the step grid and can even change the firing count near until_s.
  for (std::uint64_t k = 1;; ++k) {
    const double t = now_s_ + period_s * static_cast<double>(k);
    if (t >= until_s) break;
    queue_.schedule(t, callback);
  }
}

void SimEngine::run_until(double end_s) {
  while (!queue_.empty() && queue_.next_time() <= end_s) {
    // Advance the clock *before* dispatching so the event observes now() ==
    // its own timestamp (and relative scheduling from inside events works).
    now_s_ = queue_.next_time();
    (void)queue_.run_next();
  }
  now_s_ = std::max(now_s_, end_s);
}

}  // namespace mpleo::sim
