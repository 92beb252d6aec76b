#include "sim/trace.hpp"

#include <sstream>

namespace mpleo::sim {

void TraceRecorder::record(double time_s, std::string category, std::string message) {
  events_.push_back({time_s, std::move(category), std::move(message)});
}

std::string TraceRecorder::to_string() const {
  std::ostringstream os;
  for (const TraceEvent& e : events_) {
    os << "t=" << e.time_s << "s [" << e.category << "] " << e.message << '\n';
  }
  return os.str();
}

}  // namespace mpleo::sim
