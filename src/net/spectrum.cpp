#include "net/spectrum.hpp"

#include <cmath>

namespace mpleo::net {

const std::vector<BandPlan>& standard_band_plans() {
  static const std::vector<BandPlan> plans = {
      {Band::kX, 7.9e9, 8.4e9, 7.25e9, 7.75e9},
      {Band::kKu, 14.0e9, 14.5e9, 10.7e9, 12.7e9},
      {Band::kKa, 27.5e9, 30.0e9, 17.7e9, 20.2e9},
  };
  return plans;
}

bool ChannelTable::conflicts(const Channel& a, const Channel& b) noexcept {
  auto overlap = [](double ca, double wa, double cb, double wb) {
    return std::fabs(ca - cb) < (wa + wb) / 2.0;
  };
  return overlap(a.uplink_center_hz, a.bandwidth_hz, b.uplink_center_hz, b.bandwidth_hz) ||
         overlap(a.downlink_center_hz, a.bandwidth_hz, b.downlink_center_hz,
                 b.bandwidth_hz);
}

std::optional<Channel> ChannelTable::grant(double bandwidth_hz, std::uint32_t party) {
  if (bandwidth_hz <= 0.0) return std::nullopt;
  // First-fit scan across the uplink segment; the downlink channel is placed
  // at the same offset inside the downlink segment.
  const double up_span = plan_.uplink_hi_hz - plan_.uplink_lo_hz;
  const double down_span = plan_.downlink_hi_hz - plan_.downlink_lo_hz;
  if (bandwidth_hz > up_span || bandwidth_hz > down_span) return std::nullopt;

  for (double offset = 0.0; offset + bandwidth_hz <= up_span && offset + bandwidth_hz <= down_span;
       offset += bandwidth_hz) {
    Channel candidate;
    candidate.band = plan_.band;
    candidate.uplink_center_hz = plan_.uplink_lo_hz + offset + bandwidth_hz / 2.0;
    candidate.downlink_center_hz = plan_.downlink_lo_hz + offset + bandwidth_hz / 2.0;
    candidate.bandwidth_hz = bandwidth_hz;
    candidate.owner_party = party;

    bool clash = false;
    for (const Channel& existing : grants_) {
      if (conflicts(candidate, existing)) {
        clash = true;
        break;
      }
    }
    if (!clash) {
      candidate.id = next_id_++;
      grants_.push_back(candidate);
      return candidate;
    }
  }
  return std::nullopt;
}

}  // namespace mpleo::net
