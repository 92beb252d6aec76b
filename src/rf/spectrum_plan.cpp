#include "rf/spectrum_plan.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "rf/doppler.hpp"  // kMinCarrierHz / kMaxCarrierHz

namespace mpleo::rf {

namespace {

bool finite(double v) noexcept { return std::isfinite(v); }

void add_issue(std::vector<core::ConfigIssue>& issues, const char* field, double value,
               const char* requirement) {
  std::ostringstream os;
  os << "value " << value << " " << requirement;
  issues.push_back({"rf", field, os.str()});
}

void check_segment(std::vector<core::ConfigIssue>& issues, const char* lo_field,
                   const char* hi_field, double lo, double hi) {
  if (!finite(lo) || lo < kMinCarrierHz || lo > kMaxCarrierHz) {
    add_issue(issues, lo_field, lo, "must be inside the [1, 100] GHz allocations");
  }
  if (!finite(hi) || hi < kMinCarrierHz || hi > kMaxCarrierHz) {
    add_issue(issues, hi_field, hi, "must be inside the [1, 100] GHz allocations");
  }
  if (finite(lo) && finite(hi) && hi <= lo) {
    add_issue(issues, hi_field, hi, "must exceed the segment's lower edge (empty band plan)");
  }
}

}  // namespace

std::vector<core::ConfigIssue> SpectrumConfig::validate() const {
  std::vector<core::ConfigIssue> issues;
  check_segment(issues, "spectrum.band.uplink_lo_hz", "spectrum.band.uplink_hi_hz",
                band.uplink_lo_hz, band.uplink_hi_hz);
  check_segment(issues, "spectrum.band.downlink_lo_hz", "spectrum.band.downlink_hi_hz",
                band.downlink_lo_hz, band.downlink_hi_hz);
  if (!finite(channel_bandwidth_hz) || channel_bandwidth_hz <= 0.0) {
    add_issue(issues, "spectrum.channel_bandwidth_hz", channel_bandwidth_hz,
              "must be finite and > 0");
  }
  if (!finite(off_axis_discrimination_db) || off_axis_discrimination_db < 0.0) {
    add_issue(issues, "spectrum.off_axis_discrimination_db", off_axis_discrimination_db,
              "must be finite and >= 0");
  }
  if (!finite(jammer_power_boost_db) || jammer_power_boost_db < 0.0) {
    add_issue(issues, "spectrum.jammer_power_boost_db", jammer_power_boost_db,
              "must be finite and >= 0");
  }
  return issues;
}

SpectrumPlan SpectrumPlan::equal_partition(const SpectrumConfig& config,
                                           std::size_t party_count) {
  core::throw_if_invalid("rf::SpectrumPlan", config.validate());
  if (party_count == 0) {
    throw std::invalid_argument("rf::SpectrumPlan: party_count must be > 0");
  }
  const double span = config.band.downlink_hi_hz - config.band.downlink_lo_hz;
  const double slot = span / static_cast<double>(party_count);
  const double width = std::min(config.channel_bandwidth_hz, slot);

  SpectrumPlan plan;
  plan.channels_.reserve(party_count);
  for (std::size_t p = 0; p < party_count; ++p) {
    PartyChannel channel;
    channel.center_hz =
        config.band.downlink_lo_hz + slot * (static_cast<double>(p) + 0.5);
    channel.bandwidth_hz = width;
    plan.channels_.push_back(channel);
  }
  return plan;
}

const PartyChannel& SpectrumPlan::channel(std::uint32_t party) const noexcept {
  static const PartyChannel kNoChannel{};
  if (party >= channels_.size()) return kNoChannel;
  return channels_[party];
}

double SpectrumPlan::overlap_fraction(std::uint32_t a, std::uint32_t b) const noexcept {
  const PartyChannel& ca = channel(a);
  const PartyChannel& cb = channel(b);
  if (ca.bandwidth_hz <= 0.0 || cb.bandwidth_hz <= 0.0) return 0.0;
  const double lo = std::max(ca.lo_hz(), cb.lo_hz());
  const double hi = std::min(ca.hi_hz(), cb.hi_hz());
  if (hi <= lo) return 0.0;
  return (hi - lo) / cb.bandwidth_hz;
}

}  // namespace mpleo::rf
