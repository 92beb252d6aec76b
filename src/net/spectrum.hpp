// Spectrum band plans and channelisation (§4 "Spectrum access").
//
// MP-LEO delegates spectrum management to terminals and ground stations (the
// satellite only repeats), but participants still have to pick
// non-conflicting channels inside the primary satellite bands. This module
// models the X/Ku/Ka allocations and a first-fit channel assigner with a
// conflict check.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace mpleo::net {

enum class Band { kX, kKu, kKa };

// Frequency range of a band segment, Hz.
struct BandPlan {
  Band band = Band::kKu;
  double uplink_lo_hz = 14.0e9;
  double uplink_hi_hz = 14.5e9;
  double downlink_lo_hz = 10.7e9;
  double downlink_hi_hz = 12.7e9;
};

// ITU-style allocations for the primary satellite bands the paper names.
[[nodiscard]] const std::vector<BandPlan>& standard_band_plans();

struct Channel {
  std::uint32_t id = 0;
  Band band = Band::kKu;
  double uplink_center_hz = 0.0;
  double downlink_center_hz = 0.0;
  double bandwidth_hz = 62.5e6;
  std::uint32_t owner_party = 0;
};

// Tracks channel grants inside one band plan; rejects overlapping grants.
class ChannelTable {
 public:
  explicit ChannelTable(BandPlan plan) : plan_(plan) {}

  // Grants the next free channel of `bandwidth_hz` to `party`; nullopt when
  // the band is exhausted.
  [[nodiscard]] std::optional<Channel> grant(double bandwidth_hz, std::uint32_t party);

  [[nodiscard]] const std::vector<Channel>& grants() const noexcept { return grants_; }
  [[nodiscard]] const BandPlan& plan() const noexcept { return plan_; }

  // True if two channels overlap in either direction.
  [[nodiscard]] static bool conflicts(const Channel& a, const Channel& b) noexcept;

 private:
  BandPlan plan_;
  std::vector<Channel> grants_;
  std::uint32_t next_id_ = 1;
};

}  // namespace mpleo::net
