// Consortium spectrum coordination (§4 "Spectrum access"): the parties carve
// one band plan's downlink segment into disjoint per-party channels. With
// everyone on-plan there is no cross-party co-channel interference by
// construction; jamming and spectrum-squatting adversaries break exactly
// that invariant, which is what makes their interference attributable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/spectrum.hpp"
#include "core/validation.hpp"

namespace mpleo::rf {

// RF environment knobs (validated; see SpectrumConfig::validate).
struct SpectrumConfig {
  // The band the consortium coordinates in; the downlink segment is the one
  // the per-party channels partition (bent-pipe terminals receive there).
  net::BandPlan band;  // defaults to the Ku plan
  // Per-party channel width cap; the partition shrinks it when the band
  // cannot fit every party at this width.
  double channel_bandwidth_hz = 62.5e6;
  // Sidelobe isolation between a victim terminal's beam and a non-serving
  // satellite's emission, dB (subtracted from every co-channel coupling).
  double off_axis_discrimination_db = 12.0;
  // EIRP boost a jamming party radiates over the nominal transponder, dB.
  double jammer_power_boost_db = 10.0;

  // Collects every field problem (core::ConfigIssue, component "rf"); empty = valid.
  // Rejects an empty band plan (hi <= lo in either direction), carriers
  // outside the [1, 100] GHz allocations, and non-finite/negative knobs.
  [[nodiscard]] std::vector<core::ConfigIssue> validate() const;
};

// One party's downlink channel inside the plan.
struct PartyChannel {
  double center_hz = 0.0;
  double bandwidth_hz = 0.0;

  [[nodiscard]] double lo_hz() const noexcept { return center_hz - bandwidth_hz / 2.0; }
  [[nodiscard]] double hi_hz() const noexcept { return center_hz + bandwidth_hz / 2.0; }
};

// The coordinated assignment: `party_count` disjoint equal channels carved
// from the config's downlink segment, in party order.
class SpectrumPlan {
 public:
  // Throws std::invalid_argument (all issues joined) on an invalid config or
  // party_count == 0.
  [[nodiscard]] static SpectrumPlan equal_partition(const SpectrumConfig& config,
                                                    std::size_t party_count);

  [[nodiscard]] std::size_t party_count() const noexcept { return channels_.size(); }
  // Parties beyond the plan own no spectrum (zero-width channel at 0 Hz).
  [[nodiscard]] const PartyChannel& channel(std::uint32_t party) const noexcept;

  // Fractional overlap of party b's channel by party a's channel, in [0, 1]
  // of b's bandwidth. Zero between any two distinct on-plan parties (the
  // partition is disjoint); 1 for a == b.
  [[nodiscard]] double overlap_fraction(std::uint32_t a, std::uint32_t b) const noexcept;

 private:
  std::vector<PartyChannel> channels_;
};

}  // namespace mpleo::rf
