// Handover analysis: how often a terminal must switch satellites under a
// max-elevation selection policy. LEO terminals re-point every few minutes —
// a key operational difference from GEO and an input to the §4 open-source
// terminal design question.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "constellation/shell.hpp"
#include "coverage/engine.hpp"
#include "orbit/geodesy.hpp"

namespace mpleo::fault {
class FaultTimeline;
}

namespace mpleo::net {

struct HandoverStats {
  std::size_t handover_count = 0;       // satellite switches while connected
  std::size_t outage_count = 0;         // transitions into no-satellite gaps
  double connected_fraction = 0.0;
  double mean_dwell_seconds = 0.0;      // mean time on one satellite
  double handovers_per_hour = 0.0;      // normalised over connected time
  // Fault attribution (zero without a timeline): transitions whose previous
  // serving satellite failed at the switch step, as opposed to ordinary
  // elevation-driven handovers.
  std::size_t failure_handover_count = 0;  // subset of handover_count
  std::size_t failure_outage_count = 0;    // subset of outage_count
};

// Per-step serving-satellite selection: the visible satellite with the
// highest elevation; kNoSatellite when none is visible. Positions come from
// the shared ephemeris tables. With a non-empty `faults`, satellites the
// timeline marks out at a step are not eligible to serve (fault asset index
// == span index); nullptr or an empty timeline gives the healthy selection.
inline constexpr std::uint32_t kNoSatellite = 0xFFFFFFFFu;
[[nodiscard]] std::vector<std::uint32_t> serving_satellite_timeline(
    const cov::CoverageEngine& engine,
    std::span<const constellation::Satellite> satellites,
    const orbit::TopocentricFrame& terminal,
    const fault::FaultTimeline* faults = nullptr);

// Aggregates the timeline into handover statistics. With a fault timeline,
// transitions caused by the previous satellite failing are additionally
// counted as failure-forced; a nullptr leaves those counters zero and every
// other field unchanged.
[[nodiscard]] HandoverStats handover_stats(std::span<const std::uint32_t> timeline,
                                           double step_seconds,
                                           const fault::FaultTimeline* faults = nullptr);

}  // namespace mpleo::net
