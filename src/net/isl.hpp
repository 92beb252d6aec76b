// Inter-satellite links (§4 "Bent-pipe architectures and ISLs").
//
// The paper's base design omits ISLs: a terminal is served only when one
// satellite simultaneously sees it and a ground station. This module
// implements the future-work variant: satellites form a laser mesh (up to
// `max_links_per_satellite` links within `max_range_m`), and a terminal is
// covered when any visible satellite is within `max_hops` of a satellite
// that sees a gateway. `bench/ablate_isl` quantifies how many ground
// stations ISLs can replace.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "constellation/shell.hpp"
#include "coverage/engine.hpp"
#include "coverage/step_mask.hpp"
#include "util/vec3.hpp"

namespace mpleo::net {

struct IslConfig {
  double max_range_m = 3000e3;     // laser terminal reach
  int max_links_per_satellite = 4; // typical: 2 in-plane + 2 cross-plane
  int max_hops = 3;                // relay budget per packet
};

// The ISL mesh at one instant, built from satellite ECEF/ECI positions
// (any common frame works — only pairwise distances matter).
class IslTopology {
 public:
  [[nodiscard]] static IslTopology build(std::span<const util::Vec3> positions,
                                         const IslConfig& config);

  [[nodiscard]] std::size_t satellite_count() const noexcept {
    return adjacency_.size();
  }
  [[nodiscard]] const std::vector<std::uint32_t>& neighbors(std::size_t sat) const {
    return adjacency_.at(sat);
  }
  [[nodiscard]] std::size_t link_count() const noexcept;

  static constexpr int kUnreachable = -1;
  // BFS hop distance from the given source satellites (0 for sources);
  // kUnreachable where no path exists.
  [[nodiscard]] std::vector<int> hops_from(std::span<const std::size_t> sources) const;

 private:
  std::vector<std::vector<std::uint32_t>> adjacency_;
};

// Coverage of one terminal when satellites may relay over ISLs: at each
// step the terminal is covered iff some satellite above its mask is within
// config.max_hops of a satellite above any gateway's mask.
// With config.max_hops == 0 this degenerates to the bent-pipe rule.
// Positions and visibility come from the shared ephemeris tables; the
// per-step mesh is only built on steps where both a terminal-visible and a
// gateway-visible satellite exist.
[[nodiscard]] cov::StepMask isl_coverage_mask(
    const cov::CoverageEngine& engine,
    std::span<const constellation::Satellite> satellites,
    const orbit::TopocentricFrame& terminal,
    std::span<const cov::GroundSite> gateways, const IslConfig& config);

}  // namespace mpleo::net
