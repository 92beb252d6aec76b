#include "net/isl.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <utility>

#include "orbit/ephemeris.hpp"

namespace mpleo::net {

IslTopology IslTopology::build(std::span<const util::Vec3> positions,
                               const IslConfig& config) {
  if (config.max_links_per_satellite < 0 || config.max_range_m <= 0.0) {
    throw std::invalid_argument("IslTopology::build: invalid config");
  }
  const std::size_t n = positions.size();
  IslTopology topo;
  topo.adjacency_.resize(n);

  const double range2 = config.max_range_m * config.max_range_m;
  // Candidate neighbours per satellite: (distance^2, index), keep nearest k.
  struct Candidate {
    double dist2;
    std::uint32_t index;
  };
  std::vector<std::vector<Candidate>> candidates(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double d2 = (positions[i] - positions[j]).norm_squared();
      if (d2 <= range2) {
        candidates[i].push_back({d2, static_cast<std::uint32_t>(j)});
        candidates[j].push_back({d2, static_cast<std::uint32_t>(i)});
      }
    }
  }

  const auto k = static_cast<std::size_t>(config.max_links_per_satellite);
  for (std::size_t i = 0; i < n; ++i) {
    auto& cands = candidates[i];
    if (cands.size() > k) {
      std::partial_sort(cands.begin(), cands.begin() + static_cast<std::ptrdiff_t>(k),
                        cands.end(),
                        [](const Candidate& a, const Candidate& b) {
                          return a.dist2 < b.dist2;
                        });
      cands.resize(k);
    }
  }
  // A link exists when both ends keep each other (mutual selection), which
  // also enforces the per-satellite terminal budget symmetrically.
  for (std::size_t i = 0; i < n; ++i) {
    for (const Candidate& c : candidates[i]) {
      if (c.index > i) continue;  // handle each unordered pair once (j < i)
      const auto& back = candidates[c.index];
      const bool mutual = std::any_of(back.begin(), back.end(), [i](const Candidate& b) {
        return b.index == static_cast<std::uint32_t>(i);
      });
      if (mutual) {
        topo.adjacency_[i].push_back(c.index);
        topo.adjacency_[c.index].push_back(static_cast<std::uint32_t>(i));
      }
    }
  }
  return topo;
}

std::size_t IslTopology::link_count() const noexcept {
  std::size_t degree_sum = 0;
  for (const auto& neighbors : adjacency_) degree_sum += neighbors.size();
  return degree_sum / 2;
}

std::vector<int> IslTopology::hops_from(std::span<const std::size_t> sources) const {
  std::vector<int> hops(adjacency_.size(), kUnreachable);
  std::queue<std::size_t> frontier;
  for (std::size_t s : sources) {
    if (s < hops.size() && hops[s] == kUnreachable) {
      hops[s] = 0;
      frontier.push(s);
    }
  }
  while (!frontier.empty()) {
    const std::size_t u = frontier.front();
    frontier.pop();
    for (std::uint32_t v : adjacency_[u]) {
      if (hops[v] == kUnreachable) {
        hops[v] = hops[u] + 1;
        frontier.push(v);
      }
    }
  }
  return hops;
}

cov::StepMask isl_coverage_mask(const cov::CoverageEngine& engine,
                                std::span<const constellation::Satellite> satellites,
                                const orbit::TopocentricFrame& terminal,
                                std::span<const cov::GroundSite> gateways,
                                const IslConfig& config) {
  const orbit::TimeGrid& grid = engine.grid();
  const std::size_t n = satellites.size();
  const orbit::EphemerisSet ephemerides = engine.ephemerides(satellites);

  // Per-satellite visibility timelines from the shared tables: terminal
  // visibility and the union over all gateways.
  const cov::GroundSite terminal_site{"terminal", terminal, 1.0};
  std::vector<cov::StepMask> terminal_masks(n);
  std::vector<cov::StepMask> gateway_masks(n);
  cov::StepMask any_terminal(grid.count);
  cov::StepMask any_gateway(grid.count);
  for (std::size_t s = 0; s < n; ++s) {
    terminal_masks[s] =
        engine
            .visibility_masks(ephemerides.table(s),
                              std::span<const cov::GroundSite>(&terminal_site, 1))
            .front();
    const std::vector<cov::StepMask> per_gateway =
        engine.visibility_masks(ephemerides.table(s), gateways);
    cov::StepMask gw_union(grid.count);
    for (const cov::StepMask& mask : per_gateway) gw_union |= mask;
    any_terminal |= terminal_masks[s];
    any_gateway |= gw_union;
    gateway_masks[s] = std::move(gw_union);
  }

  // Only steps with both a terminal-visible and a gateway-visible satellite
  // can be covered; everything else skips the O(n^2) mesh build.
  cov::StepMask candidate_steps = any_terminal & any_gateway;

  cov::StepMask covered(grid.count);
  std::vector<util::Vec3> positions(n);
  std::vector<std::size_t> gateway_visible;
  std::vector<std::size_t> terminal_visible;

  for (std::size_t step = 0; step < grid.count; ++step) {
    if (!candidate_steps.test(step)) continue;

    terminal_visible.clear();
    gateway_visible.clear();
    for (std::size_t s = 0; s < n; ++s) {
      positions[s] = ephemerides.table(s).position_ecef(step);
      if (terminal_masks[s].test(step)) terminal_visible.push_back(s);
      if (gateway_masks[s].test(step)) gateway_visible.push_back(s);
    }

    const IslTopology topo = IslTopology::build(positions, config);
    const std::vector<int> hops = topo.hops_from(gateway_visible);
    for (std::size_t s : terminal_visible) {
      if (hops[s] != IslTopology::kUnreachable && hops[s] <= config.max_hops) {
        covered.set(step);
        break;
      }
    }
  }
  return covered;
}

}  // namespace mpleo::net
