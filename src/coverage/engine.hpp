// The coverage engine: per-satellite visibility timelines, constellation
// coverage unions, gap statistics, idle time, and population-weighted
// coverage — everything the paper's Figures 2–6 are computed from.
//
// All visibility flows through the shared ephemeris kernel: a satellite is
// propagated once per grid into an orbit::EphemerisTable and every consumer
// (masks, contact plans, ISL relays, handover timelines, placement) reads
// that table. The per-site fill culls with a conservative geometric cone —
// a satellite further than psi_max from the site's zenith direction cannot
// clear the elevation mask — so only a few percent of the grid ever reaches
// the exact elevation test, with results identical to the exhaustive scan.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "constellation/shell.hpp"
#include "coverage/cities.hpp"
#include "coverage/step_mask.hpp"
#include "coverage/visibility_cull.hpp"
#include "orbit/ephemeris.hpp"
#include "orbit/geodesy.hpp"
#include "orbit/time.hpp"

namespace mpleo::util {
class ThreadPool;
}
namespace mpleo::fault {
class FaultTimeline;
}
namespace mpleo::sim {
class RunContext;
}

namespace mpleo::cov {

// A ground site prepared for fast visibility testing.
struct GroundSite {
  std::string name;
  orbit::TopocentricFrame frame;
  double weight = 1.0;

  [[nodiscard]] static GroundSite from_city(const City& city, double weight = 1.0);
};

[[nodiscard]] std::vector<GroundSite> sites_from_cities(std::span<const City> cities,
                                                        bool population_weighted = true);

// Ephemeris inputs for a catalog, in catalog order. The backend selects
// which propagator fills each table; kJ2Analytic is bit-identical to the
// historical single-backend path.
[[nodiscard]] std::vector<orbit::EphemerisSpec> ephemeris_specs(
    std::span<const constellation::Satellite> satellites,
    orbit::PropagatorBackend backend = orbit::PropagatorBackend::kJ2Analytic);
// One satellite's entry of ephemeris_specs.
[[nodiscard]] orbit::EphemerisSpec ephemeris_spec(const constellation::Satellite& satellite,
                                                  orbit::PropagatorBackend backend);

// Gap statistics of one site's coverage timeline.
struct CoverageStats {
  double covered_fraction = 0.0;    // fraction of the window with >=1 satellite
  double covered_seconds = 0.0;
  double uncovered_seconds = 0.0;
  double max_gap_seconds = 0.0;     // longest continuous outage
  std::size_t pass_count = 0;       // number of distinct covered runs
};

class CoverageEngine {
 public:
  // `elevation_mask_deg` is the minimum elevation for a usable link; 25° is
  // Starlink's operational terminal mask and the library default. `backend`
  // is the propagator every entry point without an explicit backend uses
  // (e.g. a scenario's --propagator=); the default keeps the engine
  // bit-identical to the historical J2-only behavior.
  CoverageEngine(const orbit::TimeGrid& grid, double elevation_mask_deg = 25.0,
                 orbit::PropagatorBackend backend = orbit::PropagatorBackend::kJ2Analytic);

  [[nodiscard]] const orbit::TimeGrid& grid() const noexcept { return grid_; }
  [[nodiscard]] double elevation_mask_deg() const noexcept { return mask_deg_; }
  [[nodiscard]] orbit::PropagatorBackend default_backend() const noexcept {
    return default_backend_;
  }
  [[nodiscard]] const orbit::GmstTable& gmst() const noexcept { return gmst_; }
  // The pair-visibility cull kernel every fill rides; shared with other
  // mask consumers (e.g. the pipelined scheduler) so they cull identically.
  [[nodiscard]] const VisibilityCuller& culler() const noexcept { return culler_; }

  // One satellite propagated over the engine's grid (reusing the shared
  // GMST table). The table can serve any number of sites or consumers.
  // Without an explicit backend the engine's default applies.
  [[nodiscard]] orbit::EphemerisTable ephemeris(
      const constellation::Satellite& satellite) const;
  [[nodiscard]] orbit::EphemerisTable ephemeris(
      const constellation::Satellite& satellite,
      orbit::PropagatorBackend backend) const;

  // Shared ephemerides of a whole catalog under the engine's backend;
  // parallel across satellites when a pool is given, bit-identical to the
  // serial fill. The caller times the fill (it records no metrics).
  [[nodiscard]] orbit::EphemerisSet ephemerides(
      std::span<const constellation::Satellite> satellites,
      util::ThreadPool* pool = nullptr) const;

  // Visibility timeline of one satellite over one site.
  [[nodiscard]] StepMask visibility_mask(const constellation::Satellite& satellite,
                                         const orbit::TopocentricFrame& site) const;

  // One propagation sweep, all sites: masks[i] corresponds to sites[i].
  [[nodiscard]] std::vector<StepMask> visibility_masks(
      const constellation::Satellite& satellite,
      std::span<const GroundSite> sites) const;

  // Same masks from a precomputed ephemeris table (the shared-kernel entry
  // point used by the batched pipeline).
  [[nodiscard]] std::vector<StepMask> visibility_masks(
      const orbit::EphemerisTable& ephemeris, std::span<const GroundSite> sites) const;

  // Exhaustive per-step scan without the ephemeris table or culling — the
  // scalar reference the batched kernel is validated and benchmarked
  // against. Slow; use visibility_masks.
  [[nodiscard]] std::vector<StepMask> visibility_masks_reference(
      const constellation::Satellite& satellite,
      std::span<const GroundSite> sites) const;

  // Union coverage of a satellite set over one site. With a non-empty
  // `faults`, satellite i of the span is first intersected with its
  // availability (fault asset index == span index); nullptr or an empty
  // timeline gives the plain union.
  [[nodiscard]] StepMask coverage_mask(std::span<const constellation::Satellite> satellites,
                                       const orbit::TopocentricFrame& site,
                                       const fault::FaultTimeline* faults = nullptr) const;

  [[nodiscard]] CoverageStats stats(const StepMask& mask) const;

  // Population-weighted covered time in seconds: sum_i weight_i * covered_i.
  // Weights are taken from the sites (normalised by their sum).
  [[nodiscard]] double weighted_coverage_seconds(
      std::span<const constellation::Satellite> satellites,
      std::span<const GroundSite> sites) const;

 private:
  // Sets the visible steps of `ephemeris` over `site` in `out` (all-zero on
  // entry).
  void fill_visibility(const orbit::EphemerisTable& ephemeris, const GroundSite& site,
                       StepMask& out) const;

  orbit::TimeGrid grid_;
  double mask_deg_;
  orbit::PropagatorBackend default_backend_;
  double sin_mask_;
  VisibilityCuller culler_;
  orbit::GmstTable gmst_;
};

// Memoised per-(satellite, site) masks over a fixed catalog — the working set
// of the Monte-Carlo benches. Masks are computed lazily one satellite at a
// time, or eagerly for the whole catalog with precompute_all. The lazy
// accessors are not thread-safe; precompute first when sharing a cache
// across threads.
//
// Fill: both paths run the one catalog fill, orbit::EphemerisFill, on the
// engine's GmstTable (borrowed, not copied). precompute_all runs its groups
// on the context's pool: up to four circular J2 satellites per group fill
// together in the AVX2 lane kernel, and each group's tables become masks
// (CoverageEngine::visibility_masks of the table) before the thread reuses
// them for its next group, so a thread holds at most four tables at a time.
// A lazy fill is a group of one, which runs the scalar path. Every mask is
// bit-identical to CoverageEngine::visibility_masks(satellite, sites), the
// per-satellite oracle, for any pool size and SIMD mode.
//
// Storage: a LEO satellite clears a site's elevation mask for well under 1%
// of a grid, so the cache keeps only each mask's nonzero 64-step words. One
// block per satellite holds all of its sites: `site_begin` (site count + 1
// offsets), then a uint32 word index and a uint64 word per nonzero word,
// site after site. A mask costs about 12 B per nonzero word instead of 8 B
// per word of the grid; the worst case, a mask visible in every word, is
// 1.5x dense. Unions OR the stored words into a dense StepMask
// (StepMask::or_words), so every mask, union and fraction is bit-identical
// to OR-ing dense masks.
//
// Union order: union_masks reads each satellite's block once and ORs it into
// one mask per site (satellite-major), for multi-site sums such as
// weighted_coverage_fraction; union_mask serves single-site callers.
// core::withdrawal_impact uses base = survivors + withdrawn: the base union
// is union_masks(withdrawn) OR union_masks(survivors), so each site unions
// every base satellite once.
//
// Indices: an out-of-range satellite or site index throws std::out_of_range
// in every build.
class VisibilityCache {
 public:
  VisibilityCache(const CoverageEngine& engine,
                  std::span<const constellation::Satellite> catalog,
                  std::span<const GroundSite> sites);

  // Computes the masks of every satellite not yet cached. With a pool on
  // the context, fill groups run concurrently (each writes only its own
  // satellites' blocks); the masks are bit-identical for any pool size.
  // Fill time and the mask/step counts of the satellites this call fills
  // land in context.metrics() under "cov.".
  void precompute_all(sim::RunContext& context);

  // One satellite's mask at one site, expanded from the stored words.
  [[nodiscard]] StepMask mask(std::size_t satellite_index, std::size_t site_index);

  // Union over the given satellites at one site. With a non-empty `faults`,
  // each satellite's mask is first intersected with its availability (fault
  // asset index == catalog index); nullptr or an empty timeline gives the
  // plain union, and satellites the timeline never faults skip the and-not.
  [[nodiscard]] StepMask union_mask(std::span<const std::size_t> satellite_indices,
                                    std::size_t site_index,
                                    const fault::FaultTimeline* faults = nullptr);

  // union_mask at every site in one pass over the satellites: element j is
  // union_mask(satellite_indices, j, faults).
  [[nodiscard]] std::vector<StepMask> union_masks(
      std::span<const std::size_t> satellite_indices,
      const fault::FaultTimeline* faults = nullptr);

  // Weighted coverage fraction over all sites for the given satellite set,
  // fault-degraded under the same contract as union_mask.
  [[nodiscard]] double weighted_coverage_fraction(
      std::span<const std::size_t> satellite_indices,
      const fault::FaultTimeline* faults = nullptr);

  // sum_j site_weight(j) * site_masks[j].fraction() over the sites with
  // positive weight, in site order — the sum weighted_coverage_fraction
  // takes over union_masks. Throws std::invalid_argument unless there is one
  // mask per site.
  [[nodiscard]] double weighted_fraction(std::span<const StepMask> site_masks) const;

  // Normalised site weight (sums to 1 over all sites with positive weight).
  [[nodiscard]] double site_weight(std::size_t site_index) const {
    return normalised_weights_[site_index];
  }

  [[nodiscard]] std::size_t site_count() const noexcept { return sites_.size(); }
  [[nodiscard]] std::size_t satellite_count() const noexcept { return catalog_.size(); }
  [[nodiscard]] const CoverageEngine& engine() const noexcept { return *engine_; }

 private:
  // One satellite's masks, nonzero words only: site j owns entries
  // [site_begin[j], site_begin[j + 1]) of `index` and `bits`. An empty
  // site_begin marks a satellite not yet computed.
  struct Block {
    std::vector<std::uint32_t> site_begin;
    std::vector<std::uint32_t> index;
    std::vector<std::uint64_t> bits;
  };

  // The satellite's block, computed on first use; throws std::out_of_range
  // for an index outside the catalog.
  const Block& block(std::size_t satellite_index);
  // Stores the masks of `ephemeris` over the sites into `out`.
  void store(Block& out, const orbit::EphemerisTable& ephemeris) const;
  void check_site(std::size_t site_index) const;
  // out |= the block's mask at `site`, minus `outage` when non-null.
  static void or_site(StepMask& out, const Block& block, std::size_t site,
                      const StepMask* outage);

  const CoverageEngine* engine_;
  std::span<const constellation::Satellite> catalog_;
  std::vector<GroundSite> sites_;
  std::vector<double> normalised_weights_;
  // blocks_[sat]; distinct satellites touch distinct blocks, so the parallel
  // precompute writes race-free.
  std::vector<Block> blocks_;
};

}  // namespace mpleo::cov
