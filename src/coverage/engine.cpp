#include "coverage/engine.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "coverage/footprint_index.hpp"
#include "fault/timeline.hpp"
#include "obs/metrics.hpp"
#include "orbit/propagator.hpp"
#include "sim/run_context.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace mpleo::cov {

GroundSite GroundSite::from_city(const City& city, double weight) {
  return {city.name, orbit::TopocentricFrame(city.location), weight};
}

std::vector<GroundSite> sites_from_cities(std::span<const City> cities,
                                          bool population_weighted) {
  std::vector<GroundSite> sites;
  sites.reserve(cities.size());
  for (const City& city : cities) {
    sites.push_back(GroundSite::from_city(city, population_weighted ? city.population : 1.0));
  }
  return sites;
}

std::vector<orbit::EphemerisSpec> ephemeris_specs(
    std::span<const constellation::Satellite> satellites,
    orbit::PropagatorBackend backend) {
  std::vector<orbit::EphemerisSpec> specs;
  specs.reserve(satellites.size());
  for (const constellation::Satellite& sat : satellites) {
    specs.push_back(ephemeris_spec(sat, backend));
  }
  return specs;
}

orbit::EphemerisSpec ephemeris_spec(const constellation::Satellite& satellite,
                                    orbit::PropagatorBackend backend) {
  orbit::EphemerisSpec spec{satellite.elements, satellite.epoch,
                            orbit::Perturbation::kJ2Secular};
  spec.backend = backend;
  return spec;
}

CoverageEngine::CoverageEngine(const orbit::TimeGrid& grid, double elevation_mask_deg,
                               orbit::PropagatorBackend backend)
    : grid_(grid),
      mask_deg_(elevation_mask_deg),
      default_backend_(backend),
      sin_mask_(std::sin(util::deg_to_rad(elevation_mask_deg))),
      culler_(grid, elevation_mask_deg),
      gmst_(orbit::GmstTable::for_grid(grid)) {
  if (elevation_mask_deg < 0.0 || elevation_mask_deg >= 90.0) {
    throw std::invalid_argument("CoverageEngine: elevation mask must be in [0, 90)");
  }
  if (grid.count == 0) throw std::invalid_argument("CoverageEngine: empty time grid");
  if (!(grid.step_seconds > 0.0)) {
    throw std::invalid_argument("CoverageEngine: grid step must be positive");
  }
}

orbit::EphemerisTable CoverageEngine::ephemeris(
    const constellation::Satellite& satellite) const {
  return ephemeris(satellite, default_backend_);
}

orbit::EphemerisTable CoverageEngine::ephemeris(
    const constellation::Satellite& satellite, orbit::PropagatorBackend backend) const {
  if (backend == orbit::PropagatorBackend::kJ2Analytic) {
    const orbit::KeplerianPropagator prop(satellite.elements, satellite.epoch);
    return orbit::EphemerisTable::compute(prop, grid_, gmst_);
  }
  return orbit::EphemerisTable::compute(
      orbit::make_propagator(ephemeris_spec(satellite, backend)), grid_, gmst_);
}

orbit::EphemerisSet CoverageEngine::ephemerides(
    std::span<const constellation::Satellite> satellites, util::ThreadPool* pool) const {
  const std::vector<orbit::EphemerisSpec> specs =
      ephemeris_specs(satellites, default_backend_);
  return orbit::EphemerisSet::compute(specs, grid_, gmst_, pool);
}

StepMask CoverageEngine::visibility_mask(const constellation::Satellite& satellite,
                                         const orbit::TopocentricFrame& site) const {
  const GroundSite wrapped{"ad-hoc-site", site, 1.0};
  return visibility_masks(satellite, std::span<const GroundSite>(&wrapped, 1)).front();
}

std::vector<StepMask> CoverageEngine::visibility_masks(
    const constellation::Satellite& satellite, std::span<const GroundSite> sites) const {
  return visibility_masks(ephemeris(satellite), sites);
}

std::vector<StepMask> CoverageEngine::visibility_masks(
    const orbit::EphemerisTable& ephemeris, std::span<const GroundSite> sites) const {
  if (ephemeris.size() != grid_.count) {
    throw std::invalid_argument("CoverageEngine: ephemeris table does not match grid");
  }
  std::vector<StepMask> masks(sites.size(), StepMask(grid_.count));

  // Site-latitude prune: a site whose latitude the satellite provably cannot
  // reach keeps its all-zero mask without running the cull at all — the
  // fill only ever sets bits the exact elevation test confirms, and an
  // unreachable site has none to set.
  const SiteLatitudePrune prune(sites, mask_deg_);
  const double reach = prune.reach_rad(ephemeris);
  for (std::size_t j = 0; j < sites.size(); ++j) {
    if (prune.reachable(reach, j)) fill_visibility(ephemeris, sites[j], masks[j]);
  }
  return masks;
}

std::vector<StepMask> CoverageEngine::visibility_masks_reference(
    const constellation::Satellite& satellite, std::span<const GroundSite> sites) const {
  std::vector<StepMask> masks(sites.size(), StepMask(grid_.count));
  const orbit::KeplerianPropagator prop(satellite.elements, satellite.epoch);
  const double t0 = grid_.start.seconds_since(satellite.epoch);

  for (std::size_t step = 0; step < grid_.count; ++step) {
    const double dt = t0 + grid_.step_seconds * static_cast<double>(step);
    const util::Vec3 eci = prop.position_eci_at_offset(dt);
    const double c = gmst_.cos_gmst[step];
    const double s = gmst_.sin_gmst[step];
    const util::Vec3 ecef{c * eci.x + s * eci.y, -s * eci.x + c * eci.y, eci.z};
    for (std::size_t j = 0; j < sites.size(); ++j) {
      if (sites[j].frame.visible_above(ecef, sin_mask_)) masks[j].set(step);
    }
  }
  return masks;
}

void CoverageEngine::fill_visibility(const orbit::EphemerisTable& ephemeris,
                                     const GroundSite& site, StepMask& out) const {
  culler_.fill(ephemeris, site.frame, out);
}

StepMask CoverageEngine::coverage_mask(std::span<const constellation::Satellite> satellites,
                                       const orbit::TopocentricFrame& site,
                                       const fault::FaultTimeline* faults) const {
  if (faults != nullptr && faults->empty()) faults = nullptr;
  StepMask result(grid_.count);
  for (std::size_t i = 0; i < satellites.size(); ++i) {
    StepMask mask = visibility_mask(satellites[i], site);
    const StepMask* out = faults != nullptr ? faults->satellite_outage_steps(i) : nullptr;
    if (out != nullptr) mask.subtract(*out);
    result |= mask;
  }
  return result;
}

CoverageStats CoverageEngine::stats(const StepMask& mask) const {
  assert(mask.step_count() == grid_.count);
  CoverageStats out;
  out.covered_fraction = mask.fraction();
  const double window = grid_.duration_seconds();
  out.covered_seconds = out.covered_fraction * window;
  out.uncovered_seconds = window - out.covered_seconds;
  out.max_gap_seconds =
      static_cast<double>(mask.longest_zero_run()) * grid_.step_seconds;
  out.pass_count = mask.to_intervals(grid_.step_seconds).size();
  return out;
}

double CoverageEngine::weighted_coverage_seconds(
    std::span<const constellation::Satellite> satellites,
    std::span<const GroundSite> sites) const {
  double weight_total = 0.0;
  for (const GroundSite& site : sites) weight_total += site.weight;
  if (weight_total <= 0.0) return 0.0;

  std::vector<StepMask> unions(sites.size(), StepMask(grid_.count));
  for (const constellation::Satellite& sat : satellites) {
    const std::vector<StepMask> per_site = visibility_masks(sat, sites);
    for (std::size_t j = 0; j < sites.size(); ++j) unions[j] |= per_site[j];
  }

  double weighted = 0.0;
  for (std::size_t j = 0; j < sites.size(); ++j) {
    weighted += sites[j].weight / weight_total * unions[j].fraction();
  }
  return weighted * grid_.duration_seconds();
}

VisibilityCache::VisibilityCache(const CoverageEngine& engine,
                                 std::span<const constellation::Satellite> catalog,
                                 std::span<const GroundSite> sites)
    : engine_(&engine),
      catalog_(catalog),
      sites_(sites.begin(), sites.end()),
      blocks_(catalog.size()) {
  // A block's offsets and word indices are uint32: a satellite holds at most
  // one stored word per (site, grid word).
  const std::size_t words_per_mask = (engine.grid().count + 63) / 64;
  if (words_per_mask * sites_.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("VisibilityCache: sites x grid words exceed uint32 offsets");
  }
  double total = 0.0;
  for (const GroundSite& site : sites_) total += site.weight;
  normalised_weights_.reserve(sites_.size());
  for (const GroundSite& site : sites_) {
    normalised_weights_.push_back(total > 0.0 ? site.weight / total : 0.0);
  }
}

const VisibilityCache::Block& VisibilityCache::block(std::size_t satellite_index) {
  if (satellite_index >= catalog_.size()) {
    throw std::out_of_range("VisibilityCache: satellite index out of range");
  }
  Block& out = blocks_[satellite_index];
  if (!out.site_begin.empty()) return out;

  // precompute_all's fill with a group of one, which runs the scalar path.
  const orbit::EphemerisSpec spec =
      ephemeris_spec(catalog_[satellite_index], engine_->default_backend());
  const orbit::EphemerisFill fill(std::span<const orbit::EphemerisSpec>(&spec, 1),
                                  engine_->grid(), engine_->gmst());
  orbit::EphemerisTable table;
  fill.run(0, std::span<orbit::EphemerisTable>(&table, 1));
  store(out, table);
  return out;
}

void VisibilityCache::store(Block& out, const orbit::EphemerisTable& ephemeris) const {
  const std::vector<StepMask> per_site = engine_->visibility_masks(ephemeris, sites_);
  std::size_t nonzero = 0;
  for (const StepMask& mask : per_site) {
    for (const std::uint64_t word : mask.words()) nonzero += word != 0 ? 1 : 0;
  }
  out.index.reserve(nonzero);
  out.bits.reserve(nonzero);
  out.site_begin.reserve(sites_.size() + 1);
  out.site_begin.push_back(0);
  for (const StepMask& mask : per_site) {
    const std::span<const std::uint64_t> words = mask.words();
    for (std::size_t w = 0; w < words.size(); ++w) {
      if (words[w] == 0) continue;
      out.index.push_back(static_cast<std::uint32_t>(w));
      out.bits.push_back(words[w]);
    }
    out.site_begin.push_back(static_cast<std::uint32_t>(out.index.size()));
  }
}

void VisibilityCache::check_site(std::size_t site_index) const {
  if (site_index >= sites_.size()) {
    throw std::out_of_range("VisibilityCache: site index out of range");
  }
}

void VisibilityCache::or_site(StepMask& out, const Block& block, std::size_t site,
                              const StepMask* outage) {
  const std::size_t begin = block.site_begin[site];
  const std::size_t count = block.site_begin[site + 1] - begin;
  const std::span<const std::uint32_t> index =
      std::span<const std::uint32_t>(block.index).subspan(begin, count);
  const std::span<const std::uint64_t> bits =
      std::span<const std::uint64_t>(block.bits).subspan(begin, count);
  if (outage != nullptr) {
    out.or_words_and_not(index, bits, *outage);
  } else {
    out.or_words(index, bits);
  }
}

void VisibilityCache::precompute_all(sim::RunContext& context) {
  obs::ScopedTimer timer(context.metrics().histogram("cov.precompute_seconds"));
  // Count only the fills this call performs, not masks already cached.
  std::vector<std::size_t> fresh;
  fresh.reserve(catalog_.size());
  for (std::size_t sat = 0; sat < catalog_.size(); ++sat) {
    if (blocks_[sat].site_begin.empty()) fresh.push_back(sat);
  }
  std::vector<orbit::EphemerisSpec> specs;
  specs.reserve(fresh.size());
  for (const std::size_t sat : fresh) {
    specs.push_back(ephemeris_spec(catalog_[sat], engine_->default_backend()));
  }
  const orbit::EphemerisFill fill(specs, engine_->grid(), engine_->gmst());
  // Each group writes only its own satellites' blocks, so the parallel fill
  // is race-free and bit-identical to the serial one. A chunk of groups
  // reuses one set of tables, group after group.
  const auto run = [this, &fill, &fresh](std::size_t begin, std::size_t end) {
    orbit::EphemerisTable tables[orbit::EphemerisFill::kMaxGroupSize];
    for (std::size_t g = begin; g < end; ++g) {
      fill.run(g, tables);
      const std::span<const std::size_t> members = fill.group(g);
      for (std::size_t l = 0; l < members.size(); ++l) {
        store(blocks_[fresh[members[l]]], tables[l]);
      }
    }
  };
  if (util::ThreadPool* const pool = context.pool(); pool != nullptr) {
    pool->parallel_for_chunks(fill.group_count(), run);
  } else {
    run(0, fill.group_count());
  }
  std::size_t visible = 0;
  for (const std::size_t sat : fresh) {
    for (const std::uint64_t word : blocks_[sat].bits) {
      visible += static_cast<std::size_t>(std::popcount(word));
    }
  }
  context.metrics().counter("cov.masks_filled").add(fresh.size() * sites_.size());
  context.metrics().counter("cov.visible_steps").add(visible);
}

StepMask VisibilityCache::mask(std::size_t satellite_index, std::size_t site_index) {
  return union_mask(std::span<const std::size_t>(&satellite_index, 1), site_index);
}

StepMask VisibilityCache::union_mask(std::span<const std::size_t> satellite_indices,
                                     std::size_t site_index,
                                     const fault::FaultTimeline* faults) {
  check_site(site_index);
  if (faults != nullptr && faults->empty()) faults = nullptr;
  StepMask out(engine_->grid().count);
  for (const std::size_t sat : satellite_indices) {
    or_site(out, block(sat), site_index,
            faults != nullptr ? faults->satellite_outage_steps(sat) : nullptr);
  }
  return out;
}

std::vector<StepMask> VisibilityCache::union_masks(
    std::span<const std::size_t> satellite_indices, const fault::FaultTimeline* faults) {
  if (faults != nullptr && faults->empty()) faults = nullptr;
  std::vector<StepMask> out(sites_.size(), StepMask(engine_->grid().count));
  for (const std::size_t sat : satellite_indices) {
    const Block& stored = block(sat);
    const StepMask* outage =
        faults != nullptr ? faults->satellite_outage_steps(sat) : nullptr;
    for (std::size_t j = 0; j < sites_.size(); ++j) or_site(out[j], stored, j, outage);
  }
  return out;
}

double VisibilityCache::weighted_coverage_fraction(
    std::span<const std::size_t> satellite_indices, const fault::FaultTimeline* faults) {
  return weighted_fraction(union_masks(satellite_indices, faults));
}

double VisibilityCache::weighted_fraction(std::span<const StepMask> site_masks) const {
  if (site_masks.size() != sites_.size()) {
    throw std::invalid_argument("VisibilityCache: weighted_fraction needs one mask per site");
  }
  double weighted = 0.0;
  for (std::size_t j = 0; j < sites_.size(); ++j) {
    if (normalised_weights_[j] <= 0.0) continue;
    weighted += normalised_weights_[j] * site_masks[j].fraction();
  }
  return weighted;
}

}  // namespace mpleo::cov
