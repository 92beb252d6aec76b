// Ephemeris evaluation over a uniform time grid.
//
// The coverage engine evaluates many satellites against the same grid, so
// the per-step sidereal rotation is computed once (GmstTable) and reused for
// every satellite's ECI->ECEF transform.
//
// EphemerisTable is the batched form: one satellite propagated once over the
// whole grid into contiguous SoA ECEF buffers. All trigonometry that is
// linear in time (argument of perigee, RAAN, and — for circular orbits —
// the mean anomaly) advances through incremental plane rotations that are
// resynchronised against libm every few dozen steps, so a table costs a
// handful of multiply-adds per step instead of a full element conversion.
// EphemerisFill is the one catalog fill: it splits a catalog into groups
// the lane-batched kernel or the scalar path fills independently.
// EphemerisSet owns tables for a whole catalog and runs that fill in
// parallel across groups; every visibility consumer (coverage, contact
// plans, ISL, handover, placement) reads these shared tables instead of
// re-propagating, and cov::VisibilityCache runs the same fill group by
// group, keeping only the masks.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "orbit/any_propagator.hpp"
#include "orbit/backend.hpp"
#include "orbit/propagator.hpp"
#include "orbit/time.hpp"
#include "orbit/tle.hpp"
#include "util/vec3.hpp"

namespace mpleo::util {
class ThreadPool;
}

namespace mpleo::orbit {

// Precomputed cos/sin of GMST at each grid step.
struct GmstTable {
  std::vector<double> cos_gmst;
  std::vector<double> sin_gmst;

  [[nodiscard]] static GmstTable for_grid(const TimeGrid& grid);
  [[nodiscard]] std::size_t size() const noexcept { return cos_gmst.size(); }
};

// ECEF positions of one satellite at every step of `grid`.
[[nodiscard]] std::vector<util::Vec3> ecef_positions(const KeplerianPropagator& propagator,
                                                     const TimeGrid& grid,
                                                     const GmstTable& gmst);

// Convenience overload that builds the GmstTable internally (single use).
[[nodiscard]] std::vector<util::Vec3> ecef_positions(const KeplerianPropagator& propagator,
                                                     const TimeGrid& grid);

// For circular orbits the geometry collapses to an exactly linear argument
// of latitude: z(k) = radius * sin_incl * sin(u0 + du * k). Visibility
// kernels use this to enumerate the only grid steps on which a satellite
// can clear a site's latitude band, instead of scanning every step.
struct LinearLatitudeArgument {
  bool valid = false;   // true only for (near-)circular orbits
  double u0 = 0.0;      // argument of latitude at grid step 0, radians
  double du = 0.0;      // per-step advance, radians (positive for bound orbits)
  double sin_incl = 0.0;
  double radius_m = 0.0;  // constant orbital radius
};

// One satellite propagated over a whole grid: contiguous SoA ECEF
// coordinates plus the geocentric radius per step. Positions match the
// pointwise KeplerianPropagator path to well under a millimetre.
class EphemerisTable {
 public:
  EphemerisTable() = default;

  [[nodiscard]] static EphemerisTable compute(const KeplerianPropagator& propagator,
                                              const TimeGrid& grid, const GmstTable& gmst);
  // Backend-erased overloads: a J2 handle delegates to the specialised path
  // above (bit-identical); SGP4 runs the generic pointwise fill.
  [[nodiscard]] static EphemerisTable compute(const AnyPropagator& propagator,
                                              const TimeGrid& grid, const GmstTable& gmst);
  [[nodiscard]] static EphemerisTable compute(const AnyPropagator& propagator,
                                              const TimeGrid& grid);

  [[nodiscard]] std::size_t size() const noexcept { return x_.size(); }

  [[nodiscard]] util::Vec3 position_ecef(std::size_t step) const noexcept {
    return {x_[step], y_[step], z_[step]};
  }
  [[nodiscard]] std::span<const double> x() const noexcept { return x_; }
  [[nodiscard]] std::span<const double> y() const noexcept { return y_; }
  [[nodiscard]] std::span<const double> z() const noexcept { return z_; }
  // Geocentric distance |position| per step (from the orbit equation, not a
  // recomputed norm).
  [[nodiscard]] std::span<const double> radius_m() const noexcept { return r_; }
  [[nodiscard]] double min_radius_m() const noexcept { return r_min_; }
  [[nodiscard]] double max_radius_m() const noexcept { return r_max_; }
  // Largest |z| over the steps, skipping NaN; 0 for an empty table. Every
  // fill records it beside the radius range, so a latitude bound costs no
  // scan.
  [[nodiscard]] double max_abs_z_m() const noexcept { return z_abs_max_; }

  [[nodiscard]] const LinearLatitudeArgument& latitude_argument() const noexcept {
    return lat_arg_;
  }
  // The model that produced the table (kJ2Analytic when an SGP4 request
  // fell back on a deep-space orbit).
  [[nodiscard]] PropagatorBackend backend() const noexcept { return backend_; }

 private:
  friend class EphemerisFill;  // lane-batched fill writes the SoA arrays directly

  // The bodies behind compute(): fill *this in place, keeping storage that
  // is already sized to the grid.
  void fill(const KeplerianPropagator& propagator, const TimeGrid& grid,
            const GmstTable& gmst);
  void fill(const AnyPropagator& propagator, const TimeGrid& grid, const GmstTable& gmst);
  void resize(std::size_t n);

  std::vector<double> x_, y_, z_, r_;
  double r_min_ = 0.0;
  double r_max_ = 0.0;
  double z_abs_max_ = 0.0;
  LinearLatitudeArgument lat_arg_;
  PropagatorBackend backend_ = PropagatorBackend::kJ2Analytic;
};

// Elements + epoch of one catalog entry, the input to EphemerisSet. Mirrors
// constellation::Satellite without depending on the constellation layer.
// Trailing members default so existing {elements, epoch, perturbation}
// aggregate initialisers keep selecting the J2 analytic backend.
struct EphemerisSpec {
  ClassicalElements elements;
  TimePoint epoch;
  Perturbation perturbation = Perturbation::kJ2Secular;
  PropagatorBackend backend = PropagatorBackend::kJ2Analytic;
  // Source TLE for the SGP4 backend (carries BSTAR drag and the mean-element
  // fit). When absent, a drag-free TLE is synthesised from `elements`.
  std::optional<Tle> tle{};

  [[nodiscard]] static EphemerisSpec from_tle(const Tle& tle,
                                              PropagatorBackend backend =
                                                  PropagatorBackend::kSgp4);
};

// Builds the propagator a spec asks for. SGP4 requests whose orbit is
// outside the near-earth SGP4 domain (period >= 225 min) fall back to the J2
// analytic model — the returned handle's backend() reports what actually ran.
[[nodiscard]] AnyPropagator make_propagator(const EphemerisSpec& spec);

// A catalog's ephemeris fill, split into groups that run independently.
// While AVX2 is the active SimdMode (orbit/simd.hpp), circular J2 specs go
// in groups of up to kMaxGroupSize that the lane-batched kernel fills
// together, one satellite per SIMD lane. Every other spec (eccentric J2,
// SGP4, anything without AVX2) is a group of one on the per-satellite
// scalar path, and so is a lone circular spec left after the groups of
// four: a lane pass costs more than one scalar satellite at any lane count
// (about 1.8x at two lanes, 2.5x at four). Every table is bit-identical to
// EphemerisTable::compute of its spec, by construction. Groups write
// disjoint tables, so they may run on any threads in any order. Borrows
// `specs` and `gmst`; both must outlive the fill.
class EphemerisFill {
 public:
  static constexpr std::size_t kMaxGroupSize = 4;  // orbit::batch::kLanes

  // Resolves the SIMD mode on the calling thread (an invalid MPLEO_SIMD
  // throws here, not inside a pool). Throws std::invalid_argument when
  // `gmst` does not match `grid`.
  EphemerisFill(std::span<const EphemerisSpec> specs, const TimeGrid& grid,
                const GmstTable& gmst);

  [[nodiscard]] std::size_t group_count() const noexcept { return group_begin_.size() - 1; }
  // Spec indices of group g: 1 to kMaxGroupSize of them.
  [[nodiscard]] std::span<const std::size_t> group(std::size_t g) const {
    return std::span<const std::size_t>(order_).subspan(
        group_begin_.at(g), group_begin_.at(g + 1) - group_begin_[g]);
  }
  // Fills tables[l] with the ephemeris of spec group(g)[l]; `tables` holds
  // at least group(g).size() entries. A table already sized to the grid is
  // overwritten in place, so callers can reuse one set of tables per thread.
  void run(std::size_t g, std::span<EphemerisTable> tables) const;

 private:
  void run_lanes(std::span<const std::size_t> members, std::span<EphemerisTable> tables) const;

  std::span<const EphemerisSpec> specs_;
  TimeGrid grid_;
  const GmstTable* gmst_;
  std::vector<std::size_t> order_;        // spec indices, group after group
  std::vector<std::size_t> group_begin_;  // group g is order_[begin[g], begin[g + 1])
};

// Shared ephemerides of a whole catalog over one grid: EphemerisFill's
// groups, run in parallel when a thread pool is given; results are
// identical to the serial fill.
class EphemerisSet {
 public:
  EphemerisSet() = default;

  [[nodiscard]] static EphemerisSet compute(std::span<const EphemerisSpec> specs,
                                            const TimeGrid& grid,
                                            util::ThreadPool* pool = nullptr);
  // Reuses an existing GmstTable (copied into the set) instead of rebuilding.
  [[nodiscard]] static EphemerisSet compute(std::span<const EphemerisSpec> specs,
                                            const TimeGrid& grid, GmstTable gmst,
                                            util::ThreadPool* pool = nullptr);

  [[nodiscard]] std::size_t size() const noexcept { return tables_.size(); }
  [[nodiscard]] const EphemerisTable& table(std::size_t index) const {
    return tables_.at(index);
  }
  [[nodiscard]] const TimeGrid& grid() const noexcept { return grid_; }
  [[nodiscard]] const GmstTable& gmst() const noexcept { return gmst_; }
  // The backend that actually produced table `index` (kJ2Analytic when an
  // SGP4 request fell back on a deep-space orbit).
  [[nodiscard]] PropagatorBackend backend(std::size_t index) const {
    return tables_.at(index).backend();
  }

 private:
  TimeGrid grid_;
  GmstTable gmst_;
  std::vector<EphemerisTable> tables_;
};

}  // namespace mpleo::orbit
