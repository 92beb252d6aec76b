#include "orbit/ephemeris.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "orbit/ephemeris_batch.hpp"
#include "orbit/kepler.hpp"
#include "orbit/simd.hpp"
#include "util/thread_pool.hpp"

namespace mpleo::orbit {
namespace {

// Steps between exact libm resynchronisations of the incremental plane
// rotations. Drift over one interval is a few tens of ulps — sub-micrometre
// at orbital radii, far below the <1 mm table accuracy contract.
constexpr std::size_t kResyncInterval = 64;
static_assert(kResyncInterval == batch::kResyncInterval,
              "scalar and lane-batched kernels must resync on the same cadence");

// Matches the solve_kepler fast path: below this the orbit is treated as
// circular (E == M) and the mean anomaly advances linearly in time.
constexpr double kCircularEccentricity = 1e-12;

}  // namespace

GmstTable GmstTable::for_grid(const TimeGrid& grid) {
  GmstTable table;
  table.cos_gmst.reserve(grid.count);
  table.sin_gmst.reserve(grid.count);
  for (std::size_t i = 0; i < grid.count; ++i) {
    const double g = gmst_rad(grid.at(i));
    table.cos_gmst.push_back(std::cos(g));
    table.sin_gmst.push_back(std::sin(g));
  }
  return table;
}

std::vector<util::Vec3> ecef_positions(const KeplerianPropagator& propagator,
                                       const TimeGrid& grid, const GmstTable& gmst) {
  assert(gmst.size() == grid.count);
  std::vector<util::Vec3> out;
  out.reserve(grid.count);
  const double t0 = grid.start.seconds_since(propagator.epoch());
  for (std::size_t i = 0; i < grid.count; ++i) {
    const double dt = t0 + grid.step_seconds * static_cast<double>(i);
    const util::Vec3 eci = propagator.position_eci_at_offset(dt);
    const double c = gmst.cos_gmst[i];
    const double s = gmst.sin_gmst[i];
    out.push_back({c * eci.x + s * eci.y, -s * eci.x + c * eci.y, eci.z});
  }
  return out;
}

std::vector<util::Vec3> ecef_positions(const KeplerianPropagator& propagator,
                                       const TimeGrid& grid) {
  return ecef_positions(propagator, grid, GmstTable::for_grid(grid));
}

void EphemerisTable::resize(std::size_t n) {
  x_.resize(n);
  y_.resize(n);
  z_.resize(n);
  r_.resize(n);
  r_min_ = 0.0;
  r_max_ = 0.0;
  z_abs_max_ = 0.0;
  lat_arg_ = {};
  backend_ = PropagatorBackend::kJ2Analytic;
}

void EphemerisTable::fill(const KeplerianPropagator& propagator, const TimeGrid& grid,
                          const GmstTable& gmst) {
  if (gmst.size() != grid.count) {
    throw std::invalid_argument("EphemerisTable: GmstTable does not match grid");
  }
  const std::size_t n = grid.count;
  resize(n);
  if (n == 0) return;

  const ClassicalElements& coe = propagator.epoch_elements();
  const double a = coe.semi_major_axis_m;
  const double e = coe.eccentricity;
  const double b = a * std::sqrt(1.0 - e * e);  // semi-minor axis
  const double cos_i = std::cos(coe.inclination_rad);
  const double sin_i = std::sin(coe.inclination_rad);

  const double t0 = grid.start.seconds_since(propagator.epoch());
  const double h = grid.step_seconds;
  const double m_dot = propagator.mean_anomaly_rate();
  const double w_dot = propagator.arg_perigee_rate();
  const double o_dot = propagator.raan_rate();
  const bool circular = e < kCircularEccentricity;

  // Per-step rotations of the three time-linear angles.
  const double cdw = std::cos(w_dot * h), sdw = std::sin(w_dot * h);
  const double cdo = std::cos(o_dot * h), sdo = std::sin(o_dot * h);
  const double cdm = std::cos(m_dot * h), sdm = std::sin(m_dot * h);

  double cw = 0.0, sw = 0.0;  // argument of perigee
  double co = 0.0, so = 0.0;  // RAAN
  double ce = 0.0, se = 0.0;  // eccentric anomaly (circular fast path only)
  double r_min = 0.0, r_max = 0.0, z_abs_max = 0.0;

  for (std::size_t k = 0; k < n; ++k) {
    const double dt = t0 + h * static_cast<double>(k);
    if (k % kResyncInterval == 0) {
      const double w = coe.arg_perigee_rad + w_dot * dt;
      cw = std::cos(w);
      sw = std::sin(w);
      const double raan = coe.raan_rad + o_dot * dt;
      co = std::cos(raan);
      so = std::sin(raan);
      if (circular) {
        const double m = coe.mean_anomaly_rad + m_dot * dt;
        ce = std::cos(m);
        se = std::sin(m);
      }
    }
    if (!circular) {
      const double m = coe.mean_anomaly_rad + m_dot * dt;
      const double ecc_anomaly = solve_kepler(m, e);
      ce = std::cos(ecc_anomaly);
      se = std::sin(ecc_anomaly);
    }

    // Perifocal coordinates from the eccentric anomaly (identical geometry
    // to the r/nu form used by elements_to_state, without the atan2).
    const double xp = a * (ce - e);
    const double yp = b * se;
    const double r = a * (1.0 - e * ce);
    // Rz(argp)
    const double x1 = xp * cw - yp * sw;
    const double y1 = xp * sw + yp * cw;
    // Rx(inclination)
    const double y2 = y1 * cos_i;
    const double z2 = y1 * sin_i;
    // Rz(raan - gmst): the ECI->ECEF sidereal rotation folded into the node
    // rotation via the angle-difference identity, using the shared table.
    const double cg = gmst.cos_gmst[k];
    const double sg = gmst.sin_gmst[k];
    const double ca = co * cg + so * sg;
    const double sa = so * cg - co * sg;
    x_[k] = x1 * ca - y2 * sa;
    y_[k] = x1 * sa + y2 * ca;
    z_[k] = z2;
    r_[k] = r;
    if (k == 0 || r < r_min) r_min = r;
    if (k == 0 || r > r_max) r_max = r;
    z_abs_max = std::max(z_abs_max, std::abs(z2));

    // Advance the incremental rotations to step k+1.
    const double cw_next = cw * cdw - sw * sdw;
    sw = sw * cdw + cw * sdw;
    cw = cw_next;
    const double co_next = co * cdo - so * sdo;
    so = so * cdo + co * sdo;
    co = co_next;
    if (circular) {
      const double ce_next = ce * cdm - se * sdm;
      se = se * cdm + ce * sdm;
      ce = ce_next;
    }
  }

  r_min_ = r_min;
  r_max_ = r_max;
  z_abs_max_ = z_abs_max;
  if (circular) {
    const double u_dot = w_dot + m_dot;
    lat_arg_.valid = u_dot > 0.0;
    lat_arg_.u0 = coe.arg_perigee_rad + coe.mean_anomaly_rad + u_dot * t0;
    lat_arg_.du = u_dot * h;
    lat_arg_.sin_incl = sin_i;
    lat_arg_.radius_m = a;
  }
}

void EphemerisTable::fill(const AnyPropagator& propagator, const TimeGrid& grid,
                          const GmstTable& gmst) {
  if (const KeplerianPropagator* keplerian = propagator.keplerian()) {
    fill(*keplerian, grid, gmst);
    return;
  }
  if (gmst.size() != grid.count) {
    throw std::invalid_argument("EphemerisTable: GmstTable does not match grid");
  }
  // Generic pointwise fill for SGP4: one model evaluation per step, then the
  // shared sidereal rotation. The radius is the recomputed norm here (no
  // closed-form orbit equation under drag), and the latitude argument stays
  // invalid — SGP4's z is not an exact sinusoid, so visibility culling falls
  // back to per-step cone tests.
  const std::size_t n = grid.count;
  resize(n);
  backend_ = propagator.backend();
  if (n == 0) return;

  const double t0 = grid.start.seconds_since(propagator.epoch());
  const double h = grid.step_seconds;
  double r_min = 0.0, r_max = 0.0, z_abs_max = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const double dt = t0 + h * static_cast<double>(k);
    const util::Vec3 eci = propagator.position_eci_at_offset(dt);
    const double cg = gmst.cos_gmst[k];
    const double sg = gmst.sin_gmst[k];
    const double r = std::sqrt(eci.x * eci.x + eci.y * eci.y + eci.z * eci.z);
    x_[k] = cg * eci.x + sg * eci.y;
    y_[k] = -sg * eci.x + cg * eci.y;
    z_[k] = eci.z;
    r_[k] = r;
    if (k == 0 || r < r_min) r_min = r;
    if (k == 0 || r > r_max) r_max = r;
    z_abs_max = std::max(z_abs_max, std::abs(eci.z));
  }
  r_min_ = r_min;
  r_max_ = r_max;
  z_abs_max_ = z_abs_max;
}

EphemerisTable EphemerisTable::compute(const KeplerianPropagator& propagator,
                                      const TimeGrid& grid, const GmstTable& gmst) {
  EphemerisTable table;
  table.fill(propagator, grid, gmst);
  return table;
}

EphemerisTable EphemerisTable::compute(const AnyPropagator& propagator,
                                      const TimeGrid& grid, const GmstTable& gmst) {
  EphemerisTable table;
  table.fill(propagator, grid, gmst);
  return table;
}

EphemerisTable EphemerisTable::compute(const AnyPropagator& propagator,
                                      const TimeGrid& grid) {
  return compute(propagator, grid, GmstTable::for_grid(grid));
}

EphemerisSpec EphemerisSpec::from_tle(const Tle& tle, PropagatorBackend backend) {
  EphemerisSpec spec;
  spec.elements = tle.to_elements();
  spec.epoch = tle.epoch;
  spec.backend = backend;
  spec.tle = tle;
  return spec;
}

AnyPropagator make_propagator(const EphemerisSpec& spec) {
  if (spec.backend == PropagatorBackend::kSgp4) {
    const Tle tle = spec.tle.has_value()
                        ? *spec.tle
                        : Tle::from_elements(spec.elements, spec.epoch,
                                             /*catalog_number=*/0);
    if (Sgp4Propagator::supports(tle)) {
      return AnyPropagator(Sgp4Propagator(tle));
    }
    // Deep-space / out-of-domain entry: documented fallback to J2 analytic.
    return AnyPropagator(
        KeplerianPropagator(tle.to_elements(), tle.epoch, spec.perturbation));
  }
  return AnyPropagator(
      KeplerianPropagator(spec.elements, spec.epoch, spec.perturbation));
}

static_assert(EphemerisFill::kMaxGroupSize == batch::kLanes,
              "a fill group is one lane group of the batched kernel");

EphemerisFill::EphemerisFill(std::span<const EphemerisSpec> specs, const TimeGrid& grid,
                             const GmstTable& gmst)
    : specs_(specs), grid_(grid), gmst_(&gmst) {
  if (gmst.size() != grid.count) {
    throw std::invalid_argument("EphemerisFill: GmstTable does not match grid");
  }
  bool lane_batching = false;
#if defined(MPLEO_HAVE_AVX2_KERNEL)
  lane_batching = active_simd_mode() == SimdMode::kAvx2 && grid.count > 0;
#endif
  // Circular J2 specs first, kLanes to a group (a tail group of one is just
  // a scalar single), then every other spec on its own.
  order_.reserve(specs.size());
  group_begin_.reserve(specs.size() + 1);
  std::vector<bool> batched(specs.size(), false);
  if (lane_batching) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      batched[i] = specs[i].backend == PropagatorBackend::kJ2Analytic &&
                   specs[i].elements.eccentricity < kCircularEccentricity;
      if (!batched[i]) continue;
      if (order_.size() % batch::kLanes == 0) group_begin_.push_back(order_.size());
      order_.push_back(i);
    }
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (batched[i]) continue;
    group_begin_.push_back(order_.size());
    order_.push_back(i);
  }
  group_begin_.push_back(order_.size());
}

void EphemerisFill::run(std::size_t g, std::span<EphemerisTable> tables) const {
  const std::span<const std::size_t> members = group(g);
  if (tables.size() < members.size()) {
    throw std::invalid_argument("EphemerisFill: fewer tables than group members");
  }
  if (members.size() > 1) {
    run_lanes(members, tables);
    return;
  }
  const EphemerisSpec& spec = specs_[members.front()];
  if (spec.backend == PropagatorBackend::kJ2Analytic) {
    // Scalar J2 path, kept free of the AnyPropagator indirection.
    tables.front().fill(KeplerianPropagator(spec.elements, spec.epoch, spec.perturbation),
                        grid_, *gmst_);
    return;
  }
  tables.front().fill(make_propagator(spec), grid_, *gmst_);
}

void EphemerisFill::run_lanes(std::span<const std::size_t> members,
                              std::span<EphemerisTable> tables) const {
  const std::size_t count = members.size();
  const std::size_t n = grid_.count;
  const double h = grid_.step_seconds;
  batch::CircularBatch bt{};
  batch::LaneOutput out[batch::kLanes] = {};
  // Derived per-lane constants use the exact expressions (and libm calls)
  // of the scalar EphemerisTable::fill prologue.
  for (std::size_t l = 0; l < count; ++l) {
    const EphemerisSpec& spec = specs_[members[l]];
    const KeplerianPropagator propagator(spec.elements, spec.epoch, spec.perturbation);
    const ClassicalElements& coe = propagator.epoch_elements();
    bt.a[l] = coe.semi_major_axis_m;
    bt.e[l] = coe.eccentricity;
    bt.b[l] = bt.a[l] * std::sqrt(1.0 - bt.e[l] * bt.e[l]);
    bt.cos_i[l] = std::cos(coe.inclination_rad);
    bt.sin_i[l] = std::sin(coe.inclination_rad);
    bt.t0[l] = grid_.start.seconds_since(propagator.epoch());
    bt.w0[l] = coe.arg_perigee_rad;
    bt.o0[l] = coe.raan_rad;
    bt.m0[l] = coe.mean_anomaly_rad;
    bt.w_dot[l] = propagator.arg_perigee_rate();
    bt.o_dot[l] = propagator.raan_rate();
    bt.m_dot[l] = propagator.mean_anomaly_rate();
    bt.cdw[l] = std::cos(bt.w_dot[l] * h);
    bt.sdw[l] = std::sin(bt.w_dot[l] * h);
    bt.cdo[l] = std::cos(bt.o_dot[l] * h);
    bt.sdo[l] = std::sin(bt.o_dot[l] * h);
    bt.cdm[l] = std::cos(bt.m_dot[l] * h);
    bt.sdm[l] = std::sin(bt.m_dot[l] * h);

    EphemerisTable& table = tables[l];
    table.resize(n);
    out[l] = {table.x_.data(), table.y_.data(), table.z_.data(), table.r_.data()};
  }
  // Pad unused tail lanes with lane 0's constants; null outputs skip them.
  for (std::size_t l = count; l < batch::kLanes; ++l) {
    bt.a[l] = bt.a[0];
    bt.e[l] = bt.e[0];
    bt.b[l] = bt.b[0];
    bt.cos_i[l] = bt.cos_i[0];
    bt.sin_i[l] = bt.sin_i[0];
    bt.t0[l] = bt.t0[0];
    bt.w0[l] = bt.w0[0];
    bt.o0[l] = bt.o0[0];
    bt.m0[l] = bt.m0[0];
    bt.w_dot[l] = bt.w_dot[0];
    bt.o_dot[l] = bt.o_dot[0];
    bt.m_dot[l] = bt.m_dot[0];
    bt.cdw[l] = bt.cdw[0];
    bt.sdw[l] = bt.sdw[0];
    bt.cdo[l] = bt.cdo[0];
    bt.sdo[l] = bt.sdo[0];
    bt.cdm[l] = bt.cdm[0];
    bt.sdm[l] = bt.sdm[0];
  }
#if defined(MPLEO_HAVE_AVX2_KERNEL)
  batch::fill_circular_avx2(bt, n, h, gmst_->cos_gmst.data(), gmst_->sin_gmst.data(), out);
#endif
  // Epilogue per lane: radius range and max |z| (the same value sets as the
  // scalar in-loop tracking) and the circular latitude-argument summary.
  for (std::size_t l = 0; l < count; ++l) {
    EphemerisTable& table = tables[l];
    double r_min = 0.0, r_max = 0.0, z_abs_max = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      const double r = table.r_[k];
      if (k == 0 || r < r_min) r_min = r;
      if (k == 0 || r > r_max) r_max = r;
      z_abs_max = std::max(z_abs_max, std::abs(table.z_[k]));
    }
    table.r_min_ = r_min;
    table.r_max_ = r_max;
    table.z_abs_max_ = z_abs_max;
    const double u_dot = bt.w_dot[l] + bt.m_dot[l];
    table.lat_arg_.valid = u_dot > 0.0;
    table.lat_arg_.u0 = bt.w0[l] + bt.m0[l] + u_dot * bt.t0[l];
    table.lat_arg_.du = u_dot * h;
    table.lat_arg_.sin_incl = bt.sin_i[l];
    table.lat_arg_.radius_m = bt.a[l];
  }
}

EphemerisSet EphemerisSet::compute(std::span<const EphemerisSpec> specs,
                                   const TimeGrid& grid, GmstTable gmst,
                                   util::ThreadPool* pool) {
  if (gmst.size() != grid.count) {
    throw std::invalid_argument("EphemerisSet: GmstTable does not match grid");
  }
  EphemerisSet set;
  set.grid_ = grid;
  set.gmst_ = std::move(gmst);
  set.tables_.resize(specs.size());

  const EphemerisFill fill(specs, grid, set.gmst_);
  const auto run = [&set, &fill](std::size_t g) {
    EphemerisTable tables[EphemerisFill::kMaxGroupSize];
    fill.run(g, tables);
    const std::span<const std::size_t> members = fill.group(g);
    for (std::size_t l = 0; l < members.size(); ++l) {
      set.tables_[members[l]] = std::move(tables[l]);
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(fill.group_count(), run);
  } else {
    for (std::size_t g = 0; g < fill.group_count(); ++g) run(g);
  }
  return set;
}

EphemerisSet EphemerisSet::compute(std::span<const EphemerisSpec> specs,
                                   const TimeGrid& grid, util::ThreadPool* pool) {
  return compute(specs, grid, GmstTable::for_grid(grid), pool);
}

}  // namespace mpleo::orbit
