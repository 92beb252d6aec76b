#include "core/proof_of_coverage.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "coverage/doppler.hpp"
#include "coverage/engine.hpp"
#include "coverage/footprint_index.hpp"
#include "coverage/visibility_cull.hpp"
#include "orbit/ephemeris.hpp"
#include "util/units.hpp"

namespace mpleo::core {
namespace {

// FNV-1a over a byte view; used as the simulated MAC primitive.
std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t seed) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = seed ^ 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// No table position is below it: the threshold of a window that never culls.
constexpr double kNoCull = -std::numeric_limits<double>::infinity();

// The dot threshold of one satellite's window cone (DESIGN §12): at any time
// t within half a step h of grid step k, a verifier with geocentric unit
// direction u and radius at least `site_r_min_m` can see the satellite above
// the mask only if dot(u, table position at k) >= the threshold.
//
// Every bound below holds for any bound orbit (speed v <= sqrt(2 mu / r)),
// so for the J2 and SGP4 backends alike:
//  * the radius stays at or above a floor L within h of every step — a
//    speed bound at L moves it at most v(L) h, and each pass tightens L
//    from the last valid one;
//  * it changes by at most `change` there: v(L) h, or, from the sampled
//    radii, half the largest change between steps plus 3/8 A dt², A = 2 mu
//    / L² bounding |r''| (mu / r² for a Kepler orbit, doubled for the
//    perturbations);
//  * so the satellite at t lies inside the FootprintCone of radii in
//    [L, r_max + change] around its own direction at t;
//  * and that direction is within (sqrt(2 mu / L) / L + omega_earth) h of
//    the table position's, the most an orbit and Earth's rotation turn it
//    in h.
// The cone is widened by that motion, plus slack, and its dot threshold
// taken over the table's own radius range.
// No cull when the step is too long for the floor to exist, or the table
// holds a non-finite radius.
double window_threshold(const orbit::EphemerisTable& table, double step_s,
                        double site_r_min_m, double elevation_mask_deg) {
  constexpr double kMu = util::kMuEarth;
  constexpr double kSlackRad = 1e-5;
  const std::span<const double> radius = table.radius_m();
  const double r_min = table.min_radius_m();
  const double r_max = table.max_radius_m();
  if (radius.empty() || !(r_min > 0.0)) return kNoCull;
  double step_change = 0.0;
  for (std::size_t k = 0; k < radius.size(); ++k) {
    if (!std::isfinite(radius[k])) return kNoCull;
    if (k > 0) step_change = std::max(step_change, std::abs(radius[k] - radius[k - 1]));
  }

  const double h = 0.5 * step_s;
  double floor_r = 0.5 * r_min;
  if (!(std::sqrt(2.0 * kMu / floor_r) * h < r_min - floor_r)) return kNoCull;
  double change = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    change = std::sqrt(2.0 * kMu / floor_r) * h;
    if (radius.size() > 1) {
      const double accel = 2.0 * kMu / (floor_r * floor_r);
      change = std::min(change, 0.5 * step_change + 0.375 * accel * step_s * step_s);
    }
    floor_r = r_min - change;
  }

  const cov::FootprintCone cone(cov::FootprintCone::Mask(elevation_mask_deg), floor_r,
                                r_max + change, site_r_min_m);
  const double turn =
      (std::sqrt(2.0 * kMu / floor_r) / floor_r + util::kEarthRotationRateRadPerSec) * h;
  return cone.widened(cov::FootprintCone::Widening(turn * (1.0 + 1e-6) + kSlackRad))
      .dot_threshold(r_min, r_max);
}

}  // namespace

std::uint64_t CoverageReceipt::content_hash() const noexcept {
  struct Payload {
    constellation::SatelliteId satellite;
    std::uint32_t verifier;
    double julian_date;
    std::uint64_t nonce;
    std::uint64_t digest;
  } payload{satellite, verifier, time.julian_date(), nonce, digest};
  static_assert(sizeof(Payload) == 32);
  return fnv1a(&payload, sizeof payload, 0x72637074ULL);  // "rcpt"
}

std::uint64_t ProofOfCoverage::digest(std::uint64_t key,
                                      constellation::SatelliteId satellite,
                                      std::uint32_t verifier, double julian_date,
                                      std::uint64_t nonce) noexcept {
  struct Payload {
    constellation::SatelliteId satellite;
    std::uint32_t verifier;
    double julian_date;
    std::uint64_t nonce;
  } payload{satellite, verifier, julian_date, nonce};
  static_assert(sizeof(Payload) == 24);
  return fnv1a(&payload, sizeof payload, key);
}

ProofOfCoverage::ProofOfCoverage(Config config)
    : config_(config), sin_mask_(std::sin(util::deg_to_rad(config.elevation_mask_deg))) {}

std::uint64_t ProofOfCoverage::register_satellite(const constellation::Satellite& satellite,
                                                  std::uint64_t consortium_seed) {
  if (!index_of_.emplace(satellite.id, satellites_.size()).second) {
    throw std::invalid_argument("ProofOfCoverage: satellite " +
                                std::to_string(satellite.id) + " already registered");
  }
  const std::uint64_t key =
      fnv1a(&satellite.id, sizeof satellite.id, consortium_seed ^ 0x6d706c656fULL);
  const orbit::EphemerisSpec spec = cov::ephemeris_spec(satellite, config_.propagator_backend);
  satellites_.push_back({key, spec, orbit::make_propagator(spec)});
  prepared_.reset();
  return key;
}

std::optional<std::size_t> ProofOfCoverage::registration_index(
    constellation::SatelliteId satellite) const {
  const auto it = index_of_.find(satellite);
  if (it == index_of_.end()) return std::nullopt;
  return it->second;
}

std::uint32_t ProofOfCoverage::register_verifier(const orbit::Geodetic& site) {
  const util::Vec3& origin = verifiers_.emplace_back(site).origin_ecef();
  const double radius = origin.norm();
  verifier_directions_.push_back({origin / radius, radius});
  return static_cast<std::uint32_t>(verifiers_.size() - 1);
}

CoverageReceipt ProofOfCoverage::answer_challenge(constellation::SatelliteId satellite,
                                                  std::uint64_t key, std::uint32_t verifier,
                                                  orbit::TimePoint time,
                                                  std::uint64_t nonce) {
  CoverageReceipt receipt;
  receipt.satellite = satellite;
  receipt.verifier = verifier;
  receipt.time = time;
  receipt.nonce = nonce;
  receipt.digest = digest(key, satellite, verifier, time.julian_date(), nonce);
  return receipt;
}

void ProofOfCoverage::prepare_grid(const orbit::TimeGrid& grid, util::ThreadPool* pool) {
  std::vector<orbit::EphemerisSpec> specs;
  specs.reserve(satellites_.size());
  for (const RegisteredSatellite& registered : satellites_) specs.push_back(registered.spec);
  PreparedGrid prepared{orbit::EphemerisSet::compute(specs, grid, pool), {},
                        std::numeric_limits<double>::infinity()};
  for (const VerifierDirection& verifier : verifier_directions_) {
    prepared.min_verifier_radius_m = std::min(prepared.min_verifier_radius_m, verifier.radius_m);
  }
  prepared.window_thresholds.reserve(satellites_.size());
  for (std::size_t i = 0; i < satellites_.size(); ++i) {
    prepared.window_thresholds.push_back(
        window_threshold(prepared.tables.table(i), grid.step_seconds,
                         prepared.min_verifier_radius_m, config_.elevation_mask_deg));
  }
  prepared_ = std::move(prepared);
}

const orbit::EphemerisTable& ProofOfCoverage::table_on(std::size_t index,
                                                       const orbit::TimeGrid& grid,
                                                       orbit::EphemerisTable& scratch) const {
  if (prepared_.has_value() && prepared_->tables.grid() == grid) {
    return prepared_->tables.table(index);
  }
  scratch = orbit::EphemerisTable::compute(satellites_[index].propagator, grid);
  return scratch;
}

bool ProofOfCoverage::culled(std::size_t index, std::uint32_t verifier,
                             const orbit::TimePoint& t) const {
  if (!prepared_.has_value()) return false;
  const VerifierDirection& site = verifier_directions_[verifier];
  if (!(site.radius_m >= prepared_->min_verifier_radius_m)) return false;
  const orbit::TimeGrid& grid = prepared_->tables.grid();
  // The nearest step, when t is within half a step of one.
  const double at = t.seconds_since(grid.start) / grid.step_seconds;
  if (!(at > -0.5 && at < static_cast<double>(grid.count) - 0.5)) return false;
  const std::size_t step = std::min(static_cast<std::size_t>(at + 0.5), grid.count - 1);
  return util::dot(site.unit, prepared_->tables.table(index).position_ecef(step)) <
         prepared_->window_thresholds[index];
}

ReceiptVerdict ProofOfCoverage::verify(const CoverageReceipt& receipt) const {
  const std::optional<std::size_t> index = registration_index(receipt.satellite);
  if (!index.has_value()) return ReceiptVerdict::kUnknownSatellite;
  if (receipt.verifier >= verifiers_.size()) return ReceiptVerdict::kUnknownVerifier;
  const RegisteredSatellite& registered = satellites_[*index];

  const std::uint64_t expected =
      digest(registered.key, receipt.satellite, receipt.verifier,
             receipt.time.julian_date(), receipt.nonce);
  if (expected != receipt.digest) return ReceiptVerdict::kBadDigest;

  // Geometry check: was the satellite actually above the verifier's horizon?
  if (culled(*index, receipt.verifier, receipt.time)) return ReceiptVerdict::kNotOverhead;
  const orbit::StateVector state = registered.propagator.state_at(receipt.time);
  const util::Vec3 ecef = orbit::eci_to_ecef(state.position, receipt.time);
  if (!verifiers_[receipt.verifier].visible_above(ecef, sin_mask_)) {
    return ReceiptVerdict::kNotOverhead;
  }
  return ReceiptVerdict::kValid;
}

cov::StepMask ProofOfCoverage::overhead_steps(constellation::SatelliteId satellite,
                                              std::uint32_t verifier,
                                              const orbit::TimeGrid& grid) const {
  const std::optional<std::size_t> index = registration_index(satellite);
  if (!index.has_value()) {
    throw std::invalid_argument("ProofOfCoverage: unknown satellite");
  }
  if (verifier >= verifiers_.size()) {
    throw std::invalid_argument("ProofOfCoverage: unknown verifier");
  }
  orbit::EphemerisTable scratch;
  const cov::VisibilityCuller culler(grid, config_.elevation_mask_deg);
  cov::StepMask mask(grid.count);
  culler.fill(table_on(*index, grid, scratch), verifiers_[verifier], mask);
  return mask;
}

std::optional<bool> ProofOfCoverage::overhead_at_step(constellation::SatelliteId satellite,
                                                      std::uint32_t verifier,
                                                      const orbit::TimeGrid& grid,
                                                      std::int64_t step) const {
  const std::optional<std::size_t> index = registration_index(satellite);
  if (!index.has_value() || verifier >= verifiers_.size()) return std::nullopt;
  if (step < 0 || static_cast<std::uint64_t>(step) >= grid.count) return false;
  orbit::EphemerisTable scratch;
  const orbit::EphemerisTable& table = table_on(*index, grid, scratch);
  return verifiers_[verifier].visible_above(
      table.position_ecef(static_cast<std::size_t>(step)), sin_mask_);
}

std::vector<ProofOfCoverage::DopplerPoint> ProofOfCoverage::doppler_track(
    constellation::SatelliteId satellite, std::uint32_t verifier,
    orbit::TimePoint time, double carrier_hz, std::span<const double> offsets_s) const {
  const std::optional<std::size_t> index = registration_index(satellite);
  if (!index.has_value()) {
    throw std::invalid_argument("ProofOfCoverage: unknown satellite");
  }
  if (verifier >= verifiers_.size()) {
    throw std::invalid_argument("ProofOfCoverage: unknown verifier");
  }
  const orbit::AnyPropagator& propagator = satellites_[*index].propagator;
  const orbit::TopocentricFrame& site = verifiers_[verifier];

  std::vector<DopplerPoint> track;
  track.reserve(offsets_s.size());
  for (const double offset : offsets_s) {
    const orbit::TimePoint t = time.plus_seconds(offset);
    if (culled(*index, verifier, t)) continue;
    const orbit::StateVector state = propagator.state_at(t);
    const double gmst = orbit::gmst_rad(t);
    const util::Vec3 r_ecef = orbit::eci_to_ecef(state.position, gmst);
    if (!site.visible_above(r_ecef, sin_mask_)) continue;
    const cov::RangeRate rr =
        cov::range_rate_ecef(state.velocity, gmst, r_ecef, site.origin_ecef());
    track.push_back(
        {offset, cov::doppler_shift_hz(rr.range_rate_m_per_s, carrier_hz)});
  }
  return track;
}

ReceiptVerdict ProofOfCoverage::credit(const CoverageReceipt& receipt, Ledger& ledger,
                                       AccountId owner_account) const {
  // A failed reward (empty treasury) does not invalidate the receipt, but an
  // already-credited content hash does: paying twice for one receipt is the
  // inflation attack the audit layer exists to stop.
  if (!ledger.credit_receipt(owner_account, config_.reward_per_receipt,
                             receipt.content_hash(), "proof-of-coverage")) {
    return ReceiptVerdict::kDuplicate;
  }
  return ReceiptVerdict::kValid;
}

ReceiptVerdict ProofOfCoverage::verify_and_reward(const CoverageReceipt& receipt,
                                                  Ledger& ledger,
                                                  AccountId owner_account) const {
  const ReceiptVerdict verdict = verify(receipt);
  return verdict == ReceiptVerdict::kValid ? credit(receipt, ledger, owner_account) : verdict;
}

}  // namespace mpleo::core
