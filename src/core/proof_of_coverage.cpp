#include "core/proof_of_coverage.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "coverage/doppler.hpp"
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

// What a satellite registers with: its elements under the configured
// backend. The per-receipt propagator and the batched epoch fill both start
// from it.
orbit::EphemerisSpec registration_spec(const orbit::ClassicalElements& elements,
                                       orbit::TimePoint epoch,
                                       orbit::PropagatorBackend backend) {
  orbit::EphemerisSpec spec{elements, epoch, orbit::Perturbation::kJ2Secular};
  spec.backend = backend;
  return spec;
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
  satellites_.push_back(
      {key, satellite.elements, satellite.epoch,
       orbit::make_propagator(registration_spec(satellite.elements, satellite.epoch,
                                                config_.propagator_backend))});
  epoch_tables_.reset();
  return key;
}

std::optional<std::size_t> ProofOfCoverage::registration_index(
    constellation::SatelliteId satellite) const {
  const auto it = index_of_.find(satellite);
  if (it == index_of_.end()) return std::nullopt;
  return it->second;
}

std::uint32_t ProofOfCoverage::register_verifier(const orbit::Geodetic& site) {
  verifiers_.emplace_back(site);
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

const ProofOfCoverage::RegisteredSatellite* ProofOfCoverage::find(
    constellation::SatelliteId id) const {
  const std::optional<std::size_t> index = registration_index(id);
  return index.has_value() ? &satellites_[*index] : nullptr;
}

void ProofOfCoverage::prepare_grid(const orbit::TimeGrid& grid, util::ThreadPool* pool) {
  std::vector<orbit::EphemerisSpec> specs;
  specs.reserve(satellites_.size());
  for (const RegisteredSatellite& registered : satellites_) {
    specs.push_back(registration_spec(registered.elements, registered.epoch,
                                      config_.propagator_backend));
  }
  epoch_tables_ = orbit::EphemerisSet::compute(specs, grid, pool);
}

const orbit::EphemerisTable& ProofOfCoverage::table_on(std::size_t index,
                                                       const orbit::TimeGrid& grid,
                                                       orbit::EphemerisTable& scratch) const {
  if (epoch_tables_.has_value() && epoch_tables_->grid() == grid) {
    return epoch_tables_->table(index);
  }
  scratch = orbit::EphemerisTable::compute(satellites_[index].propagator, grid);
  return scratch;
}

ReceiptVerdict ProofOfCoverage::verify(const CoverageReceipt& receipt) const {
  const RegisteredSatellite* registered = find(receipt.satellite);
  if (registered == nullptr) return ReceiptVerdict::kUnknownSatellite;
  if (receipt.verifier >= verifiers_.size()) return ReceiptVerdict::kUnknownVerifier;

  const std::uint64_t expected =
      digest(registered->key, receipt.satellite, receipt.verifier,
             receipt.time.julian_date(), receipt.nonce);
  if (expected != receipt.digest) return ReceiptVerdict::kBadDigest;

  // Geometry check: was the satellite actually above the verifier's horizon?
  const orbit::StateVector state = registered->propagator.state_at(receipt.time);
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
  const RegisteredSatellite* registered = find(satellite);
  if (registered == nullptr) {
    throw std::invalid_argument("ProofOfCoverage: unknown satellite");
  }
  if (verifier >= verifiers_.size()) {
    throw std::invalid_argument("ProofOfCoverage: unknown verifier");
  }
  const orbit::TopocentricFrame& site = verifiers_[verifier];

  std::vector<DopplerPoint> track;
  track.reserve(offsets_s.size());
  for (const double offset : offsets_s) {
    const orbit::TimePoint t = time.plus_seconds(offset);
    const orbit::StateVector state = registered->propagator.state_at(t);
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

ReceiptVerdict ProofOfCoverage::verify_and_reward(const CoverageReceipt& receipt,
                                                  Ledger& ledger,
                                                  AccountId owner_account) const {
  const ReceiptVerdict verdict = verify(receipt);
  if (verdict == ReceiptVerdict::kValid) {
    // A failed reward (empty treasury) does not invalidate the receipt, but
    // an already-credited content hash does: paying twice for one receipt is
    // the inflation attack the audit layer exists to stop.
    if (!ledger.credit_receipt(owner_account, config_.reward_per_receipt,
                               receipt.content_hash(), "proof-of-coverage")) {
      return ReceiptVerdict::kDuplicate;
    }
  }
  return verdict;
}

}  // namespace mpleo::core
