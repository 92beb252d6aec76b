// Proof-of-coverage (§3.2): "ground stations at random locations can verify
// coverage by pinging satellites when they are overhead, and provide
// proof-of-coverage to earn rewards."
//
// Protocol modelled here:
//   1. Each satellite registers a secret key with the consortium at join.
//   2. A verifier site issues a challenge (nonce) when a satellite should be
//      overhead; a live satellite answers with MAC(key, sat | verifier |
//      time | nonce) — simulated with a keyed FNV-1a digest.
//   3. The consortium checks the digest AND that orbital geometry actually
//      places the satellite above the verifier's horizon at that time —
//      a party cannot earn rewards for coverage it can't deliver.
//   4. Valid receipts earn treasury rewards.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "constellation/shell.hpp"
#include "core/ledger.hpp"
#include "coverage/step_mask.hpp"
#include "orbit/any_propagator.hpp"
#include "orbit/backend.hpp"
#include "orbit/ephemeris.hpp"
#include "orbit/geodesy.hpp"
#include "orbit/propagator.hpp"
#include "orbit/time.hpp"
#include "util/vec3.hpp"

namespace mpleo::util {
class ThreadPool;
}

namespace mpleo::core {

struct CoverageReceipt {
  constellation::SatelliteId satellite = 0;
  std::uint32_t verifier = 0;       // verifier site index
  orbit::TimePoint time;
  std::uint64_t nonce = 0;
  std::uint64_t digest = 0;

  // Deterministic content hash over every field (unkeyed FNV-1a): the
  // identity the ledger's duplicate-submission guard keys on. Two receipts
  // hash equal iff they claim the same (satellite, verifier, time, nonce,
  // digest) — resubmitting an already-credited receipt cannot double-pay.
  [[nodiscard]] std::uint64_t content_hash() const noexcept;
};

enum class ReceiptVerdict {
  kValid,
  kBadDigest,        // forged / wrong key
  kNotOverhead,      // geometry says the satellite wasn't visible
  kUnknownSatellite,
  kUnknownVerifier,
  kDuplicate,        // valid but already credited (double-submission)
  kRfImplausible,    // Doppler track doesn't match the ephemeris prediction
};

class ProofOfCoverage {
 public:
  struct Config {
    double elevation_mask_deg = 10.0;  // verifier horizon (lower than service mask)
    double reward_per_receipt = 1.0;   // treasury tokens per valid receipt
    // Backend for the geometry checks (per-receipt state query and batched
    // overhead mask). Applied at registration; the default is bit-identical
    // to the historical KeplerianPropagator-only verifier.
    orbit::PropagatorBackend propagator_backend = orbit::PropagatorBackend::kJ2Analytic;
  };

  explicit ProofOfCoverage(Config config);

  // Registers a satellite and derives its secret key from the consortium
  // seed; returns the key so the satellite side can answer challenges.
  // Throws std::invalid_argument when the id is already registered: receipts
  // signed with a second key for the same id could never verify.
  std::uint64_t register_satellite(const constellation::Satellite& satellite,
                                   std::uint64_t consortium_seed);

  // Position of `satellite` in registration order (the order
  // register_satellite was called in), or nullopt when it is not registered.
  [[nodiscard]] std::optional<std::size_t> registration_index(
      constellation::SatelliteId satellite) const;

  // Registers a verifier site; returns its verifier index.
  std::uint32_t register_verifier(const orbit::Geodetic& site);

  // Satellite side: answers a challenge (requires the satellite's key).
  [[nodiscard]] static CoverageReceipt answer_challenge(
      constellation::SatelliteId satellite, std::uint64_t key, std::uint32_t verifier,
      orbit::TimePoint time, std::uint64_t nonce);

  // Consortium side: full verification (digest + orbital geometry). On a
  // prepared grid the window cone settles most misses without propagating.
  [[nodiscard]] ReceiptVerdict verify(const CoverageReceipt& receipt) const;

  // Builds the epoch ephemeris of every registered satellite over `grid` in
  // one batched fill (orbit::EphemerisSet, on `pool` when given), each under
  // the backend it registered with. overhead_steps and overhead_at_step read
  // these tables on this grid; on any other grid they propagate the one
  // satellite they need, with bit-identical results. Call once per epoch;
  // registering another satellite drops the tables.
  //
  // It also stores each satellite's window cone, the geometry cull of verify
  // and doppler_track: at a time within half a step of a grid step, a
  // satellite whose table position at that step lies outside the cone is
  // provably below the mask of every verifier at least as high as the lowest
  // one registered now, so those queries skip the propagator. Verdicts and
  // track points are exactly those of the unprepared path (DESIGN §12).
  void prepare_grid(const orbit::TimeGrid& grid, util::ThreadPool* pool = nullptr);

  // Challenge-window planning: the grid steps at which `satellite` clears the
  // verifier's horizon, computed through the shared ephemeris kernel (one
  // propagation sweep + the coverage cull) instead of a per-instant state
  // query per candidate challenge. A receipt timestamped at a set step
  // clears the geometry check of verify (up to propagation round-off at the
  // exact mask boundary). Throws on unknown indices.
  [[nodiscard]] cov::StepMask overhead_steps(constellation::SatelliteId satellite,
                                             std::uint32_t verifier,
                                             const orbit::TimeGrid& grid) const;

  // One bit of overhead_steps(satellite, verifier, grid): the exact
  // visible_above test at the step's table position, the bit the coverage
  // cull sets. Steps outside [0, grid.count) read false; nullopt when either
  // id is unknown.
  [[nodiscard]] std::optional<bool> overhead_at_step(constellation::SatelliteId satellite,
                                                     std::uint32_t verifier,
                                                     const orbit::TimeGrid& grid,
                                                     std::int64_t step) const;

  // One point of a predicted Doppler track around a claimed contact.
  struct DopplerPoint {
    double offset_s = 0.0;    // relative to the claimed contact time
    double doppler_hz = 0.0;  // predicted shift at the requested carrier
  };

  // RF grounding for the receipt audit: the Doppler curve the shared
  // ephemeris kernel predicts for `satellite` as seen from `verifier`,
  // sampled at `time + offsets_s[i]` on carrier `carrier_hz`. Offsets where
  // the satellite sits below the verifier's horizon contribute no point (a
  // real measurement cannot exist there), so tracks truncate naturally at
  // pass edges. Range-rate goes through cov::range_rate_ecef — the same
  // kernel the coverage Doppler profiles use. On a prepared grid, offsets
  // the window cone places below the mask are dropped without propagating.
  // Throws on unknown indices.
  [[nodiscard]] std::vector<DopplerPoint> doppler_track(
      constellation::SatelliteId satellite, std::uint32_t verifier,
      orbit::TimePoint time, double carrier_hz,
      std::span<const double> offsets_s) const;

  // Pays the owner account for a receipt verify accepted, from the treasury
  // through Ledger::credit_receipt keyed on the receipt's content hash:
  // kValid, or kDuplicate once that hash has been credited.
  ReceiptVerdict credit(const CoverageReceipt& receipt, Ledger& ledger,
                        AccountId owner_account) const;

  // verify, then credit a kValid receipt. Returns the verdict.
  ReceiptVerdict verify_and_reward(const CoverageReceipt& receipt, Ledger& ledger,
                                   AccountId owner_account) const;

  [[nodiscard]] const Config& config() const noexcept { return config_; }

  // The keyed digest (exposed for tests).
  [[nodiscard]] static std::uint64_t digest(std::uint64_t key,
                                            constellation::SatelliteId satellite,
                                            std::uint32_t verifier, double julian_date,
                                            std::uint64_t nonce) noexcept;

 private:
  struct RegisteredSatellite {
    std::uint64_t key = 0;
    // The orbit and backend the satellite registered with; prepare_grid
    // fills the epoch tables from it.
    orbit::EphemerisSpec spec;
    // Built once from `spec`; per-receipt state queries and fills on
    // unprepared grids reuse it.
    orbit::AnyPropagator propagator;
  };

  // A verifier's geocentric unit direction and radius: what the window cone
  // is tested against.
  struct VerifierDirection {
    util::Vec3 unit;
    double radius_m = 0.0;
  };

  // What prepare_grid builds for its grid.
  struct PreparedGrid {
    orbit::EphemerisSet tables;  // one per registered satellite
    // Per registered satellite, the dot threshold of its window cone:
    // dot(verifier unit, table position at the nearest step) below it
    // proves the satellite below the mask (-inf never culls).
    std::vector<double> window_thresholds;
    // The verifier radius the cones assume: the lowest one registered when
    // the grid was prepared. A lower verifier takes the exact path.
    double min_verifier_radius_m = 0.0;
  };

  // Satellite `index`'s ephemeris on `grid`: the prepared epoch table when
  // `grid` is the prepared one, else a fresh fill into `scratch`.
  [[nodiscard]] const orbit::EphemerisTable& table_on(std::size_t index,
                                                      const orbit::TimeGrid& grid,
                                                      orbit::EphemerisTable& scratch) const;
  // True when the prepared tables prove satellite `index` below verifier
  // `verifier`'s mask at `t`. False — decide exactly — when no grid is
  // prepared, when `t` is not within half a step of one of its steps (NaN
  // and infinities included), and when the verifier is lower than the cones
  // assume.
  [[nodiscard]] bool culled(std::size_t index, std::uint32_t verifier,
                            const orbit::TimePoint& t) const;

  Config config_;
  double sin_mask_ = 0.0;  // sin of config_.elevation_mask_deg
  std::vector<RegisteredSatellite> satellites_;
  std::unordered_map<constellation::SatelliteId, std::size_t> index_of_;
  std::vector<orbit::TopocentricFrame> verifiers_;
  std::vector<VerifierDirection> verifier_directions_;  // parallel to verifiers_
  std::optional<PreparedGrid> prepared_;                // set by prepare_grid
};

}  // namespace mpleo::core
