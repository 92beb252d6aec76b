// RF grounding for proof-of-coverage receipts: Doppler signatures and track
// fits (ROADMAP item 5, guided by the strf rffit approach).
//
// A geometric audit only checks that the claimed satellite was above the
// verifier's horizon — an insider who knows the ephemeris can forge receipts
// that pass it. The RF layer raises the bar: a contact claim must come with
// the Doppler track the verifier measured during the pass, and the audit
// fits that track against the curve the shared ephemeris kernel predicts.
// The carrier oscillator offset is unknown (TCXO drift), so the fit removes
// the best constant frequency offset first — what must match is the curve
// SHAPE, which encodes the relative trajectory. A forger must therefore
// reproduce the true range-rate history of a pass it never had, which
// requires running the very ephemeris the audit holds; anything less misses
// by kilohertz when LEO Doppler slews at ~2 kHz/s near closest approach.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/validation.hpp"
#include "util/rng.hpp"

namespace mpleo::rf {

// Carrier frequencies the audit accepts: the satellite allocations the band
// plans model live well inside [1, 100] GHz.
inline constexpr double kMinCarrierHz = 1.0e9;
inline constexpr double kMaxCarrierHz = 100.0e9;

// Doppler-fit audit stage knobs (adversary::AuditConfig::doppler). Disabled
// by default: the audit path is then bit-identical to the pre-RF auditor.
struct DopplerAuditConfig {
  bool enabled = false;
  // Maximum RMS residual (after constant-offset removal) a claimed track may
  // leave against the predicted curve. Tolerance derivation (DESIGN.md §12):
  // ~10x the honest measurement noise, far below the kHz-scale miss of any
  // track that was not generated from the true ephemeris.
  double rms_tolerance_hz = 250.0;
  // Reference downlink carrier the tracks are measured at.
  double carrier_hz = 11.7e9;
  // Samples per track (at most kMaxTrackSamples) and their spacing on the
  // audit grid. A track shorter than min_track_samples cannot pin a curve
  // shape and is rejected as implausible.
  static constexpr std::size_t kMaxTrackSamples = 1024;
  std::size_t track_samples = 9;
  std::size_t min_track_samples = 5;
  double sample_spacing_s = 30.0;
  // 1-sigma measurement noise assumed for honest verifier tracks; the
  // campaign synthesizes honest observations with it.
  double measurement_noise_hz = 25.0;

  // Collects every field problem (core::ConfigIssue, component "rf"); empty = valid.
  [[nodiscard]] std::vector<core::ConfigIssue> validate() const;

  // Symmetric sample offsets around the claimed contact time:
  // (i - (n-1)/2) * sample_spacing_s for i in [0, track_samples).
  [[nodiscard]] std::vector<double> sample_offsets_s() const;
};

// One claimed contact's measured RF track: Doppler shift (Hz, relative to
// the nominal carrier) at offsets (s) around the receipt's claimed time. The
// receipt struct itself never changes — its content hash is the ledger's
// duplicate-guard identity — so tracks ride alongside as audit evidence.
struct DopplerObservation {
  double carrier_hz = 0.0;
  std::vector<double> offsets_s;
  std::vector<double> doppler_hz;
};

// Result of fitting a measured track against a predicted curve.
struct TrackFit {
  std::size_t samples = 0;       // paired samples the fit used
  double offset_hz = 0.0;        // best-fit constant frequency offset removed
  double rms_hz = 0.0;           // RMS residual after offset removal
};

// Fits measured against predicted: removes the mean residual (the constant
// oscillator offset a forger gets for free) and reports the RMS of what
// remains — the curve-shape mismatch. Sizes must match; samples = 0 and
// rms = 0 when both are empty.
[[nodiscard]] TrackFit fit_doppler_track(std::span<const double> measured_hz,
                                         std::span<const double> predicted_hz);

// Forgery sophistication ladder for the adversary benches: how much RF
// knowledge the forger invests in the fabricated track.
enum class ForgeryLevel : std::uint8_t {
  kFlatTone,        // constant tone: no Doppler model at all
  kLinearRamp,      // max-to-min ramp: knows the LEO Doppler bound, not the pass
  kTimeMirrored,    // true curve replayed time-reversed: a stale recording
  kEphemerisExact,  // runs the real ephemeris: indistinguishable by design
};

[[nodiscard]] const char* to_string(ForgeryLevel level) noexcept;

// True for the levels the Doppler fit is expected (and CI-gated) to catch.
// kEphemerisExact is the documented residual attack surface: a forger that
// reproduces the true curve passes, by construction.
[[nodiscard]] constexpr bool detectable(ForgeryLevel level) noexcept {
  return level != ForgeryLevel::kEphemerisExact;
}

// Fabricates the track a `level` forger submits for a pass whose true curve
// is `true_doppler_hz` (what the ephemeris predicts; only the two highest
// levels consume it). `max_doppler_hz` bounds the fabricated magnitudes
// (cov::max_doppler_bound_hz at the claimed altitude/carrier); `rng` is the
// forger's seeded behavior stream.
[[nodiscard]] std::vector<double> forge_doppler_track(
    ForgeryLevel level, std::span<const double> true_doppler_hz,
    double max_doppler_hz, util::Xoshiro256PlusPlus& rng);

// Synthesizes the honest verifier measurement: predicted curve plus i.i.d.
// N(0, noise_sigma_hz) measurement noise from `rng`.
[[nodiscard]] std::vector<double> observe_doppler_track(
    std::span<const double> predicted_hz, double noise_sigma_hz,
    util::Xoshiro256PlusPlus& rng);

}  // namespace mpleo::rf
