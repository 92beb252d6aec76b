#include "rf/doppler.hpp"

#include <cmath>
#include <sstream>

namespace mpleo::rf {

namespace {

bool finite(double v) noexcept { return std::isfinite(v); }

void add_issue(std::vector<core::ConfigIssue>& issues, const char* field,
               double value, const char* requirement) {
  std::ostringstream os;
  os << "value " << value << " " << requirement;
  issues.push_back({"rf", field, os.str()});
}

}  // namespace

std::vector<core::ConfigIssue> DopplerAuditConfig::validate() const {
  std::vector<core::ConfigIssue> issues;
  if (!finite(rms_tolerance_hz) || rms_tolerance_hz <= 0.0) {
    add_issue(issues, "doppler.rms_tolerance_hz", rms_tolerance_hz,
              "must be finite and > 0");
  }
  if (!finite(carrier_hz) || carrier_hz < kMinCarrierHz || carrier_hz > kMaxCarrierHz) {
    add_issue(issues, "doppler.carrier_hz", carrier_hz,
              "must be inside the [1, 100] GHz satellite allocations");
  }
  if (track_samples < 2 || track_samples > kMaxTrackSamples) {
    add_issue(issues, "doppler.track_samples", static_cast<double>(track_samples),
              "must be in [2, 1024]: at least two samples pin a curve shape");
  }
  if (min_track_samples < 2 || min_track_samples > track_samples) {
    add_issue(issues, "doppler.min_track_samples",
              static_cast<double>(min_track_samples),
              "must be in [2, track_samples]");
  }
  if (!finite(sample_spacing_s) || sample_spacing_s <= 0.0) {
    add_issue(issues, "doppler.sample_spacing_s", sample_spacing_s,
              "must be finite and > 0");
  }
  if (!finite(measurement_noise_hz) || measurement_noise_hz < 0.0) {
    add_issue(issues, "doppler.measurement_noise_hz", measurement_noise_hz,
              "must be finite and >= 0");
  }
  return issues;
}

std::vector<double> DopplerAuditConfig::sample_offsets_s() const {
  std::vector<double> offsets;
  offsets.reserve(track_samples);
  const double half = static_cast<double>(track_samples - 1) / 2.0;
  for (std::size_t i = 0; i < track_samples; ++i) {
    offsets.push_back((static_cast<double>(i) - half) * sample_spacing_s);
  }
  return offsets;
}

TrackFit fit_doppler_track(std::span<const double> measured_hz,
                           std::span<const double> predicted_hz) {
  TrackFit fit;
  const std::size_t n = std::min(measured_hz.size(), predicted_hz.size());
  fit.samples = n;
  if (n == 0) return fit;

  // Least-squares constant offset = mean residual; what remains is the
  // curve-shape mismatch the forger cannot buy with an oscillator knob.
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += measured_hz[i] - predicted_hz[i];
  fit.offset_hz = sum / static_cast<double>(n);

  double sq = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double r = measured_hz[i] - predicted_hz[i] - fit.offset_hz;
    sq += r * r;
  }
  fit.rms_hz = std::sqrt(sq / static_cast<double>(n));
  return fit;
}

const char* to_string(ForgeryLevel level) noexcept {
  switch (level) {
    case ForgeryLevel::kFlatTone: return "flat_tone";
    case ForgeryLevel::kLinearRamp: return "linear_ramp";
    case ForgeryLevel::kTimeMirrored: return "time_mirrored";
    case ForgeryLevel::kEphemerisExact: return "ephemeris_exact";
  }
  return "unknown";
}

std::vector<double> forge_doppler_track(ForgeryLevel level,
                                        std::span<const double> true_doppler_hz,
                                        double max_doppler_hz,
                                        util::Xoshiro256PlusPlus& rng) {
  const std::size_t n = true_doppler_hz.size();
  std::vector<double> track(n, 0.0);
  if (n == 0) return track;
  switch (level) {
    case ForgeryLevel::kFlatTone: {
      // A carrier parked somewhere inside the Doppler window: zero slope.
      const double tone = rng.uniform(-0.2, 0.2) * max_doppler_hz;
      for (double& f : track) f = tone;
      break;
    }
    case ForgeryLevel::kLinearRamp: {
      // Knows LEO passes sweep high-to-low, not where in the pass the claim
      // sits: a straight descent across the plausible band.
      const double hi = rng.uniform(0.4, 1.0) * max_doppler_hz;
      const double lo = -rng.uniform(0.4, 1.0) * max_doppler_hz;
      const double denom = static_cast<double>(n > 1 ? n - 1 : 1);
      for (std::size_t i = 0; i < n; ++i) {
        track[i] = hi + (lo - hi) * static_cast<double>(i) / denom;
      }
      break;
    }
    case ForgeryLevel::kTimeMirrored:
      // A stale recording of the real pass played backwards — right
      // magnitudes, reversed slope.
      for (std::size_t i = 0; i < n; ++i) track[i] = true_doppler_hz[n - 1 - i];
      break;
    case ForgeryLevel::kEphemerisExact:
      // The forger ran the true ephemeris and dresses the curve in
      // measurement-like jitter: the audit's documented blind spot.
      for (std::size_t i = 0; i < n; ++i) {
        track[i] = true_doppler_hz[i] + rng.normal(0.0, 10.0);
      }
      break;
  }
  return track;
}

std::vector<double> observe_doppler_track(std::span<const double> predicted_hz,
                                          double noise_sigma_hz,
                                          util::Xoshiro256PlusPlus& rng) {
  std::vector<double> track;
  track.reserve(predicted_hz.size());
  for (const double f : predicted_hz) track.push_back(f + rng.normal(0.0, noise_sigma_hz));
  return track;
}

}  // namespace mpleo::rf
