#include "rf/doppler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace mpleo::rf {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

bool has_issue(const std::vector<core::ConfigIssue>& issues, const std::string& field) {
  return std::any_of(issues.begin(), issues.end(),
                     [&](const core::ConfigIssue& i) { return i.field == field; });
}

TEST(DopplerAuditConfig, DefaultsValidate) {
  EXPECT_TRUE(DopplerAuditConfig{}.validate().empty());
}

TEST(DopplerAuditConfig, RejectsBadRmsTolerance) {
  DopplerAuditConfig cfg;
  cfg.rms_tolerance_hz = -1.0;
  EXPECT_TRUE(has_issue(cfg.validate(), "doppler.rms_tolerance_hz"));
  cfg.rms_tolerance_hz = 0.0;
  EXPECT_TRUE(has_issue(cfg.validate(), "doppler.rms_tolerance_hz"));
  cfg.rms_tolerance_hz = kNan;
  EXPECT_TRUE(has_issue(cfg.validate(), "doppler.rms_tolerance_hz"));
}

TEST(DopplerAuditConfig, RejectsCarrierOutsideAllocations) {
  DopplerAuditConfig cfg;
  cfg.carrier_hz = 0.5e9;  // below the 1 GHz floor
  EXPECT_TRUE(has_issue(cfg.validate(), "doppler.carrier_hz"));
  cfg.carrier_hz = 150.0e9;  // above the 100 GHz ceiling
  EXPECT_TRUE(has_issue(cfg.validate(), "doppler.carrier_hz"));
  cfg.carrier_hz = kInf;
  EXPECT_TRUE(has_issue(cfg.validate(), "doppler.carrier_hz"));
  cfg.carrier_hz = 11.7e9;
  EXPECT_FALSE(has_issue(cfg.validate(), "doppler.carrier_hz"));
}

TEST(DopplerAuditConfig, RejectsBadTrackShape) {
  DopplerAuditConfig cfg;
  cfg.track_samples = 1;  // cannot pin a curve shape
  EXPECT_TRUE(has_issue(cfg.validate(), "doppler.track_samples"));

  cfg = DopplerAuditConfig{};
  cfg.min_track_samples = 1;
  EXPECT_TRUE(has_issue(cfg.validate(), "doppler.min_track_samples"));
  cfg.min_track_samples = cfg.track_samples + 1;  // more than the track holds
  EXPECT_TRUE(has_issue(cfg.validate(), "doppler.min_track_samples"));
}

TEST(DopplerAuditConfig, RejectsBadSpacingAndNoise) {
  DopplerAuditConfig cfg;
  cfg.sample_spacing_s = 0.0;
  EXPECT_TRUE(has_issue(cfg.validate(), "doppler.sample_spacing_s"));
  cfg.sample_spacing_s = kNan;
  EXPECT_TRUE(has_issue(cfg.validate(), "doppler.sample_spacing_s"));

  cfg = DopplerAuditConfig{};
  cfg.measurement_noise_hz = -5.0;
  EXPECT_TRUE(has_issue(cfg.validate(), "doppler.measurement_noise_hz"));
  cfg.measurement_noise_hz = kInf;
  EXPECT_TRUE(has_issue(cfg.validate(), "doppler.measurement_noise_hz"));
  cfg.measurement_noise_hz = 0.0;  // a perfect receiver is allowed
  EXPECT_TRUE(cfg.validate().empty());
}

TEST(DopplerAuditConfig, CollectsEveryIssueNotJustTheFirst) {
  DopplerAuditConfig cfg;
  cfg.rms_tolerance_hz = -1.0;
  cfg.carrier_hz = 0.0;
  cfg.sample_spacing_s = -2.0;
  const std::vector<core::ConfigIssue> issues = cfg.validate();
  EXPECT_EQ(issues.size(), 3u);
  EXPECT_TRUE(has_issue(issues, "doppler.rms_tolerance_hz"));
  EXPECT_TRUE(has_issue(issues, "doppler.carrier_hz"));
  EXPECT_TRUE(has_issue(issues, "doppler.sample_spacing_s"));
}

TEST(DopplerAuditConfig, FormatAndThrowMirrorTleIssueStyle) {
  EXPECT_EQ(core::format_issues("ctx", {}), "");
  DopplerAuditConfig cfg;
  cfg.rms_tolerance_hz = kNan;
  const std::string msg = core::format_issues("rf::test", cfg.validate());
  EXPECT_NE(msg.find("rf::test: 1 invalid field(s)"), std::string::npos) << msg;
  EXPECT_NE(msg.find("doppler.rms_tolerance_hz"), std::string::npos) << msg;

  EXPECT_NO_THROW(core::throw_if_invalid("rf::test", {}));
  try {
    core::throw_if_invalid("rf::test", cfg.validate());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("doppler.rms_tolerance_hz"),
              std::string::npos);
  }
}

TEST(DopplerAuditConfig, SampleOffsetsAreSymmetricAroundTheClaim) {
  DopplerAuditConfig cfg;  // 9 samples, 30 s spacing
  const std::vector<double> offsets = cfg.sample_offsets_s();
  ASSERT_EQ(offsets.size(), cfg.track_samples);
  EXPECT_DOUBLE_EQ(offsets.front(), -120.0);
  EXPECT_DOUBLE_EQ(offsets[4], 0.0);
  EXPECT_DOUBLE_EQ(offsets.back(), 120.0);
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    EXPECT_DOUBLE_EQ(offsets[i], -offsets[offsets.size() - 1 - i]);
  }
}

TEST(TrackFit, EmptyTracksFitTrivially) {
  const TrackFit fit = fit_doppler_track({}, {});
  EXPECT_EQ(fit.samples, 0u);
  EXPECT_DOUBLE_EQ(fit.offset_hz, 0.0);
  EXPECT_DOUBLE_EQ(fit.rms_hz, 0.0);
}

TEST(TrackFit, ConstantOffsetIsRemovedEntirely) {
  // A pure oscillator offset must leave zero residual: the forger gets the
  // constant term for free, only the curve SHAPE is evidence.
  const std::vector<double> predicted = {1000.0, 500.0, 0.0, -500.0, -1000.0};
  std::vector<double> measured = predicted;
  for (double& f : measured) f += 12345.0;
  const TrackFit fit = fit_doppler_track(measured, predicted);
  EXPECT_EQ(fit.samples, 5u);
  EXPECT_NEAR(fit.offset_hz, 12345.0, 1e-9);
  EXPECT_NEAR(fit.rms_hz, 0.0, 1e-9);
}

TEST(TrackFit, ShapeMismatchSurvivesOffsetRemoval) {
  // Time-mirroring the curve flips the slope: same magnitudes, huge RMS.
  const std::vector<double> predicted = {1000.0, 500.0, 0.0, -500.0, -1000.0};
  std::vector<double> mirrored(predicted.rbegin(), predicted.rend());
  const TrackFit fit = fit_doppler_track(mirrored, predicted);
  EXPECT_NEAR(fit.offset_hz, 0.0, 1e-9);
  EXPECT_GT(fit.rms_hz, 500.0);
}

TEST(ForgeryLevel, NamesAndDetectionEnvelope) {
  EXPECT_STREQ(to_string(ForgeryLevel::kFlatTone), "flat_tone");
  EXPECT_STREQ(to_string(ForgeryLevel::kLinearRamp), "linear_ramp");
  EXPECT_STREQ(to_string(ForgeryLevel::kTimeMirrored), "time_mirrored");
  EXPECT_STREQ(to_string(ForgeryLevel::kEphemerisExact), "ephemeris_exact");
  EXPECT_TRUE(detectable(ForgeryLevel::kFlatTone));
  EXPECT_TRUE(detectable(ForgeryLevel::kLinearRamp));
  EXPECT_TRUE(detectable(ForgeryLevel::kTimeMirrored));
  // The documented blind spot: a forger running the true ephemeris passes.
  EXPECT_FALSE(detectable(ForgeryLevel::kEphemerisExact));
}

TEST(ForgeDopplerTrack, LadderShapesMatchTheirSophistication) {
  const std::vector<double> truth = {20000.0, 10000.0, 0.0, -10000.0, -20000.0};
  const double bound = 270000.0;
  util::Xoshiro256PlusPlus rng(99);

  const std::vector<double> flat =
      forge_doppler_track(ForgeryLevel::kFlatTone, truth, bound, rng);
  ASSERT_EQ(flat.size(), truth.size());
  for (const double f : flat) {
    EXPECT_DOUBLE_EQ(f, flat.front());  // zero slope
    EXPECT_LE(std::fabs(f), bound);
  }

  const std::vector<double> ramp =
      forge_doppler_track(ForgeryLevel::kLinearRamp, truth, bound, rng);
  ASSERT_EQ(ramp.size(), truth.size());
  EXPECT_GT(ramp.front(), 0.0);  // descends from positive to negative
  EXPECT_LT(ramp.back(), 0.0);
  for (std::size_t i = 1; i < ramp.size(); ++i) EXPECT_LT(ramp[i], ramp[i - 1]);

  const std::vector<double> mirrored =
      forge_doppler_track(ForgeryLevel::kTimeMirrored, truth, bound, rng);
  ASSERT_EQ(mirrored.size(), truth.size());
  for (std::size_t i = 0; i < truth.size(); ++i) {
    EXPECT_DOUBLE_EQ(mirrored[i], truth[truth.size() - 1 - i]);
  }

  const std::vector<double> exact =
      forge_doppler_track(ForgeryLevel::kEphemerisExact, truth, bound, rng);
  ASSERT_EQ(exact.size(), truth.size());
  for (std::size_t i = 0; i < truth.size(); ++i) {
    EXPECT_NEAR(exact[i], truth[i], 100.0);  // true curve + small jitter
  }
  EXPECT_TRUE(forge_doppler_track(ForgeryLevel::kFlatTone, {}, bound, rng).empty());
}

TEST(ObserveDopplerTrack, AddsBoundedNoiseAroundTheTruth) {
  const std::vector<double> predicted = {1000.0, 0.0, -1000.0};
  util::Xoshiro256PlusPlus rng(7);
  const std::vector<double> noiseless = observe_doppler_track(predicted, 0.0, rng);
  ASSERT_EQ(noiseless.size(), predicted.size());
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    EXPECT_DOUBLE_EQ(noiseless[i], predicted[i]);
  }
  const std::vector<double> noisy = observe_doppler_track(predicted, 25.0, rng);
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    EXPECT_NEAR(noisy[i], predicted[i], 250.0);  // 10 sigma
  }
}

}  // namespace
}  // namespace mpleo::rf
