// The Doppler-track fit stage of the receipt audit against real proof-of-
// coverage geometry: honest tracks (true curve + measurement noise) always
// credit, fabricated tracks at every gated sophistication level verdict
// kRfImplausible before touching the ledger, and the disabled stage leaves
// the auditor bit-identical to the pre-RF path.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "adversary/audit.hpp"
#include "core/proof_of_coverage.hpp"
#include "coverage/doppler.hpp"
#include "obs/metrics.hpp"
#include "orbit/geodesy.hpp"
#include "orbit/propagator.hpp"
#include "rf/doppler.hpp"
#include "util/units.hpp"

namespace mpleo::adversary {
namespace {

using core::CoverageReceipt;
using core::ProofOfCoverage;
using core::ReceiptVerdict;

// Same controlled geometry as the audit tests: an equatorial satellite with
// one verifier at its sub-satellite point and one it can never see.
struct DopplerAuditFixture {
  ProofOfCoverage poc{ProofOfCoverage::Config{}};
  constellation::Satellite satellite;
  std::uint64_t key = 0;
  std::uint32_t overhead_verifier = 0;
  std::uint32_t far_verifier = 0;
  orbit::TimePoint epoch = orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z");
  core::Ledger ledger;
  core::AccountId owner = 0;
  AuditConfig audit;
  util::Xoshiro256PlusPlus rng{20241118};

  DopplerAuditFixture() {
    satellite.id = 7;
    satellite.elements = orbit::ClassicalElements::circular(550e3, 0.0, 0.0, 0.0);
    satellite.epoch = epoch;
    key = poc.register_satellite(satellite, /*consortium_seed=*/1234);
    const orbit::KeplerianPropagator prop(satellite.elements, epoch);
    const auto ecef = orbit::eci_to_ecef(prop.state_at(epoch).position, epoch);
    const orbit::Geodetic below = orbit::ecef_to_geodetic(ecef);
    overhead_verifier =
        poc.register_verifier({below.latitude_rad, below.longitude_rad, 0.0});
    far_verifier = poc.register_verifier(
        orbit::Geodetic::from_degrees(-60.0, below.longitude_rad > 0 ? -120.0 : 120.0));
    ledger.mint(100.0);
    owner = ledger.open_account("party-0");
    audit.doppler.enabled = true;
  }

  [[nodiscard]] ReceiptAuditor make_auditor() {
    ReceiptAuditor auditor(audit, /*party_count=*/2);
    auditor.set_audit_grid(orbit::TimeGrid::over_duration(epoch, 3600.0, 60.0));
    return auditor;
  }

  [[nodiscard]] CoverageReceipt receipt(std::uint32_t verifier,
                                        std::uint64_t nonce) const {
    return ProofOfCoverage::answer_challenge(satellite.id, key, verifier, epoch, nonce);
  }

  // The ephemeris-predicted curve for a claim, in observation form.
  [[nodiscard]] rf::DopplerObservation predicted_track(
      const CoverageReceipt& claim) const {
    rf::DopplerObservation obs;
    obs.carrier_hz = audit.doppler.carrier_hz;
    for (const ProofOfCoverage::DopplerPoint& point : poc.doppler_track(
             claim.satellite, claim.verifier, claim.time, audit.doppler.carrier_hz,
             audit.doppler.sample_offsets_s())) {
      obs.offsets_s.push_back(point.offset_s);
      obs.doppler_hz.push_back(point.doppler_hz);
    }
    return obs;
  }

  // What an honest verifier measures: the true curve plus receiver noise.
  [[nodiscard]] rf::DopplerObservation honest_track(const CoverageReceipt& claim) {
    rf::DopplerObservation obs = predicted_track(claim);
    obs.doppler_hz = rf::observe_doppler_track(
        obs.doppler_hz, audit.doppler.measurement_noise_hz, rng);
    return obs;
  }

  // What a `level` forger fabricates for the same claim.
  [[nodiscard]] rf::DopplerObservation forged_track(const CoverageReceipt& claim,
                                                    rf::ForgeryLevel level) {
    rf::DopplerObservation obs = predicted_track(claim);
    const double altitude_m =
        satellite.elements.semi_major_axis_m - util::kEarthMeanRadiusM;
    obs.doppler_hz = rf::forge_doppler_track(
        level, obs.doppler_hz,
        cov::max_doppler_bound_hz(altitude_m, audit.doppler.carrier_hz), rng);
    return obs;
  }
};

TEST(DopplerAudit, HonestTrackCreditsAndCountsAsChecked) {
  DopplerAuditFixture fx;
  ReceiptAuditor auditor = fx.make_auditor();
  const CoverageReceipt claim = fx.receipt(fx.overhead_verifier, 1);
  const rf::DopplerObservation track = fx.honest_track(claim);
  ASSERT_GE(track.offsets_s.size(), fx.audit.doppler.min_track_samples)
      << "fixture pass too short to be conclusive";
  EXPECT_EQ(auditor.audit_and_credit(fx.poc, claim, 0, fx.ledger, fx.owner,
                                     ReceiptProvenance::kChallenge, &track),
            ReceiptVerdict::kValid);
  EXPECT_DOUBLE_EQ(fx.ledger.balance(fx.owner), fx.poc.config().reward_per_receipt);
  const PartyAuditStats& stats = auditor.stats(0);
  EXPECT_EQ(stats.doppler_checked, 1u);
  EXPECT_EQ(stats.rf_doppler_rejections, 0u);
  EXPECT_EQ(stats.fraud_total(), 0u);
}

TEST(DopplerAudit, EveryGatedForgeryLevelIsRejectedBeforeTheLedger) {
  DopplerAuditFixture fx;
  ReceiptAuditor auditor = fx.make_auditor();
  std::uint64_t nonce = 10;
  for (const rf::ForgeryLevel level :
       {rf::ForgeryLevel::kFlatTone, rf::ForgeryLevel::kLinearRamp,
        rf::ForgeryLevel::kTimeMirrored}) {
    const CoverageReceipt claim = fx.receipt(fx.overhead_verifier, nonce++);
    const rf::DopplerObservation track = fx.forged_track(claim, level);
    EXPECT_EQ(auditor.audit_and_credit(fx.poc, claim, 0, fx.ledger, fx.owner,
                                       ReceiptProvenance::kSubmission, &track),
              ReceiptVerdict::kRfImplausible)
        << rf::to_string(level);
  }
  // None of the forgeries earned a token, and each is fraud evidence.
  EXPECT_DOUBLE_EQ(fx.ledger.balance(fx.owner), 0.0);
  EXPECT_EQ(auditor.stats(0).rf_doppler_rejections, 3u);
  EXPECT_EQ(auditor.stats(0).fraud_total(), 3u);
}

TEST(DopplerAudit, EphemerisExactForgeryIsTheDocumentedBlindSpot) {
  DopplerAuditFixture fx;
  ReceiptAuditor auditor = fx.make_auditor();
  const CoverageReceipt claim = fx.receipt(fx.overhead_verifier, 20);
  const rf::DopplerObservation track =
      fx.forged_track(claim, rf::ForgeryLevel::kEphemerisExact);
  // A forger that ran the true ephemeris passes by construction.
  EXPECT_EQ(auditor.audit_and_credit(fx.poc, claim, 0, fx.ledger, fx.owner,
                                     ReceiptProvenance::kSubmission, &track),
            ReceiptVerdict::kValid);
}

TEST(DopplerAudit, MissingTrackOnAMeasurablePassIsImplausible) {
  DopplerAuditFixture fx;
  ReceiptAuditor auditor = fx.make_auditor();
  const CoverageReceipt claim = fx.receipt(fx.overhead_verifier, 30);
  EXPECT_EQ(auditor.audit_and_credit(fx.poc, claim, 0, fx.ledger, fx.owner,
                                     ReceiptProvenance::kSubmission, nullptr),
            ReceiptVerdict::kRfImplausible);
  // A truncated track (fewer points than min_track_samples) is just as bad.
  rf::DopplerObservation stub = fx.honest_track(fx.receipt(fx.overhead_verifier, 31));
  stub.offsets_s.resize(2);
  stub.doppler_hz.resize(2);
  EXPECT_EQ(auditor.audit_and_credit(fx.poc, fx.receipt(fx.overhead_verifier, 31), 0,
                                     fx.ledger, fx.owner,
                                     ReceiptProvenance::kSubmission, &stub),
            ReceiptVerdict::kRfImplausible);
  EXPECT_EQ(auditor.stats(0).rf_doppler_rejections, 2u);
}

TEST(DopplerAudit, ShortPredictedWindowIsInconclusiveAndAccepts) {
  DopplerAuditFixture fx;
  // Spacing so wide that at most a couple of offsets land inside the pass:
  // the predicted track cannot pin a curve shape, so the claim falls through
  // to the geometric verdict even with no measured track at all. This is the
  // zero-honest-flags guarantee for edge-of-pass contacts.
  fx.audit.doppler.sample_spacing_s = 600.0;
  ReceiptAuditor auditor = fx.make_auditor();
  const CoverageReceipt claim = fx.receipt(fx.overhead_verifier, 40);
  ASSERT_LT(fx.predicted_track(claim).offsets_s.size(),
            fx.audit.doppler.min_track_samples)
      << "fixture pass unexpectedly long";
  EXPECT_EQ(auditor.audit_and_credit(fx.poc, claim, 0, fx.ledger, fx.owner,
                                     ReceiptProvenance::kSubmission, nullptr),
            ReceiptVerdict::kValid);
  EXPECT_EQ(auditor.stats(0).doppler_checked, 0u);
  EXPECT_EQ(auditor.stats(0).fraud_total(), 0u);
}

TEST(DopplerAudit, GeometryMissStillWinsOverTheDopplerStage) {
  // The Doppler stage only runs on geometrically valid claims: a receipt for
  // a verifier the satellite can never see stays kNotOverhead.
  DopplerAuditFixture fx;
  ReceiptAuditor auditor = fx.make_auditor();
  const CoverageReceipt lie = fx.receipt(fx.far_verifier, 50);
  EXPECT_EQ(auditor.audit_and_credit(fx.poc, lie, 0, fx.ledger, fx.owner,
                                     ReceiptProvenance::kSubmission, nullptr),
            ReceiptVerdict::kNotOverhead);
  EXPECT_EQ(auditor.stats(0).doppler_checked, 0u);
}

TEST(DopplerAudit, DisabledStageIgnoresTracksEntirely) {
  DopplerAuditFixture fx;
  fx.audit.doppler.enabled = false;
  ReceiptAuditor auditor = fx.make_auditor();
  const CoverageReceipt claim = fx.receipt(fx.overhead_verifier, 60);
  // Even a wildly wrong track changes nothing when the stage is off — the
  // audit path is bit-identical to the pre-RF auditor.
  const rf::DopplerObservation bogus =
      fx.forged_track(claim, rf::ForgeryLevel::kFlatTone);
  EXPECT_EQ(auditor.audit_and_credit(fx.poc, claim, 0, fx.ledger, fx.owner,
                                     ReceiptProvenance::kSubmission, &bogus),
            ReceiptVerdict::kValid);
  EXPECT_EQ(auditor.stats(0).doppler_checked, 0u);
  EXPECT_EQ(auditor.stats(0).rf_doppler_rejections, 0u);
}

TEST(DopplerAudit, RejectionsFeedMetricsAndFraudCounters) {
  obs::MetricsRegistry metrics;
  DopplerAuditFixture fx;
  ReceiptAuditor auditor = fx.make_auditor();
  auditor.set_metrics(&metrics);
  const CoverageReceipt claim = fx.receipt(fx.overhead_verifier, 70);
  const rf::DopplerObservation track =
      fx.forged_track(claim, rf::ForgeryLevel::kFlatTone);
  (void)auditor.audit_and_credit(fx.poc, claim, 0, fx.ledger, fx.owner,
                                 ReceiptProvenance::kSubmission, &track);
  EXPECT_EQ(metrics.counter_value("audit.rf_doppler_rejections"), 1u);
  EXPECT_EQ(metrics.counter_value("audit.fraud_detected"), 1u);
}

TEST(DopplerAudit, InterferenceViolationsCountAsFraudEvidence) {
  DopplerAuditFixture fx;
  ReceiptAuditor auditor = fx.make_auditor();
  auditor.record_interference_violations(/*party=*/1, /*events=*/3,
                                         /*total_inr=*/0.5);
  EXPECT_EQ(auditor.stats(1).rf_interference_violations, 3u);
  EXPECT_EQ(auditor.stats(1).fraud_total(), 3u);
  EXPECT_EQ(auditor.totals().rf_interference_violations, 3u);
}

TEST(DopplerAudit, ConstructorRejectsInvalidDopplerConfig) {
  AuditConfig bad;
  bad.doppler.enabled = true;
  bad.doppler.rms_tolerance_hz = -1.0;
  bad.doppler.carrier_hz = 0.0;
  try {
    ReceiptAuditor auditor(bad, 2);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // Every invalid field is named.
    const std::string msg = e.what();
    EXPECT_NE(msg.find("doppler.rms_tolerance_hz"), std::string::npos) << msg;
    EXPECT_NE(msg.find("doppler.carrier_hz"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace mpleo::adversary
