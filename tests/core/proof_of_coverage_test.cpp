#include "core/proof_of_coverage.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "orbit/geodesy.hpp"
#include "orbit/propagator.hpp"

namespace mpleo::core {
namespace {

// A scenario where geometry is under our control: an equatorial satellite and
// a verifier at the sub-satellite point at epoch.
struct PocFixture {
  ProofOfCoverage poc{ProofOfCoverage::Config{}};
  constellation::Satellite satellite;
  std::uint64_t key = 0;
  std::uint32_t overhead_verifier = 0;
  std::uint32_t far_verifier = 0;
  orbit::TimePoint epoch = orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z");

  PocFixture() {
    satellite.id = 7;
    satellite.elements = orbit::ClassicalElements::circular(550e3, 0.0, 0.0, 0.0);
    satellite.epoch = epoch;
    key = poc.register_satellite(satellite, /*consortium_seed=*/1234);

    // Sub-satellite point at epoch: propagate and convert.
    const orbit::KeplerianPropagator prop(satellite.elements, epoch);
    const auto ecef = orbit::eci_to_ecef(prop.state_at(epoch).position, epoch);
    const orbit::Geodetic below = orbit::ecef_to_geodetic(ecef);
    overhead_verifier =
        poc.register_verifier({below.latitude_rad, below.longitude_rad, 0.0});
    // Antipodal verifier can never see the satellite.
    far_verifier = poc.register_verifier(
        orbit::Geodetic::from_degrees(-60.0, below.longitude_rad > 0 ? -120.0 : 120.0));
  }
};

TEST(ProofOfCoverage, ValidReceiptVerifies) {
  PocFixture fx;
  const CoverageReceipt receipt = ProofOfCoverage::answer_challenge(
      fx.satellite.id, fx.key, fx.overhead_verifier, fx.epoch, /*nonce=*/42);
  EXPECT_EQ(fx.poc.verify(receipt), ReceiptVerdict::kValid);
}

TEST(ProofOfCoverage, ForgedDigestRejected) {
  PocFixture fx;
  CoverageReceipt receipt = ProofOfCoverage::answer_challenge(
      fx.satellite.id, fx.key, fx.overhead_verifier, fx.epoch, 42);
  receipt.digest ^= 1;
  EXPECT_EQ(fx.poc.verify(receipt), ReceiptVerdict::kBadDigest);
}

TEST(ProofOfCoverage, WrongKeyRejected) {
  PocFixture fx;
  const CoverageReceipt receipt = ProofOfCoverage::answer_challenge(
      fx.satellite.id, fx.key ^ 0xDEAD, fx.overhead_verifier, fx.epoch, 42);
  EXPECT_EQ(fx.poc.verify(receipt), ReceiptVerdict::kBadDigest);
}

TEST(ProofOfCoverage, NonceBoundToDigest) {
  PocFixture fx;
  CoverageReceipt receipt = ProofOfCoverage::answer_challenge(
      fx.satellite.id, fx.key, fx.overhead_verifier, fx.epoch, 42);
  receipt.nonce = 43;  // replay with altered nonce
  EXPECT_EQ(fx.poc.verify(receipt), ReceiptVerdict::kBadDigest);
}

TEST(ProofOfCoverage, GeometryRejectsCoverageLies) {
  // A cryptographically valid receipt claiming coverage where the satellite
  // is not overhead must fail: rewards only for real coverage (§3.2).
  PocFixture fx;
  const CoverageReceipt receipt = ProofOfCoverage::answer_challenge(
      fx.satellite.id, fx.key, fx.far_verifier, fx.epoch, 42);
  EXPECT_EQ(fx.poc.verify(receipt), ReceiptVerdict::kNotOverhead);
}

TEST(ProofOfCoverage, UnknownSatelliteAndVerifier) {
  PocFixture fx;
  CoverageReceipt receipt = ProofOfCoverage::answer_challenge(
      999, fx.key, fx.overhead_verifier, fx.epoch, 42);
  EXPECT_EQ(fx.poc.verify(receipt), ReceiptVerdict::kUnknownSatellite);

  receipt = ProofOfCoverage::answer_challenge(fx.satellite.id, fx.key, 77, fx.epoch, 42);
  EXPECT_EQ(fx.poc.verify(receipt), ReceiptVerdict::kUnknownVerifier);
}

TEST(ProofOfCoverage, RewardPaidOnlyWhenValid) {
  PocFixture fx;
  Ledger ledger;
  ledger.mint(10.0);
  const AccountId owner = ledger.open_account("owner");

  const CoverageReceipt good = ProofOfCoverage::answer_challenge(
      fx.satellite.id, fx.key, fx.overhead_verifier, fx.epoch, 1);
  EXPECT_EQ(fx.poc.verify_and_reward(good, ledger, owner), ReceiptVerdict::kValid);
  EXPECT_DOUBLE_EQ(ledger.balance(owner), fx.poc.config().reward_per_receipt);

  CoverageReceipt bad = good;
  bad.digest ^= 1;
  EXPECT_EQ(fx.poc.verify_and_reward(bad, ledger, owner), ReceiptVerdict::kBadDigest);
  EXPECT_DOUBLE_EQ(ledger.balance(owner), fx.poc.config().reward_per_receipt);
}

TEST(ProofOfCoverage, DigestIsDeterministicAndKeyed) {
  const auto d1 = ProofOfCoverage::digest(1, 2, 3, 4.5, 6);
  const auto d2 = ProofOfCoverage::digest(1, 2, 3, 4.5, 6);
  EXPECT_EQ(d1, d2);
  EXPECT_NE(d1, ProofOfCoverage::digest(2, 2, 3, 4.5, 6));  // key
  EXPECT_NE(d1, ProofOfCoverage::digest(1, 9, 3, 4.5, 6));  // satellite
  EXPECT_NE(d1, ProofOfCoverage::digest(1, 2, 9, 4.5, 6));  // verifier
  EXPECT_NE(d1, ProofOfCoverage::digest(1, 2, 3, 9.5, 6));  // time
  EXPECT_NE(d1, ProofOfCoverage::digest(1, 2, 3, 4.5, 9));  // nonce
}

TEST(ProofOfCoverage, KeysDifferAcrossSatellitesAndSeeds) {
  ProofOfCoverage poc{ProofOfCoverage::Config{}};
  constellation::Satellite a, b;
  a.id = 1;
  b.id = 2;
  const auto ka = poc.register_satellite(a, 7);
  const auto kb = poc.register_satellite(b, 7);
  EXPECT_NE(ka, kb);
  ProofOfCoverage poc2{ProofOfCoverage::Config{}};
  EXPECT_NE(poc2.register_satellite(a, 8), ka);
}

TEST(ProofOfCoverage, DuplicateSatelliteRegistrationThrows) {
  // A second key for an already-registered id could never verify; the
  // first registration stands and its receipts still do.
  PocFixture fx;
  EXPECT_THROW((void)fx.poc.register_satellite(fx.satellite, /*consortium_seed=*/99),
               std::invalid_argument);
  const CoverageReceipt receipt = ProofOfCoverage::answer_challenge(
      fx.satellite.id, fx.key, fx.overhead_verifier, fx.epoch, /*nonce=*/5);
  EXPECT_EQ(fx.poc.verify(receipt), ReceiptVerdict::kValid);
}

TEST(ProofOfCoverage, ContentHashCoversEveryField) {
  CoverageReceipt receipt;
  receipt.satellite = 7;
  receipt.verifier = 3;
  receipt.time = orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z");
  receipt.nonce = 42;
  receipt.digest = 0xABCD;
  const std::uint64_t base = receipt.content_hash();
  EXPECT_EQ(base, receipt.content_hash());  // deterministic

  CoverageReceipt mutated = receipt;
  mutated.satellite = 8;
  EXPECT_NE(mutated.content_hash(), base);
  mutated = receipt;
  mutated.verifier = 4;
  EXPECT_NE(mutated.content_hash(), base);
  mutated = receipt;
  mutated.time = orbit::TimePoint::from_iso8601("2024-11-18T00:00:01Z");
  EXPECT_NE(mutated.content_hash(), base);
  mutated = receipt;
  mutated.nonce = 43;
  EXPECT_NE(mutated.content_hash(), base);
  mutated = receipt;
  mutated.digest = 0xABCE;
  EXPECT_NE(mutated.content_hash(), base);
}

TEST(ProofOfCoverage, ResubmittedReceiptVerdictsDuplicate) {
  // The inflation attack: a once-valid receipt resubmitted verbatim must not
  // double-pay — the ledger's content-hash guard verdicts it kDuplicate.
  PocFixture fx;
  Ledger ledger;
  ledger.mint(10.0);
  const AccountId owner = ledger.open_account("owner");

  const CoverageReceipt receipt = ProofOfCoverage::answer_challenge(
      fx.satellite.id, fx.key, fx.overhead_verifier, fx.epoch, 5);
  EXPECT_EQ(fx.poc.verify_and_reward(receipt, ledger, owner), ReceiptVerdict::kValid);
  EXPECT_EQ(fx.poc.verify_and_reward(receipt, ledger, owner),
            ReceiptVerdict::kDuplicate);
  EXPECT_DOUBLE_EQ(ledger.balance(owner), fx.poc.config().reward_per_receipt);

  // A fresh nonce is a fresh receipt: next overhead pass still pays.
  const CoverageReceipt fresh = ProofOfCoverage::answer_challenge(
      fx.satellite.id, fx.key, fx.overhead_verifier, fx.epoch, 6);
  EXPECT_EQ(fx.poc.verify_and_reward(fresh, ledger, owner), ReceiptVerdict::kValid);
  EXPECT_DOUBLE_EQ(ledger.balance(owner), 2.0 * fx.poc.config().reward_per_receipt);
}

TEST(ProofOfCoverage, CreditPaysOnceAndGuardsTheContentHash) {
  // credit is the reward step alone, for a caller that has already verified
  // the receipt: it pays once per content hash, whichever step pays first.
  PocFixture fx;
  Ledger ledger;
  ledger.mint(10.0);
  const AccountId owner = ledger.open_account("owner");

  const CoverageReceipt receipt = ProofOfCoverage::answer_challenge(
      fx.satellite.id, fx.key, fx.overhead_verifier, fx.epoch, 8);
  ASSERT_EQ(fx.poc.verify(receipt), ReceiptVerdict::kValid);
  EXPECT_EQ(fx.poc.credit(receipt, ledger, owner), ReceiptVerdict::kValid);
  EXPECT_EQ(fx.poc.credit(receipt, ledger, owner), ReceiptVerdict::kDuplicate);
  EXPECT_EQ(fx.poc.verify_and_reward(receipt, ledger, owner), ReceiptVerdict::kDuplicate);
  EXPECT_DOUBLE_EQ(ledger.balance(owner), fx.poc.config().reward_per_receipt);

  // An empty treasury pays nothing, but the receipt is still consumed.
  Ledger unfunded;
  const AccountId unpaid = unfunded.open_account("owner");
  EXPECT_EQ(fx.poc.credit(receipt, unfunded, unpaid), ReceiptVerdict::kValid);
  EXPECT_DOUBLE_EQ(unfunded.balance(unpaid), 0.0);
  EXPECT_EQ(fx.poc.credit(receipt, unfunded, unpaid), ReceiptVerdict::kDuplicate);
}

TEST(ProofOfCoverage, VerifyThenCreditMatchesVerifyAndReward) {
  // The receipt auditor verifies once and credits only what verify
  // accepted; that split must verdict and pay exactly as verify_and_reward.
  PocFixture fx;
  const CoverageReceipt good = ProofOfCoverage::answer_challenge(
      fx.satellite.id, fx.key, fx.overhead_verifier, fx.epoch, 1);
  CoverageReceipt forged = good;
  forged.digest ^= 1;
  const CoverageReceipt not_overhead = ProofOfCoverage::answer_challenge(
      fx.satellite.id, fx.key, fx.far_verifier, fx.epoch, 2);
  const CoverageReceipt fresh = ProofOfCoverage::answer_challenge(
      fx.satellite.id, fx.key, fx.overhead_verifier, fx.epoch, 3);

  Ledger joint;
  Ledger split;
  joint.mint(10.0);
  split.mint(10.0);
  const AccountId joint_owner = joint.open_account("owner");
  const AccountId split_owner = split.open_account("owner");
  for (const CoverageReceipt& receipt : {good, forged, not_overhead, good, fresh}) {
    const ReceiptVerdict expected = fx.poc.verify_and_reward(receipt, joint, joint_owner);
    ReceiptVerdict verdict = fx.poc.verify(receipt);
    if (verdict == ReceiptVerdict::kValid) verdict = fx.poc.credit(receipt, split, split_owner);
    EXPECT_EQ(verdict, expected) << "nonce " << receipt.nonce;
    EXPECT_EQ(split.balance(split_owner), joint.balance(joint_owner)) << "nonce " << receipt.nonce;
  }
  EXPECT_DOUBLE_EQ(joint.balance(joint_owner), 2.0 * fx.poc.config().reward_per_receipt);
}

TEST(ProofOfCoverage, OverheadStepsPlanValidChallenges) {
  PocFixture fx;
  const orbit::TimeGrid grid = orbit::TimeGrid::over_duration(fx.epoch, 86400.0, 60.0);

  const cov::StepMask overhead =
      fx.poc.overhead_steps(fx.satellite.id, fx.overhead_verifier, grid);
  ASSERT_GT(overhead.count(), 0u);
  // The sub-satellite verifier sees the satellite at epoch (step 0), and a
  // receipt timestamped at any planned step clears the geometry check.
  EXPECT_TRUE(overhead.test(0));
  for (std::size_t step = 0; step < grid.count; ++step) {
    if (!overhead.test(step)) continue;
    const CoverageReceipt receipt = ProofOfCoverage::answer_challenge(
        fx.satellite.id, fx.key, fx.overhead_verifier, grid.at(step), /*nonce=*/99);
    EXPECT_EQ(fx.poc.verify(receipt), ReceiptVerdict::kValid) << "step " << step;
  }

  // The antipodal verifier never sees it.
  EXPECT_EQ(fx.poc.overhead_steps(fx.satellite.id, fx.far_verifier, grid).count(), 0u);

  EXPECT_THROW((void)fx.poc.overhead_steps(/*satellite=*/999, fx.overhead_verifier, grid),
               std::invalid_argument);
  EXPECT_THROW((void)fx.poc.overhead_steps(fx.satellite.id, /*verifier=*/99, grid),
               std::invalid_argument);
}

}  // namespace
}  // namespace mpleo::core
