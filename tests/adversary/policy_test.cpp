#include "adversary/policy.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/validation.hpp"
#include "sim/scenario.hpp"

namespace mpleo::adversary {
namespace {

const std::vector<Behavior> kFullMix = mix_for_mode(sim::AdversaryMode::kMixed);

TEST(BehaviorBook, DefaultAndZeroFractionAreEmpty) {
  EXPECT_TRUE(BehaviorBook().empty());
  EXPECT_TRUE(BehaviorBook::sample(8, 0.0, kFullMix, 1.0, 4, 7).empty());
  EXPECT_TRUE(BehaviorBook::sample(8, 0.5, {}, 1.0, 4, 7).empty());  // empty mix

  const BehaviorBook armed = BehaviorBook::sample(8, 0.5, kFullMix, 1.0, 4, 7);
  EXPECT_FALSE(armed.empty());
  EXPECT_EQ(armed.byzantine_count(), 4u);
}

TEST(BehaviorBook, PartiesBeyondTheBookAreHonest) {
  const BehaviorBook book = BehaviorBook::sample(4, 1.0, kFullMix, 1.0, 4, 7);
  EXPECT_TRUE(book.policy(99).honest());
}

TEST(BehaviorBook, ByzantineCountRoundsFromFraction) {
  EXPECT_EQ(BehaviorBook::sample(8, 0.125, kFullMix, 1.0, 4, 7).byzantine_count(), 1u);
  EXPECT_EQ(BehaviorBook::sample(8, 0.5, kFullMix, 1.0, 4, 7).byzantine_count(), 4u);
  EXPECT_EQ(BehaviorBook::sample(8, 1.0, kFullMix, 1.0, 4, 7).byzantine_count(), 8u);
}

TEST(BehaviorBook, CrnNestingAcrossFractions) {
  // Byzantine sets sampled at increasing fractions from one seed must be
  // nested, with each shared party keeping the same policy — the invariant
  // the adversary sweep's monotonicity is built on.
  const std::vector<double> fractions = {0.125, 0.25, 0.375, 0.5, 1.0};
  constexpr std::size_t kParties = 16;
  std::vector<std::uint8_t> previous(kParties, 0);
  BehaviorBook previous_book;
  for (const double fraction : fractions) {
    const BehaviorBook book =
        BehaviorBook::sample(kParties, fraction, kFullMix, 1.0, 4, 1042);
    const std::vector<std::uint8_t> mask = book.byzantine_mask();
    for (core::PartyId p = 0; p < kParties; ++p) {
      if (previous[p] == 0) continue;
      EXPECT_EQ(mask[p], 1) << "party " << p << " left the set at f=" << fraction;
      EXPECT_EQ(book.policy(p).behavior, previous_book.policy(p).behavior)
          << "party " << p << " changed behavior at f=" << fraction;
    }
    previous = mask;
    previous_book = book;
  }
}

TEST(BehaviorBook, StreamIndependentOfFraction) {
  const BehaviorBook shallow = BehaviorBook::sample(8, 0.125, kFullMix, 1.0, 4, 1042);
  const BehaviorBook deep = BehaviorBook::sample(8, 1.0, kFullMix, 1.0, 4, 1042);
  for (core::PartyId p = 0; p < 8; ++p) {
    for (std::size_t epoch = 0; epoch < 3; ++epoch) {
      util::Xoshiro256PlusPlus a = shallow.stream(p, epoch);
      util::Xoshiro256PlusPlus b = deep.stream(p, epoch);
      EXPECT_EQ(a.next(), b.next()) << "party " << p << " epoch " << epoch;
    }
  }
  // ...but distinct across parties and epochs.
  util::Xoshiro256PlusPlus p0 = deep.stream(0, 0);
  util::Xoshiro256PlusPlus p1 = deep.stream(1, 0);
  util::Xoshiro256PlusPlus e1 = deep.stream(0, 1);
  const std::uint64_t base = p0.next();
  EXPECT_NE(base, p1.next());
  EXPECT_NE(base, e1.next());
}

TEST(BehaviorBook, WithheldFractionsShapeContract) {
  EXPECT_TRUE(BehaviorBook().withheld_fractions(8).empty());

  const std::vector<Behavior> withhold_only = {Behavior::kWithholdCapacity};
  const BehaviorBook book = BehaviorBook::sample(8, 0.25, withhold_only, 1.0, 4, 7);
  const std::vector<double> fractions = book.withheld_fractions(8);
  ASSERT_EQ(fractions.size(), 8u);
  std::size_t nonzero = 0;
  for (core::PartyId p = 0; p < 8; ++p) {
    if (fractions[p] > 0.0) {
      ++nonzero;
      EXPECT_FALSE(book.policy(p).honest());
      EXPECT_DOUBLE_EQ(fractions[p], book.policy(p).withheld_fraction());
    }
  }
  EXPECT_EQ(nonzero, 2u);
}

TEST(PartyPolicy, IntensityScalesWithholdingAndInflation) {
  PartyPolicy policy;
  policy.behavior = Behavior::kWithholdCapacity;
  policy.intensity = 1.0;
  EXPECT_DOUBLE_EQ(policy.withheld_fraction(), 0.5);
  policy.intensity = 4.0;
  EXPECT_DOUBLE_EQ(policy.withheld_fraction(), 1.0);  // clamped
  EXPECT_DOUBLE_EQ(policy.sla_inflation(), 5.0);

  policy.behavior = Behavior::kForgeReceipts;  // non-withholders reserve nothing
  EXPECT_DOUBLE_EQ(policy.withheld_fraction(), 0.0);
}

TEST(BehaviorBook, ColludersPairIntoCoalitions) {
  const std::vector<Behavior> collude_only = {Behavior::kCollude};
  const BehaviorBook book = BehaviorBook::sample(8, 0.5, collude_only, 1.0, 4, 7);
  for (core::PartyId p = 0; p < 8; ++p) {
    const PartyPolicy& policy = book.policy(p);
    if (policy.behavior != Behavior::kCollude) continue;
    EXPECT_NE(policy.coalition, PartyPolicy::kNoCoalition);
    const std::vector<core::PartyId> partners = book.coalition_of(p);
    EXPECT_GE(partners.size(), 1u);
    EXPECT_LE(partners.size(), 2u);
    for (const core::PartyId partner : partners) {
      EXPECT_EQ(book.policy(partner).coalition, policy.coalition);
    }
  }
  // A solo (honest) party's coalition is just itself.
  for (core::PartyId p = 0; p < 8; ++p) {
    if (!book.policy(p).honest()) continue;
    EXPECT_EQ(book.coalition_of(p), std::vector<core::PartyId>{p});
  }
}

TEST(BehaviorBook, ValidatesInputs) {
  EXPECT_THROW((void)BehaviorBook::sample(8, -0.1, kFullMix, 1.0, 4, 7),
               core::ValidationError);
  EXPECT_THROW((void)BehaviorBook::sample(8, 1.1, kFullMix, 1.0, 4, 7),
               core::ValidationError);
  EXPECT_THROW((void)BehaviorBook::sample(8, 0.5, kFullMix, -1.0, 4, 7),
               core::ValidationError);

  PartyPolicy bad;
  bad.intensity = -2.0;
  EXPECT_THROW(BehaviorBook({bad}), core::ValidationError);
}

TEST(MixForMode, CoversEveryMode) {
  EXPECT_TRUE(mix_for_mode(sim::AdversaryMode::kOff).empty());
  EXPECT_EQ(mix_for_mode(sim::AdversaryMode::kForge),
            std::vector<Behavior>{Behavior::kForgeReceipts});
  EXPECT_EQ(mix_for_mode(sim::AdversaryMode::kInflate),
            std::vector<Behavior>{Behavior::kInflateReceipts});
  EXPECT_EQ(mix_for_mode(sim::AdversaryMode::kWithhold),
            std::vector<Behavior>{Behavior::kWithholdCapacity});
  EXPECT_EQ(mix_for_mode(sim::AdversaryMode::kMisreport),
            std::vector<Behavior>{Behavior::kMisreportSla});
  EXPECT_EQ(mix_for_mode(sim::AdversaryMode::kCollude),
            std::vector<Behavior>{Behavior::kCollude});
  EXPECT_EQ(mix_for_mode(sim::AdversaryMode::kMixed).size(), 5u);
}

}  // namespace
}  // namespace mpleo::adversary
