#include "core/consortium.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "constellation/shell.hpp"
#include "core/validation.hpp"

namespace mpleo::core {
namespace {

std::vector<constellation::Satellite> make_sats(int count) {
  std::vector<constellation::Satellite> sats(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    sats[static_cast<std::size_t>(i)].elements =
        orbit::ClassicalElements::circular(550e3, 53.0, 10.0 * i, 20.0 * i);
  }
  return sats;
}

Party named(const char* name) {
  Party p;
  p.name = name;
  return p;
}

TEST(Consortium, AddPartyAssignsIds) {
  Consortium c;
  EXPECT_EQ(c.add_party(named("Taiwan")), 0u);
  EXPECT_EQ(c.add_party(named("Korea")), 1u);
  EXPECT_EQ(c.parties().size(), 2u);
  EXPECT_EQ(c.parties()[1].name, "Korea");
}

TEST(Consortium, ContributeStampsOwnership) {
  Consortium c;
  const PartyId taiwan = c.add_party(named("Taiwan"));
  const auto ids = c.contribute(taiwan, make_sats(5));
  EXPECT_EQ(ids.size(), 5u);
  EXPECT_EQ(c.active_satellite_count(), 5u);
  for (const auto& sat : c.active_satellites()) {
    EXPECT_EQ(sat.owner_party, taiwan);
  }
}

TEST(Consortium, SatelliteIdsGloballyUnique) {
  Consortium c;
  const PartyId a = c.add_party(named("A"));
  const PartyId b = c.add_party(named("B"));
  const auto ids_a = c.contribute(a, make_sats(3));
  const auto ids_b = c.contribute(b, make_sats(3));
  for (auto ia : ids_a) {
    for (auto ib : ids_b) EXPECT_NE(ia, ib);
  }
}

TEST(Consortium, ContributeToUnknownPartyThrows) {
  Consortium c;
  EXPECT_THROW(c.contribute(0, make_sats(1)), std::out_of_range);
}

TEST(Consortium, StakeIsProportional) {
  Consortium c;
  const PartyId big = c.add_party(named("big"));
  const PartyId small = c.add_party(named("small"));
  c.contribute(big, make_sats(75));
  c.contribute(small, make_sats(25));
  EXPECT_DOUBLE_EQ(c.stake(big), 0.75);
  EXPECT_DOUBLE_EQ(c.stake(small), 0.25);
  EXPECT_DOUBLE_EQ(c.stake(big) + c.stake(small), 1.0);
}

TEST(Consortium, StakeOfEmptyConsortiumIsZero) {
  Consortium c;
  const PartyId p = c.add_party(named("p"));
  EXPECT_EQ(c.stake(p), 0.0);
}

TEST(Consortium, WithdrawRemovesOnlyThatParty) {
  Consortium c;
  const PartyId a = c.add_party(named("A"));
  const PartyId b = c.add_party(named("B"));
  c.contribute(a, make_sats(10));
  c.contribute(b, make_sats(4));

  EXPECT_EQ(c.withdraw_party(a), 10u);
  EXPECT_EQ(c.active_satellite_count(), 4u);
  EXPECT_EQ(c.party_satellite_count(a), 0u);
  EXPECT_EQ(c.party_satellite_count(b), 4u);
  EXPECT_FALSE(c.parties()[a].active);
  EXPECT_TRUE(c.parties()[b].active);
  // No single party can shut down the whole constellation.
  EXPECT_GT(c.active_satellite_count(), 0u);
}

TEST(Consortium, WithdrawIsIdempotent) {
  Consortium c;
  const PartyId a = c.add_party(named("A"));
  c.contribute(a, make_sats(3));
  EXPECT_EQ(c.withdraw_party(a), 3u);
  EXPECT_EQ(c.withdraw_party(a), 0u);
}

TEST(Consortium, CannotContributeAfterWithdrawal) {
  Consortium c;
  const PartyId a = c.add_party(named("A"));
  c.contribute(a, make_sats(1));
  c.withdraw_party(a);
  EXPECT_THROW(c.contribute(a, make_sats(1)), std::logic_error);
}

TEST(Consortium, LargestParty) {
  Consortium c;
  EXPECT_EQ(c.largest_party(), Consortium::kInvalidParty);
  const PartyId a = c.add_party(named("A"));
  const PartyId b = c.add_party(named("B"));
  c.contribute(a, make_sats(2));
  c.contribute(b, make_sats(7));
  EXPECT_EQ(c.largest_party(), b);
  c.withdraw_party(b);
  EXPECT_EQ(c.largest_party(), a);
}

TEST(Consortium, PartySatellitesFiltersCorrectly) {
  Consortium c;
  const PartyId a = c.add_party(named("A"));
  const PartyId b = c.add_party(named("B"));
  c.contribute(a, make_sats(2));
  c.contribute(b, make_sats(3));
  EXPECT_EQ(c.party_satellites(a).size(), 2u);
  EXPECT_EQ(c.party_satellites(b).size(), 3u);
  for (const auto& sat : c.party_satellites(b)) EXPECT_EQ(sat.owner_party, b);
}

TEST(Consortium, ProportionalDegradationInvariant) {
  // The paper's §3 robustness property at the membership level: a party's
  // withdrawal removes exactly stake-share of the satellites.
  Consortium c;
  std::vector<PartyId> parties;
  for (int i = 0; i < 11; ++i) parties.push_back(c.add_party(named("p")));
  for (PartyId p : parties) c.contribute(p, make_sats(91));

  const double stake = c.stake(parties[4]);
  const std::size_t before = c.active_satellite_count();
  const std::size_t removed = c.withdraw_party(parties[4]);
  EXPECT_NEAR(static_cast<double>(removed) / static_cast<double>(before), stake, 1e-12);
}

TEST(Consortium, QuarantineLifecycle) {
  Consortium c;
  const PartyId a = c.add_party(named("a"));
  const PartyId b = c.add_party(named("b"));
  c.contribute(a, make_sats(4));
  c.contribute(b, make_sats(4));
  EXPECT_EQ(c.party_status(a), PartyStatus::kActive);

  c.quarantine_party(a);
  EXPECT_EQ(c.party_status(a), PartyStatus::kQuarantined);
  EXPECT_EQ(c.party_status(b), PartyStatus::kActive);
  // Quarantine keeps the satellites in the active set (own-fleet service
  // continues); only the spare-commons standing changes.
  EXPECT_EQ(c.active_satellite_count(), 8u);
  EXPECT_EQ(c.party_satellite_count(a), 4u);

  c.quarantine_party(a);  // idempotent
  EXPECT_EQ(c.party_status(a), PartyStatus::kQuarantined);

  c.reinstate_party(a);
  EXPECT_EQ(c.party_status(a), PartyStatus::kActive);
  EXPECT_EQ(c.party_status(b), PartyStatus::kActive);
}

TEST(Consortium, QuarantineTransitionsValidated) {
  Consortium c;
  const PartyId a = c.add_party(named("a"));
  c.contribute(a, make_sats(2));

  EXPECT_THROW(c.reinstate_party(a), std::logic_error);  // not quarantined
  (void)c.withdraw_party(a);
  EXPECT_EQ(c.party_status(a), PartyStatus::kWithdrawn);
  EXPECT_THROW(c.quarantine_party(a), std::logic_error);  // already gone
  EXPECT_THROW((void)c.party_status(9), std::out_of_range);
}

TEST(Consortium, ExpelledPartyStatusIsWithdrawn) {
  Consortium c;
  const PartyId a = c.add_party(named("a"));
  c.contribute(a, make_sats(2));
  c.quarantine_party(a);
  (void)c.withdraw_party(a);  // expulsion = withdrawal from quarantine
  EXPECT_EQ(c.party_status(a), PartyStatus::kWithdrawn);
  EXPECT_EQ(c.active_satellite_count(), 0u);
}

TEST(Consortium, SlashAmountValidatesInputs) {
  EXPECT_DOUBLE_EQ(Consortium::slash_amount(100.0, 0.5), 50.0);
  EXPECT_DOUBLE_EQ(Consortium::slash_amount(0.0, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Consortium::slash_amount(100.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(Consortium::slash_amount(100.0, 1.0), 100.0);
  EXPECT_THROW((void)Consortium::slash_amount(-1.0, 0.5), ValidationError);
  EXPECT_THROW((void)Consortium::slash_amount(100.0, -0.1), ValidationError);
  EXPECT_THROW((void)Consortium::slash_amount(100.0, 1.5), ValidationError);
}

}  // namespace
}  // namespace mpleo::core
