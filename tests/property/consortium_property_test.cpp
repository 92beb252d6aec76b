// Property tests: consortium membership invariants under random sequences
// of contribute / withdraw / fail operations.
#include <gtest/gtest.h>

#include <set>

#include "constellation/shell.hpp"
#include "core/consortium.hpp"
#include "util/rng.hpp"

namespace mpleo::core {
namespace {

std::vector<constellation::Satellite> some_sats(std::size_t n) {
  std::vector<constellation::Satellite> sats(n);
  for (std::size_t i = 0; i < n; ++i) {
    sats[i].elements = orbit::ClassicalElements::circular(
        550e3, 53.0, 3.0 * static_cast<double>(i), 7.0 * static_cast<double>(i));
  }
  return sats;
}

class ConsortiumProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConsortiumProperty, InvariantsUnderRandomOperations) {
  util::Xoshiro256PlusPlus rng(GetParam());
  Consortium consortium;
  std::vector<PartyId> parties;

  const std::size_t n_parties = 2 + rng.uniform_index(5);
  for (std::size_t p = 0; p < n_parties; ++p) {
    Party party;
    party.name = "p" + std::to_string(p);
    parties.push_back(consortium.add_party(party));
  }

  for (int op = 0; op < 60; ++op) {
    const double roll = rng.uniform();
    const PartyId party = parties[rng.uniform_index(parties.size())];
    if (roll < 0.5) {
      if (consortium.parties()[party].active) {
        (void)consortium.contribute(party, some_sats(1 + rng.uniform_index(5)));
      }
    } else if (roll < 0.7) {
      (void)consortium.withdraw_party(party);
    } else if (consortium.party_status(party) == PartyStatus::kActive) {
      consortium.quarantine_party(party);
    } else if (consortium.party_status(party) == PartyStatus::kQuarantined) {
      consortium.reinstate_party(party);
    }

    // Invariant 1: per-party counts sum to the active total.
    std::size_t sum = 0;
    for (PartyId p : parties) sum += consortium.party_satellite_count(p);
    ASSERT_EQ(sum, consortium.active_satellite_count());

    // Invariant 2: stakes sum to 1 when anything is active, and each stake
    // matches its count share.
    if (consortium.active_satellite_count() > 0) {
      double stake_sum = 0.0;
      for (PartyId p : parties) stake_sum += consortium.stake(p);
      ASSERT_NEAR(stake_sum, 1.0, 1e-9);
    }

    // Invariant 3: active_satellites() agrees with the counters and owners
    // are active parties with unique ids.
    const auto active = consortium.active_satellites();
    ASSERT_EQ(active.size(), consortium.active_satellite_count());
    std::set<constellation::SatelliteId> seen;
    for (const auto& sat : active) {
      ASSERT_TRUE(seen.insert(sat.id).second);
      ASSERT_LT(sat.owner_party, parties.size());
    }

    // Invariant 4: withdrawn parties hold nothing, and only they are
    // inactive; a quarantined party stays a member.
    for (PartyId p : parties) {
      ASSERT_EQ(consortium.parties()[p].active,
                consortium.party_status(p) != PartyStatus::kWithdrawn);
      if (!consortium.parties()[p].active) {
        ASSERT_EQ(consortium.party_satellite_count(p), 0u);
      }
    }

    // Invariant 5: largest_party is consistent with counts.
    const PartyId largest = consortium.largest_party();
    if (largest != Consortium::kInvalidParty) {
      for (PartyId p : parties) {
        ASSERT_GE(consortium.party_satellite_count(largest),
                  consortium.party_satellite_count(p));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConsortiumProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace mpleo::core
