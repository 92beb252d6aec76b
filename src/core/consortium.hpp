// The consortium: membership, satellite contributions, stakes, withdrawal
// and failure semantics of an MP-LEO constellation.
//
// Key properties the paper demands (§3):
//  * no single party can shut the constellation down — a withdrawal only
//    removes that party's satellites;
//  * degradation is proportional to the withdrawing party's stake;
//  * satellite failures are handled identically to single-sat withdrawals.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "constellation/shell.hpp"
#include "core/party.hpp"

namespace mpleo::core {

// Membership standing of a party. Quarantine (confirmed misbehavior, see
// adversary::QuarantineManager) keeps the party's satellites serving its own
// terminals but bars it from the spare-capacity commons until reinstated;
// withdrawal (voluntary or expulsion) removes its satellites entirely.
enum class PartyStatus : std::uint8_t {
  kActive,
  kQuarantined,
  kWithdrawn,
};

class Consortium {
 public:
  // Registers a party; returns its index (== Party::id assigned here).
  PartyId add_party(Party party);

  // Contributes satellites on behalf of `party`; ownership is stamped onto
  // each satellite. Returns the satellite ids as registered.
  std::vector<constellation::SatelliteId> contribute(
      PartyId party, std::vector<constellation::Satellite> satellites);

  // Withdraws a party: marks it inactive and removes its satellites from the
  // active set. Returns the number of satellites removed. Idempotent.
  std::size_t withdraw_party(PartyId party);

  [[nodiscard]] const std::vector<Party>& parties() const noexcept { return parties_; }

  // All currently active satellites (order stable across calls).
  [[nodiscard]] std::vector<constellation::Satellite> active_satellites() const;
  // Active satellites of one party.
  [[nodiscard]] std::vector<constellation::Satellite> party_satellites(PartyId party) const;

  [[nodiscard]] std::size_t active_satellite_count() const noexcept;
  [[nodiscard]] std::size_t party_satellite_count(PartyId party) const noexcept;

  // Quarantine semantics: the party stays a member (its satellites keep
  // serving its own terminals) but its standing drops to kQuarantined until
  // reinstated. Quarantining a withdrawn party or reinstating a
  // non-quarantined one throws std::logic_error; quarantining an already
  // quarantined party is idempotent.
  void quarantine_party(PartyId party);
  void reinstate_party(PartyId party);
  [[nodiscard]] PartyStatus party_status(PartyId party) const;

  // Stake slashing arithmetic with structured validation: negative stakes
  // and out-of-range fractions raise core::ValidationError (field + value)
  // instead of being silently clamped.
  [[nodiscard]] static double slash_amount(double stake_balance, double fraction);

  // Stake = party's active satellites / all active satellites, in [0, 1].
  // The paper's proportional-degradation guarantee is expressed against this.
  [[nodiscard]] double stake(PartyId party) const noexcept;

  // Largest party by active satellite count; kInvalidParty when empty.
  static constexpr PartyId kInvalidParty = 0xFFFFFFFFu;
  [[nodiscard]] PartyId largest_party() const noexcept;

 private:
  struct Member {
    constellation::Satellite satellite;
    bool active = true;
  };
  std::vector<Party> parties_;
  std::vector<PartyStatus> statuses_;  // parallel to parties_
  std::vector<Member> members_;
  constellation::SatelliteId next_satellite_id_ = 0;
};

}  // namespace mpleo::core
