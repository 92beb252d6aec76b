#include "core/consortium.hpp"

#include <stdexcept>

#include "core/validation.hpp"

namespace mpleo::core {

PartyId Consortium::add_party(Party party) {
  const auto id = static_cast<PartyId>(parties_.size());
  party.id = id;
  party.active = true;
  parties_.push_back(std::move(party));
  statuses_.push_back(PartyStatus::kActive);
  return id;
}

std::vector<constellation::SatelliteId> Consortium::contribute(
    PartyId party, std::vector<constellation::Satellite> satellites) {
  if (party >= parties_.size()) {
    throw std::out_of_range("Consortium::contribute: unknown party");
  }
  if (!parties_[party].active) {
    throw std::logic_error("Consortium::contribute: party has withdrawn");
  }
  std::vector<constellation::SatelliteId> ids;
  ids.reserve(satellites.size());
  for (constellation::Satellite& sat : satellites) {
    sat.id = next_satellite_id_++;
    sat.owner_party = party;
    ids.push_back(sat.id);
    members_.push_back({std::move(sat), true});
  }
  return ids;
}

std::size_t Consortium::withdraw_party(PartyId party) {
  if (party >= parties_.size()) {
    throw std::out_of_range("Consortium::withdraw_party: unknown party");
  }
  std::size_t removed = 0;
  for (Member& member : members_) {
    if (member.active && member.satellite.owner_party == party) {
      member.active = false;
      ++removed;
    }
  }
  parties_[party].active = false;
  statuses_[party] = PartyStatus::kWithdrawn;
  return removed;
}

void Consortium::quarantine_party(PartyId party) {
  if (party >= parties_.size()) {
    throw std::out_of_range("Consortium::quarantine_party: unknown party");
  }
  if (statuses_[party] == PartyStatus::kWithdrawn) {
    throw std::logic_error("Consortium::quarantine_party: party has withdrawn");
  }
  statuses_[party] = PartyStatus::kQuarantined;
}

void Consortium::reinstate_party(PartyId party) {
  if (party >= parties_.size()) {
    throw std::out_of_range("Consortium::reinstate_party: unknown party");
  }
  if (statuses_[party] != PartyStatus::kQuarantined) {
    throw std::logic_error("Consortium::reinstate_party: party is not quarantined");
  }
  statuses_[party] = PartyStatus::kActive;
}

PartyStatus Consortium::party_status(PartyId party) const {
  if (party >= parties_.size()) {
    throw std::out_of_range("Consortium::party_status: unknown party");
  }
  return statuses_[party];
}

double Consortium::slash_amount(double stake_balance, double fraction) {
  require_non_negative(stake_balance, "stake_balance");
  require_fraction(fraction, "slash_fraction");
  return stake_balance * fraction;
}

std::vector<constellation::Satellite> Consortium::active_satellites() const {
  std::vector<constellation::Satellite> out;
  out.reserve(members_.size());
  for (const Member& member : members_) {
    if (member.active) out.push_back(member.satellite);
  }
  return out;
}

std::vector<constellation::Satellite> Consortium::party_satellites(PartyId party) const {
  std::vector<constellation::Satellite> out;
  for (const Member& member : members_) {
    if (member.active && member.satellite.owner_party == party) {
      out.push_back(member.satellite);
    }
  }
  return out;
}

std::size_t Consortium::active_satellite_count() const noexcept {
  std::size_t n = 0;
  for (const Member& member : members_) {
    if (member.active) ++n;
  }
  return n;
}

std::size_t Consortium::party_satellite_count(PartyId party) const noexcept {
  std::size_t n = 0;
  for (const Member& member : members_) {
    if (member.active && member.satellite.owner_party == party) ++n;
  }
  return n;
}

double Consortium::stake(PartyId party) const noexcept {
  const std::size_t total = active_satellite_count();
  if (total == 0 || party >= parties_.size()) return 0.0;
  return static_cast<double>(party_satellite_count(party)) / static_cast<double>(total);
}

PartyId Consortium::largest_party() const noexcept {
  PartyId best = kInvalidParty;
  std::size_t best_count = 0;
  for (const Party& p : parties_) {
    if (!p.active) continue;
    const std::size_t count = party_satellite_count(p.id);
    if (count > best_count) {
      best_count = count;
      best = p.id;
    }
  }
  return best;
}

}  // namespace mpleo::core
