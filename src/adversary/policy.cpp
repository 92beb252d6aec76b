#include "adversary/policy.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/validation.hpp"
#include "sim/scenario.hpp"

namespace mpleo::adversary {

namespace {

// Distinguishes party-behavior streams from every other consumer of the
// campaign seed (fault timelines, PoC challenges, ...).
constexpr std::uint64_t kPartyStreamBase = 0x5A00;

constexpr bool behavior_withholds(Behavior behavior) noexcept {
  return behavior == Behavior::kWithholdCapacity;
}

}  // namespace

double PartyPolicy::withheld_fraction() const noexcept {
  if (behavior != Behavior::kWithholdCapacity) return 0.0;
  return std::clamp(0.5 * intensity, 0.0, 1.0);
}

BehaviorBook::BehaviorBook(std::vector<PartyPolicy> policies, std::uint64_t seed)
    : policies_(std::move(policies)), seed_(seed) {
  for (const PartyPolicy& policy : policies_) {
    core::require_non_negative(policy.intensity, "adversary intensity");
  }
}

BehaviorBook BehaviorBook::sample(std::size_t party_count, double byzantine_fraction,
                                  std::span<const Behavior> mix, double intensity,
                                  std::size_t receipts_per_epoch, std::uint64_t seed) {
  core::require_fraction(byzantine_fraction, "byzantine_fraction");
  core::require_non_negative(intensity, "adversary intensity");

  BehaviorBook book;
  book.seed_ = seed;
  // byzantine_fraction is in [0, 1], so the count is in [0, party_count].
  const auto byzantine_count = static_cast<std::size_t>(
      std::llround(byzantine_fraction * static_cast<double>(party_count)));
  if (byzantine_count == 0 || mix.empty()) return book;

  // One permutation per (seed, party_count); the Byzantine set is its
  // prefix, so sets are nested across fractions and each party keeps the
  // behavior of its permutation slot (the CRN invariant).
  std::vector<std::size_t> order(party_count);
  std::iota(order.begin(), order.end(), std::size_t{0});
  util::Xoshiro256PlusPlus rng(seed);
  for (std::size_t i = party_count; i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_index(i)]);
  }

  book.policies_.assign(party_count, PartyPolicy{});
  std::uint32_t next_coalition = 0;
  for (std::size_t slot = 0; slot < byzantine_count; ++slot) {
    PartyPolicy& policy = book.policies_[order[slot]];
    policy.behavior = mix[slot % mix.size()];
    policy.intensity = intensity;
    policy.receipts_per_epoch = receipts_per_epoch;
    if (policy.behavior == Behavior::kCollude) {
      // Colluders pair up in permutation order: slots {0,1} of the collude
      // sub-sequence form coalition 0, {2,3} coalition 1, ... A coalition of
      // one (odd tail, or a single colluder) degrades to solo forgery.
      policy.coalition = next_coalition++ / 2;
    }
  }
  return book;
}

bool BehaviorBook::empty() const noexcept {
  return std::all_of(policies_.begin(), policies_.end(),
                     [](const PartyPolicy& p) { return p.honest(); });
}

const PartyPolicy& BehaviorBook::policy(core::PartyId party) const noexcept {
  static const PartyPolicy kHonestPolicy{};
  if (party >= policies_.size()) return kHonestPolicy;
  return policies_[party];
}

std::size_t BehaviorBook::byzantine_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(policies_.begin(), policies_.end(),
                    [](const PartyPolicy& p) { return !p.honest(); }));
}

util::Xoshiro256PlusPlus BehaviorBook::stream(core::PartyId party,
                                              std::size_t epoch) const noexcept {
  return util::Xoshiro256PlusPlus(seed_).split(kPartyStreamBase + party).split(epoch);
}

std::vector<double> BehaviorBook::withheld_fractions(std::size_t party_count) const {
  if (empty()) return {};
  std::vector<double> fractions(party_count, 0.0);
  for (std::size_t party = 0; party < policies_.size() && party < party_count; ++party) {
    fractions[party] = policies_[party].withheld_fraction();
  }
  return fractions;
}

std::vector<std::uint8_t> BehaviorBook::byzantine_mask() const {
  std::vector<std::uint8_t> mask(policies_.size(), 0);
  for (std::size_t party = 0; party < policies_.size(); ++party) {
    mask[party] = policies_[party].honest() ? 0 : 1;
  }
  return mask;
}

std::vector<bool> BehaviorBook::jamming_mask() const {
  std::vector<bool> mask(policies_.size(), false);
  for (std::size_t party = 0; party < policies_.size(); ++party) {
    mask[party] = policies_[party].behavior == Behavior::kJamming;
  }
  return mask;
}

std::vector<bool> BehaviorBook::squatting_mask() const {
  std::vector<bool> mask(policies_.size(), false);
  for (std::size_t party = 0; party < policies_.size(); ++party) {
    mask[party] = policies_[party].behavior == Behavior::kSpectrumSquatting;
  }
  return mask;
}

std::vector<core::PartyId> BehaviorBook::coalition_of(core::PartyId party) const {
  std::vector<core::PartyId> members{party};
  if (party >= policies_.size()) return members;
  const std::uint32_t coalition = policies_[party].coalition;
  if (coalition == PartyPolicy::kNoCoalition) return members;
  members.clear();
  for (std::size_t other = 0; other < policies_.size(); ++other) {
    if (policies_[other].coalition == coalition) {
      members.push_back(static_cast<core::PartyId>(other));
    }
  }
  return members;
}

std::vector<Behavior> mix_for_mode(sim::AdversaryMode mode) {
  switch (mode) {
    case sim::AdversaryMode::kOff: return {};
    case sim::AdversaryMode::kForge: return {Behavior::kForgeReceipts};
    case sim::AdversaryMode::kInflate: return {Behavior::kInflateReceipts};
    case sim::AdversaryMode::kWithhold: return {Behavior::kWithholdCapacity};
    case sim::AdversaryMode::kMisreport: return {Behavior::kMisreportSla};
    case sim::AdversaryMode::kCollude: return {Behavior::kCollude};
    case sim::AdversaryMode::kMixed:
      // Deliberately excludes the RF behaviors: kMixed predates them and its
      // sweep numbers are pinned by the perf baseline.
      return {Behavior::kForgeReceipts, Behavior::kWithholdCapacity,
              Behavior::kInflateReceipts, Behavior::kMisreportSla, Behavior::kCollude};
    case sim::AdversaryMode::kJamming: return {Behavior::kJamming};
    case sim::AdversaryMode::kSpectrumSquat: return {Behavior::kSpectrumSquatting};
  }
  return {};
}

}  // namespace mpleo::adversary
