// Byzantine party behavior policies (the adversarial half of §3.4's
// robustness story).
//
// fault::FaultTimeline models assets that *break*; a BehaviorBook models
// parties that *lie* — forging proof-of-coverage receipts, inflating them by
// resubmission, withholding contributed capacity from the spare commons,
// misreporting SLA outcomes, and colluding in small coalitions that share
// signing keys. Policies are deterministic, seeded data attached to party
// ids, never live code: the campaign layer reads the book and injects the
// corresponding behavior, so a run is exactly reproducible from the seed.
//
// Bit-identity contract (mirroring FaultTimeline::empty()): an empty() book
// — default-constructed or sampled at byzantine fraction 0 — must leave
// every consumer bit-identical to the adversary-free code path.
//
// CRN discipline: sample() draws ONE seeded permutation of the parties and
// takes its prefix as the Byzantine set, with each slot's behavior fixed by
// its position in the permutation. Two books sampled at fractions f1 < f2
// from the same seed therefore have nested Byzantine sets with unchanged
// per-party behavior, and stream(party, epoch) depends only on (seed, party,
// epoch) — never on the fraction — so adversary sweeps are monotone by
// construction, not merely in expectation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/party.hpp"
#include "util/rng.hpp"

namespace mpleo::sim {
enum class AdversaryMode : std::uint8_t;
}

namespace mpleo::adversary {

enum class Behavior : std::uint8_t {
  kHonest,
  kForgeReceipts,      // proof-of-coverage claims for contacts that never happened
  kInflateReceipts,    // resubmits already-credited receipts for double pay
  kWithholdCapacity,   // reserves contributed beams away from the spare commons
  kMisreportSla,       // inflates its served-seconds claim at settlement
  kCollude,            // coalition: shared keys, cross-submitted forgeries
  kJamming,            // radiates boosted power across the shared downlink band
  kSpectrumSquatting,  // transmits outside its assigned channel at nominal power
};

struct PartyPolicy {
  Behavior behavior = Behavior::kHonest;
  // Fraudulent submissions per epoch (forge / inflate / collude).
  std::size_t receipts_per_epoch = 4;
  // Behavior strength: scales the withheld beam fraction and the SLA
  // inflation factor. Must be finite and >= 0.
  double intensity = 1.0;
  // Collusion group id; kNoCoalition for solo behaviors.
  static constexpr std::uint32_t kNoCoalition = 0xFFFFFFFFu;
  std::uint32_t coalition = kNoCoalition;

  [[nodiscard]] bool honest() const noexcept { return behavior == Behavior::kHonest; }
  // Fraction of each contributed satellite's beams a withholding party
  // reserves away from the spare pass, in [0, 1].
  [[nodiscard]] double withheld_fraction() const noexcept;
  // Multiplier a misreporting party applies to its true served seconds.
  [[nodiscard]] double sla_inflation() const noexcept { return 1.0 + intensity; }
};

class BehaviorBook {
 public:
  // An empty book: every party honest (the bit-identity contract).
  BehaviorBook() = default;
  // Explicit policies, one per party id. Throws core::ValidationError on a
  // negative or non-finite intensity.
  explicit BehaviorBook(std::vector<PartyPolicy> policies, std::uint64_t seed = 1042);

  // Seeded CRN sampling: round(byzantine_fraction * party_count) parties
  // turn Byzantine, chosen as the prefix of one seeded permutation, each
  // assigned mix[position % mix.size()]. Nested across fractions for a
  // fixed seed (see the header comment). An empty mix or zero fraction
  // yields an empty() book. byzantine_fraction is validated to [0, 1] and
  // intensity to >= 0 with core::ValidationError.
  [[nodiscard]] static BehaviorBook sample(std::size_t party_count,
                                           double byzantine_fraction,
                                           std::span<const Behavior> mix,
                                           double intensity,
                                           std::size_t receipts_per_epoch,
                                           std::uint64_t seed);

  // True when no party misbehaves — consumers must stay on the
  // bit-identical adversary-free path.
  [[nodiscard]] bool empty() const noexcept;

  // Policy of one party; parties beyond the book are honest.
  [[nodiscard]] const PartyPolicy& policy(core::PartyId party) const noexcept;

  [[nodiscard]] std::size_t party_count() const noexcept { return policies_.size(); }
  [[nodiscard]] std::size_t byzantine_count() const noexcept;
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  // The deterministic randomness stream for one party's behavior in one
  // epoch. Depends only on (seed, party, epoch) — independent of the
  // sampled fraction and of every other party — so Byzantine injections are
  // stable when the Byzantine set grows (the CRN sweep invariant).
  [[nodiscard]] util::Xoshiro256PlusPlus stream(core::PartyId party,
                                                std::size_t epoch) const noexcept;

  // Per-party withheld beam fractions sized to `party_count`, ready for
  // net::SchedulerConfig::spare_withheld_fraction. All-zero entries when no
  // party withholds; an empty vector when the book is empty (so the
  // scheduler stays on its historical config shape).
  [[nodiscard]] std::vector<double> withheld_fractions(std::size_t party_count) const;

  // Byte-per-party Byzantine membership (1 = Byzantine), sized to the book.
  [[nodiscard]] std::vector<std::uint8_t> byzantine_mask() const;

  // Per-party RF misbehavior flags sized to the book, consumed by
  // rf::InterferenceEnvironment. Both all-false for an empty() book.
  [[nodiscard]] std::vector<bool> jamming_mask() const;
  [[nodiscard]] std::vector<bool> squatting_mask() const;

  // Coalition partners of `party` (including itself) — parties sharing its
  // coalition id. A solo party maps to just itself.
  [[nodiscard]] std::vector<core::PartyId> coalition_of(core::PartyId party) const;

 private:
  std::vector<PartyPolicy> policies_;
  std::uint64_t seed_ = 1042;
};

// The behavior mix a sim::AdversaryMode scenario flag arms: one behavior for
// the single-mode values, the full round-robin for kMixed, and an empty mix
// (no adversaries regardless of fraction) for kOff.
[[nodiscard]] std::vector<Behavior> mix_for_mode(sim::AdversaryMode mode);

}  // namespace mpleo::adversary
