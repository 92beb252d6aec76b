// Parties: the countries, ISPs, and companies that contribute satellites to
// an MP-LEO constellation (§1, §3).
#pragma once

#include <cstdint>
#include <string>

#include "orbit/geodesy.hpp"

namespace mpleo::core {

using PartyId = std::uint32_t;

enum class PartyKind {
  kCountry,   // optimizes for connectivity in its own region
  kCompany,   // optimizes for profit
};

// §3.2: participants either maximize profit or regional connectivity; the
// paper observes the two are correlated but not identical.
enum class Objective {
  kGlobalCoverage,
  kRegionalCoverage,
  kProfit,
};

struct Party {
  PartyId id = 0;
  std::string name;
  PartyKind kind = PartyKind::kCountry;
  Objective objective = Objective::kRegionalCoverage;
  // Service region anchor (used by regional-objective placement and by the
  // GSaaS helper to lease nearby ground stations).
  orbit::Geodetic home_region;
  bool active = true;
};

[[nodiscard]] const char* to_string(PartyKind kind) noexcept;

}  // namespace mpleo::core
