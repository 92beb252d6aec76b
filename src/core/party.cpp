#include "core/party.hpp"

namespace mpleo::core {

const char* to_string(PartyKind kind) noexcept {
  switch (kind) {
    case PartyKind::kCountry: return "country";
    case PartyKind::kCompany: return "company";
  }
  return "?";
}

}  // namespace mpleo::core
