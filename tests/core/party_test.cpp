#include "core/party.hpp"

#include <gtest/gtest.h>

namespace mpleo::core {
namespace {

TEST(Party, DefaultsAreSane) {
  const Party p;
  EXPECT_EQ(p.kind, PartyKind::kCountry);
  EXPECT_EQ(p.objective, Objective::kRegionalCoverage);
  EXPECT_TRUE(p.active);
}

TEST(Party, KindNames) {
  EXPECT_STREQ(to_string(PartyKind::kCountry), "country");
  EXPECT_STREQ(to_string(PartyKind::kCompany), "company");
}

}  // namespace
}  // namespace mpleo::core
