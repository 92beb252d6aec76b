#include "net/spectrum.hpp"

#include <gtest/gtest.h>

namespace mpleo::net {
namespace {

TEST(BandPlans, ThreePrimaryBands) {
  const auto& plans = standard_band_plans();
  ASSERT_EQ(plans.size(), 3u);
  EXPECT_EQ(plans[0].band, Band::kX);
  EXPECT_EQ(plans[1].band, Band::kKu);
  EXPECT_EQ(plans[2].band, Band::kKa);
  for (const BandPlan& p : plans) {
    EXPECT_LT(p.uplink_lo_hz, p.uplink_hi_hz);
    EXPECT_LT(p.downlink_lo_hz, p.downlink_hi_hz);
  }
}

TEST(ChannelTable, GrantsNonOverlappingChannels) {
  ChannelTable table(standard_band_plans()[1]);  // Ku
  const auto a = table.grant(62.5e6, 0);
  const auto b = table.grant(62.5e6, 1);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_NE(a->id, b->id);
  EXPECT_FALSE(ChannelTable::conflicts(*a, *b));
}

TEST(ChannelTable, ExhaustsBand) {
  // Ku uplink span 500 MHz: 8 channels of 62.5 MHz fit; the 9th fails.
  ChannelTable table(standard_band_plans()[1]);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(table.grant(62.5e6, 0).has_value()) << "channel " << i;
  }
  EXPECT_FALSE(table.grant(62.5e6, 0).has_value());
}

TEST(ChannelTable, RejectsOversizedRequests) {
  ChannelTable table(standard_band_plans()[1]);
  EXPECT_FALSE(table.grant(10e9, 0).has_value());
  EXPECT_FALSE(table.grant(0.0, 0).has_value());
}

TEST(ChannelTable, ConflictDetection) {
  Channel a;
  a.uplink_center_hz = 14.1e9;
  a.downlink_center_hz = 11.0e9;
  a.bandwidth_hz = 100e6;
  Channel b = a;
  b.uplink_center_hz = 14.15e9;  // 50 MHz apart < 100 MHz width -> overlap
  EXPECT_TRUE(ChannelTable::conflicts(a, b));
  b.uplink_center_hz = 14.25e9;  // 150 MHz apart -> uplink clear
  b.downlink_center_hz = 11.25e9;
  EXPECT_FALSE(ChannelTable::conflicts(a, b));
  // Downlink overlap alone is still a conflict.
  b.downlink_center_hz = 11.05e9;
  EXPECT_TRUE(ChannelTable::conflicts(a, b));
}

TEST(ChannelTable, OwnerRecordedOnGrant) {
  ChannelTable table(standard_band_plans()[2]);
  const auto ch = table.grant(125e6, 7);
  ASSERT_TRUE(ch.has_value());
  EXPECT_EQ(ch->owner_party, 7u);
  EXPECT_EQ(ch->band, Band::kKa);
}

}  // namespace
}  // namespace mpleo::net
