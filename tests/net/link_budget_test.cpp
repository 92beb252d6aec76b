#include "net/link_budget.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>

namespace mpleo::net {
namespace {

TEST(DbConversion, RoundTrips) {
  EXPECT_NEAR(db_to_linear(0.0), 1.0, 1e-12);
  EXPECT_NEAR(db_to_linear(10.0), 10.0, 1e-9);
  EXPECT_NEAR(db_to_linear(3.0), 1.995, 0.01);
  EXPECT_NEAR(linear_to_db(100.0), 20.0, 1e-9);
  for (double db : {-30.0, -3.0, 0.0, 7.5, 40.0}) {
    EXPECT_NEAR(linear_to_db(db_to_linear(db)), db, 1e-9);
  }
}

TEST(Fspl, KnownValue) {
  // 1000 km at 11.7 GHz: FSPL = 20log10(4*pi*d*f/c) ~ 173.8 dB.
  EXPECT_NEAR(free_space_path_loss_db(1000e3, 11.7e9), 173.8, 0.1);
}

TEST(Fspl, ScalesWithDistanceAndFrequency) {
  const double base = free_space_path_loss_db(550e3, 14.0e9);
  // Doubling distance adds ~6.02 dB.
  EXPECT_NEAR(free_space_path_loss_db(1100e3, 14.0e9) - base, 6.0206, 1e-3);
  // Doubling frequency adds ~6.02 dB.
  EXPECT_NEAR(free_space_path_loss_db(550e3, 28.0e9) - base, 6.0206, 1e-3);
}

TEST(Fspl, RejectsNonPositive) {
  EXPECT_THROW((void)free_space_path_loss_db(0.0, 1e9), std::invalid_argument);
  EXPECT_THROW((void)free_space_path_loss_db(1e5, -1.0), std::invalid_argument);
}

TEST(Shannon, CapacityBehaviour) {
  EXPECT_NEAR(shannon_capacity_bps(1.0, 1e6), 1e6, 1.0);      // SNR 0 dB -> 1 bit/s/Hz
  EXPECT_NEAR(shannon_capacity_bps(3.0, 1e6), 2e6, 1.0);      // SNR ~4.8 dB -> 2 bit/s/Hz
  EXPECT_EQ(shannon_capacity_bps(0.0, 1e6), 0.0);
  EXPECT_THROW((void)shannon_capacity_bps(-0.5, 1e6), std::invalid_argument);
  EXPECT_THROW((void)shannon_capacity_bps(1.0, 0.0), std::invalid_argument);
}

TEST(RadioConfig, EirpIsPowerPlusGain) {
  RadioConfig cfg;
  cfg.transmit_power_dbw = 10.0;
  cfg.transmit_gain_dbi = 30.0;
  EXPECT_DOUBLE_EQ(cfg.eirp_dbw(), 40.0);
}

TEST(ComputeLink, BudgetChainsConsistently) {
  RadioConfig tx;
  tx.transmit_power_dbw = 3.0;
  tx.transmit_gain_dbi = 33.0;
  tx.frequency_hz = 14.0e9;
  tx.misc_losses_db = 2.0;
  RadioConfig rx;
  rx.receive_gain_dbi = 37.0;
  rx.system_noise_temp_k = 550.0;
  rx.bandwidth_hz = 62.5e6;

  const LinkBudget budget = compute_link(tx, rx, 800e3);
  EXPECT_DOUBLE_EQ(budget.eirp_dbw, 36.0);
  EXPECT_NEAR(budget.received_power_dbw,
              budget.eirp_dbw - budget.path_loss_db + 37.0 - 2.0, 1e-9);
  EXPECT_NEAR(budget.snr_db, budget.received_power_dbw - budget.noise_power_dbw, 1e-9);
  EXPECT_GT(budget.snr_db, 0.0);  // a sane LEO uplink closes the link
  EXPECT_GT(budget.shannon_capacity_bps, 0.0);
}

TEST(ComputeLink, LongerPathLowersSnr) {
  RadioConfig tx, rx;
  const LinkBudget near_budget = compute_link(tx, rx, 550e3);
  const LinkBudget far_budget = compute_link(tx, rx, 2000e3);
  EXPECT_GT(near_budget.snr_db, far_budget.snr_db);
  EXPECT_GT(near_budget.shannon_capacity_bps, far_budget.shannon_capacity_bps);
}

TEST(HopEvaluator, InverseSquareConstantMatchesTheDbChain) {
  // K / d² is the free-space SNR at range d, up to the dB chain's rounding;
  // quadrupling the range squared divides the SNR by four.
  const HopEvaluator hop = HopEvaluator::make(RadioConfig{}, RadioConfig{});
  const double k = hop.inverse_square_snr_m2();
  for (const double d : {300e3, 1000e3, 3000e3}) {
    EXPECT_NEAR(k / (d * d) / hop.snr_linear(d), 1.0, 1e-13) << d;
  }
  EXPECT_NEAR(hop.snr_linear(2000e3) * 4.0 / hop.snr_linear(1000e3), 1.0, 1e-13);
}

TEST(HopEvaluator, BitIdenticalToComputeLink) {
  // The pipelined scheduler's bit-identity contract rests on the hoisted hop
  // evaluation reproducing compute_link exactly, not just approximately.
  RadioConfig terminal, transponder_rx, station;
  terminal.transmit_power_dbw = 3.0;
  terminal.transmit_gain_dbi = 33.0;
  terminal.misc_losses_db = 2.0;
  terminal.frequency_hz = 14.0e9;
  transponder_rx.receive_gain_dbi = 37.0;
  transponder_rx.system_noise_temp_k = 550.0;
  transponder_rx.bandwidth_hz = 62.5e6;
  station.receive_gain_dbi = 45.0;
  station.system_noise_temp_k = 150.0;
  station.bandwidth_hz = 125e6;

  for (const auto& [tx, rx] : {std::pair{terminal, transponder_rx},
                               std::pair{transponder_rx, station},
                               std::pair{station, terminal}}) {
    const HopEvaluator hop = HopEvaluator::make(tx, rx);
    for (double distance_m = 400e3; distance_m < 3000e3; distance_m += 73e3) {
      const LinkBudget budget = compute_link(tx, rx, distance_m);
      const double snr = hop.snr_linear(distance_m);
      EXPECT_EQ(snr, budget.snr_linear) << "distance " << distance_m;
      EXPECT_EQ(hop.shannon_bps(snr), budget.shannon_capacity_bps)
          << "distance " << distance_m;
    }
  }
}

TEST(ComputeLink, HotterReceiverLowersSnr) {
  RadioConfig tx, cold, hot;
  cold.system_noise_temp_k = 150.0;
  hot.system_noise_temp_k = 600.0;
  EXPECT_GT(compute_link(tx, cold, 550e3).snr_db, compute_link(tx, hot, 550e3).snr_db);
  // 4x temperature = +6.02 dB noise.
  EXPECT_NEAR(compute_link(tx, cold, 550e3).snr_db - compute_link(tx, hot, 550e3).snr_db,
              6.0206, 1e-3);
}

}  // namespace
}  // namespace mpleo::net
