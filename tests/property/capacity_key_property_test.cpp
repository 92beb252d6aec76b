// Property test: the scheduler's capacity key stays within its stated bound
// of the exact capacity. Phase 1 ranks, and phase 2 compares, capacities by
// a key that takes the uplink SNR as K / d² (HopEvaluator::
// inverse_square_snr_m2) instead of through the dB chain, and recomputes
// exactly only when two values sit within a relative 1e-9 of each other.
// That is bit-identical to run_reference only while every key is within
// 1e-12 of its exact capacity, so this samples radios (frequency, EIRP,
// gains, losses, noise temperature, bandwidth), slant ranges of 300-3,000 km
// and both relay modes, and checks the margin.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <sstream>

#include "net/bent_pipe.hpp"
#include "net/link_budget.hpp"
#include "util/rng.hpp"
#include "util/vec3.hpp"

namespace mpleo::net {
namespace {

// The bound the scheduler's window argument relies on.
constexpr double kKeyBound = 1e-12;
// Below this end-to-end key SNR (uplink SNR in regenerative mode) the
// scheduler takes the exact path instead of trusting the key.
constexpr double kKeySnrFloor = 1e-3;

RadioConfig random_radio(util::Xoshiro256PlusPlus& rng) {
  RadioConfig radio;
  radio.transmit_power_dbw = rng.uniform(-10.0, 30.0);
  radio.transmit_gain_dbi = rng.uniform(10.0, 50.0);
  radio.receive_gain_dbi = rng.uniform(10.0, 50.0);
  radio.system_noise_temp_k = rng.uniform(50.0, 1000.0);
  radio.bandwidth_hz = rng.uniform(1e6, 2e9);
  radio.frequency_hz = rng.uniform(1e9, 40e9);
  radio.misc_losses_db = rng.uniform(0.0, 6.0);
  return radio;
}

// A random offset vector of length in [300, 3000] km, as the scheduler
// sees a satellite from a site: d² is its norm_squared(), and the exact
// chain's range is its norm().
util::Vec3 random_slant(util::Xoshiro256PlusPlus& rng) {
  util::Vec3 direction;
  do {
    direction = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  } while (!(direction.norm_squared() > 0.01 && direction.norm_squared() <= 1.0));
  return direction.normalized() * rng.uniform(300e3, 3000e3);
}

double relative_error(double key, double exact) { return std::fabs(key / exact - 1.0); }

TEST(CapacityKeyProperty, KeyIsWithinItsBoundOfTheExactCapacity) {
  util::Xoshiro256PlusPlus rng(20261019);
  std::size_t checked = 0;
  std::size_t samples = 0;
  double worst = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const RadioConfig terminal = random_radio(rng);
    const TransponderConfig transponder{random_radio(rng), random_radio(rng)};
    const RadioConfig station = random_radio(rng);
    const util::Vec3 up = random_slant(rng);
    const util::Vec3 down = random_slant(rng);

    // One hop: K / d² against the dB chain.
    const HopEvaluator uplink = HopEvaluator::make(terminal, transponder.receive);
    const double k = uplink.inverse_square_snr_m2();
    const double up_snr = uplink.snr_linear(up.norm());
    EXPECT_LE(relative_error(k / up.norm_squared(), up_snr), kKeyBound) << "sample " << i;
    worst = std::max(worst, relative_error(k / up.norm_squared(), up_snr));

    // The relay: the scheduler's key over an exact downlink leg, against
    // compute_relay.
    const HopEvaluator downlink = HopEvaluator::make(transponder.transmit, station);
    const double down_snr = downlink.snr_linear(down.norm());
    for (const RelayMode mode : {RelayMode::kTransparent, RelayMode::kRegenerative}) {
      ++samples;
      const double exact =
          compute_relay(terminal, transponder, station, up.norm(), down.norm(), mode)
              .end_to_end_capacity_bps;
      double key = 0.0;
      if (mode == RelayMode::kTransparent) {
        const double snr = transparent_snr_linear(up.norm_squared() / k, 1.0 / down_snr);
        if (snr < kKeySnrFloor) continue;
        key = transparent_bandwidth_hz(transponder, station) * std::log2(1.0 + snr);
      } else {
        const double snr = k / up.norm_squared();
        if (snr < kKeySnrFloor) continue;
        key = std::min(transponder.receive.bandwidth_hz * std::log2(1.0 + snr),
                       downlink.shannon_bps(down_snr));
      }
      ++checked;
      EXPECT_LE(relative_error(key, exact), kKeyBound)
          << "sample " << i << (mode == RelayMode::kTransparent ? " transparent" : " regenerative");
      worst = std::max(worst, relative_error(key, exact));
    }
  }
  // Most samples clear the floor; the rest go exact in the scheduler.
  EXPECT_GT(checked, samples * 3 / 4);
  std::ostringstream worst_text;
  worst_text << worst;
  RecordProperty("worst_relative_error", worst_text.str());
}

}  // namespace
}  // namespace mpleo::net
