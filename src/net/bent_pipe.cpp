#include "net/bent_pipe.hpp"

#include <algorithm>

namespace mpleo::net {

RelayBudget compute_relay(const RadioConfig& terminal, const TransponderConfig& satellite,
                          const RadioConfig& ground_station, double uplink_distance_m,
                          double downlink_distance_m, RelayMode mode) {
  return combine_relay(compute_link(terminal, satellite.receive, uplink_distance_m),
                       compute_link(satellite.transmit, ground_station, downlink_distance_m),
                       satellite, ground_station, mode);
}

RelayBudget combine_relay(const LinkBudget& uplink, const LinkBudget& downlink,
                          const TransponderConfig& satellite,
                          const RadioConfig& ground_station, RelayMode mode) {
  RelayBudget budget;
  budget.mode = mode;
  budget.uplink = uplink;
  budget.downlink = downlink;

  const double snr_up = uplink.snr_linear;
  const double snr_down = downlink.snr_linear;

  if (mode == RelayMode::kTransparent) {
    // Noise from the uplink is re-amplified onto the downlink:
    // 1/SNR = 1/SNR_up + 1/SNR_down (+ 1/(SNR_up*SNR_down), negligible).
    budget.end_to_end_snr_linear = transparent_snr_linear(1.0 / snr_up, 1.0 / snr_down);
    budget.end_to_end_capacity_bps = shannon_capacity_bps(
        budget.end_to_end_snr_linear, transparent_bandwidth_hz(satellite, ground_station));
  } else {
    // Regenerative: each hop decodes independently; the pipe is the weaker hop.
    budget.end_to_end_snr_linear = std::min(snr_up, snr_down);
    budget.end_to_end_capacity_bps =
        std::min(uplink.shannon_capacity_bps, downlink.shannon_capacity_bps);
  }
  budget.end_to_end_snr_db = linear_to_db(budget.end_to_end_snr_linear);
  return budget;
}

RadioConfig default_user_terminal() {
  RadioConfig cfg;
  cfg.transmit_power_dbw = 3.0;    // ~2 W flat panel
  cfg.transmit_gain_dbi = 33.0;
  cfg.receive_gain_dbi = 33.0;
  cfg.system_noise_temp_k = 350.0;
  cfg.bandwidth_hz = 62.5e6;
  cfg.frequency_hz = 14.0e9;       // Ku uplink
  cfg.misc_losses_db = 2.0;
  return cfg;
}

TransponderConfig default_transponder() {
  TransponderConfig cfg;
  cfg.receive.transmit_power_dbw = 0.0;  // unused on the receive chain
  cfg.receive.receive_gain_dbi = 37.0;
  cfg.receive.system_noise_temp_k = 550.0;
  cfg.receive.bandwidth_hz = 62.5e6;
  cfg.receive.frequency_hz = 14.0e9;

  cfg.transmit.transmit_power_dbw = 14.0;  // ~25 W downlink PA
  cfg.transmit.transmit_gain_dbi = 37.0;
  cfg.transmit.bandwidth_hz = 62.5e6;
  cfg.transmit.frequency_hz = 11.7e9;      // Ku downlink
  cfg.transmit.misc_losses_db = 2.0;
  return cfg;
}

RadioConfig default_ground_station() {
  RadioConfig cfg;
  cfg.transmit_power_dbw = 17.0;
  cfg.transmit_gain_dbi = 45.0;
  cfg.receive_gain_dbi = 45.0;    // ~1.8 m dish at Ku
  cfg.system_noise_temp_k = 150.0;
  cfg.bandwidth_hz = 62.5e6;
  cfg.frequency_hz = 11.7e9;
  cfg.misc_losses_db = 1.5;
  return cfg;
}

}  // namespace mpleo::net
