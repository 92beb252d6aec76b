// RF link budgets for satellite links: free-space path loss, received
// carrier-to-noise, and Shannon capacity. All gains/losses in dB, powers in
// dBW, frequencies in Hz, distances in metres.
#pragma once

namespace mpleo::net {

[[nodiscard]] double db_to_linear(double db) noexcept;
[[nodiscard]] double linear_to_db(double linear) noexcept;

// Free-space path loss in dB. Preconditions: distance_m > 0, frequency_hz > 0.
[[nodiscard]] double free_space_path_loss_db(double distance_m, double frequency_hz);

// One end of a link.
struct RadioConfig {
  double transmit_power_dbw = 10.0;   // PA output
  double transmit_gain_dbi = 30.0;    // antenna gain
  double receive_gain_dbi = 30.0;
  double system_noise_temp_k = 300.0; // receiver system noise temperature
  double bandwidth_hz = 250e6;
  double frequency_hz = 14.0e9;       // Ku-band uplink default
  double misc_losses_db = 2.0;        // pointing, atmosphere, implementation

  [[nodiscard]] double eirp_dbw() const noexcept {
    return transmit_power_dbw + transmit_gain_dbi;
  }
};

// A computed one-hop budget.
struct LinkBudget {
  double eirp_dbw = 0.0;
  double path_loss_db = 0.0;
  double received_power_dbw = 0.0;
  double noise_power_dbw = 0.0;
  double snr_db = 0.0;
  double snr_linear = 0.0;
  // Shannon capacity over the configured bandwidth, bit/s.
  double shannon_capacity_bps = 0.0;
};

// Computes the budget of a single hop from `tx` (its transmit side) to `rx`
// (its receive side) across `distance_m` at tx.frequency_hz.
[[nodiscard]] LinkBudget compute_link(const RadioConfig& tx, const RadioConfig& rx,
                                      double distance_m);

// Shannon capacity for an SNR given in linear units over `bandwidth_hz`.
[[nodiscard]] double shannon_capacity_bps(double snr_linear, double bandwidth_hz);

// Range-independent pieces of one hop, hoisted so a caller evaluating the
// same (tx, rx) pair across many slant ranges — the pipelined scheduler does
// this for every terminal-satellite and satellite-station pair — skips the
// EIRP and noise-power work per call. snr_linear() replays compute_link's
// expression over the hoisted values in the same order, so its result (and
// shannon_bps over it) is bit-identical to the corresponding compute_link
// field.
struct HopEvaluator {
  double eirp_dbw = 0.0;
  double receive_gain_dbi = 0.0;
  double misc_losses_db = 0.0;
  double noise_power_dbw = 0.0;
  double frequency_hz = 0.0;    // tx side: sets the path loss
  double bandwidth_hz = 0.0;    // rx side: sets the Shannon capacity

  [[nodiscard]] static HopEvaluator make(const RadioConfig& tx, const RadioConfig& rx);

  // == compute_link(tx, rx, distance_m).snr_linear, bit for bit.
  [[nodiscard]] double snr_linear(double distance_m) const;

  // == compute_link(tx, rx, distance_m).shannon_capacity_bps when fed the
  // snr_linear() of the same distance.
  [[nodiscard]] double shannon_bps(double snr_linear_value) const {
    return shannon_capacity_bps(snr_linear_value, bandwidth_hz);
  }

  // The hop's free-space inverse-square constant K, in m²: the SNR at slant
  // range d is K / d², with K = 10^((EIRP + G - L - N) / 10) * (c / 4πf)²
  // folded from the same terms snr_linear() reads. The two agree up to the
  // dB chain's rounding, not bit for bit; K / d² costs one division where
  // snr_linear() takes a sqrt, a log10 and a pow.
  [[nodiscard]] double inverse_square_snr_m2() const;
};

}  // namespace mpleo::net
