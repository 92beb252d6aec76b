#include "net/link_budget.hpp"

#include <cmath>
#include <stdexcept>

#include "util/units.hpp"

namespace mpleo::net {

double db_to_linear(double db) noexcept { return std::pow(10.0, db / 10.0); }
double linear_to_db(double linear) noexcept { return 10.0 * std::log10(linear); }

double free_space_path_loss_db(double distance_m, double frequency_hz) {
  if (!(distance_m > 0.0) || !(frequency_hz > 0.0)) {
    throw std::invalid_argument("free_space_path_loss_db: non-positive input");
  }
  const double ratio =
      4.0 * util::kPi * distance_m * frequency_hz / util::kSpeedOfLightMPerSec;
  return 20.0 * std::log10(ratio);
}

double shannon_capacity_bps(double snr_linear, double bandwidth_hz) {
  if (snr_linear < 0.0 || bandwidth_hz <= 0.0) {
    throw std::invalid_argument("shannon_capacity_bps: invalid input");
  }
  return bandwidth_hz * std::log2(1.0 + snr_linear);
}

LinkBudget compute_link(const RadioConfig& tx, const RadioConfig& rx, double distance_m) {
  LinkBudget budget;
  budget.eirp_dbw = tx.eirp_dbw();
  budget.path_loss_db = free_space_path_loss_db(distance_m, tx.frequency_hz);
  budget.received_power_dbw = budget.eirp_dbw - budget.path_loss_db + rx.receive_gain_dbi -
                              tx.misc_losses_db;
  // N = k * T * B.
  budget.noise_power_dbw = linear_to_db(util::kBoltzmannJPerK * rx.system_noise_temp_k *
                                        rx.bandwidth_hz);
  budget.snr_db = budget.received_power_dbw - budget.noise_power_dbw;
  budget.snr_linear = db_to_linear(budget.snr_db);
  budget.shannon_capacity_bps = shannon_capacity_bps(budget.snr_linear, rx.bandwidth_hz);
  return budget;
}

HopEvaluator HopEvaluator::make(const RadioConfig& tx, const RadioConfig& rx) {
  HopEvaluator hop;
  hop.eirp_dbw = tx.eirp_dbw();
  hop.receive_gain_dbi = rx.receive_gain_dbi;
  hop.misc_losses_db = tx.misc_losses_db;
  hop.noise_power_dbw = linear_to_db(util::kBoltzmannJPerK * rx.system_noise_temp_k *
                                     rx.bandwidth_hz);
  hop.frequency_hz = tx.frequency_hz;
  hop.bandwidth_hz = rx.bandwidth_hz;
  return hop;
}

double HopEvaluator::snr_linear(double distance_m) const {
  // Same expression, same evaluation order as compute_link: any reassociation
  // here would break the scheduler's bit-identity contract.
  const double path_loss_db = free_space_path_loss_db(distance_m, frequency_hz);
  const double received_power_dbw =
      eirp_dbw - path_loss_db + receive_gain_dbi - misc_losses_db;
  return db_to_linear(received_power_dbw - noise_power_dbw);
}

double HopEvaluator::inverse_square_snr_m2() const {
  const double wavelength_over_4pi =
      util::kSpeedOfLightMPerSec / (4.0 * util::kPi * frequency_hz);
  return db_to_linear(eirp_dbw + receive_gain_dbi - misc_losses_db - noise_power_dbw) *
         wavelength_over_4pi * wavelength_over_4pi;
}

}  // namespace mpleo::net
