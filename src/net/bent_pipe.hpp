// Bent-pipe relay models (§3.1 and §4 of the paper).
//
// Transparent mode: the satellite is a pure RF repeater — it re-amplifies the
// uplink waveform (noise included) onto the downlink, so the end-to-end SNR
// cascades: 1/SNR_total = 1/SNR_up + 1/SNR_down. The satellite never decodes,
// which is what gives MP-LEO its privacy/protocol-agnosticism properties.
//
// Regenerative mode: the satellite decodes and re-encodes (packet-level);
// end-to-end capacity is min(uplink, downlink) and uplink noise does not
// propagate. This is the §4 "bent-pipe variants" alternative.
#pragma once

#include <algorithm>

#include "net/link_budget.hpp"

namespace mpleo::net {

enum class RelayMode {
  kTransparent,   // RF repeater (MP-LEO default)
  kRegenerative,  // decode-and-forward
};

struct RelayBudget {
  LinkBudget uplink;
  LinkBudget downlink;
  double end_to_end_snr_linear = 0.0;
  double end_to_end_snr_db = 0.0;
  double end_to_end_capacity_bps = 0.0;
  RelayMode mode = RelayMode::kTransparent;
};

// Satellite transponder parameters for the relay hop.
struct TransponderConfig {
  RadioConfig receive;   // satellite receive chain (uplink side)
  RadioConfig transmit;  // satellite transmit chain (downlink side)
};

// Computes the end-to-end budget terminal -> satellite -> ground station.
// `uplink_distance_m` and `downlink_distance_m` are slant ranges.
[[nodiscard]] RelayBudget compute_relay(const RadioConfig& terminal,
                                        const TransponderConfig& satellite,
                                        const RadioConfig& ground_station,
                                        double uplink_distance_m,
                                        double downlink_distance_m, RelayMode mode);

// Cascades two already-computed hop budgets into the end-to-end relay
// budget. compute_relay is exactly compute_link on each hop followed by this
// combine, so callers that reuse per-hop budgets across many pairings (the
// pipelined scheduler computes each uplink once per terminal-satellite pair
// and each downlink once per satellite-station pair) obtain capacities
// bit-identical to calling compute_relay per triple.
[[nodiscard]] RelayBudget combine_relay(const LinkBudget& uplink, const LinkBudget& downlink,
                                        const TransponderConfig& satellite,
                                        const RadioConfig& ground_station, RelayMode mode);

// The transparent cascade on reciprocal hop SNRs: 1/SNR = 1/SNR_up +
// 1/SNR_down, and 0 when that sum is not positive. combine_relay takes its
// end-to-end SNR from here, so a caller that keeps each hop's reciprocal and
// reuses it across many pairings (the pipelined scheduler keeps 1/SNR of
// every downlink leg) gets the same bits as compute_relay.
[[nodiscard]] inline double transparent_snr_linear(double inv_uplink_snr,
                                                   double inv_downlink_snr) noexcept {
  const double inv = inv_uplink_snr + inv_downlink_snr;
  return inv > 0.0 ? 1.0 / inv : 0.0;
}

// The bandwidth a transparent relay's Shannon capacity is taken over: the
// narrower of the transponder's receive chain and the ground station.
[[nodiscard]] inline double transparent_bandwidth_hz(const TransponderConfig& satellite,
                                                     const RadioConfig& ground_station) noexcept {
  return std::min(satellite.receive.bandwidth_hz, ground_station.bandwidth_hz);
}

// Default radio chains modelled on published Ku-band LEO terminal/gateway
// characteristics; useful for examples and benches.
[[nodiscard]] RadioConfig default_user_terminal();
[[nodiscard]] TransponderConfig default_transponder();
[[nodiscard]] RadioConfig default_ground_station();

}  // namespace mpleo::net
