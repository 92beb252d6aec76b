// Correlated failure events: the shocks the paper's argument turns on (§2).
//
// FaultTimeline injects *independent* per-asset outages; the decentralization
// claim, however, is about correlated failure domains — a solar storm
// degrading every satellite in a shell, a grid blackout darkening every
// ground station in a region, an operator withdrawing its entire fleet, a
// debris cascade chewing through one orbital neighbourhood. An EventBook is
// a seeded, deterministic list of such events that COMPILES DOWN to the
// existing OutageRecord / Degradation representation on a FaultTimeline, so
// every current consumer (coverage, scheduler, handover, SLA, reputation,
// audits) inherits correlated faults without a single new branch, and an
// empty book leaves the timeline empty — bit-identical to the no-fault path.
//
// Determinism contract: compilation draws from util::Xoshiro256PlusPlus
// child streams keyed by (event class, event index, asset index), so event
// j's effect on satellite i depends only on the book seed and those indices
// — never on fleet size, registration order of other events, or compile
// count. Identical seeds reproduce identical timelines (the CRN property the
// chaos bench's centralized-vs-decentralized comparison relies on).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "constellation/shell.hpp"
#include "fault/timeline.hpp"
#include "net/ground_station.hpp"
#include "orbit/geodesy.hpp"

namespace mpleo::fault {

// Canonical event mixes for the --events= scenario flag and the chaos bench.
enum class EventProfile : std::uint8_t {
  kOff,         // empty book
  kStorm,       // one space-weather storm over the whole fleet
  kBlackout,    // one regional ground blackout
  kWithdrawal,  // party 0 withdraws its fleet, later rejoins
  kDebris,      // one debris cascade
  kMixed,       // all of the above, staggered
};

[[nodiscard]] const char* to_string(EventProfile profile) noexcept;
[[nodiscard]] std::optional<EventProfile> event_profile_from_string(
    std::string_view name) noexcept;

// Space-weather storm: every satellite whose shell altitude (semi-major axis
// minus the mean Earth radius) and inclination fall inside the affected
// bands is hit at `start_offset_s` for a per-satellite drawn duration.
// A seeded fraction of the affected satellites goes fully out (latch-up /
// safe-mode); the rest keep flying at `capacity_factor` of nominal.
struct StormEvent {
  double start_offset_s = 0.0;
  double mean_duration_s = 3600.0;
  // Per-satellite duration = mean * (1 - jitter/2 + jitter * u), u ~ U[0,1)
  // from the satellite's own child stream. 0 = every duration exactly mean.
  double duration_jitter = 0.5;
  double min_altitude_m = 0.0;
  double max_altitude_m = std::numeric_limits<double>::infinity();
  double min_inclination_deg = 0.0;
  double max_inclination_deg = 180.0;
  double capacity_factor = 0.5;  // degradation for surviving sats, in (0, 1]
  double outage_fraction = 0.0;  // fraction drawn fully out, in [0, 1]
};

// Regional ground blackout: every station within `radius_km` great-circle
// distance of the center goes dark for [start, start + duration).
struct RegionalBlackoutEvent {
  double start_offset_s = 0.0;
  double duration_s = 3600.0;
  double center_latitude_deg = 0.0;
  double center_longitude_deg = 0.0;
  double radius_km = 1000.0;
};

// Party-withdrawal shock: one party's whole fleet detaches at `start`,
// optionally rejoining at `rejoin` (infinity = never, clipped to window).
// The centralized-operator failure mode: with one party owning everything,
// this is a total network loss.
struct PartyWithdrawalEvent {
  std::uint32_t party = 0;
  double start_offset_s = 0.0;
  double rejoin_offset_s = std::numeric_limits<double>::infinity();
  bool include_stations = false;  // true: the party's ground segment too
};

// Debris cascade: a seeded epicenter satellite plus its `loss_count - 1`
// nearest orbital neighbours (by semi-major axis, inclination and RAAN
// plane) are lost permanently, staggered `inter_loss_spacing_s` apart in
// spread order — a Kessler-style cluster confined to one neighbourhood, not
// an independent sprinkle.
struct DebrisCascadeEvent {
  double start_offset_s = 0.0;
  std::size_t loss_count = 8;
  double inter_loss_spacing_s = 600.0;
};

class EventBook {
 public:
  EventBook() = default;
  explicit EventBook(std::uint64_t seed) noexcept : seed_(seed) {}

  // True when no event is registered; compiling an empty book is a no-op,
  // which is what keeps every consumer bit-identical to the no-fault path.
  [[nodiscard]] bool empty() const noexcept {
    return storms_.empty() && blackouts_.empty() && withdrawals_.empty() &&
           cascades_.empty();
  }

  EventBook& add_storm(const StormEvent& event);
  EventBook& add_blackout(const RegionalBlackoutEvent& event);
  EventBook& add_withdrawal(const PartyWithdrawalEvent& event);
  EventBook& add_debris_cascade(const DebrisCascadeEvent& event);

  // The canonical book for a profile, scaled to a grid window: event times
  // and durations are fractions of `window_s`, severities scale with
  // `intensity` (1 = the defaults the chaos bench records). kOff returns an
  // empty book. Throws std::invalid_argument naming the field unless
  // window_s is finite and at least DBL_MIN and intensity is in [0, 1e300].
  [[nodiscard]] static EventBook preset(EventProfile profile, double window_s,
                                        std::uint64_t seed, double intensity = 1.0);

  // Lowers every event onto `timeline` for the given fleet (asset order =
  // span order = scheduler construction order) and normalizes the record
  // list. The timeline must already be sized for the fleet. An empty book
  // changes nothing.
  void compile(FaultTimeline& timeline,
               std::span<const constellation::Satellite> satellites,
               std::span<const net::GroundStation> stations) const;

  // Convenience: a fresh timeline over `grid`, compiled.
  [[nodiscard]] FaultTimeline compile(
      const orbit::TimeGrid& grid,
      std::span<const constellation::Satellite> satellites,
      std::span<const net::GroundStation> stations) const;

  // The blackout geo-predicate, exposed so tests and site samplers agree
  // with compilation bit-for-bit: great-circle distance (haversine on the
  // mean Earth radius) from `site` to the center is <= radius.
  [[nodiscard]] static bool inside_circle(const orbit::Geodetic& site,
                                          double center_latitude_deg,
                                          double center_longitude_deg,
                                          double radius_km) noexcept;

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] const std::vector<StormEvent>& storms() const noexcept {
    return storms_;
  }
  [[nodiscard]] const std::vector<RegionalBlackoutEvent>& blackouts() const noexcept {
    return blackouts_;
  }
  [[nodiscard]] const std::vector<PartyWithdrawalEvent>& withdrawals() const noexcept {
    return withdrawals_;
  }
  [[nodiscard]] const std::vector<DebrisCascadeEvent>& cascades() const noexcept {
    return cascades_;
  }
  [[nodiscard]] std::size_t event_count() const noexcept {
    return storms_.size() + blackouts_.size() + withdrawals_.size() +
           cascades_.size();
  }

 private:
  std::uint64_t seed_ = 0x65766b32ULL;  // "evk2"
  std::vector<StormEvent> storms_;
  std::vector<RegionalBlackoutEvent> blackouts_;
  std::vector<PartyWithdrawalEvent> withdrawals_;
  std::vector<DebrisCascadeEvent> cascades_;
};

}  // namespace mpleo::fault
