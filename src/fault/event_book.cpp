#include "fault/event_book.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace mpleo::fault {
namespace {

// Child-stream bases per event class, so event j of one class never shares a
// stream with event j of another and adding a storm never shifts a cascade.
constexpr std::uint64_t kStormStreamBase = 0x1000;
constexpr std::uint64_t kCascadeStreamBase = 0x3000;

void throw_event_issues(const char* context, std::vector<core::ConfigIssue> issues) {
  core::throw_if_invalid(context, issues);
}

std::vector<core::ConfigIssue> window_issues(double start_offset_s, double span_s,
                                             const char* span_field) {
  std::vector<core::ConfigIssue> issues;
  if (!(start_offset_s >= 0.0) || !std::isfinite(start_offset_s)) {
    issues.push_back({"fault.event_book", "start_offset_s",
                      "must be finite and >= 0, got " + std::to_string(start_offset_s)});
  }
  if (!(span_s > 0.0)) {
    issues.push_back({"fault.event_book", span_field,
                      "must be > 0, got " + std::to_string(span_s)});
  }
  return issues;
}

// Circular difference of two angles in radians, in [0, pi].
double circular_delta(double a_rad, double b_rad) noexcept {
  double d = std::fmod(std::fabs(a_rad - b_rad), 2.0 * util::kPi);
  return d > util::kPi ? 2.0 * util::kPi - d : d;
}

}  // namespace

const char* to_string(EventProfile profile) noexcept {
  switch (profile) {
    case EventProfile::kOff: return "off";
    case EventProfile::kStorm: return "storm";
    case EventProfile::kBlackout: return "blackout";
    case EventProfile::kWithdrawal: return "withdrawal";
    case EventProfile::kDebris: return "debris";
    case EventProfile::kMixed: return "mixed";
  }
  return "?";
}

std::optional<EventProfile> event_profile_from_string(std::string_view name) noexcept {
  if (name == "off") return EventProfile::kOff;
  if (name == "storm") return EventProfile::kStorm;
  if (name == "blackout") return EventProfile::kBlackout;
  if (name == "withdrawal" || name == "withdraw") return EventProfile::kWithdrawal;
  if (name == "debris") return EventProfile::kDebris;
  if (name == "mixed") return EventProfile::kMixed;
  return std::nullopt;
}

EventBook& EventBook::add_storm(const StormEvent& event) {
  std::vector<core::ConfigIssue> issues =
      window_issues(event.start_offset_s, event.mean_duration_s, "mean_duration_s");
  if (!(event.duration_jitter >= 0.0) || event.duration_jitter > 1.0) {
    issues.push_back({"fault.event_book", "duration_jitter",
                      "must be in [0, 1], got " + std::to_string(event.duration_jitter)});
  }
  if (!(event.capacity_factor > 0.0) || event.capacity_factor > 1.0) {
    issues.push_back({"fault.event_book", "capacity_factor",
                      "must be in (0, 1], got " + std::to_string(event.capacity_factor)});
  }
  if (!(event.outage_fraction >= 0.0) || event.outage_fraction > 1.0) {
    issues.push_back({"fault.event_book", "outage_fraction",
                      "must be in [0, 1], got " + std::to_string(event.outage_fraction)});
  }
  if (!(event.max_altitude_m >= event.min_altitude_m) ||
      !(event.max_inclination_deg >= event.min_inclination_deg)) {
    issues.push_back({"fault.event_book", "bands",
                      "altitude / inclination bands must have max >= min"});
  }
  throw_event_issues("fault::EventBook storm", std::move(issues));
  storms_.push_back(event);
  return *this;
}

EventBook& EventBook::add_blackout(const RegionalBlackoutEvent& event) {
  std::vector<core::ConfigIssue> issues =
      window_issues(event.start_offset_s, event.duration_s, "duration_s");
  if (!(event.radius_km > 0.0) || !std::isfinite(event.radius_km)) {
    issues.push_back({"fault.event_book", "radius_km",
                      "must be finite and > 0, got " + std::to_string(event.radius_km)});
  }
  if (!(std::fabs(event.center_latitude_deg) <= 90.0)) {
    issues.push_back({"fault.event_book", "center_latitude_deg",
                      "must be in [-90, 90], got " +
                          std::to_string(event.center_latitude_deg)});
  }
  throw_event_issues("fault::EventBook blackout", std::move(issues));
  blackouts_.push_back(event);
  return *this;
}

EventBook& EventBook::add_withdrawal(const PartyWithdrawalEvent& event) {
  std::vector<core::ConfigIssue> issues;
  if (!(event.start_offset_s >= 0.0) || !std::isfinite(event.start_offset_s)) {
    issues.push_back({"fault.event_book", "start_offset_s",
                      "must be finite and >= 0, got " +
                          std::to_string(event.start_offset_s)});
  }
  if (!(event.rejoin_offset_s > event.start_offset_s)) {
    issues.push_back({"fault.event_book", "rejoin_offset_s",
                      "must be > start (or infinity for no rejoin), got " +
                          std::to_string(event.rejoin_offset_s)});
  }
  throw_event_issues("fault::EventBook withdrawal", std::move(issues));
  withdrawals_.push_back(event);
  return *this;
}

EventBook& EventBook::add_debris_cascade(const DebrisCascadeEvent& event) {
  std::vector<core::ConfigIssue> issues = window_issues(
      event.start_offset_s, event.inter_loss_spacing_s, "inter_loss_spacing_s");
  if (event.loss_count == 0) {
    issues.push_back({"fault.event_book", "loss_count", "must be >= 1"});
  }
  throw_event_issues("fault::EventBook debris cascade", std::move(issues));
  cascades_.push_back(event);
  return *this;
}

bool EventBook::inside_circle(const orbit::Geodetic& site, double center_latitude_deg,
                              double center_longitude_deg, double radius_km) noexcept {
  const double lat1 = site.latitude_rad;
  const double lon1 = site.longitude_rad;
  const double lat2 = util::deg_to_rad(center_latitude_deg);
  const double lon2 = util::deg_to_rad(center_longitude_deg);
  const double sin_dlat = std::sin(0.5 * (lat2 - lat1));
  const double sin_dlon = std::sin(0.5 * (lon2 - lon1));
  const double a =
      sin_dlat * sin_dlat + std::cos(lat1) * std::cos(lat2) * sin_dlon * sin_dlon;
  const double distance_m =
      2.0 * util::kEarthMeanRadiusM * std::asin(std::min(1.0, std::sqrt(a)));
  return distance_m <= radius_km * 1000.0;
}

void EventBook::compile(FaultTimeline& timeline,
                        std::span<const constellation::Satellite> satellites,
                        std::span<const net::GroundStation> stations) const {
  if (empty()) return;
  const double window = timeline.grid().duration_seconds();
  const util::Xoshiro256PlusPlus base(seed_);

  // Space-weather storms: shell-altitude x inclination band targeting, one
  // child stream per (storm, satellite) so satellite i's draw never depends
  // on which other satellites sit in the band.
  for (std::size_t j = 0; j < storms_.size(); ++j) {
    const StormEvent& storm = storms_[j];
    if (storm.start_offset_s >= window) continue;
    const util::Xoshiro256PlusPlus storm_stream =
        base.split(kStormStreamBase + static_cast<std::uint64_t>(j));
    for (std::size_t si = 0; si < satellites.size(); ++si) {
      const orbit::ClassicalElements& el = satellites[si].elements;
      const double altitude_m = el.semi_major_axis_m - util::kEarthMeanRadiusM;
      const double inclination_deg = util::rad_to_deg(el.inclination_rad);
      if (altitude_m < storm.min_altitude_m || altitude_m > storm.max_altitude_m) {
        continue;
      }
      if (inclination_deg < storm.min_inclination_deg ||
          inclination_deg > storm.max_inclination_deg) {
        continue;
      }
      util::Xoshiro256PlusPlus sat_stream =
          storm_stream.split(static_cast<std::uint64_t>(si));
      const double u_duration = sat_stream.uniform();
      const double u_outage = sat_stream.uniform();
      const double duration =
          storm.mean_duration_s *
          (1.0 - 0.5 * storm.duration_jitter + storm.duration_jitter * u_duration);
      if (!(duration > 0.0)) continue;
      const double end = storm.start_offset_s + duration;
      if (u_outage < storm.outage_fraction) {
        timeline.add_satellite_outage(si, storm.start_offset_s, end);
      } else if (storm.capacity_factor < 1.0) {
        timeline.add_transponder_degradation(si, storm.start_offset_s, end,
                                             storm.capacity_factor);
      }
    }
  }

  // Regional blackouts: pure geo-predicate, no randomness.
  for (const RegionalBlackoutEvent& blackout : blackouts_) {
    if (blackout.start_offset_s >= window) continue;
    for (std::size_t gi = 0; gi < stations.size(); ++gi) {
      if (!inside_circle(stations[gi].location, blackout.center_latitude_deg,
                         blackout.center_longitude_deg, blackout.radius_km)) {
        continue;
      }
      timeline.add_station_outage(gi, blackout.start_offset_s,
                                  blackout.start_offset_s + blackout.duration_s);
    }
  }

  // Party withdrawals: ownership targeting, no randomness.
  for (const PartyWithdrawalEvent& withdrawal : withdrawals_) {
    if (withdrawal.start_offset_s >= window) continue;
    const double end = std::isfinite(withdrawal.rejoin_offset_s)
                           ? withdrawal.rejoin_offset_s
                           : window;
    if (!(end > withdrawal.start_offset_s)) continue;
    for (std::size_t si = 0; si < satellites.size(); ++si) {
      if (satellites[si].owner_party != withdrawal.party) continue;
      timeline.add_satellite_outage(si, withdrawal.start_offset_s, end);
    }
    if (withdrawal.include_stations) {
      for (std::size_t gi = 0; gi < stations.size(); ++gi) {
        if (stations[gi].owner_party != withdrawal.party) continue;
        timeline.add_station_outage(gi, withdrawal.start_offset_s, end);
      }
    }
  }

  // Debris cascades: seeded epicenter, losses ranked by orbital-element
  // proximity (same shell, nearby plane), staggered and permanent.
  for (std::size_t j = 0; j < cascades_.size(); ++j) {
    const DebrisCascadeEvent& cascade = cascades_[j];
    if (cascade.start_offset_s >= window || satellites.empty()) continue;
    util::Xoshiro256PlusPlus stream =
        base.split(kCascadeStreamBase + static_cast<std::uint64_t>(j));
    const std::size_t epicenter =
        static_cast<std::size_t>(stream.next() % satellites.size());
    const orbit::ClassicalElements& origin = satellites[epicenter].elements;
    std::vector<std::size_t> order(satellites.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::vector<double> score(satellites.size(), 0.0);
    for (std::size_t si = 0; si < satellites.size(); ++si) {
      const orbit::ClassicalElements& el = satellites[si].elements;
      score[si] =
          std::fabs(el.semi_major_axis_m - origin.semi_major_axis_m) / 1e3 +
          util::rad_to_deg(circular_delta(el.inclination_rad, origin.inclination_rad)) *
              200.0 +
          util::rad_to_deg(circular_delta(el.raan_rad, origin.raan_rad)) * 5.0;
    }
    std::sort(order.begin(), order.end(), [&score](std::size_t a, std::size_t b) {
      if (score[a] != score[b]) return score[a] < score[b];
      return a < b;
    });
    const std::size_t losses = std::min(cascade.loss_count, satellites.size());
    for (std::size_t k = 0; k < losses; ++k) {
      const double loss_time =
          cascade.start_offset_s + static_cast<double>(k) * cascade.inter_loss_spacing_s;
      if (loss_time >= window) break;
      timeline.add_satellite_outage(order[k], loss_time, window);
    }
  }

  timeline.normalize();
}

FaultTimeline EventBook::compile(const orbit::TimeGrid& grid,
                                 std::span<const constellation::Satellite> satellites,
                                 std::span<const net::GroundStation> stations) const {
  FaultTimeline timeline(grid, satellites.size(), stations.size());
  compile(timeline, satellites, stations);
  return timeline;
}

EventBook EventBook::preset(EventProfile profile, double window_s, std::uint64_t seed,
                            double intensity) {
  // A subnormal window would round the profiles' fractional spans to 0, which
  // add_storm and add_blackout reject under their own field names.
  if (!(window_s >= std::numeric_limits<double>::min()) || !std::isfinite(window_s)) {
    throw std::invalid_argument(
        "EventBook::preset: window_s must be finite and at least the smallest normal "
        "double, got " +
        std::to_string(window_s));
  }
  core::require_non_negative(intensity, "EventBook::preset intensity");
  EventBook book(seed);
  const double w = window_s;
  const auto storm_at = [&](double start_frac, double duration_frac) {
    StormEvent storm;
    storm.start_offset_s = start_frac * w;
    storm.mean_duration_s = duration_frac * w;
    storm.capacity_factor = std::clamp(1.0 - 0.6 * intensity, 0.05, 1.0);
    storm.outage_fraction = std::min(1.0, 0.25 * intensity);
    return storm;
  };
  const auto blackout_at = [&](double start_frac, double duration_frac) {
    RegionalBlackoutEvent blackout;
    blackout.start_offset_s = start_frac * w;
    blackout.duration_s = duration_frac * w;
    blackout.center_latitude_deg = 40.7;  // US north-east: a populated region
    blackout.center_longitude_deg = -74.0;
    blackout.radius_km = std::max(100.0, 2500.0 * intensity);
    return blackout;
  };
  const auto withdrawal_at = [&](double start_frac, double rejoin_frac) {
    PartyWithdrawalEvent withdrawal;
    withdrawal.party = 0;
    withdrawal.start_offset_s = start_frac * w;
    withdrawal.rejoin_offset_s = rejoin_frac * w;
    return withdrawal;
  };
  const auto debris_at = [&](double start_frac) {
    DebrisCascadeEvent cascade;
    cascade.start_offset_s = start_frac * w;
    // intensity is finite (<= 1e300); clamping at 2^32 before rounding keeps
    // the conversion defined, and compile() caps losses at the fleet size.
    cascade.loss_count = std::max<std::size_t>(
        4, static_cast<std::size_t>(std::lround(std::min(8.0 * intensity, 4294967296.0))));
    cascade.inter_loss_spacing_s = std::max(1.0, 0.02 * w);
    return cascade;
  };
  switch (profile) {
    case EventProfile::kOff:
      break;
    case EventProfile::kStorm:
      book.add_storm(storm_at(0.2, 0.2));
      break;
    case EventProfile::kBlackout:
      book.add_blackout(blackout_at(0.25, 0.25));
      break;
    case EventProfile::kWithdrawal:
      book.add_withdrawal(withdrawal_at(0.35, 0.75));
      break;
    case EventProfile::kDebris:
      book.add_debris_cascade(debris_at(0.3));
      break;
    case EventProfile::kMixed:
      book.add_storm(storm_at(0.1, 0.15));
      book.add_blackout(blackout_at(0.3, 0.2));
      book.add_withdrawal(withdrawal_at(0.5, 0.8));
      book.add_debris_cascade(debris_at(0.65));
      break;
  }
  return book;
}

}  // namespace mpleo::fault
