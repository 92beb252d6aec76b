// Astronomical time: Julian dates, civil conversion, sidereal angle, and the
// uniform step grids all coverage experiments run on.
//
// The library runs on a single UTC-like uniform timescale (leap seconds are
// ignored; over one-week windows the <1 s error is far below the 60 s
// coverage step). This matches what TLE-based simulators such as CosmicBeats
// effectively do.
#pragma once

#include <compare>
#include <cstddef>
#include <string>

namespace mpleo::orbit {

// Broken-down civil UTC time.
struct CivilTime {
  int year = 2000;
  int month = 1;  // 1..12
  int day = 1;    // 1..31
  int hour = 0;
  int minute = 0;
  double second = 0.0;
};

// An absolute instant (UTC). Stored as a whole Julian day number at midnight
// plus seconds-of-day, so second-level arithmetic over multi-week windows
// keeps sub-microsecond precision (a single double JD only resolves ~40 us).
class TimePoint {
 public:
  TimePoint() = default;

  // Throws std::invalid_argument unless the date is Gregorian (year >= 1583)
  // and the time of day valid (second in [0, 61), NaN rejected).
  [[nodiscard]] static TimePoint from_civil(const CivilTime& civil);
  // Parses "YYYY-MM-DDTHH:MM:SSZ" (fractional seconds allowed).
  [[nodiscard]] static TimePoint from_iso8601(const std::string& text);

  [[nodiscard]] double julian_date() const noexcept {
    return jd_midnight_ + seconds_ / 86400.0;
  }
  [[nodiscard]] CivilTime to_civil() const;
  [[nodiscard]] std::string to_iso8601() const;

  // Seconds from `earlier` to *this (negative if *this precedes it).
  [[nodiscard]] double seconds_since(const TimePoint& earlier) const noexcept;

  [[nodiscard]] TimePoint plus_seconds(double seconds) const noexcept;
  [[nodiscard]] TimePoint plus_days(double days) const noexcept;

  friend auto operator<=>(const TimePoint&, const TimePoint&) = default;

 private:
  TimePoint(double jd_midnight, double seconds) noexcept
      : jd_midnight_(jd_midnight), seconds_(seconds) {
    normalise();
  }
  // Restores the invariant seconds_ in [0, 86400) with jd_midnight_ at a
  // midnight boundary (x.5 in JD convention).
  void normalise() noexcept;

  double jd_midnight_ = 2451544.5;  // 2000-01-01T00:00:00
  double seconds_ = 43200.0;        // J2000.0 = noon
};

// Julian date of the J2000.0 epoch.
inline constexpr double kJ2000Jd = 2451545.0;

// Greenwich Mean Sidereal Time (IAU 1982 model), radians in [0, 2*pi).
[[nodiscard]] double gmst_rad(const TimePoint& t) noexcept;

// A uniform grid of `count` instants: start, start+step, ...
// This is the time base shared by the coverage engine, masks, and schedulers.
struct TimeGrid {
  // Largest step count over_duration builds. Every grid-sized buffer holds
  // one value per step (a satellite's ephemeris table is 32 B per step), so
  // 10^8 steps (over three years at 1 s) is far past any workload here,
  // while a mistyped step such as 1e-300 s is refused instead of being
  // rounded into a meaningless grid.
  static constexpr std::size_t kMaxSteps = 100'000'000;

  TimePoint start;
  double step_seconds = 60.0;
  std::size_t count = 0;

  // floor(duration / step) + 1 instants. Throws std::invalid_argument unless
  // the step is finite and > 0, the duration is finite and >= 0, and the
  // count is at most kMaxSteps.
  [[nodiscard]] static TimeGrid over_duration(TimePoint start, double duration_seconds,
                                              double step_seconds);

  [[nodiscard]] TimePoint at(std::size_t index) const noexcept {
    return start.plus_seconds(step_seconds * static_cast<double>(index));
  }
  [[nodiscard]] double duration_seconds() const noexcept {
    return count == 0 ? 0.0 : step_seconds * static_cast<double>(count);
  }

  friend bool operator==(const TimeGrid&, const TimeGrid&) = default;
};

}  // namespace mpleo::orbit
