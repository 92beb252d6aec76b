#include "orbit/time.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/angles.hpp"
#include "util/rounding.hpp"
#include "util/units.hpp"

namespace mpleo::orbit {

void TimePoint::normalise() noexcept {
  // Snap jd_midnight_ to the nearest midnight boundary (fraction 0.5), moving
  // any residual into seconds_, then wrap seconds_ into [0, 86400).
  const double boundary = std::floor(jd_midnight_ - 0.5) + 0.5;
  seconds_ += (jd_midnight_ - boundary) * util::kSecondsPerDay;
  jd_midnight_ = boundary;
  const double days = std::floor(seconds_ / util::kSecondsPerDay);
  if (days != 0.0) {
    jd_midnight_ += days;
    seconds_ -= days * util::kSecondsPerDay;
  }
  if (seconds_ < 0.0) {  // guard against -0.0 / rounding
    seconds_ = 0.0;
  }
}

TimePoint TimePoint::from_civil(const CivilTime& c) {
  if (c.month < 1 || c.month > 12 || c.day < 1 || c.day > 31 || c.year < 1583) {
    throw std::invalid_argument("TimePoint::from_civil: invalid civil date");
  }
  // NaN fails the seconds check too; 60.x admits a leap second.
  if (c.hour < 0 || c.hour > 23 || c.minute < 0 || c.minute > 59 ||
      !(c.second >= 0.0 && c.second < 61.0)) {
    throw std::invalid_argument("TimePoint::from_civil: invalid time of day");
  }
  // Fliegel & Van Flandern (1968) Gregorian date -> Julian day number.
  const long y = c.year;
  const long m = c.month;
  const long d = c.day;
  const long jdn = d - 32075 + 1461 * (y + 4800 + (m - 14) / 12) / 4 +
                   367 * (m - 2 - (m - 14) / 12 * 12) / 12 -
                   3 * ((y + 4900 + (m - 14) / 12) / 100) / 4;
  // jdn is the Julian day number at *noon* of the civil date; midnight is
  // half a day earlier.
  const double seconds = static_cast<double>(c.hour) * 3600.0 +
                         static_cast<double>(c.minute) * 60.0 + c.second;
  return TimePoint(static_cast<double>(jdn) - 0.5, seconds);
}

TimePoint TimePoint::from_iso8601(const std::string& text) {
  CivilTime c;
  double sec = 0.0;
  const int matched = std::sscanf(text.c_str(), "%d-%d-%dT%d:%d:%lf", &c.year, &c.month,
                                  &c.day, &c.hour, &c.minute, &sec);
  if (matched < 3) throw std::invalid_argument("TimePoint::from_iso8601: parse failure");
  c.second = matched >= 6 ? sec : 0.0;
  if (matched < 5) c.minute = 0;
  if (matched < 4) c.hour = 0;
  return from_civil(c);
}

CivilTime TimePoint::to_civil() const {
  // Invert Fliegel & Van Flandern. jd_midnight_ + 0.5 is exactly the Julian
  // day number of the civil date; seconds_ carries the time of day.
  // Precondition: |jd_midnight_| < 2^63, the input bound of floor_to_int64
  // (any date the ISO, civil or TLE parsers accept is far inside it).
  const long z = util::floor_to_int64(jd_midnight_ + 0.5 + 1e-9);

  long a = z;
  if (z >= 2299161) {
    const long alpha = static_cast<long>((static_cast<double>(z) - 1867216.25) / 36524.25);
    a = z + 1 + alpha - alpha / 4;
  }
  const long b = a + 1524;
  const auto cc = static_cast<long>((static_cast<double>(b) - 122.1) / 365.25);
  const auto dd = static_cast<long>(365.25 * static_cast<double>(cc));
  const auto e = static_cast<long>(static_cast<double>(b - dd) / 30.6001);

  CivilTime out;
  out.day = static_cast<int>(b - dd - static_cast<long>(30.6001 * static_cast<double>(e)));
  out.month = static_cast<int>(e < 14 ? e - 1 : e - 13);
  out.year = static_cast<int>(out.month > 2 ? cc - 4716 : cc - 4715);

  double seconds = seconds_;
  out.hour = static_cast<int>(seconds / 3600.0);
  seconds -= out.hour * 3600.0;
  out.minute = static_cast<int>(seconds / 60.0);
  out.second = seconds - out.minute * 60.0;
  // Guard against floating point pushing second to 60.
  if (out.second >= 60.0 - 1e-9) {
    out.second = 0.0;
    if (++out.minute == 60) {
      out.minute = 0;
      ++out.hour;
    }
  }
  return out;
}

std::string TimePoint::to_iso8601() const {
  const CivilTime c = to_civil();
  char buf[40];
  std::snprintf(buf, sizeof buf, "%04d-%02d-%02dT%02d:%02d:%06.3fZ", c.year, c.month, c.day,
                c.hour, c.minute, c.second);
  return buf;
}

double TimePoint::seconds_since(const TimePoint& earlier) const noexcept {
  // Whole-day differences are exact (midnight JDs are x.5 integers well
  // within double's exact-integer range), so the result is exact to the
  // precision of the stored seconds.
  return (jd_midnight_ - earlier.jd_midnight_) * util::kSecondsPerDay +
         (seconds_ - earlier.seconds_);
}

TimePoint TimePoint::plus_seconds(double seconds) const noexcept {
  return TimePoint(jd_midnight_, seconds_ + seconds);
}

TimePoint TimePoint::plus_days(double days) const noexcept {
  return TimePoint(jd_midnight_ + days, seconds_);
}

double gmst_rad(const TimePoint& t) noexcept {
  // IAU 1982 GMST, evaluated with UTC as a stand-in for UT1 (|UT1-UTC| < 1 s).
  const double d = t.julian_date() - kJ2000Jd;
  const double tc = d / 36525.0;  // Julian centuries since J2000
  const double gmst_deg = 280.46061837 + 360.98564736629 * d + 0.000387933 * tc * tc -
                          tc * tc * tc / 38710000.0;
  return util::wrap_two_pi(util::deg_to_rad(gmst_deg));
}

TimeGrid TimeGrid::over_duration(TimePoint start, double duration_seconds,
                                 double step_seconds) {
  if (!(step_seconds > 0.0) || !std::isfinite(step_seconds) || !(duration_seconds >= 0.0) ||
      !std::isfinite(duration_seconds)) {
    throw std::invalid_argument("TimeGrid: step must be finite and > 0, duration finite and >= 0");
  }
  // Checked before the cast: a ratio past the size_t range would make it
  // undefined.
  const double intervals = std::floor(duration_seconds / step_seconds);
  if (!(intervals < static_cast<double>(kMaxSteps))) {
    throw std::invalid_argument("TimeGrid: duration / step gives more than " +
                                std::to_string(kMaxSteps) + " steps");
  }
  TimeGrid grid;
  grid.start = start;
  grid.step_seconds = step_seconds;
  grid.count = static_cast<std::size_t>(intervals) + 1;
  return grid;
}

}  // namespace mpleo::orbit
