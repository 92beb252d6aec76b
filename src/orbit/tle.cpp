#include "orbit/tle.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace mpleo::orbit {
namespace {

// Extracts the [start, start+len) column slice (1-based TLE column start).
std::string slice(const std::string& line, std::size_t start_col, std::size_t len) {
  if (start_col - 1 >= line.size()) return {};
  return line.substr(start_col - 1, len);
}

// True when only blanks follow `end` in `field`: a numeric field must hold
// one number and nothing else.
bool only_blanks_after(const std::string& field, const char* end) {
  return std::all_of(end, field.c_str() + field.size(),
                     [](char ch) { return std::isspace(static_cast<unsigned char>(ch)); });
}

double parse_double(const std::string& field, bool* ok) {
  char* end = nullptr;
  const double v = std::strtod(field.c_str(), &end);
  if (end == field.c_str() || !only_blanks_after(field, end)) {
    *ok = false;
    return 0.0;
  }
  return v;
}

long parse_long(const std::string& field, bool* ok) {
  char* end = nullptr;
  const long v = std::strtol(field.c_str(), &end, 10);
  if (end == field.c_str() || !only_blanks_after(field, end)) {
    *ok = false;
    return 0;
  }
  return v;
}

// Parses the TLE "implied decimal + exponent" notation, e.g. " 34123-4"
// meaning 0.34123e-4, used for BSTAR and the second derivative field.
double parse_implied_exponent(const std::string& field, bool* ok) {
  std::string s;
  for (char ch : field) {
    if (!std::isspace(static_cast<unsigned char>(ch))) s += ch;
  }
  if (s.empty() || s == "00000-0" || s == "00000+0") return 0.0;
  double sign = 1.0;
  std::size_t i = 0;
  if (s[i] == '-') {
    sign = -1.0;
    ++i;
  } else if (s[i] == '+') {
    ++i;
  }
  std::string mantissa_digits;
  while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) {
    mantissa_digits += s[i++];
  }
  if (mantissa_digits.empty() || i >= s.size()) {
    *ok = false;
    return 0.0;
  }
  double exp_sign = 1.0;
  if (s[i] == '-') {
    exp_sign = -1.0;
    ++i;
  } else if (s[i] == '+') {
    ++i;
  }
  if (i >= s.size() || !std::isdigit(static_cast<unsigned char>(s[i]))) {
    *ok = false;
    return 0.0;
  }
  const double exponent = exp_sign * (s[i] - '0');
  const double mantissa =
      std::strtod(("0." + mantissa_digits).c_str(), nullptr);
  return sign * mantissa * std::pow(10.0, exponent);
}

// Records an issue for a drag field whose magnitude does not round below
// `limit`, the first value its columns cannot hold.
void add_unwritable(std::vector<core::ConfigIssue>& issues, const char* field,
                    double value, const char* limit) {
  issues.push_back({"orbit.tle", field,
                    "value " + std::to_string(value) +
                        " does not fit the field: |value| must round below " + limit});
}

// The 8-column implied-exponent field (" 12345-4" = 0.12345e-4): sign, five
// mantissa digits, a one-digit exponent. Magnitudes below 1e-10 are
// denormalised into exponent -9 (4e-12 -> " 00400-9") and round to zero
// below its last digit (1e-14). A magnitude that rounds to 1e9 or more (or
// NaN) does not fit: the issue goes to `issues` and "" comes back.
std::string format_implied_exponent(const char* field, double value,
                                    std::vector<core::ConfigIssue>& issues) {
  const double mag = std::fabs(value);
  if (!(mag < 1e9)) {
    add_unwritable(issues, field, value, "1e9");
    return {};
  }
  // 0 < mag < 1e9, so floor(log10(mag)) lies in [-324, 8], and the scaled
  // mantissa rounds to at most 10^5.
  int exponent =
      mag > 0.0 ? std::max(static_cast<int>(std::floor(std::log10(mag))) + 1, -9) : 0;
  long long digits = std::llround(mag / std::pow(10.0, exponent) * 1e5);
  if (digits >= 100000) {  // rounding overflow, e.g. 0.999999 -> 1.0
    digits = 10000;
    ++exponent;
  }
  if (exponent > 9) {
    add_unwritable(issues, field, value, "1e9");
    return {};
  }
  if (digits == 0) return " 00000+0";
  // digits < 10^5 and |exponent| <= 9 here, so both print as int and fit.
  char buf[32];
  std::snprintf(buf, sizeof buf, "%c%05d%+d", value < 0.0 ? '-' : ' ',
                static_cast<int>(digits), exponent);
  return buf;
}

// The 10-column first-derivative field: sign, then ".NNNNNNNN". |value| must
// round below 1; otherwise the issue goes to `issues` and "" comes back.
std::string format_mean_motion_dot(double value, std::vector<core::ConfigIssue>& issues) {
  const double mag = std::fabs(value);
  const long long units = mag < 1.0 ? std::llround(mag * 1e8) : 0;
  if (!(mag < 1.0) || units >= 100000000) {
    add_unwritable(issues, "mean_motion_dot", value, "1");
    return {};
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%c.%08lld", value < 0.0 ? '-' : ' ', units);
  return buf;
}

// TLE epoch field: YYDDD.DDDDDDDD.
TimePoint parse_tle_epoch(const std::string& field, bool* ok) {
  bool field_ok = true;
  const double raw = parse_double(field, &field_ok);
  // YYDDD.DDDDDDDD: a two-digit year and a day of year in [1, 367). The
  // range check also keeps the year conversion below defined.
  if (!field_ok || !(raw >= 1.0 && raw < 99367.0)) {
    *ok = false;
    return {};
  }
  const int yy = static_cast<int>(raw / 1000.0);
  const double doy = raw - yy * 1000.0;  // fractional day of year (1.0 = Jan 1 00:00)
  if (!(doy >= 1.0 && doy < 367.0)) {
    *ok = false;
    return {};
  }
  const int year = yy >= 57 ? 1900 + yy : 2000 + yy;
  const TimePoint jan1 = TimePoint::from_civil({year, 1, 1, 0, 0, 0.0});
  return jan1.plus_days(doy - 1.0);
}

std::string format_tle_epoch(const TimePoint& t) {
  const CivilTime c = t.to_civil();
  const TimePoint jan1 = TimePoint::from_civil({c.year, 1, 1, 0, 0, 0.0});
  const double doy = t.seconds_since(jan1) / util::kSecondsPerDay + 1.0;
  const int yy = c.year % 100;
  char buf[20];
  std::snprintf(buf, sizeof buf, "%02d%012.8f", yy, doy);
  return buf;
}

}  // namespace

int tle_checksum(const std::string& line) noexcept {
  int sum = 0;
  const std::size_t limit = std::min<std::size_t>(line.size(), 68);
  for (std::size_t i = 0; i < limit; ++i) {
    const char ch = line[i];
    if (ch >= '0' && ch <= '9') sum += ch - '0';
    if (ch == '-') sum += 1;
  }
  return sum % 10;
}

TleParseResult parse_tle(const std::string& line0, const std::string& line1,
                         const std::string& line2) {
  TleParseResult result;
  auto add = [&result](std::string field, std::string message) {
    result.issues.push_back({"orbit.tle", std::move(field), std::move(message)});
  };
  // Joins the collected issues into the flat `error` summary and returns.
  auto finish_fail = [&result]() {
    result.ok = false;
    for (const core::ConfigIssue& issue : result.issues) {
      if (!result.error.empty()) result.error += "; ";
      result.error += issue.field + ": " + issue.message;
    }
    return result;
  };

  // Structural problems make the column slices meaningless, so they abort
  // before field extraction; field and range problems are all collected.
  if (line1.size() < 69) add("line1", "shorter than 69 columns");
  if (line2.size() < 69) add("line2", "shorter than 69 columns");
  if (!result.issues.empty()) return finish_fail();
  if (line1[0] != '1') add("line1", "does not start with '1'");
  if (line2[0] != '2') add("line2", "does not start with '2'");
  if (!result.issues.empty()) return finish_fail();
  if (const int want = line1[68] - '0'; tle_checksum(line1) != want) {
    add("line1.checksum", "checksum mismatch: computed " +
                              std::to_string(tle_checksum(line1)) + ", line has " +
                              std::to_string(want));
  }
  if (const int want = line2[68] - '0'; tle_checksum(line2) != want) {
    add("line2.checksum", "checksum mismatch: computed " +
                              std::to_string(tle_checksum(line2)) + ", line has " +
                              std::to_string(want));
  }
  if (!result.issues.empty()) return finish_fail();

  auto parse_num = [&](const char* field, const std::string& text) {
    bool ok = true;
    const double v = parse_double(text, &ok);
    if (!ok) add(field, "unparsable numeric field '" + text + "'");
    return v;
  };
  auto parse_int = [&](const char* field, const std::string& text) {
    bool ok = true;
    const long v = parse_long(text, &ok);
    if (!ok) add(field, "unparsable integer field '" + text + "'");
    return static_cast<int>(v);
  };
  auto parse_imp = [&](const char* field, const std::string& text) {
    bool ok = true;
    const double v = parse_implied_exponent(text, &ok);
    if (!ok) add(field, "unparsable implied-exponent field '" + text + "'");
    return v;
  };
  // Rejects NaN too: !(v >= lo && v <= hi) is true for unordered compares.
  auto check_range = [&](const char* field, double v, double lo, double hi) {
    if (!(v >= lo && v <= hi)) {
      add(field, "value " + std::to_string(v) + " outside [" + std::to_string(lo) +
                     ", " + std::to_string(hi) + "]");
    }
  };

  Tle tle;
  tle.name = line0;
  while (!tle.name.empty() && std::isspace(static_cast<unsigned char>(tle.name.back()))) {
    tle.name.pop_back();
  }

  tle.catalog_number = parse_int("catalog_number", slice(line1, 3, 5));
  tle.classification = line1[7];
  tle.intl_designator = slice(line1, 10, 8);
  while (!tle.intl_designator.empty() &&
         std::isspace(static_cast<unsigned char>(tle.intl_designator.back()))) {
    tle.intl_designator.pop_back();
  }
  {
    bool ok = true;
    tle.epoch = parse_tle_epoch(slice(line1, 19, 14), &ok);
    if (!ok) add("epoch", "unparsable epoch field '" + slice(line1, 19, 14) + "'");
  }
  tle.mean_motion_dot = parse_num("mean_motion_dot", slice(line1, 34, 10));
  tle.mean_motion_ddot = parse_imp("mean_motion_ddot", slice(line1, 45, 8));
  tle.bstar = parse_imp("bstar", slice(line1, 54, 8));
  tle.element_set_number = parse_int("element_set_number", slice(line1, 65, 4));

  const int cat2 = parse_int("catalog_number", slice(line2, 3, 5));
  if (cat2 != tle.catalog_number) {
    add("catalog_number", "catalog number differs between lines (" +
                              std::to_string(tle.catalog_number) + " vs " +
                              std::to_string(cat2) + ")");
    return finish_fail();
  }
  tle.inclination_deg = parse_num("inclination_deg", slice(line2, 9, 8));
  tle.raan_deg = parse_num("raan_deg", slice(line2, 18, 8));
  tle.eccentricity = parse_num("eccentricity", "0." + slice(line2, 27, 7));
  tle.arg_perigee_deg = parse_num("arg_perigee_deg", slice(line2, 35, 8));
  tle.mean_anomaly_deg = parse_num("mean_anomaly_deg", slice(line2, 44, 8));
  tle.mean_motion_rev_per_day = parse_num("mean_motion", slice(line2, 53, 11));
  tle.revolution_number = parse_int("revolution_number", slice(line2, 64, 5));
  if (!result.issues.empty()) return finish_fail();

  // Physical element ranges. The upper angle bound is inclusive because
  // formatted lines legitimately round up to 360.0000.
  check_range("inclination_deg", tle.inclination_deg, 0.0, 180.0);
  check_range("raan_deg", tle.raan_deg, 0.0, 360.0);
  check_range("arg_perigee_deg", tle.arg_perigee_deg, 0.0, 360.0);
  check_range("mean_anomaly_deg", tle.mean_anomaly_deg, 0.0, 360.0);
  if (!(tle.eccentricity >= 0.0 && tle.eccentricity < 1.0)) {
    add("eccentricity",
        "value " + std::to_string(tle.eccentricity) + " outside [0, 1)");
  }
  // The counters' columns hold 4 and 5 unsigned digits.
  if (tle.element_set_number < 0) {
    add("element_set_number", "value " + std::to_string(tle.element_set_number) + " < 0");
  }
  if (tle.revolution_number < 0) {
    add("revolution_number", "value " + std::to_string(tle.revolution_number) + " < 0");
  }
  // The first derivative's ".NNNNNNNN" columns hold magnitudes below 1.
  if (!(std::fabs(tle.mean_motion_dot) < 1.0)) {
    add("mean_motion_dot",
        "value " + std::to_string(tle.mean_motion_dot) + " outside (-1, 1)");
  }
  // No bound orbit above the Earth's surface completes 20+ rev/day.
  if (!(tle.mean_motion_rev_per_day > 0.0 && tle.mean_motion_rev_per_day <= 20.0)) {
    add("mean_motion", "value " + std::to_string(tle.mean_motion_rev_per_day) +
                           " outside (0, 20] rev/day");
  }
  if (!result.issues.empty()) return finish_fail();

  result.ok = true;
  result.tle = std::move(tle);
  return result;
}

TleLines format_tle(const Tle& tle) {
  char l1[80];
  char l2[80];

  std::vector<core::ConfigIssue> issues;
  const std::string ndot = format_mean_motion_dot(tle.mean_motion_dot, issues);
  const std::string nddot =
      format_implied_exponent("mean_motion_ddot", tle.mean_motion_ddot, issues);
  const std::string bstar = format_implied_exponent("bstar", tle.bstar, issues);
  core::throw_if_invalid("format_tle", issues);

  std::snprintf(l1, sizeof l1, "1 %05dU %-8s %s %s %s %s 0 %4d", tle.catalog_number,
                tle.intl_designator.c_str(), format_tle_epoch(tle.epoch).c_str(),
                ndot.c_str(), nddot.c_str(), bstar.c_str(), tle.element_set_number % 10000);

  // An eccentricity in [0, 1), the range parse_tle accepts, rounds to at
  // most 10^7; llround leaves a result out of range unspecified, not
  // undefined.
  const auto ecc_digits = static_cast<long>(std::llround(tle.eccentricity * 1e7));
  std::snprintf(l2, sizeof l2, "2 %05d %8.4f %8.4f %07ld %8.4f %8.4f %11.8f%5d",
                tle.catalog_number, tle.inclination_deg, tle.raan_deg, ecc_digits,
                tle.arg_perigee_deg, tle.mean_anomaly_deg, tle.mean_motion_rev_per_day,
                tle.revolution_number % 100000);

  TleLines lines{l1, l2};
  lines.line1 += static_cast<char>('0' + tle_checksum(lines.line1));
  lines.line2 += static_cast<char>('0' + tle_checksum(lines.line2));
  return lines;
}

TleCatalog parse_tle_catalog(const std::string& text) {
  TleCatalog catalog;

  // Split into lines (tolerate \r\n).
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(start, end - start);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    lines.push_back(std::move(line));
    start = end + 1;
  }
  while (!lines.empty() && lines.back().empty()) lines.pop_back();

  std::string pending_name;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line.empty()) continue;
    if (line[0] == '1' && line.size() >= 69) {
      if (i + 1 >= lines.size()) {
        catalog.errors.push_back("line " + std::to_string(i + 1) +
                                 ": line 1 without a following line 2");
        break;
      }
      TleParseResult parsed = parse_tle(pending_name, line, lines[i + 1]);
      if (parsed.ok) {
        catalog.entries.push_back(std::move(parsed.tle));
      } else {
        catalog.errors.push_back("line " + std::to_string(i + 1) + ": " + parsed.error);
      }
      pending_name.clear();
      ++i;  // consume line 2
    } else {
      // Anything else is treated as a name (line 0), possibly "0 NAME".
      pending_name = line;
      if (pending_name.size() >= 2 && pending_name[0] == '0' && pending_name[1] == ' ') {
        pending_name.erase(0, 2);
      }
    }
  }
  return catalog;
}

std::string format_tle_catalog(const std::vector<Tle>& entries) {
  std::string out;
  for (const Tle& tle : entries) {
    const TleLines lines = format_tle(tle);
    out += tle.name.empty() ? "UNKNOWN" : tle.name;
    out += '\n';
    out += lines.line1;
    out += '\n';
    out += lines.line2;
    out += '\n';
  }
  return out;
}

ClassicalElements Tle::to_elements() const noexcept {
  ClassicalElements coe;
  const double n = mean_motion_rev_per_day * util::kTwoPi / util::kSecondsPerDay;
  coe.semi_major_axis_m = std::cbrt(util::kMuEarth / (n * n));
  coe.eccentricity = eccentricity;
  coe.inclination_rad = util::deg_to_rad(inclination_deg);
  coe.raan_rad = util::deg_to_rad(raan_deg);
  coe.arg_perigee_rad = util::deg_to_rad(arg_perigee_deg);
  coe.mean_anomaly_rad = util::deg_to_rad(mean_anomaly_deg);
  return coe;
}

Tle Tle::from_elements(const ClassicalElements& coe, TimePoint epoch, int catalog_number,
                       std::string name) {
  Tle tle;
  tle.name = std::move(name);
  tle.catalog_number = catalog_number;
  tle.intl_designator = "24001A";
  tle.epoch = epoch;
  tle.inclination_deg = util::rad_to_deg(coe.inclination_rad);
  tle.raan_deg = util::rad_to_deg(coe.raan_rad);
  tle.eccentricity = coe.eccentricity;
  tle.arg_perigee_deg = util::rad_to_deg(coe.arg_perigee_rad);
  tle.mean_anomaly_deg = util::rad_to_deg(coe.mean_anomaly_rad);
  tle.mean_motion_rev_per_day =
      coe.mean_motion_rad_per_sec() * util::kSecondsPerDay / util::kTwoPi;
  return tle;
}

}  // namespace mpleo::orbit
