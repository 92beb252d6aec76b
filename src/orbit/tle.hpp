// NORAD Two-Line Element (TLE) parsing, formatting, and conversion to the
// library's classical elements. Supports the standard 69-column fixed format
// including the modulo-10 checksum and the implied-decimal exponent fields.
#pragma once

#include <string>
#include <vector>

#include "core/validation.hpp"
#include "orbit/elements.hpp"
#include "orbit/time.hpp"

namespace mpleo::orbit {

struct Tle {
  std::string name;         // optional line-0 satellite name
  int catalog_number = 0;   // NORAD id
  char classification = 'U';
  std::string intl_designator;  // e.g. "24001A"
  TimePoint epoch;
  double mean_motion_dot = 0.0;    // rev/day^2 (first derivative / 2 field)
  double mean_motion_ddot = 0.0;   // rev/day^3 (second derivative / 6 field)
  double bstar = 0.0;              // 1/earth-radii drag term
  int element_set_number = 0;
  int revolution_number = 0;

  double inclination_deg = 0.0;
  double raan_deg = 0.0;
  double eccentricity = 0.0;
  double arg_perigee_deg = 0.0;
  double mean_anomaly_deg = 0.0;
  double mean_motion_rev_per_day = 15.0;

  // Mean elements equivalent to this TLE (a derived from the mean motion).
  [[nodiscard]] ClassicalElements to_elements() const noexcept;

  // Builds a TLE record from elements at an epoch (inverse of to_elements).
  [[nodiscard]] static Tle from_elements(const ClassicalElements& coe, TimePoint epoch,
                                         int catalog_number, std::string name = {});
};

// Parse results carry error details instead of throwing: TLE ingestion is a
// data-plane operation that must tolerate malformed catalog lines. All field
// problems found are collected (not just the first), and every element field
// is range-checked — a line that parses numerically but encodes a physically
// impossible orbit is rejected, not silently accepted.
struct TleParseResult {
  bool ok = false;
  std::string error;                  // joined summary of `issues`
  // Every problem found, in field order, each named so ingestion pipelines
  // can triage programmatically instead of string-matching a flat message:
  // component "orbit.tle", `field` e.g. "inclination_deg" or
  // "line1.checksum", and a `message` that includes the offending text.
  std::vector<core::ConfigIssue> issues;
  Tle tle;
};

// Parses a 2-line record (line0 name optional; pass empty string if absent).
[[nodiscard]] TleParseResult parse_tle(const std::string& line0, const std::string& line1,
                                       const std::string& line2);

// Formats the two 69-column lines (checksums computed). name is emitted by
// the caller if desired; returns {line1, line2}. Drag terms round to their
// columns' last digit, so |bstar| or |mean_motion_ddot| under 5e-15 writes
// as zero. A drag term the columns cannot hold — |mean_motion_dot| rounding
// to 1 or more, |mean_motion_ddot| or |bstar| rounding to 1e9 or more, or
// NaN — throws std::invalid_argument with one "orbit.tle" ConfigIssue per
// such field.
struct TleLines {
  std::string line1;
  std::string line2;
};
[[nodiscard]] TleLines format_tle(const Tle& tle);

// The standard TLE checksum: digit sum + count of '-' characters, mod 10,
// over the first 68 columns.
[[nodiscard]] int tle_checksum(const std::string& line) noexcept;

// Parses a whole catalog in 2LE or 3LE (name-line) format. Malformed records
// are skipped and reported; parsing continues — catalog files in the wild
// routinely contain damaged rows.
struct TleCatalog {
  std::vector<Tle> entries;
  std::vector<std::string> errors;  // "line N: <reason>" per skipped record
};
[[nodiscard]] TleCatalog parse_tle_catalog(const std::string& text);

// Formats satellites as a 3LE catalog block (name line + two element lines
// per satellite).
[[nodiscard]] std::string format_tle_catalog(const std::vector<Tle>& entries);

}  // namespace mpleo::orbit
