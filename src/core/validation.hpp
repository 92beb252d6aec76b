// Structured input validation shared by every configuration surface.
//
// Two complementary tools live here:
//
//  * ConfigIssue — the one issue record every config struct's `validate()`
//    and the TLE parser return, so a driver can collect issues from any
//    layer into one damage report. `validate()` collects every problem found
//    (not just the first) so an operator fixing a config sees the whole
//    report in one pass; constructing a component from an invalid config
//    throws with every issue joined into the message (throw_if_invalid).
//
//  * ValidationError / require_* — scalar guards for single-value call sites
//    (stakes, fractions) where a full issue list is overkill.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace mpleo::core {

enum class IssueSeverity : std::uint8_t {
  kWarning,  // suspicious but runnable; reported, never thrown on
  kError,    // the config cannot be used; throw_if_invalid throws
};

// One problem found in one configuration field. `component` names the
// owning subsystem ("rf.doppler", "orbit.tle", "net.scheduler",
// "sim.scenario"...), `field` the offending knob within it, and `message`
// the human-readable reason including the offending value.
struct ConfigIssue {
  std::string component;
  std::string field;
  std::string message;
  IssueSeverity severity = IssueSeverity::kError;

  friend bool operator==(const ConfigIssue&, const ConfigIssue&) = default;
};

// True when any issue is an error (warnings alone leave a config usable).
[[nodiscard]] bool has_errors(const std::vector<ConfigIssue>& issues) noexcept;

// Joins issues into one multi-line message: "<context>: N invalid field(s)"
// followed by one "  field: message" line per issue. Empty issues -> "".
[[nodiscard]] std::string format_issues(const std::string& context,
                                        const std::vector<ConfigIssue>& issues);

// Throws std::invalid_argument carrying format_issues(...) when any
// error-severity issue is present; no-op otherwise.
void throw_if_invalid(const std::string& context,
                      const std::vector<ConfigIssue>& issues);

class ValidationError : public std::invalid_argument {
 public:
  ValidationError(std::string field, double value, const std::string& requirement)
      : std::invalid_argument(field + " = " + std::to_string(value) + " " + requirement),
        field_(std::move(field)),
        value_(value) {}

  [[nodiscard]] const std::string& field() const noexcept { return field_; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  std::string field_;
  double value_;
};

// Requires value in [0, 1] (a stake share, slash fraction, byzantine
// fraction...). NaN fails both bounds checks and is rejected.
inline double require_fraction(double value, const char* field) {
  if (!(value >= 0.0) || !(value <= 1.0)) {
    throw ValidationError(field, value, "must be a fraction in [0, 1]");
  }
  return value;
}

// Requires value >= 0 and finite (a stake, balance, intensity...).
inline double require_non_negative(double value, const char* field) {
  if (!(value >= 0.0) || value > 1e300) {
    throw ValidationError(field, value, "must be finite and >= 0");
  }
  return value;
}

}  // namespace mpleo::core
