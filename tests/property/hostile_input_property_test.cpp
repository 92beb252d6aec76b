// Hostile values through every parse_scenario flag, every config validate()
// and the TLE parser: NaN, +-inf, a denormal, 0, a negative, 2^53 + 1 and
// 2^64. Each value must come back as the parser's named error or a
// ConfigIssue on its own field, or be accepted inside the field's documented
// domain (saturating clamps included). The flag, config and TLE tests only
// parse and validate: nothing there builds a pool, a grid or a buffer from a
// hostile value, and no --threads value becomes threads. The event and
// behaviour book tests build books from hostile values: each preset is
// compiled onto a one-day grid at 600 s over 20 satellites and 3 stations,
// and sampled books hold up to 2^20 parties.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "adversary/policy.hpp"
#include "constellation/shell.hpp"
#include "core/chaos_sweep.hpp"
#include "fault/event_book.hpp"
#include "net/degradation.hpp"
#include "net/ground_station.hpp"
#include "net/scheduler.hpp"
#include "orbit/tle.hpp"
#include "rf/doppler.hpp"
#include "rf/spectrum_plan.hpp"
#include "sim/scenario.hpp"

namespace mpleo {
namespace {

// The hostile values as command-line text...
const std::vector<std::string>& hostile_texts() {
  static const std::vector<std::string> texts{
      "nan", "inf", "-inf", "4.9406564584124654e-324", "0", "-1",
      "9007199254740993",       // 2^53 + 1
      "18446744073709551616"};  // 2^64
  return texts;
}

// ...and as doubles (2^53 + 1 rounds to 2^53).
const std::vector<double>& hostile_doubles() {
  static const std::vector<double> values{std::numeric_limits<double>::quiet_NaN(),
                                          std::numeric_limits<double>::infinity(),
                                          -std::numeric_limits<double>::infinity(),
                                          std::numeric_limits<double>::denorm_min(),
                                          0.0,
                                          -1.0,
                                          9007199254740993.0,
                                          18446744073709551616.0};
  return values;
}

bool finite_at_least(double v, double lo) { return std::isfinite(v) && v >= lo; }
bool finite_above(double v, double lo) { return std::isfinite(v) && v > lo; }
bool in_closed(double v, double lo, double hi) { return v >= lo && v <= hi; }
bool grid_fits(double duration_s, double step_s) {
  return finite_above(step_s, 0.0) && finite_above(duration_s, 0.0) &&
         duration_s / step_s < static_cast<double>(orbit::TimeGrid::kMaxSteps);
}

// --- parse_scenario: one case per valued flag -----------------------------

struct FlagCase {
  std::string flag;   // "--step=": a parse error names it
  std::string field;  // "step_s": a validate() issue names it
  std::function<bool(const sim::Scenario&)> in_domain;  // never, for enum flags
};

std::vector<FlagCase> flag_cases() {
  const auto never = [](const sim::Scenario&) { return false; };
  const auto any = [](const sim::Scenario&) { return true; };
  return {
      {"--runs=", "runs",
       [](const sim::Scenario& s) { return s.runs >= 1 && s.runs <= sim::Scenario::kMaxRuns; }},
      {"--step=", "step_s",
       [](const sim::Scenario& s) { return grid_fits(s.duration_s, s.step_s); }},
      {"--mask=", "elevation_mask_deg",
       [](const sim::Scenario& s) {
         return s.elevation_mask_deg >= 0.0 && s.elevation_mask_deg < 90.0;
       }},
      {"--seed=", "seed", any},
      {"--days=", "duration_s",
       [](const sim::Scenario& s) { return grid_fits(s.duration_s, s.step_s); }},
      {"--epoch=", "epoch", never},
      {"--threads=", "threads",
       [](const sim::Scenario& s) { return s.threads <= sim::Scenario::kMaxThreads; }},
      {"--propagator=", "propagator", never},
      {"--adversary=", "adversary", never},
      {"--adversary-intensity=", "adversary_intensity",
       [](const sim::Scenario& s) { return finite_at_least(s.adversary_intensity, 0.0); }},
      {"--scale=", "scale", never},
      {"--events=", "events", never},
      {"--event-seed=", "event_seed", any},
      {"--event-intensity=", "event_intensity",
       [](const sim::Scenario& s) { return finite_at_least(s.event_intensity, 0.0); }},
  };
}

class ScenarioFlagHostile : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ScenarioFlagHostile, NamedErrorOrDocumentedDomain) {
  const FlagCase c = flag_cases()[GetParam()];
  const std::string bare_flag = c.flag.substr(0, c.flag.size() - 1);
  for (const std::string& text : hostile_texts()) {
    SCOPED_TRACE(c.flag + text);
    const std::string arg = c.flag + text;
    const char* argv[] = {"hostile", arg.c_str()};
    try {
      const sim::Scenario scenario = sim::parse_scenario(2, argv);
      EXPECT_TRUE(c.in_domain(scenario)) << "accepted outside the documented domain";
    } catch (const std::invalid_argument& e) {
      const std::string message = e.what();
      EXPECT_TRUE(message.find(bare_flag) != std::string::npos ||
                  message.find(c.field) != std::string::npos)
          << "the error names neither " << bare_flag << " nor " << c.field << ": "
          << message;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Flags, ScenarioFlagHostile,
                         ::testing::Range<std::size_t>(0, flag_cases().size()),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           const std::string flag = flag_cases()[info.param].flag;
                           std::string name;
                           for (const char ch : flag) {
                             if (std::isalnum(static_cast<unsigned char>(ch))) name += ch;
                           }
                           return name;
                         });

// --- validate(): one case per floating-point config field -----------------

struct FieldCase {
  std::string name;   // suite-unique test name
  std::string field;  // the issue's field ends with this
  std::function<std::vector<core::ConfigIssue>(double)> validate_with;
  std::function<bool(double)> in_domain;
};

template <typename Config, typename Setter>
std::function<std::vector<core::ConfigIssue>(double)> with(Setter set) {
  return [set](double v) {
    Config config;
    set(config, v);
    return config.validate();
  };
}

std::vector<FieldCase> field_cases() {
  using net::DegradationPolicy;
  using net::SchedulerConfig;
  using rf::DopplerAuditConfig;
  using rf::SpectrumConfig;
  using sim::Scenario;
  const auto non_negative = [](double v) { return finite_at_least(v, 0.0); };
  const auto positive = [](double v) { return finite_above(v, 0.0); };
  const auto mask = [](double v) { return v >= 0.0 && v < 90.0; };
  const auto fraction = [](double v) { return in_closed(v, 0.0, 1.0); };
  const auto intensity = [](double v) { return in_closed(v, 0.0, 1e300); };
  const double scenario_duration = Scenario{}.duration_s;
  const double scenario_step = Scenario{}.step_s;
  const double chaos_duration = core::ChaosSweepConfig{}.duration_s;
  const double chaos_step = core::ChaosSweepConfig{}.step_s;
  return {
      {"ScenarioStep", "step_s",
       with<Scenario>([](Scenario& s, double v) { s.step_s = v; }),
       [=](double v) { return grid_fits(scenario_duration, v); }},
      {"ScenarioDuration", "duration_s",
       with<Scenario>([](Scenario& s, double v) { s.duration_s = v; }),
       [=](double v) { return grid_fits(v, scenario_step); }},
      {"ScenarioMask", "elevation_mask_deg",
       with<Scenario>([](Scenario& s, double v) { s.elevation_mask_deg = v; }), mask},
      {"ScenarioAdversaryIntensity", "adversary_intensity",
       with<Scenario>([](Scenario& s, double v) { s.adversary_intensity = v; }), intensity},
      {"ScenarioEventIntensity", "event_intensity",
       with<Scenario>([](Scenario& s, double v) { s.event_intensity = v; }), intensity},
      {"SchedulerMask", "elevation_mask_deg",
       with<SchedulerConfig>([](SchedulerConfig& c, double v) { c.elevation_mask_deg = v; }),
       mask},
      {"SchedulerSparePriority", "spare_priority_by_party",
       with<SchedulerConfig>(
           [](SchedulerConfig& c, double v) { c.spare_priority_by_party = {1.0, v}; }),
       non_negative},
      {"SchedulerSpareWithheld", "spare_withheld_fraction",
       with<SchedulerConfig>(
           [](SchedulerConfig& c, double v) { c.spare_withheld_fraction = {0.0, v}; }),
       fraction},
      {"DegradationShedBelow", "shed_below",
       with<DegradationPolicy>([](DegradationPolicy& p, double v) { p.shed_below = {v}; }),
       fraction},
      {"DegradationHysteresis", "spare_hysteresis_margin",
       with<DegradationPolicy>(
           [](DegradationPolicy& p, double v) { p.spare_hysteresis_margin = v; }),
       non_negative},
      // Any finite multiplier >= 1 is valid: the hold saturates at
      // backoff_max_steps (BackoffProperty pins the clamp).
      {"DegradationBackoffMultiplier", "backoff_multiplier",
       with<DegradationPolicy>([](DegradationPolicy& p, double v) { p.backoff_multiplier = v; }),
       [](double v) { return finite_at_least(v, 1.0); }},
      {"DopplerRmsTolerance", "rms_tolerance_hz",
       with<DopplerAuditConfig>([](DopplerAuditConfig& c, double v) { c.rms_tolerance_hz = v; }),
       positive},
      {"DopplerCarrier", "carrier_hz",
       with<DopplerAuditConfig>([](DopplerAuditConfig& c, double v) { c.carrier_hz = v; }),
       [](double v) { return in_closed(v, rf::kMinCarrierHz, rf::kMaxCarrierHz); }},
      {"DopplerSampleSpacing", "sample_spacing_s",
       with<DopplerAuditConfig>([](DopplerAuditConfig& c, double v) { c.sample_spacing_s = v; }),
       positive},
      {"DopplerMeasurementNoise", "measurement_noise_hz",
       with<DopplerAuditConfig>(
           [](DopplerAuditConfig& c, double v) { c.measurement_noise_hz = v; }),
       non_negative},
      {"SpectrumChannelBandwidth", "channel_bandwidth_hz",
       with<SpectrumConfig>([](SpectrumConfig& c, double v) { c.channel_bandwidth_hz = v; }),
       positive},
      {"SpectrumOffAxis", "off_axis_discrimination_db",
       with<SpectrumConfig>(
           [](SpectrumConfig& c, double v) { c.off_axis_discrimination_db = v; }),
       non_negative},
      {"SpectrumJammerBoost", "jammer_power_boost_db",
       with<SpectrumConfig>([](SpectrumConfig& c, double v) { c.jammer_power_boost_db = v; }),
       non_negative},
      {"ChaosDuration", "duration_s",
       with<core::ChaosSweepConfig>([](core::ChaosSweepConfig& c, double v) { c.duration_s = v; }),
       [=](double v) { return grid_fits(v, chaos_step); }},
      {"ChaosStep", "step_s",
       with<core::ChaosSweepConfig>([](core::ChaosSweepConfig& c, double v) { c.step_s = v; }),
       [=](double v) { return grid_fits(chaos_duration, v); }},
      {"ChaosMask", "elevation_mask_deg",
       with<core::ChaosSweepConfig>(
           [](core::ChaosSweepConfig& c, double v) { c.elevation_mask_deg = v; }),
       mask},
      {"ChaosEventIntensity", "event_intensity",
       with<core::ChaosSweepConfig>(
           [](core::ChaosSweepConfig& c, double v) { c.event_intensity = v; }),
       intensity},
  };
}

bool ends_with(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

class ConfigFieldHostile : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ConfigFieldHostile, IssueOnTheFieldExactlyOutsideItsDomain) {
  const FieldCase c = field_cases()[GetParam()];
  for (const double v : hostile_doubles()) {
    SCOPED_TRACE(c.name + " = " + std::to_string(v));
    const std::vector<core::ConfigIssue> issues = c.validate_with(v);
    EXPECT_EQ(issues.empty(), c.in_domain(v));
    // A bound shared with another field (the grid's duration / step) is
    // reported on one of them, naming both.
    for (const core::ConfigIssue& issue : issues) {
      EXPECT_TRUE(ends_with(issue.field, c.field) ||
                  issue.message.find(c.field) != std::string::npos)
          << "issue on " << issue.field << ": " << issue.message;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fields, ConfigFieldHostile,
                         ::testing::Range<std::size_t>(0, field_cases().size()),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return field_cases()[info.param].name;
                         });

// Integer fields: the unsigned images of the hostile values (0, 2^53 + 1 and
// 2^64 - 1, which is also what -1 wraps to).
struct CountCase {
  std::string name;
  std::string field;
  std::function<std::vector<core::ConfigIssue>(std::uint64_t)> validate_with;
  std::function<bool(std::uint64_t)> in_domain;
};

std::vector<CountCase> count_cases() {
  using net::SchedulerConfig;
  using rf::DopplerAuditConfig;
  return {
      {"SchedulerStreamChunkSteps", "stream_chunk_steps",
       [](std::uint64_t n) {
         SchedulerConfig c;
         c.stream_chunk_steps = n;
         return c.validate();
       },
       [](std::uint64_t n) { return n >= 1; }},
      {"SchedulerCandidateCap", "max_candidates_per_terminal",
       [](std::uint64_t n) {
         SchedulerConfig c;
         c.max_candidates_per_terminal = n;
         return c.validate();
       },
       [](std::uint64_t n) { return n <= 64; }},
      {"DopplerTrackSamples", "track_samples",
       [](std::uint64_t n) {
         DopplerAuditConfig c;
         c.track_samples = n;
         c.min_track_samples = 2;
         return c.validate();
       },
       [](std::uint64_t n) { return n >= 2 && n <= DopplerAuditConfig::kMaxTrackSamples; }},
      {"ScenarioRuns", "runs",
       [](std::uint64_t n) {
         sim::Scenario s;
         s.runs = n;
         return s.validate();
       },
       [](std::uint64_t n) { return n >= 1 && n <= sim::Scenario::kMaxRuns; }},
      {"ScenarioThreads", "threads",
       [](std::uint64_t n) {
         sim::Scenario s;
         s.threads = n;
         return s.validate();
       },
       [](std::uint64_t n) { return n <= sim::Scenario::kMaxThreads; }},
  };
}

class ConfigCountHostile : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ConfigCountHostile, IssueOnTheFieldExactlyOutsideItsDomain) {
  const CountCase c = count_cases()[GetParam()];
  for (const std::uint64_t n : {std::uint64_t{0}, std::uint64_t{9007199254740993ULL},
                                std::numeric_limits<std::uint64_t>::max()}) {
    SCOPED_TRACE(c.name + " = " + std::to_string(n));
    const std::vector<core::ConfigIssue> issues = c.validate_with(n);
    EXPECT_EQ(issues.empty(), c.in_domain(n));
    for (const core::ConfigIssue& issue : issues) {
      EXPECT_TRUE(ends_with(issue.field, c.field)) << "issue on " << issue.field;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, ConfigCountHostile,
                         ::testing::Range<std::size_t>(0, count_cases().size()),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return count_cases()[info.param].name;
                         });

// --- parse_tle: one case per numeric column field -------------------------

const std::string kLine1 =
    "1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927";
const std::string kLine2 =
    "2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537";

struct TleField {
  std::string name;  // the issue field parse_tle reports
  int line;          // 1 or 2
  std::size_t column;  // 1-based first column
  std::size_t width;
  std::function<bool(const orbit::Tle&)> in_domain;
};

std::vector<TleField> tle_fields() {
  const auto any = [](const orbit::Tle&) { return true; };
  return {
      {"catalog_number", 1, 3, 5, [](const orbit::Tle&) { return false; }},  // lines disagree
      {"epoch", 1, 19, 14, any},  // any epoch that parses lies in [1, 367) of its year
      {"mean_motion_dot", 1, 34, 10,
       [](const orbit::Tle& t) { return std::fabs(t.mean_motion_dot) < 1.0; }},
      {"mean_motion_ddot", 1, 45, 8,
       [](const orbit::Tle& t) { return std::isfinite(t.mean_motion_ddot); }},
      {"bstar", 1, 54, 8, [](const orbit::Tle& t) { return std::isfinite(t.bstar); }},
      {"element_set_number", 1, 65, 4,
       [](const orbit::Tle& t) { return t.element_set_number >= 0; }},
      {"inclination_deg", 2, 9, 8,
       [](const orbit::Tle& t) { return in_closed(t.inclination_deg, 0.0, 180.0); }},
      {"raan_deg", 2, 18, 8, [](const orbit::Tle& t) { return in_closed(t.raan_deg, 0.0, 360.0); }},
      {"eccentricity", 2, 27, 7,
       [](const orbit::Tle& t) { return t.eccentricity >= 0.0 && t.eccentricity < 1.0; }},
      {"arg_perigee_deg", 2, 35, 8,
       [](const orbit::Tle& t) { return in_closed(t.arg_perigee_deg, 0.0, 360.0); }},
      {"mean_anomaly_deg", 2, 44, 8,
       [](const orbit::Tle& t) { return in_closed(t.mean_anomaly_deg, 0.0, 360.0); }},
      {"mean_motion", 2, 53, 11,
       [](const orbit::Tle& t) {
         return t.mean_motion_rev_per_day > 0.0 && t.mean_motion_rev_per_day <= 20.0;
       }},
      {"revolution_number", 2, 64, 5,
       [](const orbit::Tle& t) { return t.revolution_number >= 0; }},
  };
}

// `text` right-aligned into the field (its first `width` characters when it
// is longer), with the line checksum recomputed so only the field is bad.
std::string inject(std::string line, std::size_t column, std::size_t width,
                   const std::string& text) {
  std::string cell = text.substr(0, width);
  cell.insert(0, width - cell.size(), ' ');
  line.replace(column - 1, width, cell);
  line[68] = static_cast<char>('0' + orbit::tle_checksum(line));
  return line;
}

class TleFieldHostile : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TleFieldHostile, NamedIssueOrDocumentedDomain) {
  const TleField f = tle_fields()[GetParam()];
  for (const std::string& text : hostile_texts()) {
    SCOPED_TRACE(f.name + " <- '" + text + "'");
    const std::string line1 = f.line == 1 ? inject(kLine1, f.column, f.width, text) : kLine1;
    const std::string line2 = f.line == 2 ? inject(kLine2, f.column, f.width, text) : kLine2;
    const orbit::TleParseResult result = orbit::parse_tle("HOSTILE", line1, line2);
    if (result.ok) {
      EXPECT_TRUE(f.in_domain(result.tle)) << "accepted outside the documented domain";
      continue;
    }
    bool named = false;
    for (const core::ConfigIssue& issue : result.issues) named |= issue.field == f.name;
    EXPECT_TRUE(named) << result.error;
  }
}

INSTANTIATE_TEST_SUITE_P(Fields, TleFieldHostile,
                         ::testing::Range<std::size_t>(0, tle_fields().size()),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return tle_fields()[info.param].name;
                         });

// --- EventBook::preset and BehaviorBook::sample ---------------------------

// What the book builders take: NaN, +-inf, a denormal, 0, -1, 1e300 and
// DBL_MAX.
const std::vector<double>& book_hostile_doubles() {
  static const std::vector<double> values{std::numeric_limits<double>::quiet_NaN(),
                                          std::numeric_limits<double>::infinity(),
                                          -std::numeric_limits<double>::infinity(),
                                          std::numeric_limits<double>::denorm_min(),
                                          0.0,
                                          -1.0,
                                          1e300,
                                          std::numeric_limits<double>::max()};
  return values;
}

bool mentions(const std::exception& e, const std::string& field) {
  return std::string(e.what()).find(field) != std::string::npos;
}

class EventPresetHostile : public ::testing::TestWithParam<fault::EventProfile> {};

// window_s and intensity, each hostile and both at once: the preset throws an
// error that names a hostile one, or its book compiles onto the small fleet.
TEST_P(EventPresetHostile, NamedErrorOrCompiles) {
  const orbit::TimePoint epoch = orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z");
  const orbit::TimeGrid grid = orbit::TimeGrid::over_duration(epoch, 86400.0, 600.0);
  constellation::WalkerShell shell;
  shell.plane_count = 4;
  shell.sats_per_plane = 5;
  std::vector<constellation::Satellite> satellites = shell.build(epoch);
  for (std::size_t i = 0; i < satellites.size(); ++i) {
    satellites[i].owner_party = static_cast<std::uint32_t>(i % 2);
  }
  // The first station sits at the preset blackout's center.
  std::vector<net::GroundStation> stations(3);
  const double station_sites[3][2] = {{40.7, -74.0}, {51.5, 0.0}, {-33.9, 151.2}};
  for (std::uint32_t i = 0; i < 3; ++i) {
    stations[i].id = i;
    stations[i].owner_party = i % 2;
    stations[i].location =
        orbit::Geodetic::from_degrees(station_sites[i][0], station_sites[i][1]);
  }

  constexpr double kWindow = 86400.0;
  constexpr double kIntensity = 1.0;
  std::vector<double> windows = book_hostile_doubles();
  windows.push_back(kWindow);
  std::vector<double> intensities = book_hostile_doubles();
  intensities.push_back(kIntensity);
  for (const double window : windows) {
    for (const double intensity : intensities) {
      SCOPED_TRACE("window_s=" + std::to_string(window) +
                   " intensity=" + std::to_string(intensity));
      fault::EventBook book;
      try {
        book = fault::EventBook::preset(GetParam(), window, 7, intensity);
      } catch (const std::invalid_argument& e) {
        EXPECT_TRUE((window != kWindow && mentions(e, "window_s")) ||
                    (intensity != kIntensity && mentions(e, "intensity")))
            << e.what();
        continue;
      }
      fault::FaultTimeline timeline;
      EXPECT_NO_THROW(timeline = book.compile(grid, satellites, stations));
      EXPECT_EQ(timeline.grid().count, grid.count);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Profiles, EventPresetHostile,
                         ::testing::Values(fault::EventProfile::kOff, fault::EventProfile::kStorm,
                                           fault::EventProfile::kBlackout,
                                           fault::EventProfile::kWithdrawal,
                                           fault::EventProfile::kDebris,
                                           fault::EventProfile::kMixed),
                         [](const ::testing::TestParamInfo<fault::EventProfile>& param) {
                           return std::string(fault::to_string(param.param));
                         });

// One hostile field at a time, over party counts up to 2^20: sample throws an
// error that names the field, or returns a book whose Byzantine set fits the
// parties and whose policies stay in their documented domains.
TEST(BehaviorSampleHostile, NamedErrorOrDocumentedDomain) {
  const std::vector<adversary::Behavior> mix{
      adversary::Behavior::kForgeReceipts,    adversary::Behavior::kInflateReceipts,
      adversary::Behavior::kWithholdCapacity, adversary::Behavior::kMisreportSla,
      adversary::Behavior::kCollude,          adversary::Behavior::kJamming,
      adversary::Behavior::kSpectrumSquatting};
  constexpr double kFraction = 0.5;
  constexpr double kIntensity = 1.0;
  constexpr std::size_t kReceipts = 4;
  struct Case {
    double fraction;
    double intensity;
    std::size_t receipts;
    const char* field;  // the hostile one
  };
  std::vector<Case> cases;
  for (const double v : book_hostile_doubles()) {
    cases.push_back({v, kIntensity, kReceipts, "byzantine_fraction"});
    cases.push_back({kFraction, v, kReceipts, "intensity"});
  }
  for (const std::size_t receipts :
       {std::size_t{0}, std::size_t{1} << 32, std::numeric_limits<std::size_t>::max()}) {
    cases.push_back({kFraction, kIntensity, receipts, "receipts_per_epoch"});
  }

  for (const std::size_t parties : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                    std::size_t{1} << 20}) {
    for (const Case& c : cases) {
      SCOPED_TRACE(std::to_string(parties) + " parties, " + c.field + ": fraction=" +
                   std::to_string(c.fraction) + " intensity=" + std::to_string(c.intensity) +
                   " receipts=" + std::to_string(c.receipts));
      adversary::BehaviorBook book;
      try {
        book = adversary::BehaviorBook::sample(parties, c.fraction, mix, c.intensity, c.receipts,
                                               11);
      } catch (const std::invalid_argument& e) {
        EXPECT_TRUE(mentions(e, c.field)) << e.what();
        continue;
      }
      EXPECT_TRUE(book.party_count() == 0 || book.party_count() == parties);
      EXPECT_LE(book.byzantine_count(), parties);
      bool in_domain = true;
      for (std::size_t p = 0; p < book.party_count(); ++p) {
        const adversary::PartyPolicy& policy = book.policy(static_cast<core::PartyId>(p));
        in_domain &= std::isfinite(policy.intensity) && policy.intensity >= 0.0 &&
                     in_closed(policy.withheld_fraction(), 0.0, 1.0) &&
                     std::isfinite(policy.sla_inflation());
      }
      EXPECT_TRUE(in_domain);
    }
  }
}

}  // namespace
}  // namespace mpleo
