// The unified structured-validation surface: every config struct's
// validate() returns std::vector<core::ConfigIssue>, and format/throw behave
// identically for every component.
#include "core/validation.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "net/scheduler.hpp"
#include "sim/scenario.hpp"

namespace mpleo {
namespace {

TEST(ConfigIssue, OneReportAcrossComponents) {
  // Issues from any layer land in one damage report.
  std::vector<core::ConfigIssue> report;
  report.push_back({"rf", "chip_rate_hz", "must be positive"});
  report.push_back({"orbit.tle", "line1", "checksum mismatch"});
  report.push_back({"sim.scenario", "step_s", "must be > 0"});
  EXPECT_TRUE(core::has_errors(report));
  EXPECT_EQ(report[0].component, "rf");
  EXPECT_EQ(report[1].component, "orbit.tle");
}

TEST(ConfigIssue, SeverityDefaultsToError) {
  const core::ConfigIssue issue{"net.scheduler", "beams", "bad"};
  EXPECT_EQ(issue.severity, core::IssueSeverity::kError);
}

TEST(ConfigIssue, WarningsAloneAreNotErrors) {
  std::vector<core::ConfigIssue> issues;
  issues.push_back(
      {"sim.scenario", "runs", "large run count", core::IssueSeverity::kWarning});
  EXPECT_FALSE(core::has_errors(issues));
  EXPECT_NO_THROW(core::throw_if_invalid("ctx", issues));
  issues.push_back({"sim.scenario", "step_s", "must be > 0"});
  EXPECT_TRUE(core::has_errors(issues));
  EXPECT_THROW(core::throw_if_invalid("ctx", issues), std::invalid_argument);
}

TEST(ConfigIssue, FormatJoinsEveryIssue) {
  EXPECT_EQ(core::format_issues("DopplerModel", {}), "");
  std::vector<core::ConfigIssue> issues;
  issues.push_back({"rf", "carrier_hz", "must be finite and positive"});
  issues.push_back({"rf", "chip_rate_hz", "must be positive"});
  const std::string msg = core::format_issues("DopplerModel", issues);
  EXPECT_NE(msg.find("DopplerModel: 2 invalid field(s)"), std::string::npos);
  EXPECT_NE(msg.find("  carrier_hz: must be finite and positive"), std::string::npos);
  EXPECT_NE(msg.find("  chip_rate_hz: must be positive"), std::string::npos);
}

TEST(ConfigIssue, ThrowCarriesFormattedMessage) {
  std::vector<core::ConfigIssue> issues;
  issues.push_back({"net.scheduler", "beams_per_satellite", "must be >= 1"});
  try {
    core::throw_if_invalid("BentPipeScheduler", issues);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("beams_per_satellite"), std::string::npos);
  }
}

TEST(SchedulerConfigValidate, ReportsEveryBadField) {
  net::SchedulerConfig config;
  EXPECT_TRUE(config.validate().empty());

  config.beams_per_satellite = 0;
  config.stream_chunk_steps = 0;
  config.spare_withheld_fraction = {1.5};
  const std::vector<core::ConfigIssue> issues = config.validate();
  EXPECT_EQ(issues.size(), 3u);
  for (const core::ConfigIssue& issue : issues) {
    EXPECT_EQ(issue.component, "net.scheduler");
  }
  EXPECT_THROW(
      net::BentPipeScheduler(config, {}, {}, {}),
      std::invalid_argument);
}

TEST(ScenarioValidate, MegaPresetNeedsWorkloadSizes) {
  sim::Scenario scenario;
  EXPECT_TRUE(scenario.validate().empty());

  scenario.apply_scale(sim::ScalePreset::kMegaSmoke);
  EXPECT_TRUE(scenario.validate().empty());

  scenario.terminal_count = 0;  // preset sizes wiped out by hand
  const std::vector<core::ConfigIssue> issues = scenario.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].component, "sim.scenario");
  EXPECT_EQ(issues[0].field, "terminal_count");
}

TEST(ScenarioValidate, CollectsEveryBadField) {
  sim::Scenario scenario;
  scenario.runs = 0;
  scenario.step_s = 0.0;
  scenario.elevation_mask_deg = 95.0;
  scenario.adversary_intensity = -0.5;
  const std::vector<core::ConfigIssue> issues = scenario.validate();
  EXPECT_EQ(issues.size(), 4u);
  EXPECT_TRUE(core::has_errors(issues));
}

}  // namespace
}  // namespace mpleo
