#include "sim/scenario.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace mpleo::sim {
namespace {

Scenario parse(std::initializer_list<const char*> args, Scenario defaults = {}) {
  std::vector<const char*> argv{"bench"};
  argv.insert(argv.end(), args.begin(), args.end());
  return parse_scenario(static_cast<int>(argv.size()), argv.data(), std::move(defaults));
}

TEST(Scenario, DefaultsMatchPaperSetup) {
  const Scenario s;
  EXPECT_DOUBLE_EQ(s.duration_s, 7.0 * 86400.0);
  EXPECT_DOUBLE_EQ(s.step_s, 60.0);
  EXPECT_DOUBLE_EQ(s.elevation_mask_deg, 25.0);
  EXPECT_EQ(s.epoch.to_civil().year, 2024);
  EXPECT_EQ(s.epoch.to_civil().month, 11);
  EXPECT_EQ(s.epoch.to_civil().day, 18);
}

TEST(Scenario, GridSpansWindow) {
  Scenario s;
  s.duration_s = 3600.0;
  s.step_s = 60.0;
  const orbit::TimeGrid grid = s.grid();
  EXPECT_EQ(grid.count, 61u);
}

TEST(Scenario, ParsesFlags) {
  const Scenario s = parse({"--runs=50", "--step=30", "--mask=15", "--seed=99", "--days=2"});
  EXPECT_EQ(s.runs, 50u);
  EXPECT_DOUBLE_EQ(s.step_s, 30.0);
  EXPECT_DOUBLE_EQ(s.elevation_mask_deg, 15.0);
  EXPECT_EQ(s.seed, 99u);
  EXPECT_DOUBLE_EQ(s.duration_s, 2.0 * 86400.0);
}

TEST(Scenario, FullRestoresPaperRuns) {
  EXPECT_EQ(parse({"--full"}).runs, 100u);
}

TEST(Scenario, QuickReducesEverything) {
  const Scenario s = parse({"--quick"});
  EXPECT_EQ(s.runs, 5u);
  EXPECT_DOUBLE_EQ(s.duration_s, 2.0 * 86400.0);
  EXPECT_DOUBLE_EQ(s.step_s, 120.0);
}

TEST(Scenario, NoGen2Flag) {
  EXPECT_TRUE(parse({}).include_gen2_catalog);
  EXPECT_FALSE(parse({"--no-gen2"}).include_gen2_catalog);
}

TEST(Scenario, EpochFlag) {
  const Scenario s = parse({"--epoch=2025-01-01T00:00:00Z"});
  EXPECT_EQ(s.epoch.to_civil().year, 2025);
}

TEST(Scenario, RejectsUnknownAndInvalid) {
  EXPECT_THROW(parse({"--bogus"}), std::invalid_argument);
  EXPECT_THROW(parse({"--runs=abc"}), std::invalid_argument);
  EXPECT_THROW(parse({"--runs=0"}), std::invalid_argument);
  EXPECT_THROW(parse({"--step=-5"}), std::invalid_argument);
  EXPECT_THROW(parse({"--days=0"}), std::invalid_argument);
}

TEST(Scenario, IntegerFlagsRejectNonIntegers) {
  // Counts and seeds parse as integers of the field's type: a sign, a
  // fraction, NaN, an exponent or a value past the type's range is an error
  // naming the flag, never a cast that wraps or truncates.
  for (const std::string flag :
       {"--runs", "--seed", "--threads", "--event-seed"}) {
    for (const std::string value :
         {"-1", "-3", "0.5", "2.5", "nan", "1e3", "+4", "", "18446744073709551616"}) {
      const std::string arg = flag + "=" + value;
      try {
        (void)parse({arg.c_str()});
        ADD_FAILURE() << arg << " was accepted";
      } catch (const std::invalid_argument& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("invalid value for " + flag + "=: '" + value + "'"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find(flag_help()), std::string::npos) << msg;
      }
    }
  }
}

TEST(Scenario, IntegerFlagsParseTheirFullRangeExactly) {
  // Values a double cannot hold survive: 2^53 + 1 and the largest seed.
  EXPECT_EQ(parse({"--seed=18446744073709551615"}).seed, 18446744073709551615u);
  EXPECT_EQ(parse({"--seed=9007199254740993"}).seed, 9007199254740993u);
  EXPECT_EQ(parse({"--event-seed=9007199254740993"}).event_seed, 9007199254740993u);
  EXPECT_EQ(parse({"--event-seed=0"}).event_seed, 0u);
  EXPECT_EQ(parse({"--runs=007"}).runs, 7u);
  EXPECT_EQ(parse({"--threads=3"}).threads, 3u);
}

TEST(Scenario, AdversaryFlags) {
  EXPECT_EQ(Scenario{}.adversary_mode, AdversaryMode::kOff);  // default: bit-identical
  const Scenario s = parse({"--adversary=mixed", "--adversary-intensity=2"});
  EXPECT_EQ(s.adversary_mode, AdversaryMode::kMixed);
  EXPECT_DOUBLE_EQ(s.adversary_intensity, 2.0);

  EXPECT_EQ(parse({"--adversary=off"}).adversary_mode, AdversaryMode::kOff);
  EXPECT_EQ(parse({"--adversary=forge"}).adversary_mode, AdversaryMode::kForge);
  EXPECT_EQ(parse({"--adversary=inflate"}).adversary_mode, AdversaryMode::kInflate);
  EXPECT_EQ(parse({"--adversary=withhold"}).adversary_mode, AdversaryMode::kWithhold);
  EXPECT_EQ(parse({"--adversary=misreport"}).adversary_mode, AdversaryMode::kMisreport);
  EXPECT_EQ(parse({"--adversary=collude"}).adversary_mode, AdversaryMode::kCollude);
  EXPECT_EQ(parse({"--adversary=jamming"}).adversary_mode, AdversaryMode::kJamming);
  EXPECT_EQ(parse({"--adversary=spectrum_squat"}).adversary_mode,
            AdversaryMode::kSpectrumSquat);
}

TEST(Scenario, FlagsNoProgramReadsAreUnknown) {
  // No program reads an adversary fraction or seed, an RF switch or a
  // Doppler-audit switch from the scenario, so those flags are not accepted.
  for (const char* arg :
       {"--adversary-fraction=0.5", "--adversary-seed=7", "--rf=on", "--audit-doppler=on"}) {
    try {
      parse({arg});
      ADD_FAILURE() << arg << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_EQ(msg.rfind(std::string("unknown flag: ") + arg, 0), 0u) << msg;
    }
  }
  const std::string help = flag_help();
  for (const char* flag : {"--adversary-fraction=", "--adversary-seed=", "--rf=",
                           "--audit-doppler="}) {
    EXPECT_EQ(help.find(flag), std::string::npos) << flag;
  }
}

TEST(Scenario, AdversaryFlagsValidated) {
  EXPECT_THROW(parse({"--adversary=sabotage"}), std::invalid_argument);
  EXPECT_THROW(parse({"--adversary-intensity=-1"}), std::invalid_argument);

  // An unknown mode's error names the valid values and the full flag table.
  try {
    parse({"--adversary=sabotage"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'sabotage'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("misreport"), std::string::npos) << msg;
    EXPECT_NE(msg.find(flag_help()), std::string::npos) << msg;
  }
}

TEST(Scenario, DescribeMentionsAdversaryOnlyWhenArmed) {
  EXPECT_EQ(describe(Scenario{}).find("adversary="), std::string::npos);
  const std::string armed = describe(parse({"--adversary=forge"}));
  EXPECT_NE(armed.find("adversary=forge"), std::string::npos) << armed;
}

TEST(Scenario, ThreadsFlag) {
  EXPECT_EQ(Scenario{}.threads, 1u);  // default: serial, no pool
  EXPECT_EQ(parse({"--threads=4"}).threads, 4u);
  EXPECT_EQ(parse({"--threads=0"}).threads, 0u);  // hardware concurrency
  EXPECT_THROW(parse({"--threads=abc"}), std::invalid_argument);
}

TEST(Scenario, UnknownFlagErrorListsEveryValidFlag) {
  try {
    parse({"--bogus"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown flag: --bogus"), std::string::npos) << msg;
    // The message must render the same table flag_help() does, so the flag
    // list in errors can never drift from the parser's flag set.
    EXPECT_NE(msg.find(flag_help()), std::string::npos) << msg;
    for (const char* flag : {"--runs=", "--step=", "--mask=", "--seed=", "--days=",
                             "--epoch=", "--threads=", "--full", "--quick", "--no-gen2"}) {
      EXPECT_NE(msg.find(flag), std::string::npos) << "missing " << flag;
    }
  }
}

TEST(Scenario, DescribeMentionsThreadsOnlyWhenNotSerial) {
  Scenario s;
  EXPECT_EQ(describe(s).find("threads"), std::string::npos);
  s.threads = 0;
  EXPECT_NE(describe(s).find("threads=hw"), std::string::npos);
  s.threads = 6;
  EXPECT_NE(describe(s).find("threads=6"), std::string::npos);
}

TEST(Scenario, PropagatorFlag) {
  EXPECT_EQ(Scenario{}.propagator, orbit::PropagatorBackend::kJ2Analytic);
  EXPECT_EQ(parse({"--propagator=sgp4"}).propagator, orbit::PropagatorBackend::kSgp4);
  EXPECT_EQ(parse({"--propagator=j2"}).propagator,
            orbit::PropagatorBackend::kJ2Analytic);
  EXPECT_THROW(parse({"--propagator=sgp8"}), std::invalid_argument);
}

TEST(Scenario, DescribeMentionsPropagatorOnlyWhenNotDefault) {
  EXPECT_EQ(describe(Scenario{}).find("propagator"), std::string::npos);
  const std::string desc = describe(parse({"--propagator=sgp4"}));
  EXPECT_NE(desc.find("propagator=sgp4"), std::string::npos);
}

TEST(Scenario, ScalePresetPinsMegaWindowAndSizes) {
  Scenario smoke;
  smoke.apply_scale(ScalePreset::kMegaSmoke);
  EXPECT_EQ(smoke.scale, ScalePreset::kMegaSmoke);
  EXPECT_DOUBLE_EQ(smoke.duration_s, 86400.0);
  EXPECT_DOUBLE_EQ(smoke.step_s, 60.0);
  EXPECT_EQ(smoke.terminal_count, 50'000u);
  EXPECT_EQ(smoke.station_count, 128u);
  EXPECT_TRUE(smoke.validate().empty());

  Scenario mega;
  mega.apply_scale(ScalePreset::kMega);
  EXPECT_EQ(mega.terminal_count, 1'000'000u);

  // Back to reference wipes the workload sizes but keeps the window.
  smoke.apply_scale(ScalePreset::kReference);
  EXPECT_EQ(smoke.terminal_count, 0u);
  EXPECT_EQ(smoke.station_count, 0u);
  EXPECT_DOUBLE_EQ(smoke.duration_s, 86400.0);
}

TEST(Scenario, ScaleFlagParsesAllPresetsInCommandLineOrder) {
  EXPECT_EQ(parse({"--scale=reference"}).scale, ScalePreset::kReference);
  EXPECT_EQ(parse({"--scale=mega-smoke"}).scale, ScalePreset::kMegaSmoke);
  EXPECT_EQ(parse({"--scale=mega"}).scale, ScalePreset::kMega);
  EXPECT_THROW((void)parse({"--scale=giga"}), std::invalid_argument);

  // Flags apply in order: window flags after --scale override the preset's
  // window, and a preset after them pins it again.
  const Scenario overridden = parse({"--scale=mega-smoke", "--days=2", "--step=30"});
  EXPECT_DOUBLE_EQ(overridden.duration_s, 2.0 * 86400.0);
  EXPECT_DOUBLE_EQ(overridden.step_s, 30.0);
  EXPECT_EQ(overridden.terminal_count, 50'000u);
  const Scenario pinned = parse({"--days=2", "--step=30", "--scale=mega-smoke"});
  EXPECT_DOUBLE_EQ(pinned.duration_s, 86400.0);
  EXPECT_DOUBLE_EQ(pinned.step_s, 60.0);
}

TEST(Scenario, DescribeMentionsScaleOnlyWhenNotReference) {
  EXPECT_EQ(describe(Scenario{}).find("scale="), std::string::npos);
  const std::string mega = describe(parse({"--scale=mega-smoke"}));
  EXPECT_NE(mega.find("scale=mega-smoke"), std::string::npos) << mega;
  EXPECT_NE(mega.find("terminals=50000"), std::string::npos) << mega;
}

TEST(Scenario, InvalidFieldsAreReportedTogether) {
  const Scenario broken{.step_s = 0.0, .runs = 0};
  const std::vector<core::ConfigIssue> issues = broken.validate();
  EXPECT_EQ(issues.size(), 2u);
  EXPECT_TRUE(core::has_errors(issues));
  // parse_scenario validates its result, defaults included, and joins every
  // issue into one error.
  try {
    (void)parse({}, broken);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("step_s"), std::string::npos) << msg;
    EXPECT_NE(msg.find("runs"), std::string::npos) << msg;
  }
}

TEST(Scenario, StepCountAboveTheGridMaximumIsOneIssue) {
  // A one-day window at 1e-300 s would be ~10^305 steps; before the bound it
  // was cast to size_t unchecked and ran as a 1-step grid.
  const Scenario tiny_step{.duration_s = 86400.0, .step_s = 1e-300};
  const std::vector<core::ConfigIssue> issues = tiny_step.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].field, "step_s");
  EXPECT_NE(issues[0].message.find("duration_s"), std::string::npos) << issues[0].message;
  try {
    (void)parse({"--quick", "--step=1e-300"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("step_s"), std::string::npos) << msg;
    EXPECT_NE(msg.find("duration_s"), std::string::npos) << msg;
  }
  // Representable but huge: 7 days at 1 us is 6 x 10^11 steps.
  EXPECT_EQ((Scenario{.step_s = 1e-6}).validate().size(), 1u);
  // The largest grid over_duration builds passes.
  const auto max_steps = static_cast<double>(orbit::TimeGrid::kMaxSteps);
  EXPECT_TRUE((Scenario{.duration_s = max_steps - 1.0, .step_s = 1.0}).validate().empty());
  EXPECT_EQ((Scenario{.duration_s = max_steps, .step_s = 1.0}).validate().size(), 1u);
}

TEST(Scenario, RunsAboveTheMaximumAreOneIssue) {
  // --runs=9007199254740993 used to validate: runs was bounded only below.
  EXPECT_TRUE((Scenario{.runs = Scenario::kMaxRuns}).validate().empty());
  const std::vector<core::ConfigIssue> issues =
      (Scenario{.runs = Scenario::kMaxRuns + 1}).validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].field, "runs");
  try {
    (void)parse({"--runs=9007199254740993"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("runs"), std::string::npos) << e.what();
  }
}

TEST(Scenario, ParsedValuesAreValidated) {
  // A flag value that parses but is out of range fails Scenario::validate,
  // and the error names the field.
  EXPECT_THROW((void)parse({"--step=0"}), std::invalid_argument);
  EXPECT_THROW((void)parse({"--mask=95"}), std::invalid_argument);
  try {
    (void)parse({"--step=-5"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("step_s"), std::string::npos);
  }
}

TEST(Scenario, FlagsApplyOntoTheDefaults) {
  const Scenario base{.seed = 1234, .threads = 8};
  const Scenario parsed = parse({"--runs=3"}, base);
  EXPECT_EQ(parsed.seed, 1234u);
  EXPECT_EQ(parsed.threads, 8u);
  EXPECT_EQ(parsed.runs, 3u);
  EXPECT_DOUBLE_EQ(parsed.duration_s, base.duration_s);
}

TEST(Scenario, DescribeMentionsKeyParameters) {
  const std::string desc = describe(Scenario{});
  EXPECT_NE(desc.find("2024-11-18"), std::string::npos);
  EXPECT_NE(desc.find("mask=25"), std::string::npos);
  EXPECT_NE(desc.find("runs=20"), std::string::npos);
}

}  // namespace
}  // namespace mpleo::sim
