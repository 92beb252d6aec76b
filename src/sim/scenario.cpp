#include "sim/scenario.hpp"

#include <charconv>
#include <cstdlib>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <system_error>

namespace mpleo::sim {
namespace {

bool consume_prefix(std::string_view& arg, std::string_view prefix) {
  if (arg.substr(0, prefix.size()) != prefix) return false;
  arg.remove_prefix(prefix.size());
  return true;
}

double to_double(std::string_view value, const char* flag) {
  char* end = nullptr;
  const std::string buffer(value);
  const double parsed = std::strtod(buffer.c_str(), &end);
  if (end == buffer.c_str() || *end != '\0') {
    throw std::invalid_argument(std::string("invalid numeric value for ") + flag);
  }
  return parsed;
}

// Counts and seeds parse into the field's own unsigned type: a sign, a
// fraction, an exponent or an out-of-range value is rejected, never cast.
template <typename T>
T to_integer(std::string_view value, const char* flag) {
  T parsed{};
  const char* const last = value.data() + value.size();
  const auto [end, error] = std::from_chars(value.data(), last, parsed);
  if (error != std::errc{} || end != last) {
    throw std::invalid_argument("invalid value for " + std::string(flag) + "=: '" +
                                std::string(value) +
                                "' (valid: a non-negative integer)\nvalid flags:\n" +
                                flag_help());
  }
  return parsed;
}

orbit::PropagatorBackend parse_backend(std::string_view value) {
  try {
    return orbit::propagator_backend_from_string(value);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("invalid value for --propagator=: " +
                                std::string(e.what()) + "\nvalid flags:\n" + flag_help());
  }
}

AdversaryMode parse_adversary_mode(std::string_view value) {
  if (value == "off") return AdversaryMode::kOff;
  if (value == "forge") return AdversaryMode::kForge;
  if (value == "inflate") return AdversaryMode::kInflate;
  if (value == "withhold") return AdversaryMode::kWithhold;
  if (value == "misreport") return AdversaryMode::kMisreport;
  if (value == "collude") return AdversaryMode::kCollude;
  if (value == "mixed") return AdversaryMode::kMixed;
  if (value == "jamming") return AdversaryMode::kJamming;
  if (value == "spectrum_squat") return AdversaryMode::kSpectrumSquat;
  throw std::invalid_argument(
      "invalid value for --adversary=: '" + std::string(value) +
      "' (valid: off, forge, inflate, withhold, misreport, collude, mixed, jamming, "
      "spectrum_squat)\nvalid flags:\n" +
      flag_help());
}

fault::EventProfile parse_events(std::string_view value) {
  if (const std::optional<fault::EventProfile> profile =
          fault::event_profile_from_string(value)) {
    return *profile;
  }
  throw std::invalid_argument(
      "invalid value for --events=: '" + std::string(value) +
      "' (valid: off, storm, blackout, withdrawal, debris, mixed)\nvalid flags:\n" +
      flag_help());
}

orbit::TimePoint parse_epoch(std::string_view value) {
  try {
    return orbit::TimePoint::from_iso8601(std::string(value));
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("invalid value for --epoch=: '" + std::string(value) +
                                "' (" + e.what() + ")\nvalid flags:\n" + flag_help());
  }
}

ScalePreset parse_scale(std::string_view value) {
  if (value == "reference") return ScalePreset::kReference;
  if (value == "mega") return ScalePreset::kMega;
  if (value == "mega-smoke") return ScalePreset::kMegaSmoke;
  throw std::invalid_argument("invalid value for --scale=: '" + std::string(value) +
                              "' (valid: reference, mega, mega-smoke)\nvalid flags:\n" +
                              flag_help());
}

// The single source of truth for the flag set: the parser dispatches on it
// and unknown-flag errors / flag_help() render it, so the two can never
// drift apart.
struct FlagSpec {
  std::string_view name;  // including the trailing '=' for valued flags
  std::string_view help;
  void (*apply)(Scenario&, std::string_view value);
};

constexpr FlagSpec kFlags[] = {
    {"--runs=", "Monte-Carlo runs (default 20; the paper uses 100)",
     [](Scenario& s, std::string_view v) {
       s.runs = to_integer<std::size_t>(v, "--runs");
     }},
    {"--step=", "time step in seconds (default 60)",
     [](Scenario& s, std::string_view v) { s.step_s = to_double(v, "--step"); }},
    {"--mask=", "elevation mask in degrees (default 25)",
     [](Scenario& s, std::string_view v) {
       s.elevation_mask_deg = to_double(v, "--mask");
     }},
    {"--seed=", "RNG seed (default 42)",
     [](Scenario& s, std::string_view v) {
       s.seed = to_integer<std::uint64_t>(v, "--seed");
     }},
    {"--days=", "evaluation window in days (default 7)",
     [](Scenario& s, std::string_view v) {
       s.duration_s = to_double(v, "--days") * 86400.0;
     }},
    {"--epoch=", "ISO-8601 scenario epoch (default 2024-11-18T00:00:00Z)",
     [](Scenario& s, std::string_view v) { s.epoch = parse_epoch(v); }},
    {"--threads=", "RunContext pool threads: 1 = serial, 0 = all hardware (default 1)",
     [](Scenario& s, std::string_view v) {
       s.threads = to_integer<std::size_t>(v, "--threads");
     }},
    {"--full", "paper fidelity: 100 runs",
     [](Scenario& s, std::string_view) { s.apply_full_fidelity(); }},
    {"--quick", "smoke settings: 5 runs, 2 days, 120 s step",
     [](Scenario& s, std::string_view) {
       s.runs = 5;
       s.duration_s = 2.0 * 86400.0;
       s.step_s = 120.0;
     }},
    {"--no-gen2", "drop the Starlink Gen2 shells from the catalog",
     [](Scenario& s, std::string_view) { s.include_gen2_catalog = false; }},
    {"--propagator=",
     "orbit propagation backend: j2_analytic|sgp4 (default j2_analytic)",
     [](Scenario& s, std::string_view v) { s.propagator = parse_backend(v); }},
    {"--adversary=",
     "Byzantine behavior mode: off|forge|inflate|withhold|misreport|collude|mixed|"
     "jamming|spectrum_squat (default off)",
     [](Scenario& s, std::string_view v) { s.adversary_mode = parse_adversary_mode(v); }},
    {"--adversary-intensity=", "Byzantine behavior strength, >= 0 (default 1)",
     [](Scenario& s, std::string_view v) {
       s.adversary_intensity = to_double(v, "--adversary-intensity");
     }},
    {"--scale=",
     "workload scale preset: reference|mega|mega-smoke (default reference; mega pins "
     "the 30k-sat x 1M-terminal 1-day workload)",
     [](Scenario& s, std::string_view v) { s.apply_scale(parse_scale(v)); }},
    {"--events=",
     "correlated-failure event profile: off|storm|blackout|withdrawal|debris|mixed "
     "(default off)",
     [](Scenario& s, std::string_view v) { s.events = parse_events(v); }},
    {"--event-seed=", "seed for the correlated-failure event book (default 2042)",
     [](Scenario& s, std::string_view v) {
       s.event_seed = to_integer<std::uint64_t>(v, "--event-seed");
     }},
    {"--event-intensity=", "correlated-failure event strength, >= 0 (default 1)",
     [](Scenario& s, std::string_view v) {
       s.event_intensity = to_double(v, "--event-intensity");
     }},
};

}  // namespace

std::string flag_help() {
  std::ostringstream os;
  for (const FlagSpec& flag : std::span(kFlags)) {
    os << "  " << flag.name << (flag.name.back() == '=' ? "N" : " ") << "  " << flag.help
       << '\n';
  }
  return os.str();
}

std::vector<core::ConfigIssue> Scenario::validate() const {
  std::vector<core::ConfigIssue> issues;
  const auto add = [&issues](const char* field, std::string message) {
    issues.push_back({"sim.scenario", field, std::move(message)});
  };
  if (runs == 0 || runs > kMaxRuns) {
    add("runs", "must be in [1, " + std::to_string(kMaxRuns) + "], got " + std::to_string(runs));
  }
  if (threads > kMaxThreads) {
    add("threads", "must be <= " + std::to_string(kMaxThreads) + ", got " +
                       std::to_string(threads));
  }
  if (!(step_s > 0.0) || step_s > 1e300) {
    add("step_s", "must be finite and > 0, got " + std::to_string(step_s));
  }
  if (!(duration_s > 0.0) || duration_s > 1e300) {
    add("duration_s", "must be finite and > 0, got " + std::to_string(duration_s));
  } else if (step_s > 0.0 && step_s <= 1e300 &&
             !(duration_s / step_s < static_cast<double>(orbit::TimeGrid::kMaxSteps))) {
    // The bound TimeGrid::over_duration enforces, reported before any grid
    // is built.
    std::ostringstream message;
    message << "duration_s / step_s = " << duration_s << " / " << step_s
            << " exceeds the grid maximum of " << orbit::TimeGrid::kMaxSteps << " steps";
    add("step_s", message.str());
  }
  if (!(elevation_mask_deg >= 0.0) || !(elevation_mask_deg < 90.0)) {
    add("elevation_mask_deg",
        "must be in [0, 90), got " + std::to_string(elevation_mask_deg));
  }
  if (!(adversary_intensity >= 0.0) || adversary_intensity > 1e300) {
    add("adversary_intensity",
        "must be finite and >= 0, got " + std::to_string(adversary_intensity));
  }
  if (scale != ScalePreset::kReference) {
    if (terminal_count == 0) add("terminal_count", "must be > 0 under a mega scale preset");
    if (station_count == 0) add("station_count", "must be > 0 under a mega scale preset");
  }
  if (!(event_intensity >= 0.0) || event_intensity > 1e300) {
    add("event_intensity",
        "must be finite and >= 0, got " + std::to_string(event_intensity));
  }
  return issues;
}

Scenario parse_scenario(int argc, const char* const* argv, Scenario defaults) {
  Scenario scenario = std::move(defaults);
  for (int i = 1; i < argc; ++i) {
    const std::string_view raw(argv[i]);
    bool matched = false;
    for (const FlagSpec& flag : std::span(kFlags)) {
      if (flag.name.back() == '=') {
        std::string_view value = raw;
        if (!consume_prefix(value, flag.name)) continue;
        flag.apply(scenario, value);
      } else {
        if (raw != flag.name) continue;
        flag.apply(scenario, {});
      }
      matched = true;
      break;
    }
    if (!matched) {
      throw std::invalid_argument("unknown flag: " + std::string(raw) + "\nvalid flags:\n" +
                                  flag_help());
    }
  }
  core::throw_if_invalid("sim::Scenario", scenario.validate());
  return scenario;
}

const char* to_string(ScalePreset preset) noexcept {
  switch (preset) {
    case ScalePreset::kReference: return "reference";
    case ScalePreset::kMegaSmoke: return "mega-smoke";
    case ScalePreset::kMega: return "mega";
  }
  return "unknown";
}

const char* to_string(AdversaryMode mode) noexcept {
  switch (mode) {
    case AdversaryMode::kOff: return "off";
    case AdversaryMode::kForge: return "forge";
    case AdversaryMode::kInflate: return "inflate";
    case AdversaryMode::kWithhold: return "withhold";
    case AdversaryMode::kMisreport: return "misreport";
    case AdversaryMode::kCollude: return "collude";
    case AdversaryMode::kMixed: return "mixed";
    case AdversaryMode::kJamming: return "jamming";
    case AdversaryMode::kSpectrumSquat: return "spectrum_squat";
  }
  return "unknown";
}

std::string describe(const Scenario& scenario) {
  std::ostringstream os;
  os << "epoch=" << scenario.epoch.to_iso8601() << " window=" << scenario.duration_s / 86400.0
     << "d step=" << scenario.step_s << "s mask=" << scenario.elevation_mask_deg
     << "deg runs=" << scenario.runs << " seed=" << scenario.seed;
  if (scenario.threads != 1) {
    os << " threads=";
    if (scenario.threads == 0) {
      os << "hw";
    } else {
      os << scenario.threads;
    }
  }
  if (scenario.propagator != orbit::PropagatorBackend::kJ2Analytic) {
    os << " propagator=" << orbit::to_string(scenario.propagator);
  }
  if (scenario.adversary_mode != AdversaryMode::kOff) {
    os << " adversary=" << to_string(scenario.adversary_mode)
       << " intensity=" << scenario.adversary_intensity;
  }
  if (scenario.events != fault::EventProfile::kOff) {
    os << " events=" << fault::to_string(scenario.events)
       << " event-seed=" << scenario.event_seed
       << " event-intensity=" << scenario.event_intensity;
  }
  if (scenario.scale != ScalePreset::kReference) {
    os << " scale=" << to_string(scenario.scale) << " terminals=" << scenario.terminal_count
       << " stations=" << scenario.station_count;
  }
  return os.str();
}

}  // namespace mpleo::sim
