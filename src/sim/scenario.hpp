// Experiment scenario configuration shared by every bench: the evaluation
// window, time step, elevation mask, Monte-Carlo run count and seed — plus a
// tiny --key=value command-line parser so all bench binaries speak the same
// flags (--runs, --step, --mask, --seed, --days, --full).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/validation.hpp"
#include "fault/event_book.hpp"
#include "orbit/backend.hpp"
#include "orbit/time.hpp"

namespace mpleo::sim {

// Which Byzantine behavior mix an adversary-aware bench arms (see
// adversary::BehaviorBook). kOff is the exact adversary-free code path.
enum class AdversaryMode : std::uint8_t {
  kOff,
  kForge,      // forged proof-of-coverage receipts
  kInflate,    // duplicate resubmission of credited receipts
  kWithhold,   // capacity withheld from the spare commons
  kMisreport,  // inflated SLA claims at settlement
  kCollude,    // coalition receipt forgery
  kMixed,      // round-robin over all of the above
  // RF misbehavior (not part of kMixed — these degrade the physical layer
  // instead of forging claims, so they get their own sweep axis):
  kJamming,       // boosted wideband interference across the shared band
  kSpectrumSquat, // transmission outside the assigned channel at nominal power
};

[[nodiscard]] const char* to_string(AdversaryMode mode) noexcept;

// Workload scale presets (--scale=). kReference leaves the driving bench in
// charge of workload sizes (the historical behavior). The mega presets pin
// the mega-constellation scale-out workload: the synthetic Gen2-scale
// Starlink catalog served population-gridded terminals over one day at 60 s
// steps, with the scheduler's streaming preset of 2-step chunks and a top-4
// candidate cap (see sim::build_workload).
enum class ScalePreset : std::uint8_t {
  kReference,  // bench-defined workload sizes
  kMegaSmoke,  // 3k satellites x 50k terminals — CI-sized mega path
  kMega,       // 29,520 satellites x 1M terminals — the acceptance run
};

[[nodiscard]] const char* to_string(ScalePreset preset) noexcept;

struct Scenario {
  orbit::TimePoint epoch = orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z");
  double duration_s = 7.0 * 86400.0;  // the paper's one-week window
  double step_s = 60.0;
  double elevation_mask_deg = 25.0;
  // Monte-Carlo runs, at most kMaxRuns (10,000 times the paper's 100).
  static constexpr std::size_t kMaxRuns = 1'000'000;
  std::size_t runs = 20;     // paper uses 100; see --full
  std::uint64_t seed = 42;
  bool include_gen2_catalog = true;
  // Worker threads for the RunContext pool: 1 (default) = serial, 0 = all
  // hardware threads, N = N threads, at most kMaxThreads. Results are
  // bit-identical for any value; only wall-clock time changes.
  static constexpr std::size_t kMaxThreads = 1024;
  std::size_t threads = 1;
  // Byzantine-party knobs (adversary-aware benches only; kOff leaves every
  // consumer bit-identical to the adversary-free path). Intensity scales
  // behavior strength and must be >= 0.
  AdversaryMode adversary_mode = AdversaryMode::kOff;
  double adversary_intensity = 1.0;
  // Orbit propagation backend for every ephemeris consumer reached through
  // RunContext (coverage, scheduler, proof-of-coverage). The default is the
  // fast analytic model; sgp4 trades throughput for TLE-grade fidelity.
  orbit::PropagatorBackend propagator = orbit::PropagatorBackend::kJ2Analytic;
  // Workload scale (see ScalePreset). apply_scale() pins the mega presets'
  // window, step and workload sizes; terminal/station counts are consumed by
  // sim::build_workload and ignored under kReference (where benches size
  // their own workloads, terminal_count 0 = "bench decides").
  ScalePreset scale = ScalePreset::kReference;
  std::size_t terminal_count = 0;
  std::size_t station_count = 0;
  // Correlated-failure events (fault::EventBook presets). kOff leaves every
  // consumer bit-identical to the event-free path; any other profile seeds
  // the preset book scaled by `event_intensity` (>= 0, 1 = nominal) from
  // `event_seed` (the chaos sweep replays it; see core::ChaosSweepConfig).
  fault::EventProfile events = fault::EventProfile::kOff;
  std::uint64_t event_seed = 2042;
  double event_intensity = 1.0;

  [[nodiscard]] orbit::TimeGrid grid() const {
    return orbit::TimeGrid::over_duration(epoch, duration_s, step_s);
  }

  // The paper's full fidelity (100 runs); benches default lighter so the
  // whole suite runs in minutes.
  void apply_full_fidelity() noexcept { runs = 100; }

  // Applies a scale preset: the mega presets pin the 1-day / 60 s window and
  // the workload sizes sim::build_workload consumes; kReference restores
  // bench-defined sizing (without touching window or step).
  void apply_scale(ScalePreset preset) noexcept {
    scale = preset;
    if (preset == ScalePreset::kReference) {
      terminal_count = 0;
      station_count = 0;
      return;
    }
    duration_s = 86400.0;
    step_s = 60.0;
    terminal_count = preset == ScalePreset::kMega ? 1'000'000 : 50'000;
    station_count = 128;
  }

  // Collects every invalid field as a unified core::ConfigIssue (component
  // "sim.scenario"); empty means runnable. parse_scenario and
  // sim::build_workload throw std::invalid_argument joining these.
  [[nodiscard]] std::vector<core::ConfigIssue> validate() const;
};

// Parses flags of the form --runs=100 --step=30 --mask=25 --seed=7 --days=7
// --threads=4 --scale=mega --full (100 runs) --quick (5 runs, 2 days, 120 s)
// onto `defaults`, in command-line order, then validates the result. Programs
// set their own defaults as fields, e.g.
//
//   sim::parse_scenario(argc, argv, sim::Scenario{.duration_s = 86400.0, .step_s = 30.0});
//
// Throws std::invalid_argument on an unknown flag, a malformed value (counts
// and seeds must be non-negative decimal integers) or an invalid scenario
// (the joined core::ConfigIssue report).
[[nodiscard]] Scenario parse_scenario(int argc, const char* const* argv,
                                      Scenario defaults = {});

// One "--flag  description" line per supported flag — the text unknown-flag
// errors carry, reusable by drivers printing usage.
[[nodiscard]] std::string flag_help();

// Renders the scenario as a one-line header benches print above tables.
[[nodiscard]] std::string describe(const Scenario& scenario);

}  // namespace mpleo::sim
