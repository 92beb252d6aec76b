// Per-step bent-pipe link scheduling.
//
// A terminal is servable at a step iff some satellite is simultaneously
// visible to the terminal AND to a ground station of the terminal's party
// (transparent bent-pipe needs both legs up at once — no ISLs, §3.1).
// Satellites have a finite beam count; beams are granted owner-first, and
// whatever remains is *spare capacity* offered to other parties — the core
// sharing mechanism of MP-LEO. The aggregate accounting this produces (who
// carried whose traffic for how long) is what core/ledger bills from.
//
// run() executes a two-phase pipeline:
//   Phase 1 (parallel over step chunks): propagate every satellite once
//   through the shared ephemeris kernel, and build one read-only table of
//   every healthy visible downlink leg of the run, indexed by (step,
//   satellite), from the coverage engine's conservative zenith-cone cull of
//   each (satellite, station) pair; then stream each step's satellite
//   footprints through a spatial index over the terminals and re-test the
//   survivors exactly. Every visible (terminal, satellite) pair with a
//   healthy same-party station in view becomes a candidate carrying that
//   station and the end-to-end relay capacity. Each downlink leg is computed
//   once per (satellite, station, step) and each uplink leg once per visible
//   pair, instead of once per triple, and no per-(satellite, terminal) state
//   is stored, so phase-1 memory does not grow with satellites x terminals.
//   Phase 2 (sequential, cheap): sweep steps in order consuming the
//   candidate lists for beam allocation, spare-priority ordering,
//   failure-forced detach, and re-acquisition backoff bookkeeping.
// Uncapped (max_candidates_per_terminal == 0), the result is bit-identical
// to run_reference — the retained scalar per-triple scan — on both the
// faulted and unfaulted paths.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "constellation/shell.hpp"
#include "core/validation.hpp"
#include "net/bent_pipe.hpp"
#include "net/degradation.hpp"
#include "net/ground_station.hpp"
#include "net/terminal.hpp"
#include "orbit/ephemeris.hpp"
#include "orbit/time.hpp"
#include "rf/interference.hpp"

namespace mpleo::fault {
class FaultTimeline;
}
namespace mpleo::sim {
class RunContext;
}

namespace mpleo::net {

struct SchedulerConfig {
  double elevation_mask_deg = 25.0;
  int beams_per_satellite = 8;
  RelayMode relay_mode = RelayMode::kTransparent;
  TransponderConfig transponder = default_transponder();
  // Optional per-party priority weights (e.g. core::ReputationTracker
  // priority_weight) applied to SPARE-capacity contention only: terminals of
  // higher-weight parties are offered leftover beams first. Own-satellite
  // service is unaffected — a party can never be locked out of its own
  // satellites. Empty = FIFO by terminal index (all equal). Weights must be
  // finite and non-negative, and a non-empty vector must cover every party
  // index used by the terminals and owned satellites (validated at
  // construction).
  std::vector<double> spare_priority_by_party;
  // Spare-capacity governance, both empty by default (bit-identical to the
  // ungoverned scheduler):
  //  * spare_exclude_party[p] != 0 bars party p from the spare commons in
  //    BOTH directions — its terminals take no spare capacity and its
  //    satellites offer none (the quarantine sanction). Own-satellite
  //    service is untouched: graceful degradation, never a blackout.
  //    Parties beyond the vector are not excluded.
  //  * spare_withheld_fraction[p] reserves ceil(beams * fraction) beams of
  //    every party-p satellite for p's own traffic — a withholding
  //    adversary hoarding capacity it nominally contributes. Entries must
  //    be finite fractions in [0, 1] (validated at construction); parties
  //    beyond the vector withhold nothing.
  std::vector<std::uint8_t> spare_exclude_party;
  std::vector<double> spare_withheld_fraction;
  // Co-channel interference environment (non-owning; must outlive the
  // scheduler's runs). Null by default — and with a null or interferer-free
  // environment every run is bit-identical to the pre-RF scheduler. When
  // armed with active jammers/squatters, link SELECTION is unchanged (beam
  // grants run on nominal capacities), but each granted link's capacity is
  // degraded post-grant by the aggregate interference-to-noise at the victim
  // terminal, and the accounting lands in ScheduleResult::rf.
  const rf::InterferenceEnvironment* rf = nullptr;
  // Orbit propagation backend for the shared ephemeris fill. run() and
  // run_reference() both propagate through it, so the pipeline/reference
  // bit-identity contract holds for either backend. sim::build_workload
  // copies scenario.propagator (sim::parse_scenario's --propagator= flag)
  // here.
  orbit::PropagatorBackend propagator_backend = orbit::PropagatorBackend::kJ2Analytic;
  // Largest steps per phase-1 chunk, at least 1. A run takes
  // min(stream_chunk_steps, bit_floor(max(1, steps / (4 x lanes)))) steps
  // per chunk, so it splits into at least four chunks per pool lane and the
  // sequential phase 2 starts early. Smaller chunks shrink the streaming
  // pipeline's in-flight memory (the mega preset runs 2). Chunk size never
  // changes the result — candidates are a per-step pure function of
  // geometry.
  std::size_t stream_chunk_steps = 64;
  // Per-terminal candidate cap, applied per step at phase-1 emission on
  // every run: keep the top-K own-satellite and top-K spare candidates by
  // capacity (ties to the lower satellite index). 0 = unbounded (exact,
  // bit-identical to run_reference). A positive cap bounds candidate memory
  // at mega scale — deterministic for any pool size and chunk size,
  // but approximate under beam contention (a terminal whose top-K
  // satellites are all beam-exhausted goes unserved even if satellite K+1
  // had a beam). Max 64.
  std::size_t max_candidates_per_terminal = 0;
  // Graceful-degradation policy (net/degradation.hpp): priority-tiered load
  // shedding under capacity collapse, sticky spare grants (hysteresis), and
  // bounded exponential re-acquisition backoff, plus SLO observation. A
  // default-constructed (disabled) policy is bit-identical to the pre-policy
  // scheduler on every run path; slo_window_steps > 0 only adds
  // ScheduleResult::slo, never changes links.
  DegradationPolicy degradation;

  // Collects every invalid field as a unified core::ConfigIssue (component
  // "net.scheduler"); empty means the config is usable. The scheduler
  // constructor throws std::invalid_argument joining these; checks that need
  // the fleet (owner coverage of the spare-priority vector) stay in the
  // constructor.
  [[nodiscard]] std::vector<core::ConfigIssue> validate() const;
};

// One granted link at one step.
struct LinkAssignment {
  std::size_t terminal_index = 0;
  std::size_t satellite_index = 0;
  std::size_t station_index = 0;
  double capacity_bps = 0.0;
  // True when the satellite's owner differs from the terminal's owner, i.e.
  // the link rides spare capacity.
  bool spare = false;

  friend bool operator==(const LinkAssignment&, const LinkAssignment&) = default;
};

struct StepSchedule {
  std::size_t step = 0;
  std::vector<LinkAssignment> links;
  std::vector<std::size_t> unserved_terminals;

  friend bool operator==(const StepSchedule&, const StepSchedule&) = default;
};

// Aggregates over a whole grid run, per party.
struct PartyUsage {
  double own_link_seconds = 0.0;     // party terminals on party satellites
  double spare_used_seconds = 0.0;   // party terminals on others' satellites
  double spare_provided_seconds = 0.0;  // party satellites serving others
  double bytes_carried_for_others = 0.0;
  double bytes_received_from_others = 0.0;
  double unserved_terminal_seconds = 0.0;

  friend bool operator==(const PartyUsage&, const PartyUsage&) = default;
};

struct ScheduleResult {
  std::vector<StepSchedule> steps;        // optionally retained (see config)
  std::vector<PartyUsage> per_party;      // indexed by party id
  double total_served_seconds = 0.0;
  double total_unserved_seconds = 0.0;
  // Fault accounting (zero on the no-fault path): links dropped because the
  // serving satellite or station failed, and terminal-seconds spent waiting
  // out the re-acquisition backoff after such a drop.
  std::size_t failure_forced_detaches = 0;
  double reacquisition_wait_seconds = 0.0;
  // RF accounting, engaged only when the config carries an interference
  // environment with at least one active jammer/squatter (so RF-clean runs
  // compare equal to pre-RF results).
  std::optional<rf::RfLinkStats> rf;
  // SLO accounting, engaged only when config.degradation.slo_window_steps
  // > 0 (so SLO-silent runs compare equal to pre-SLO results). Identical
  // between run() and run_reference() like everything else here.
  std::optional<SloStats> slo;

  friend bool operator==(const ScheduleResult&, const ScheduleResult&) = default;
};

class BentPipeScheduler {
 public:
  BentPipeScheduler(SchedulerConfig config, std::vector<constellation::Satellite> satellites,
                    std::vector<Terminal> terminals, std::vector<GroundStation> stations);

  // Schedules one step given precomputed satellite ECEF positions (one entry
  // per satellite, same order as construction). Faulted satellites and
  // stations are skipped, degraded satellites offer fewer beams, and
  // terminals flagged in `blocked_terminals` (byte per terminal;
  // re-acquisition backoff or policy shedding) go straight to unserved.
  // `sticky_prev_satellite` (one entry per terminal, 0xFFFFFFFF = none) with
  // a positive `sticky_margin` makes the spare pass keep a terminal's
  // previous satellite unless a competitor beats it by more than the margin
  // (spare-reallocation hysteresis). Null/empty faults, no blocked flags and
  // no sticky state schedule the healthy step.
  [[nodiscard]] StepSchedule schedule_step(
      std::span<const util::Vec3> satellite_ecef, std::size_t step,
      const fault::FaultTimeline* faults = nullptr,
      std::span<const std::uint8_t> blocked_terminals = {},
      std::span<const std::uint32_t> sticky_prev_satellite = {},
      double sticky_margin = 0.0) const;

  // Runs the whole grid through the two-phase pipeline and aggregates
  // per-party usage. `party_count` sizes the aggregate vector;
  // terminals/satellites with owner >= party_count are rejected. Set
  // keep_steps to retain the per-step link lists. The context supplies:
  //  * the pool: phase 1 runs on it — the ephemerides and the downlink leg
  //    table parallel over satellites, candidate lists over step chunks; the
  //    result is bit-identical for any pool size, including none;
  //  * the fault timeline (null or empty = healthy): it gates per-step asset
  //    health through its availability queries, so steps past the
  //    timeline's own grid are healthy, and a terminal whose serving
  //    satellite or station fails is detached; it waits out the degradation
  //    policy's re-acquisition backoff, when enabled, before it may
  //    re-attach;
  //  * the metrics registry: phase timings (propagate / cull, which builds
  //    the leg table / chunk fill / chunk drain), phase-1 pair counts per
  //    stage, candidate-list occupancy, beam-allocation rejections and
  //    fault-forced detaches land in context.metrics() under "sched.".
  [[nodiscard]] ScheduleResult run(const orbit::TimeGrid& grid, std::size_t party_count,
                                   sim::RunContext& context, bool keep_steps = false) const;

  // The scalar reference: the original per-step, per-triple scan (via
  // schedule_step), kept as the correctness oracle the pipeline is validated
  // against. Satellite positions come from the same shared ephemeris tables
  // as run(), so the two are bit-identical down to link ordering — faulted
  // and unfaulted — whenever run() is uncapped. Serial and slow; prefer
  // run().
  [[nodiscard]] ScheduleResult run_reference(const orbit::TimeGrid& grid,
                                             std::size_t party_count,
                                             const fault::FaultTimeline* faults = nullptr,
                                             bool keep_steps = false) const;

  [[nodiscard]] const std::vector<constellation::Satellite>& satellites() const noexcept {
    return satellites_;
  }
  [[nodiscard]] const std::vector<Terminal>& terminals() const noexcept { return terminals_; }
  [[nodiscard]] const std::vector<GroundStation>& stations() const noexcept {
    return stations_;
  }

 private:
  void validate_owners(std::size_t party_count) const;

  SchedulerConfig config_;
  std::vector<constellation::Satellite> satellites_;
  std::vector<Terminal> terminals_;
  std::vector<GroundStation> stations_;
  std::vector<orbit::TopocentricFrame> terminal_frames_;
  std::vector<orbit::TopocentricFrame> station_frames_;
  // Spare-pass service order: by configured party priority (descending),
  // stable by terminal index. Step-invariant, so built once at construction.
  // Own-pass order stays index order.
  std::vector<std::size_t> spare_order_;
  // Per-satellite beams reserved from the spare pass (withholding); all-zero
  // when spare_withheld_fraction is empty, keeping the spare beam check
  // exactly the historical `beams_left > 0`.
  std::vector<int> spare_reserved_;
  double sin_mask_ = 0.0;
};

}  // namespace mpleo::net
