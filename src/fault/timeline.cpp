#include "fault/timeline.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace mpleo::fault {
namespace {

// Exponential draw with mean `mean_s`; never exactly zero so alternating
// up/down edges stay strictly ordered.
double draw_exponential(util::Xoshiro256PlusPlus& rng, double mean_s) {
  const double u = rng.uniform();  // in [0, 1)
  return -mean_s * std::log1p(-u);
}

}  // namespace

FaultTimeline::FaultTimeline(const orbit::TimeGrid& grid, std::size_t satellite_count,
                             std::size_t station_count)
    : grid_(grid), satellite_out_(satellite_count), station_out_(station_count) {
  if (grid.count == 0) {
    throw std::invalid_argument("FaultTimeline: empty time grid");
  }
  if (!(grid.step_seconds > 0.0)) {
    throw std::invalid_argument("FaultTimeline: grid step must be positive");
  }
}

std::vector<core::ConfigIssue> FaultTimeline::validate_window(double start_offset_s,
                                                              double end_offset_s) {
  std::vector<core::ConfigIssue> issues;
  if (!(start_offset_s >= 0.0) || !std::isfinite(start_offset_s)) {
    issues.push_back({"fault.timeline", "start_offset_s",
                      "must be finite and >= 0, got " + std::to_string(start_offset_s)});
  }
  if (!(end_offset_s > start_offset_s)) {
    issues.push_back({"fault.timeline", "end_offset_s",
                      "must be > start (" + std::to_string(start_offset_s) + "), got " +
                          std::to_string(end_offset_s) + " — inverted or empty window"});
  }
  return issues;
}

void FaultTimeline::add_outage(AssetKind kind, std::size_t index,
                               double start_offset_s, double end_offset_s) {
  auto& masks = kind == AssetKind::kSatellite ? satellite_out_ : station_out_;
  if (index >= masks.size()) {
    throw std::invalid_argument("FaultTimeline: asset index out of range");
  }
  core::throw_if_invalid("fault::FaultTimeline outage",
                         validate_window(start_offset_s, end_offset_s));
  cov::StepMask& mask = masks[index];
  if (mask.step_count() == 0) mask = cov::StepMask(grid_.count);

  // Step k samples the instant k * step; it is out when that instant falls
  // inside [start, end). Both ends are clamped into [0, count] before the
  // conversion: a window may start or end far past the grid (even at +inf).
  const double step = grid_.step_seconds;
  const auto count = static_cast<double>(grid_.count);
  const auto k_begin =
      static_cast<std::size_t>(std::clamp(std::ceil(start_offset_s / step), 0.0, count));
  const auto k_end =
      static_cast<std::size_t>(std::clamp(std::ceil(end_offset_s / step), 0.0, count));
  for (std::size_t k = k_begin; k < k_end; ++k) mask.set(k);

  records_.push_back({kind, index, start_offset_s, end_offset_s});
}

void FaultTimeline::add_satellite_outage(std::size_t satellite, double start_offset_s,
                                         double end_offset_s) {
  add_outage(AssetKind::kSatellite, satellite, start_offset_s, end_offset_s);
}

void FaultTimeline::add_station_outage(std::size_t station, double start_offset_s,
                                       double end_offset_s) {
  add_outage(AssetKind::kGroundStation, station, start_offset_s, end_offset_s);
}

void FaultTimeline::add_transponder_degradation(std::size_t satellite,
                                                double start_offset_s,
                                                double end_offset_s,
                                                double capacity_factor) {
  if (satellite >= satellite_out_.size()) {
    throw std::invalid_argument("FaultTimeline: satellite index out of range");
  }
  std::vector<core::ConfigIssue> issues = validate_window(start_offset_s, end_offset_s);
  if (!(capacity_factor > 0.0) || capacity_factor > 1.0) {
    issues.push_back({"fault.timeline", "capacity_factor",
                      "must be in (0, 1] (use an outage for 0), got " +
                          std::to_string(capacity_factor)});
  }
  core::throw_if_invalid("fault::FaultTimeline degradation", issues);
  if (degradations_by_satellite_.empty()) {
    degradations_by_satellite_.resize(satellite_out_.size());
  }
  degradations_by_satellite_[satellite].push_back(degradations_.size());
  degradations_.push_back({satellite, start_offset_s, end_offset_s, capacity_factor});
}

FaultTimeline FaultTimeline::stochastic(const orbit::TimeGrid& grid,
                                        std::size_t satellite_count,
                                        std::size_t station_count,
                                        const MtbfMttr& satellite_model,
                                        const MtbfMttr& station_model,
                                        std::uint64_t seed) {
  if (satellite_model.mtbf_seconds < 0.0 || satellite_model.mttr_seconds < 0.0 ||
      station_model.mtbf_seconds < 0.0 || station_model.mttr_seconds < 0.0) {
    throw std::invalid_argument("FaultTimeline: MTBF/MTTR must be non-negative");
  }
  FaultTimeline timeline(grid, satellite_count, station_count);
  const double window = grid.duration_seconds();
  const util::Xoshiro256PlusPlus base(seed);

  // Stream layout: satellite i -> child 2i, station i -> child 2i + 1, so
  // an asset's history never shifts when the other class grows.
  const auto fill = [&](AssetKind kind, std::size_t count, const MtbfMttr& model) {
    if (model.mtbf_seconds <= 0.0) return;
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t child =
          2 * static_cast<std::uint64_t>(i) + (kind == AssetKind::kSatellite ? 0 : 1);
      util::Xoshiro256PlusPlus stream = base.split(child);
      double t = 0.0;
      while (true) {
        t += draw_exponential(stream, model.mtbf_seconds);
        if (t >= window) break;
        const double down = draw_exponential(stream, model.mttr_seconds);
        const double end = std::min(t + down, window);
        if (end > t) timeline.add_outage(kind, i, t, end);
        t += down;
      }
    }
  };
  fill(AssetKind::kSatellite, satellite_count, satellite_model);
  fill(AssetKind::kGroundStation, station_count, station_model);
  return timeline;
}

bool FaultTimeline::satellite_available(std::size_t satellite,
                                        std::size_t step) const noexcept {
  const cov::StepMask* out = satellite_outage_steps(satellite);
  return out == nullptr || step >= out->step_count() || !out->test(step);
}

bool FaultTimeline::station_available(std::size_t station,
                                      std::size_t step) const noexcept {
  const cov::StepMask* out = station_outage_steps(station);
  return out == nullptr || step >= out->step_count() || !out->test(step);
}

double FaultTimeline::satellite_capacity_factor(std::size_t satellite,
                                                std::size_t step) const noexcept {
  if (!satellite_available(satellite, step)) return 0.0;
  double factor = 1.0;
  if (satellite >= degradations_by_satellite_.size()) return factor;
  const double t = grid_.step_seconds * static_cast<double>(step);
  for (const std::size_t i : degradations_by_satellite_[satellite]) {
    const Degradation& d = degradations_[i];
    if (t >= d.start_offset_s && t < d.end_offset_s) factor *= d.capacity_factor;
  }
  return factor;
}

int FaultTimeline::degraded_beam_count(std::size_t satellite, std::size_t step,
                                       int nominal_beams) const noexcept {
  const double factor = satellite_capacity_factor(satellite, step);
  if (factor >= 1.0) return nominal_beams;  // full health: exactly nominal
  if (factor <= 0.0) return 0;
  // factor is in (0, 1) here (every recorded degradation is in (0, 1]), so
  // the floor lies in [0, nominal_beams].
  const int beams = static_cast<int>(
      std::floor(static_cast<double>(nominal_beams) * factor + 1e-9));
  return std::clamp(beams, 0, nominal_beams);
}

const cov::StepMask* FaultTimeline::satellite_outage_steps(
    std::size_t satellite) const noexcept {
  if (satellite >= satellite_out_.size()) return nullptr;
  const cov::StepMask& mask = satellite_out_[satellite];
  return mask.step_count() == 0 ? nullptr : &mask;
}

const cov::StepMask* FaultTimeline::station_outage_steps(
    std::size_t station) const noexcept {
  if (station >= station_out_.size()) return nullptr;
  const cov::StepMask& mask = station_out_[station];
  return mask.step_count() == 0 ? nullptr : &mask;
}

void FaultTimeline::normalize() {
  if (records_.empty()) return;
  const double window = grid_.duration_seconds();
  // Clip to the grid window first; records entirely outside it vanish.
  std::vector<OutageRecord> clipped;
  clipped.reserve(records_.size());
  for (const OutageRecord& r : records_) {
    const double start = std::max(0.0, r.start_offset_s);
    const double end = std::min(window, r.end_offset_s);
    if (end > start) clipped.push_back({r.kind, r.asset_index, start, end});
  }
  std::sort(clipped.begin(), clipped.end(),
            [](const OutageRecord& a, const OutageRecord& b) {
              if (a.kind != b.kind) return a.kind < b.kind;
              if (a.asset_index != b.asset_index) return a.asset_index < b.asset_index;
              if (a.start_offset_s != b.start_offset_s) {
                return a.start_offset_s < b.start_offset_s;
              }
              return a.end_offset_s < b.end_offset_s;
            });
  // Merge overlapping or touching records of the same asset.
  std::vector<OutageRecord> merged;
  merged.reserve(clipped.size());
  for (const OutageRecord& r : clipped) {
    if (!merged.empty()) {
      OutageRecord& last = merged.back();
      if (last.kind == r.kind && last.asset_index == r.asset_index &&
          r.start_offset_s <= last.end_offset_s) {
        last.end_offset_s = std::max(last.end_offset_s, r.end_offset_s);
        continue;
      }
    }
    merged.push_back(r);
  }
  records_ = std::move(merged);
}

std::vector<FaultEvent> FaultTimeline::events() const {
  const double window = grid_.duration_seconds();
  std::vector<FaultEvent> out;
  out.reserve(2 * records_.size());
  for (const OutageRecord& record : records_) {
    if (record.start_offset_s >= window) continue;
    out.push_back({record.start_offset_s, record.kind, record.asset_index, true});
    out.push_back(
        {std::min(record.end_offset_s, window), record.kind, record.asset_index, false});
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.time_s < b.time_s;
                   });
  return out;
}

std::vector<double> FaultTimeline::outage_seconds_by_party(
    std::span<const std::uint32_t> satellite_owner,
    std::span<const std::uint32_t> station_owner, std::size_t party_count) const {
  std::vector<double> totals(party_count, 0.0);
  const double window = grid_.duration_seconds();
  for (const OutageRecord& record : records_) {
    const auto owners =
        record.kind == AssetKind::kSatellite ? satellite_owner : station_owner;
    if (record.asset_index >= owners.size()) continue;
    const std::uint32_t party = owners[record.asset_index];
    if (party >= party_count) continue;  // kUnowned and out-of-range skip
    const double start = std::max(0.0, record.start_offset_s);
    const double end = std::min(window, record.end_offset_s);
    if (end > start) totals[party] += end - start;
  }
  return totals;
}

}  // namespace mpleo::fault
