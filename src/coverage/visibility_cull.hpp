// The conservative zenith-cone visibility cull, factored out of
// CoverageEngine so any pair-visibility consumer (the coverage fill, the
// pipelined bent-pipe scheduler, latency/Doppler sampling) can pack
// (satellite, site) visibility into StepMasks without owning an engine.
//
// The cull tests each step against the table's FootprintCone over the site
// (footprint_index.hpp), the one derivation of the conservative zenith cone,
// and walks circular orbits only through the argument-of-latitude arcs of
// that cone's latitude band. It only skips work: every surviving step still
// runs the exact visible_above test, so the filled mask is bit-identical to
// the exhaustive per-step scan over the same ephemeris table.
#pragma once

#include <cstdint>
#include <span>

#include "coverage/footprint_index.hpp"
#include "coverage/step_mask.hpp"
#include "obs/metrics.hpp"
#include "orbit/ephemeris.hpp"
#include "orbit/geodesy.hpp"
#include "orbit/time.hpp"

namespace mpleo::cov {

// Observability hooks for the word-span fill. The handles are null-safe, so
// a default-constructed CullCounters counts nothing.
struct CullCounters {
  obs::Counter masks_filled;   // one per completed fill
  obs::Counter visible_steps;  // set bits emitted across fills
};

class VisibilityCuller {
 public:
  // `grid` supplies the step cadence for the crossing prefilter. Masks
  // outside [0, 90) degrees disable the cone geometry (every step is tested
  // exactly), preserving whatever semantics the caller's sin(mask) has.
  VisibilityCuller(const orbit::TimeGrid& grid, double elevation_mask_deg);

  // sin of the elevation mask — the threshold fill() tests against.
  [[nodiscard]] double sin_mask() const noexcept { return sin_mask_; }

  // Sets in `out` (all-zero on entry) exactly the steps of `ephemeris` at
  // which the satellite clears the mask over `frame` — identical to testing
  // frame.visible_above(position, sin_mask()) at every step.
  void fill(const orbit::EphemerisTable& ephemeris, const orbit::TopocentricFrame& frame,
            StepMask& out) const;

  // Word-span fill: the same bits into a caller-owned word array (all-zero
  // on entry; low bit of words[0] = step 0 — the StepMask layout), plus
  // counter updates. The scheduler's downlink leg table fills one
  // satellite's station masks into reused scratch this way. Safe to call
  // concurrently from pool workers — counters accumulate into per-thread
  // shards.
  void fill(const orbit::EphemerisTable& ephemeris, const orbit::TopocentricFrame& frame,
            std::span<std::uint64_t> words, const CullCounters& counters) const;

 private:
  // The one cull body behind both overloads; Sink is called with each step
  // index at which the satellite clears the mask, in no particular order.
  template <class Sink>
  void fill_impl(const orbit::EphemerisTable& ephemeris,
                 const orbit::TopocentricFrame& frame, Sink&& set_bit) const;

  double step_seconds_ = 0.0;
  double sin_mask_ = 0.0;
  // The per-mask trigonometry, computed once: the cone's mask half and the
  // latitude band's widening.
  FootprintCone::Mask cone_mask_;
  FootprintCone::Widening band_widening_;
};

}  // namespace mpleo::cov
