#include "net/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>

#include "coverage/engine.hpp"
#include "coverage/footprint_index.hpp"
#include "coverage/visibility_cull.hpp"
#include "fault/timeline.hpp"
#include "obs/metrics.hpp"
#include "sim/run_context.hpp"
#include "util/stream_queue.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace mpleo::net {
namespace {

// Phase 1 ranks, and phase 2 compares, capacities by a key: the relay
// combine and log2 of the exact capacity, fed an uplink SNR of K / d²
// (HopEvaluator::inverse_square_snr_m2, d² from the exact elevation test)
// instead of the dB chain's sqrt, log10 and pow. Both are the free-space
// inverse-square law and differ only by rounding:
// - each dB term of the chain (EIRP, path loss, gains, losses, noise power)
//   carries an absolute error of a few ulps of its magnitude, under 1e-13 dB
//   for terms of a few hundred dB, which 10^(x/10) turns into ln(10)/10 of
//   that in relative SNR;
// - the transparent cascade and log2(1 + SNR) never amplify a relative SNR
//   error, except through 1 + SNR's own rounding, under 1.1e-13 relative for
//   SNR >= kKeySnrFloor.
// So a key is within 1e-12 of its exact capacity: the stated bound, which
// tests/property/capacity_key_property_test.cpp checks over random radios
// and ranges (its worst sample, 2.2e-13, sits near the floor). Two values
// further apart than kRelayWindow, relative to the larger, therefore order
// their exact capacities the same way and cannot hide a tie. Inside the
// window — two keys, a key and the sticky bar `held × (1 + margin)`, or a
// regenerative uplink key and a downlink capacity — both sides are
// recomputed exactly and compared exactly. A pair whose end-to-end key SNR
// is below kKeySnrFloor, where an exact capacity may also round to 0, takes
// the exact path outright. Exact capacities come from ExactEvaluator: phase
// 1 runs it for near-ties and weak pairs only, phase 2 once per grant, so
// every grant, tie-break, sticky decision, top-K set and granted capacity
// is the one run_reference computes.
//
// The window also spares the transparent combine a log2 per station: with
// uniform station bandwidths log2 is monotone, so stations rank by 1 + SNR
// and only the best one's log2 is taken.
constexpr double kRelayWindow = 1e-9;
constexpr double kKeySnrFloor = 1e-3;

// True when a key comparison cannot decide between two non-negative values:
// they sit within kRelayWindow of each other, relative to the larger.
bool within_window(double a, double b) noexcept {
  return std::abs(a - b) <= kRelayWindow * std::max(a, b);
}

// One precomputed service option, 16 bytes: for a (terminal, satellite) pair
// visible at a step, the best (highest end-to-end capacity, lowest index on
// ties) healthy same-party station and the pair's capacity key. The terminal
// is where the candidate sits: its StepCandidates offsets range, or its
// footprint slot's top-K block. Beam contention is NOT resolved here — that
// is phase 2's job — so candidates depend only on geometry and faults, never
// on scheduling state, and chunks can be built in parallel in any order.
struct Candidate {
  std::uint32_t satellite = 0;
  std::uint32_t station = 0;
  double key = 0.0;
};

// Candidates of one step, terminal-major with satellites ascending inside
// each terminal (the reference scan order), plus per-terminal offsets:
// terminal ti owns cands[offsets[ti] .. offsets[ti + 1]).
struct StepCandidates {
  std::vector<Candidate> cands;
  std::vector<std::uint32_t> offsets;

  // `reserve_hint` is the running high-water mark of per-step candidate
  // counts, so steady-state chunks emit into pre-sized vectors instead of
  // regrowing through the same doubling ladder every chunk.
  void reset(std::size_t terminal_count, std::size_t reserve_hint) {
    cands.clear();
    if (cands.capacity() < reserve_hint) cands.reserve(reserve_hint);
    offsets.assign(terminal_count + 1, 0);
  }
};

// Lock-free running maximum (no std::atomic::fetch_max in C++20).
void atomic_max(std::atomic<std::size_t>& target, std::size_t value) noexcept {
  std::size_t cur = target.load(std::memory_order_relaxed);
  while (cur < value &&
         !target.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

// A downlink leg toward one station, computed once per (satellite, station,
// step) instead of once per terminal. Only what the relay combine reads is
// kept, plus the station's owner for the same-party match: 1/SNR for the
// transparent cascade, and the hop's Shannon capacity, which stays zero in
// transparent mode, where the combine never looks at it. Legs are exact:
// the dB chain runs once per leg.
struct StationBudget {
  std::uint32_t station = 0;
  std::uint32_t party = 0;
  double inv_snr = 0.0;
  double shannon_bps = 0.0;
};

// Every healthy visible downlink leg of a run, built once by the cull and
// read-only afterwards, like the ephemeris tables: legs(step, si) holds the
// stations satellite si reaches at that step, healthy there, ascending (the
// reference tie-break order). Each satellite's legs sit step-major in one
// exactly sized vector, and offsets[si * (step_count + 1) + step] is where
// the step's legs begin in it.
struct DownlinkLegs {
  std::size_t step_count = 0;
  std::vector<std::vector<StationBudget>> by_satellite;
  std::vector<std::uint32_t> offsets;

  DownlinkLegs(std::size_t satellite_count, std::size_t steps)
      : step_count(steps),
        by_satellite(satellite_count),
        offsets(satellite_count * (steps + 1), 0) {}

  [[nodiscard]] std::span<const StationBudget> legs(std::size_t step, std::size_t si) const {
    const std::uint32_t* begin = offsets.data() + si * (step_count + 1) + step;
    return {by_satellite[si].data() + begin[0], by_satellite[si].data() + begin[1]};
  }
};

// One step of the run, by satellite: the downlink legs there and the
// satellite's position.
struct StepLegs {
  const orbit::EphemerisSet& ephemerides;
  const DownlinkLegs& table;
  std::size_t step = 0;

  [[nodiscard]] std::span<const StationBudget> legs(std::size_t si) const {
    return table.legs(step, si);
  }
  [[nodiscard]] util::Vec3 position(std::size_t si) const {
    return ephemerides.table(si).position_ecef(step);
  }
};

// The exact capacity of a (terminal, satellite, station) triple: each hop's
// HopEvaluator dB chain, the relay combine and the Shannon capacity in
// compute_relay's arithmetic, so the result is the double run_reference
// computes. The range-independent hop pieces are hoisted once per run into
// terminal- and station-indexed arrays that only this evaluator reads. Each
// downlink leg is evaluated once per run (DownlinkLegs), and both phases
// combine an uplink with that leg.
struct ExactEvaluator {
  std::span<const orbit::TopocentricFrame> terminal_frames;
  // uplinks[ti]: terminal ti -> transponder receive.
  std::span<const HopEvaluator> uplinks;
  std::span<const GroundStation> stations;
  std::span<const orbit::TopocentricFrame> station_frames;
  // downlinks[gi]: transponder transmit -> station gi.
  std::span<const HopEvaluator> downlinks;
  // Transparent mode: relay_bandwidth_hz[gi] is the bandwidth station gi's
  // end-to-end capacity is taken over.
  std::span<const double> relay_bandwidth_hz;
  bool regenerative = false;

  [[nodiscard]] double uplink_snr(std::uint32_t ti, const util::Vec3& pos) const {
    return uplinks[ti].snr_linear(terminal_frames[ti].range_m(pos));
  }

  // Station gi's downlink leg from satellite position `pos`. Only the
  // regenerative combine reads the hop's Shannon capacity.
  [[nodiscard]] StationBudget leg(std::uint32_t gi, const util::Vec3& pos) const {
    const double snr = downlinks[gi].snr_linear(station_frames[gi].range_m(pos));
    return {gi, stations[gi].owner_party, 1.0 / snr,
            regenerative ? downlinks[gi].shannon_bps(snr) : 0.0};
  }

  [[nodiscard]] double combine(std::uint32_t ti, double up_snr, const StationBudget& leg) const {
    if (regenerative) return std::min(uplinks[ti].shannon_bps(up_snr), leg.shannon_bps);
    return shannon_capacity_bps(transparent_snr_linear(1.0 / up_snr, leg.inv_snr),
                                relay_bandwidth_hz[leg.station]);
  }

  // Terminal ti through satellite si and station gi at one step, from the
  // satellite's position and legs there (phase 1 picked gi from those legs).
  [[nodiscard]] double capacity(std::uint32_t ti, const StepLegs& step, std::uint32_t si,
                                std::uint32_t gi) const {
    const std::span<const StationBudget> legs = step.legs(si);
    const auto leg = std::find_if(legs.begin(), legs.end(),
                                  [gi](const StationBudget& l) { return l.station == gi; });
    return combine(ti, uplink_snr(ti, step.position(si)), *leg);
  }
};

// A party's bit in phase 1's per-(step, satellite) party mask, the OR over
// that satellite's legs. Parties 64 apart share a bit, so the mask is a
// conservative gate: a set bit still needs the exact party match.
std::uint64_t party_bit(std::uint32_t party) noexcept {
  return std::uint64_t{1} << (party & 63);
}

// What the chunk fill reads of one terminal, stored in footprint-index slot
// order so a cap query's ranges stream through it sequentially: the exact
// elevation test's origin and up vectors, the uplink's inverse-square
// constant K (the key's uplink SNR is K / d²), the terminal and its party.
// One cache line per site.
struct alignas(64) IndexedSite {
  util::Vec3 origin;
  util::Vec3 up;
  double uplink_snr_m2 = 0.0;
  std::uint32_t terminal = 0;
  std::uint32_t party = 0;
};
static_assert(sizeof(IndexedSite) == 64);

// A shard's footprint cone as phase 1 tests it: the cap half-angle the index
// query takes, and the dot threshold over the shard's radius range.
struct ShardCone {
  double psi_rad = 0.0;
  double dot_threshold = 0.0;
};

// Read-only phase-1 inputs, shared across chunk workers. No per-(satellite,
// terminal) state exists: visibility is discovered per (satellite, step)
// through the spatial index and re-tested exactly.
struct StreamContext {
  std::span<const constellation::Satellite> satellites;
  std::size_t terminal_count = 0;
  const orbit::EphemerisSet& ephemerides;
  const cov::FootprintIndex* index = nullptr;
  // sites[j] is the terminal behind index slot j.
  std::span<const IndexedSite> sites;
  // Orbital-shell shards (contiguous, ascending) and one conservative
  // footprint cone per shard from the shard's radius extremes.
  std::span<const constellation::ShellShard> shards;
  std::span<const ShardCone> shard_cones;
  const DownlinkLegs& downlinks;
  const ExactEvaluator& exact;
  // Transparent mode: all stations share one relay bandwidth, so the end-to-
  // end SNR alone ranks them.
  bool uniform_relay_bandwidth = false;
  // Regenerative mode: the uplink's Shannon bandwidth (the transponder's
  // receive chain, the same for every terminal).
  double uplink_bandwidth_hz = 0.0;
  double sin_mask = 0.0;
  // max_candidates_per_terminal (0 = exact).
  std::size_t cap = 0;
  // slot_of[ti] is terminal ti's footprint-index slot (inverse of
  // FootprintIndex::site_ids), where the capped fill keeps its top-K.
  std::span<const std::uint32_t> slot_of;
  // Per-step candidate-count high-water mark, shared across chunk workers
  // for the reserve hint and reported as a gauge at the end of the run.
  std::atomic<std::size_t>* step_high_water = nullptr;
  // (satellite, terminal, step) visits skipped by the index — the pruning
  // counter surfaced as sched.index_pruned_pairs.
  std::atomic<std::uint64_t>* pruned_pairs = nullptr;
};

// Pairs counted at each phase-1 stage, in stage order: sites the footprint
// queries returned, cone-test survivors, party-mask survivors, pairs that
// pass the exact elevation test, and station capacities ranked; plus exact
// capacity evaluations (near-ties and weak pairs), and the seconds spent on
// the per-site loop and on candidate emission (scratch resets, counting sort
// or top-K merge).
struct Phase1Stats {
  std::uint64_t sites_returned = 0;
  std::uint64_t cone_survivors = 0;
  std::uint64_t party_gate_survivors = 0;
  std::uint64_t exact_visible_pairs = 0;
  std::uint64_t relay_evaluations = 0;
  std::uint64_t exact_capacity_evaluations = 0;
  double sites_seconds = 0.0;
  double emit_seconds = 0.0;
};

// Orders one terminal's candidates at one step by capacity: by key, and by
// exact capacity when the two keys sit inside the window. `evaluations`
// counts the exact capacities computed.
struct CapacityOrder {
  const ExactEvaluator& exact;
  const StepLegs& step;
  std::uint32_t terminal = 0;
  std::uint64_t& evaluations;

  [[nodiscard]] double exact_capacity(const Candidate& cand) const {
    ++evaluations;
    return exact.capacity(terminal, step, cand.satellite, cand.station);
  }

  [[nodiscard]] bool less(const Candidate& a, const Candidate& b) const {
    if (!within_window(a.key, b.key)) return a.key < b.key;
    return exact_capacity(a) < exact_capacity(b);
  }
};

// The best same-party station of one visible pair, by the reference's rule:
// highest end-to-end capacity, the lowest station index on ties (strict >),
// and none when no capacity is positive. `key` is the pair's capacity key,
// or its exact capacity when the exact path ran.
struct RelayChoice {
  double key = 0.0;
  std::uint32_t station = 0;
  bool found = false;
};

// Picks a visible pair's station from the satellite's downlink legs at that
// step, `range_squared` being the pair's d². Counts each station capacity
// ranked in `relay_evaluations` (one per pair in uniform-bandwidth
// transparent mode unless stations tie, every same-party station otherwise)
// and each exact uplink evaluation.
RelayChoice best_station(const StreamContext& ctx, std::span<const StationBudget> legs,
                         const IndexedSite& site, double range_squared, const util::Vec3& pos,
                         Phase1Stats& stats) {
  const ExactEvaluator& exact = ctx.exact;
  const std::uint32_t party = site.party;
  // The exact rule over the same-party legs `keep` admits: the uplink's dB
  // chain once, then each station's exact combine.
  const auto exact_choice = [&](const auto& keep) {
    ++stats.exact_capacity_evaluations;
    const double up_snr = exact.uplink_snr(site.terminal, pos);
    RelayChoice choice;
    for (const StationBudget& leg : legs) {
      if (leg.party != party || !keep(leg)) continue;
      const double capacity = exact.combine(site.terminal, up_snr, leg);
      if (capacity > choice.key) choice = {capacity, leg.station, true};
    }
    return choice;
  };

  if (exact.regenerative) {
    // capacity = min(uplink, downlink) with exact downlink capacities, so the
    // key only enters through the uplink: the choice is the same as the
    // exact one unless some downlink sits inside the window of it.
    const double up_snr = site.uplink_snr_m2 / range_squared;
    const double up_key = ctx.uplink_bandwidth_hz * std::log2(1.0 + up_snr);
    bool undecided = up_snr < kKeySnrFloor;
    RelayChoice choice;
    for (const StationBudget& leg : legs) {
      if (leg.party != party) continue;
      ++stats.relay_evaluations;
      undecided |= within_window(up_key, leg.shannon_bps);
      const double key = std::min(up_key, leg.shannon_bps);
      if (key > choice.key) choice = {key, leg.station, true};
    }
    if (!undecided) return choice;
    return exact_choice([](const StationBudget&) { return true; });
  }

  // Transparent: rank the stations by 1 + SNR when their bandwidths are
  // uniform (log2 is monotone), by capacity key otherwise, keeping the best
  // (the first on ties) and the largest value among the rest.
  const double inv_up = range_squared / site.uplink_snr_m2;
  const bool uniform = ctx.uniform_relay_bandwidth;
  const auto value = [&](const StationBudget& leg, double x) {
    return uniform ? x : exact.relay_bandwidth_hz[leg.station] * std::log2(x);
  };
  double best = 0.0, runner_up = 0.0, best_x = 0.0;
  std::uint32_t best_station = 0;
  bool any = false, weak = false;
  for (const StationBudget& leg : legs) {
    if (leg.party != party) continue;
    any = true;
    const double x = 1.0 + transparent_snr_linear(inv_up, leg.inv_snr);
    // A capacity key is trusted only at or above the SNR floor.
    if (!uniform) {
      ++stats.relay_evaluations;
      weak |= x < 1.0 + kKeySnrFloor;
    }
    const double v = value(leg, x);
    if (v > best) {
      runner_up = best;
      best = v;
      best_x = x;
      best_station = leg.station;
    } else if (v > runner_up) {
      runner_up = v;
    }
  }
  if (!any) return {};
  if (!within_window(runner_up, best) && !weak && best_x >= 1.0 + kKeySnrFloor) {
    if (!uniform) return {best, best_station, true};
    ++stats.relay_evaluations;
    return {exact.relay_bandwidth_hz[best_station] * std::log2(best_x), best_station, true};
  }
  // A station outside the window of the best can neither win nor tie, so
  // only those inside it are evaluated — every station when a capacity key
  // is below the floor.
  return exact_choice([&](const StationBudget& leg) {
    if (!weak &&
        !within_window(value(leg, 1.0 + transparent_snr_linear(inv_up, leg.inv_snr)), best)) {
      return false;
    }
    if (uniform) ++stats.relay_evaluations;
    return true;
  });
}

// Per-slot scratch of the chunk fill: everything here holds one step and is
// reused step after step.
struct StreamScratch {
  std::vector<cov::FootprintIndex::Range> ranges;
  // Exact mode: the step's emission in (satellite-ascending, site-bucket)
  // order and each entry's terminal, counting-sorted into terminal-major
  // afterwards.
  std::vector<Candidate> emitted;
  std::vector<std::uint32_t> emitted_terminals;
  std::vector<std::uint32_t> cursors;
  // Capped mode: per-index-slot blocks of 2*cap entries — own-satellite
  // top-K in the front half, spare top-K in the back half, each kept sorted
  // by capacity descending (stable: earlier = lower satellite index).
  // Indexed by footprint slot, so a query's contiguous slot ranges write
  // contiguous blocks.
  std::vector<Candidate> blocks;
  std::vector<std::uint8_t> own_count;
  std::vector<std::uint8_t> spare_count;
};

// Keeps region[0..n) the top-`cap` candidates by capacity (descending,
// stable so the earlier — lower-satellite — entry wins ties).
void top_k_insert(Candidate* region, std::uint8_t& n, std::size_t cap, const Candidate& cand,
                  const CapacityOrder& order) {
  if (n >= cap && !order.less(region[cap - 1], cand)) return;
  std::size_t pos = n < cap ? n : cap - 1;
  while (pos > 0 && order.less(region[pos - 1], cand)) {
    region[pos] = region[pos - 1];
    --pos;
  }
  region[pos] = cand;
  if (n < cap) ++n;
}

// Seconds from `mark` to now; moves `mark` to now.
double lap(std::chrono::steady_clock::time_point& mark) {
  const std::chrono::steady_clock::time_point now = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(now - mark).count();
  mark = now;
  return seconds;
}

// Builds the candidate lists of steps [chunk_begin, chunk_begin + count) into
// out[0..count); a pure function of the context — no scheduling state. Step
// by step, the footprint of every satellite with a downlink leg there is
// streamed (shards ascending, satellites ascending inside each shard) into
// one step of scratch, which is sorted into out[b] before the next step
// starts — so a slot's scratch is one step's, not the chunk's. The sort
// restores the reference scan's terminal-major / satellite-ascending
// candidate order, so with cap == 0 phase 2 sees exactly the (satellite,
// best station) columns of run_reference's joint scan: the index, cone and
// party mask only prune (a conservative superset of exact visibility with a
// same-party station), survivors run the same visible_above on the same
// table positions, and the key decides only what it provably decides the
// same way. Returns the chunk's per-stage pair counts and stage times.
Phase1Stats fill_stream_chunk(const StreamContext& ctx, std::size_t chunk_begin,
                              std::size_t count, std::span<StepCandidates> out,
                              StreamScratch& scratch) {
  const std::size_t term_count = ctx.terminal_count;
  const std::size_t cap = ctx.cap;
  Phase1Stats stats;
  std::chrono::steady_clock::time_point mark = std::chrono::steady_clock::now();

  if (cap == 0) {
    scratch.cursors.resize(term_count);
  } else {
    scratch.blocks.resize(term_count * 2 * cap);
  }

  const std::span<const double> ux = ctx.index->unit_x();
  const std::span<const double> uy = ctx.index->unit_y();
  const std::span<const double> uz = ctx.index->unit_z();

  const std::size_t hint = ctx.step_high_water->load(std::memory_order_relaxed);
  std::uint64_t pruned = 0;
  for (std::size_t b = 0; b < count; ++b) {
    StepCandidates& sc = out[b];
    sc.reset(term_count, hint);
    if (cap == 0) {
      scratch.emitted.clear();
      scratch.emitted_terminals.clear();
    } else {
      scratch.own_count.assign(term_count, 0);
      scratch.spare_count.assign(term_count, 0);
    }
    stats.emit_seconds += lap(mark);

    const StepLegs step_legs{ctx.ephemerides, ctx.downlinks, chunk_begin + b};
    for (std::size_t shard_i = 0; shard_i < ctx.shards.size(); ++shard_i) {
      const constellation::ShellShard& shard = ctx.shards[shard_i];
      // A copy, not a reference: the site loop's stores cannot alias it, so
      // its threshold stays out of memory in the hot loop.
      const ShardCone cone = ctx.shard_cones[shard_i];
      for (std::size_t si = shard.begin; si < shard.end; ++si) {
        // No reachable station at this step: no candidate can form, skip the
        // terminal scan.
        const std::span<const StationBudget> downlinks = step_legs.legs(si);
        if (downlinks.empty()) continue;
        std::uint64_t party_mask = 0;
        for (const StationBudget& leg : downlinks) party_mask |= party_bit(leg.party);
        const util::Vec3 pos = step_legs.position(si);
        scratch.ranges.clear();
        ctx.index->query_cap(pos, cone.psi_rad, scratch.ranges);

        std::size_t visited = 0;
        for (const cov::FootprintIndex::Range& range : scratch.ranges) {
          visited += range.end - range.begin;
          for (std::uint32_t j = range.begin; j < range.end; ++j) {
            // Conservative cone dot test, then the exact elevation test —
            // identical accept set to the reference's visible_above.
            if (ux[j] * pos.x + uy[j] * pos.y + uz[j] * pos.z < cone.dot_threshold) {
              continue;
            }
            ++stats.cone_survivors;
            const IndexedSite& site = ctx.sites[j];
            // No healthy station of the terminal's party in view through
            // this satellite: no candidate can form.
            if ((party_mask & party_bit(site.party)) == 0) continue;
            ++stats.party_gate_survivors;
            double range_squared = 0.0;
            if (!orbit::TopocentricFrame::visible_above(site.origin, site.up, pos, ctx.sin_mask,
                                                        range_squared)) {
              continue;
            }
            ++stats.exact_visible_pairs;

            const RelayChoice relay =
                best_station(ctx, downlinks, site, range_squared, pos, stats);
            if (!relay.found) continue;
            const Candidate cand{static_cast<std::uint32_t>(si), relay.station, relay.key};
            if (cap == 0) {
              scratch.emitted.push_back(cand);
              scratch.emitted_terminals.push_back(site.terminal);
            } else {
              const bool spare = ctx.satellites[si].owner_party != site.party;
              Candidate* region =
                  scratch.blocks.data() + std::size_t{j} * 2 * cap + (spare ? cap : 0);
              top_k_insert(region, spare ? scratch.spare_count[j] : scratch.own_count[j], cap,
                           cand,
                           {ctx.exact, step_legs, site.terminal,
                            stats.exact_capacity_evaluations});
            }
          }
        }
        stats.sites_returned += visited;
        pruned += term_count - visited;
      }
    }
    stats.sites_seconds += lap(mark);

    if (cap == 0) {
      // Counting sort: stable by terminal, so within a terminal the
      // satellite-ascending emission order (the reference scan order) is
      // preserved.
      const std::vector<std::uint32_t>& owners = scratch.emitted_terminals;
      for (const std::uint32_t ti : owners) ++sc.offsets[ti + 1];
      for (std::size_t ti = 0; ti < term_count; ++ti) {
        sc.offsets[ti + 1] += sc.offsets[ti];
        scratch.cursors[ti] = sc.offsets[ti];
      }
      sc.cands.resize(owners.size());
      for (std::size_t i = 0; i < owners.size(); ++i) {
        sc.cands[scratch.cursors[owners[i]]++] = scratch.emitted[i];
      }
    } else {
      // Merge each terminal's own/spare top-K blocks back into satellite-
      // ascending order (the canonical candidate order phase 2's strict-max
      // tie-break expects).
      Candidate merged[128];  // cap <= 64 validated => 2 * cap <= 128
      for (std::size_t ti = 0; ti < term_count; ++ti) {
        const std::uint32_t j = ctx.slot_of[ti];
        const std::size_t n_own = scratch.own_count[j];
        const std::size_t n_spare = scratch.spare_count[j];
        const std::size_t n = n_own + n_spare;
        if (n != 0) {
          const Candidate* block = scratch.blocks.data() + std::size_t{j} * 2 * cap;
          std::copy_n(block, n_own, merged);
          std::copy_n(block + cap, n_spare, merged + n_own);
          std::sort(merged, merged + n, [](const Candidate& a, const Candidate& c) {
            return a.satellite < c.satellite;
          });
          sc.cands.insert(sc.cands.end(), merged, merged + n);
        }
        sc.offsets[ti + 1] = static_cast<std::uint32_t>(sc.cands.size());
      }
    }
    atomic_max(*ctx.step_high_water, sc.cands.size());
    stats.emit_seconds += lap(mark);
  }
  ctx.pruned_pairs->fetch_add(pruned, std::memory_order_relaxed);
  return stats;
}

// Phase-2 inputs: the step-invariant scheduling state.
struct ConsumeContext {
  const SchedulerConfig& config;
  std::span<const constellation::Satellite> satellites;
  std::span<const Terminal> terminals;
  std::span<const std::size_t> spare_order;
  // Per-satellite beams reserved from the spare pass (withholding).
  std::span<const int> spare_reserved;
  const ExactEvaluator& exact;
};

// Per-run phase-2 scratch: beam counters and the served bitmap are assigned
// (not reallocated) every step — at a million terminals the per-step
// allocations the old code made would dominate the sequential phase.
struct ConsumeScratch {
  std::vector<int> beams_left;
  std::vector<std::uint8_t> served;
};

// Phase-2 tallies: candidates skipped because their satellite had no beam
// left — the contention signal the obs layer reports — spare candidates
// skipped because the remaining beams are withheld, and exact capacities
// computed (one per grant, plus near-ties).
struct ConsumeCounts {
  std::uint64_t beam_rejections = 0;
  std::uint64_t withheld_rejections = 0;
  std::uint64_t exact_capacity_evaluations = 0;
};

// Spare-commons ban check shared by both phase-2 implementations: parties
// beyond the exclusion vector are not excluded, so an empty vector bans
// no one (and constellation::Satellite::kUnowned can never index in).
bool spare_excluded(const SchedulerConfig& config, std::uint32_t party) noexcept {
  return party < config.spare_exclude_party.size() &&
         config.spare_exclude_party[party] != 0;
}

// Sequentially allocates beams for one step from its candidate list. Mirrors
// schedule_step exactly: same two passes, same strict-> maximisation, same
// tie-breaks — a candidate list entry stands in for the (si, best-station)
// column of the reference's joint scan, so the selected links and their
// order are bit-identical. Keys rank the candidates; near-ties and the
// sticky bar resolve exactly (see kRelayWindow), and each grant's capacity
// is computed exactly over the step's downlink `legs`.
StepSchedule consume_step(const ConsumeContext& ctx, const StepCandidates& sc,
                          std::size_t step, const StepLegs& legs,
                          const fault::FaultTimeline* faults,
                          std::span<const std::uint8_t> blocked_terminals,
                          ConsumeScratch& scratch, ConsumeCounts& counts,
                          std::span<const std::uint32_t> sticky_prev,
                          double sticky_margin) {
  StepSchedule schedule;
  schedule.step = step;

  const bool faulted = faults != nullptr && !faults->empty();
  std::vector<int>& beams_left = scratch.beams_left;
  beams_left.assign(ctx.satellites.size(), ctx.config.beams_per_satellite);
  if (faulted) {
    for (std::size_t si = 0; si < ctx.satellites.size(); ++si) {
      beams_left[si] = faults->degraded_beam_count(si, step, ctx.config.beams_per_satellite);
    }
  }

  constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  std::vector<std::uint8_t>& served = scratch.served;
  served.assign(ctx.terminals.size(), 0);
  for (const bool spare_pass : {false, true}) {
    for (std::size_t order_index = 0; order_index < ctx.terminals.size(); ++order_index) {
      const std::size_t ti = spare_pass ? ctx.spare_order[order_index] : order_index;
      if (ti < blocked_terminals.size() && blocked_terminals[ti] != 0) continue;
      if (served[ti] != 0) continue;

      const std::uint32_t party = ctx.terminals[ti].owner_party;
      // A spare-banned party's terminals take nothing from the commons; its
      // own pass already ran untouched.
      if (spare_pass && spare_excluded(ctx.config, party)) continue;
      // Sticky spare grants (hysteresis): remember last step's satellite if
      // it is still a feasible spare candidate, and keep it unless some
      // competitor beats it by more than the margin.
      const std::uint32_t sticky_sat =
          spare_pass && sticky_margin > 0.0 && ti < sticky_prev.size()
              ? sticky_prev[ti]
              : kNone;
      // Whether `cand` is on offer in this pass; `tally` counts a candidate
      // skipped for its satellite's beams.
      const auto on_offer = [&](const Candidate& cand, bool tally) {
        if (spare_pass &&
            spare_excluded(ctx.config, ctx.satellites[cand.satellite].owner_party)) {
          return false;  // quarantined capacity is not on offer
        }
        const int spare_floor = spare_pass ? ctx.spare_reserved[cand.satellite] : 0;
        if (beams_left[cand.satellite] <= spare_floor) {
          if (tally) {
            ++(beams_left[cand.satellite] <= 0 ? counts.beam_rejections
                                               : counts.withheld_rejections);
          }
          return false;
        }
        const bool own = ctx.satellites[cand.satellite].owner_party == party;
        return own != spare_pass;  // pass 0: own only; pass 1: spare only
      };
      // The best candidate by key (the first on ties), the largest key
      // among the others, and the sticky satellite's candidate.
      std::uint32_t best = kNone, sticky = kNone;
      double best_key = 0.0, runner_up = 0.0;
      for (std::uint32_t k = sc.offsets[ti]; k < sc.offsets[ti + 1]; ++k) {
        const Candidate& cand = sc.cands[k];
        if (!on_offer(cand, true)) continue;
        if (cand.satellite == sticky_sat) sticky = k;
        if (cand.key > best_key) {
          runner_up = best_key;
          best_key = cand.key;
          best = k;
        } else if (cand.key > runner_up) {
          runner_up = cand.key;
        }
      }
      if (best == kNone) continue;

      const CapacityOrder order{ctx.exact, legs, static_cast<std::uint32_t>(ti),
                                counts.exact_capacity_evaluations};
      // The exact capacity of sc.cands[best]; negative until computed, and
      // then left to the pass after the grants.
      double best_capacity = -1.0;
      if (within_window(runner_up, best_key)) {
        // Keys this close cannot rank the candidates: the exact capacities
        // of those inside the window decide, the first on ties.
        best_capacity = 0.0;
        for (std::uint32_t k = sc.offsets[ti]; k < sc.offsets[ti + 1]; ++k) {
          const Candidate& cand = sc.cands[k];
          if (!on_offer(cand, false) || !within_window(cand.key, best_key)) continue;
          const double capacity = order.exact_capacity(cand);
          if (capacity > best_capacity) {
            best_capacity = capacity;
            best = k;
          }
        }
      }
      if (sticky != kNone && sticky != best) {
        // Keep the sticky satellite unless the best beats it by more than
        // the margin.
        const Candidate& held = sc.cands[sticky];
        const double lead = best_capacity >= 0.0 ? best_capacity : sc.cands[best].key;
        const double bar = held.key * (1.0 + sticky_margin);
        bool beaten = lead > bar;
        double held_capacity = -1.0;
        if (within_window(lead, bar)) {
          if (best_capacity < 0.0) best_capacity = order.exact_capacity(sc.cands[best]);
          held_capacity = order.exact_capacity(held);
          beaten = best_capacity > held_capacity * (1.0 + sticky_margin);
        }
        if (!beaten) {
          best = sticky;
          best_capacity = held_capacity;
        }
      }
      const Candidate& grant = sc.cands[best];
      --beams_left[grant.satellite];
      served[ti] = 1;
      schedule.links.push_back({ti, grant.satellite, grant.station, best_capacity,
                                ctx.satellites[grant.satellite].owner_party != party});
    }
  }

  // The capacities no decision needed, computed after both passes in grant
  // order: each reads its terminal's origin and uplink hop and its
  // satellite's position, scattered over arrays the candidate scan never
  // touched, so the pass prefetches them a few grants ahead.
  constexpr std::size_t kAhead = 8;
  const auto prefetch = [&ctx, &legs](const LinkAssignment& link) {
    const util::Vec3& origin = ctx.exact.terminal_frames[link.terminal_index].origin_ecef();
    const HopEvaluator& hop = ctx.exact.uplinks[link.terminal_index];
    const orbit::EphemerisTable& table = legs.ephemerides.table(link.satellite_index);
    __builtin_prefetch(&origin.x);
    __builtin_prefetch(&origin.z);
    __builtin_prefetch(&hop.eirp_dbw);
    __builtin_prefetch(&hop.bandwidth_hz);
    __builtin_prefetch(&table.x()[legs.step]);
    __builtin_prefetch(&table.y()[legs.step]);
    __builtin_prefetch(&table.z()[legs.step]);
  };
  for (std::size_t i = 0; i < schedule.links.size(); ++i) {
    if (i + kAhead < schedule.links.size()) prefetch(schedule.links[i + kAhead]);
    LinkAssignment& link = schedule.links[i];
    if (link.capacity_bps >= 0.0) continue;  // computed for a near-tie or the sticky bar
    ++counts.exact_capacity_evaluations;
    link.capacity_bps = ctx.exact.capacity(static_cast<std::uint32_t>(link.terminal_index),
                                           legs, static_cast<std::uint32_t>(link.satellite_index),
                                           static_cast<std::uint32_t>(link.station_index));
  }

  for (std::size_t ti = 0; ti < ctx.terminals.size(); ++ti) {
    if (served[ti] == 0) schedule.unserved_terminals.push_back(ti);
  }
  return schedule;
}

// Degraded-operations state shared by run and run_reference: who served each
// terminal last step, and how long each terminal still sits in
// re-acquisition backoff. All of it stays inert (and the sweep bit-identical
// to the no-fault path) when faults are null or empty.
struct DetachState {
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  std::vector<std::uint32_t> prev_satellite;
  std::vector<std::uint32_t> prev_station;
  std::vector<std::size_t> backoff_remaining;
  std::vector<std::uint8_t> blocked;
  // One per terminal when the policy is enabled with backoff_initial_steps
  // > 0; empty otherwise, and re-acquisition is then instant.
  std::vector<ReacquisitionBackoff> machines;

  explicit DetachState(std::size_t terminal_count)
      : prev_satellite(terminal_count, kNone),
        prev_station(terminal_count, kNone),
        backoff_remaining(terminal_count, 0),
        blocked(terminal_count, 0) {}

  void configure(const DegradationPolicy& policy) {
    if (policy.enabled && policy.backoff_initial_steps > 0) {
      machines.assign(blocked.size(),
                      ReacquisitionBackoff(policy.backoff_initial_steps,
                                           policy.backoff_multiplier,
                                           policy.backoff_max_steps,
                                           policy.backoff_clean_horizon_steps));
    }
  }

  // A terminal whose serving satellite or station just went down is
  // failure-force-detached: it must re-acquire, which costs the policy's
  // backoff hold of no service when the backoff is engaged. Elevation-driven
  // loss (the satellite flying out of view) stays a free handover.
  void pre_step(const fault::FaultTimeline& faults, std::size_t step, double dt_step,
                ScheduleResult& result, SloAccumulator* slo = nullptr) {
    for (std::size_t ti = 0; ti < blocked.size(); ++ti) {
      if (prev_satellite[ti] != kNone &&
          (!faults.satellite_available(prev_satellite[ti], step) ||
           (prev_station[ti] != kNone &&
            !faults.station_available(prev_station[ti], step)))) {
        ++result.failure_forced_detaches;
        if (!machines.empty()) {
          backoff_remaining[ti] = std::max(backoff_remaining[ti], machines[ti].on_failure());
        }
        prev_satellite[ti] = kNone;
        prev_station[ti] = kNone;
        if (slo != nullptr) slo->on_failure_detach(ti, step);
      } else if (!machines.empty()) {
        machines[ti].on_clean_step();
      }
      blocked[ti] = backoff_remaining[ti] > 0 ? 1 : 0;
      if (blocked[ti]) result.reacquisition_wait_seconds += dt_step;
    }
  }

  void post_step(const StepSchedule& schedule) {
    for (std::size_t ti = 0; ti < blocked.size(); ++ti) {
      if (backoff_remaining[ti] > 0) --backoff_remaining[ti];
      prev_satellite[ti] = kNone;
      prev_station[ti] = kNone;
    }
    for (const LinkAssignment& link : schedule.links) {
      prev_satellite[link.terminal_index] =
          static_cast<std::uint32_t>(link.satellite_index);
      prev_station[link.terminal_index] =
          static_cast<std::uint32_t>(link.station_index);
    }
  }
};

// One run's degradation-policy + SLO driver, shared verbatim by run() and
// run_reference() so both paths step the policy identically and the
// disabled-policy/no-SLO configuration stays bit-identical to the pre-policy
// scheduler (the blocked span handed to the step scheduler is exactly the
// historical one unless shedding actually fires).
struct PolicyDriver {
  const SchedulerConfig& config;
  std::span<const constellation::Satellite> satellites;
  std::span<const Terminal> terminals;
  const fault::FaultTimeline* faults;
  bool faulted = false;
  bool shedding = false;
  bool sticky = false;
  DetachState detach;
  SloAccumulator slo;
  std::vector<std::uint8_t> shed_blocked;  // detach.blocked | shed flags
  std::uint64_t shed_terminal_steps = 0;

  PolicyDriver(const SchedulerConfig& cfg,
               std::span<const constellation::Satellite> sats,
               std::span<const Terminal> terms, const fault::FaultTimeline* f,
               std::size_t party_count, double dt_step)
      : config(cfg),
        satellites(sats),
        terminals(terms),
        faults(f),
        detach(terms.size()) {
    faulted = f != nullptr && !f->empty();
    const DegradationPolicy& policy = cfg.degradation;
    shedding = policy.enabled && faulted && !policy.shed_below.empty();
    sticky = policy.enabled && policy.spare_hysteresis_margin > 0.0;
    if (policy.slo_window_steps > 0) {
      slo = SloAccumulator(party_count, terms.size(), policy.slo_window_steps,
                           dt_step);
    }
    if (shedding) shed_blocked.resize(terms.size(), 0);
    detach.configure(policy);
  }

  // Detach bookkeeping plus load shedding for `step`; returns the blocked
  // span the step scheduler must honor (empty when nothing can block).
  std::span<const std::uint8_t> pre_step(std::size_t step, double dt_step,
                                         ScheduleResult& result) {
    if (!faulted) return {};
    detach.pre_step(*faults, step, dt_step, result, slo.engaged() ? &slo : nullptr);
    if (!shedding) return detach.blocked;
    // Healthy-beam fraction across the fleet at this step; a tier whose
    // threshold exceeds it is deliberately unserved so better tiers keep the
    // surviving capacity.
    const int nominal = config.beams_per_satellite;
    double healthy = 0.0;
    for (std::size_t si = 0; si < satellites.size(); ++si) {
      healthy += static_cast<double>(faults->degraded_beam_count(
          si, step, nominal));
    }
    const double denom =
        static_cast<double>(satellites.size()) * static_cast<double>(nominal);
    const double fraction = denom > 0.0 ? healthy / denom : 1.0;
    for (std::size_t ti = 0; ti < terminals.size(); ++ti) {
      std::uint8_t block = detach.blocked[ti];
      if (block == 0 &&
          fraction < config.degradation.shed_threshold(terminals[ti].owner_party)) {
        block = 1;
        ++shed_terminal_steps;
        if (slo.engaged()) slo.on_shed(terminals[ti].owner_party);
      }
      shed_blocked[ti] = block;
    }
    return shed_blocked;
  }

  [[nodiscard]] std::span<const std::uint32_t> sticky_prev() const {
    return sticky ? std::span<const std::uint32_t>(detach.prev_satellite)
                  : std::span<const std::uint32_t>{};
  }
  [[nodiscard]] double sticky_margin() const {
    return sticky ? config.degradation.spare_hysteresis_margin : 0.0;
  }

  void post_step(const StepSchedule& schedule) {
    // Sticky grants need last step's satellites even on fault-free runs;
    // with no faults and no hysteresis this bookkeeping is skipped exactly
    // as before.
    if (faulted || sticky) detach.post_step(schedule);
    if (slo.engaged()) slo.record_step(schedule, terminals);
  }

  void finish(ScheduleResult& result) {
    if (slo.engaged()) result.slo = slo.finish();
  }
};

// Post-grant RF degradation (config.rf armed with active interferers). Link
// SELECTION already happened on nominal capacities — beam grants and their
// ordering are untouched, so growing the jam set can only degrade honest
// capacity, never reshuffle grants (the CRN sweep monotonicity carries
// through). Each granted link maps its nominal capacity to an effective SNR
// over the plan's reference bandwidth, divides by one plus the aggregate
// interference-to-noise of every plan-violating emission in view of the
// victim terminal, and maps back; capacity is only overwritten when some
// interference actually arrived (INR > 0), keeping clean links bit-identical
// through the Shannon round-trip's rounding.
void apply_rf_step(const rf::InterferenceEnvironment& env,
                   std::span<const util::Vec3> positions,
                   std::span<const Terminal> terminals,
                   std::span<const constellation::Satellite> satellites,
                   std::span<const orbit::TopocentricFrame> terminal_frames,
                   std::span<const HopEvaluator> jam_hops, double sin_mask,
                   StepSchedule& schedule, rf::RfLinkStats& stats) {
  const double band = env.reference_bandwidth_hz();
  for (LinkAssignment& link : schedule.links) {
    const std::size_t ti = link.terminal_index;
    const std::uint32_t victim = terminals[ti].owner_party;
    const double nominal = link.capacity_bps;
    double inr_total = 0.0;
    // Owner-attributed continuous emission: every satellite of a jamming or
    // squatting party radiates off-plan whenever it is above the victim's
    // horizon (a bent pipe repeats constantly), at the transponder's
    // transmit EIRP scaled by the environment's coupling factor.
    for (std::size_t si = 0; si < satellites.size(); ++si) {
      const std::uint32_t owner = satellites[si].owner_party;
      if (owner == constellation::Satellite::kUnowned) continue;
      if (!env.jams(owner) && !env.squats(owner)) continue;
      const double coupling = env.coupling(owner, victim);
      if (coupling <= 0.0) continue;
      const util::Vec3& pos = positions[si];
      if (!terminal_frames[ti].visible_above(pos, sin_mask)) continue;
      const double inr =
          coupling * jam_hops[ti].snr_linear(terminal_frames[ti].range_m(pos));
      inr_total += inr;
      stats.violation_inr_by_party[owner] += inr;
    }
    double realized = nominal;
    if (inr_total > 0.0) {
      const double snr_eff = std::exp2(nominal / band) - 1.0;
      realized = band * std::log2(1.0 + snr_eff / (1.0 + inr_total));
      link.capacity_bps = realized;
      ++stats.degraded_links;
    }
    stats.nominal_bps_by_party[victim] += nominal;
    stats.realized_bps_by_party[victim] += realized;
    stats.nominal_bps_total += nominal;
    stats.realized_bps_total += realized;
  }
}

// Folds one step's schedule into the per-party aggregates.
void accumulate_step(const StepSchedule& schedule, std::span<const Terminal> terminals,
                     std::span<const constellation::Satellite> satellites, double dt_step,
                     ScheduleResult& result) {
  for (const LinkAssignment& link : schedule.links) {
    const std::uint32_t term_party = terminals[link.terminal_index].owner_party;
    const std::uint32_t sat_party = satellites[link.satellite_index].owner_party;
    const double throughput_bytes =
        std::min(link.capacity_bps, terminals[link.terminal_index].demand_bps) *
        dt_step / 8.0;
    if (link.spare) {
      result.per_party[term_party].spare_used_seconds += dt_step;
      result.per_party[term_party].bytes_received_from_others += throughput_bytes;
      if (sat_party != constellation::Satellite::kUnowned) {
        result.per_party[sat_party].spare_provided_seconds += dt_step;
        result.per_party[sat_party].bytes_carried_for_others += throughput_bytes;
      }
    } else {
      result.per_party[term_party].own_link_seconds += dt_step;
    }
    result.total_served_seconds += dt_step;
  }
  for (std::size_t ti : schedule.unserved_terminals) {
    result.per_party[terminals[ti].owner_party].unserved_terminal_seconds += dt_step;
    result.total_unserved_seconds += dt_step;
  }
}

// Metric handles for one run(), registered up front so the hot loops never
// touch the registry's name tables.
struct RunMetrics {
  obs::Histogram run_seconds;           // whole pipeline, one observation
  obs::Histogram propagate_seconds;     // shared ephemeris kernel
  obs::Histogram cull_seconds;          // downlink leg table + spatial index
  obs::Histogram chunk_seconds;         // per phase-1 chunk (worker threads)
  // Per phase-1 chunk, by stage (Phase1Stats): the per-site loop, candidate
  // emission.
  obs::Histogram phase1_sites_seconds;
  obs::Histogram phase1_emit_seconds;
  obs::Histogram drain_seconds;         // per phase-2 chunk drain
  obs::Histogram candidates_per_step;   // candidate-list occupancy
  obs::Counter candidates;              // candidates emitted by phase 1
  obs::Counter cull_masks;              // (satellite, station) masks filled by the culler
  obs::Counter cull_visible_steps;      // visible steps across them, outages included
  obs::Counter index_pruned_pairs;      // pair visits skipped without a visibility test
  // Phase-1 pairs per stage (Phase1Stats), added once per chunk.
  obs::Counter sites_returned;
  obs::Counter cone_survivors;
  obs::Counter party_gate_survivors;
  obs::Counter exact_visible_pairs;
  obs::Counter relay_evaluations;
  // Exact capacities computed: phase-1 near-ties and weak pairs, phase-2
  // grants and near-ties.
  obs::Counter exact_capacity_evaluations;
  obs::Counter beam_rejections;         // candidates skipped: no beam left
  obs::Counter withheld_rejections;     // spare candidates skipped: beams withheld
  obs::Counter links_granted;
  obs::Counter steps;
  obs::Counter failure_forced_detaches;
  obs::Counter shed_terminal_steps;    // terminals shed by the degradation policy
  obs::Counter grant_flaps;            // SLO-tracked serving-satellite changes
  obs::Gauge stream_slots;
  obs::Gauge candidate_high_water;      // max per-step candidate count seen
  obs::Gauge threads;

  static RunMetrics attach(obs::MetricsRegistry& registry) {
    RunMetrics m;
    m.run_seconds = registry.histogram("sched.run_seconds");
    m.propagate_seconds = registry.histogram("sched.propagate_seconds");
    m.cull_seconds = registry.histogram("sched.cull_seconds");
    m.chunk_seconds = registry.histogram("sched.phase1_chunk_seconds");
    m.phase1_sites_seconds = registry.histogram("sched.phase1_sites_seconds");
    m.phase1_emit_seconds = registry.histogram("sched.phase1_emit_seconds");
    m.drain_seconds = registry.histogram("sched.phase2_drain_seconds");
    m.candidates_per_step = registry.histogram(
        "sched.candidates_per_step", obs::MetricsRegistry::default_count_bounds());
    m.candidates = registry.counter("sched.candidates");
    m.cull_masks = registry.counter("sched.cull_masks");
    m.cull_visible_steps = registry.counter("sched.cull_visible_steps");
    m.index_pruned_pairs = registry.counter("sched.index_pruned_pairs");
    m.sites_returned = registry.counter("sched.sites_returned");
    m.cone_survivors = registry.counter("sched.cone_survivors");
    m.party_gate_survivors = registry.counter("sched.party_gate_survivors");
    m.exact_visible_pairs = registry.counter("sched.exact_visible_pairs");
    m.relay_evaluations = registry.counter("sched.relay_evaluations");
    m.exact_capacity_evaluations = registry.counter("sched.exact_capacity_evaluations");
    m.beam_rejections = registry.counter("sched.beam_rejections");
    m.withheld_rejections = registry.counter("sched.spare_withheld_rejections");
    m.links_granted = registry.counter("sched.links_granted");
    m.steps = registry.counter("sched.steps");
    m.failure_forced_detaches = registry.counter("sched.failure_forced_detaches");
    m.shed_terminal_steps = registry.counter("sched.shed_terminal_steps");
    m.grant_flaps = registry.counter("sched.grant_flaps");
    m.stream_slots = registry.gauge("sched.stream_slots");
    m.candidate_high_water = registry.gauge("sched.candidate_high_water");
    m.threads = registry.gauge("sched.threads");
    return m;
  }
};

}  // namespace

std::vector<core::ConfigIssue> SchedulerConfig::validate() const {
  std::vector<core::ConfigIssue> issues;
  const auto add = [&issues](const char* field, std::string message) {
    issues.push_back({"net.scheduler", field, std::move(message)});
  };
  if (!(elevation_mask_deg >= 0.0 && elevation_mask_deg < 90.0)) {
    add("elevation_mask_deg", "must be in [0, 90), got " + std::to_string(elevation_mask_deg));
  }
  if (beams_per_satellite <= 0) {
    add("beams_per_satellite",
        "must be > 0, got " + std::to_string(beams_per_satellite));
  }
  if (stream_chunk_steps == 0) add("stream_chunk_steps", "must be >= 1, got 0");
  if (max_candidates_per_terminal > 64) {
    add("max_candidates_per_terminal",
        "must be <= 64, got " + std::to_string(max_candidates_per_terminal));
  }
  for (const double weight : spare_priority_by_party) {
    if (!std::isfinite(weight) || weight < 0.0) {
      add("spare_priority_by_party", "weights must be finite and >= 0");
      break;
    }
  }
  for (const double fraction : spare_withheld_fraction) {
    if (!std::isfinite(fraction) || fraction < 0.0 || fraction > 1.0) {
      add("spare_withheld_fraction", "entries must be in [0, 1]");
      break;
    }
  }
  for (core::ConfigIssue& issue : degradation.validate()) {
    issues.push_back(std::move(issue));
  }
  return issues;
}

BentPipeScheduler::BentPipeScheduler(SchedulerConfig config,
                                     std::vector<constellation::Satellite> satellites,
                                     std::vector<Terminal> terminals,
                                     std::vector<GroundStation> stations)
    : config_(config),
      satellites_(std::move(satellites)),
      terminals_(std::move(terminals)),
      stations_(std::move(stations)),
      sin_mask_(std::sin(util::deg_to_rad(config.elevation_mask_deg))) {
  core::throw_if_invalid("BentPipeScheduler", config_.validate());
  if (!config_.spare_priority_by_party.empty()) {
    // A non-empty weight vector must cover every party index in play;
    // otherwise spare contention silently zero-weights (or worse, indexes
    // past) the uncovered parties.
    const std::size_t covered = config_.spare_priority_by_party.size();
    for (const Terminal& t : terminals_) {
      if (t.owner_party >= covered) {
        throw std::invalid_argument(
            "BentPipeScheduler: spare_priority_by_party does not cover terminal owner");
      }
    }
    for (const constellation::Satellite& s : satellites_) {
      if (s.owner_party != constellation::Satellite::kUnowned &&
          s.owner_party >= covered) {
        throw std::invalid_argument(
            "BentPipeScheduler: spare_priority_by_party does not cover satellite owner");
      }
    }
  }
  // Withheld beams, resolved per satellite once: ceil(nominal * fraction),
  // never the full beam count spilled past nominal. All-zero when the config
  // vector is empty — the spare beam check stays the historical `> 0`.
  spare_reserved_.assign(satellites_.size(), 0);
  if (!config_.spare_withheld_fraction.empty()) {
    for (std::size_t si = 0; si < satellites_.size(); ++si) {
      const std::uint32_t owner = satellites_[si].owner_party;
      if (owner >= config_.spare_withheld_fraction.size()) continue;
      // validate() keeps fraction in [0, 1], so the ceil fits in an int.
      const double fraction = config_.spare_withheld_fraction[owner];
      spare_reserved_[si] = std::min(
          config_.beams_per_satellite,
          static_cast<int>(std::ceil(fraction * config_.beams_per_satellite)));
    }
  }

  terminal_frames_.reserve(terminals_.size());
  for (const Terminal& t : terminals_) terminal_frames_.emplace_back(t.location);
  station_frames_.reserve(stations_.size());
  for (const GroundStation& gs : stations_) station_frames_.emplace_back(gs.location);

  spare_order_.resize(terminals_.size());
  for (std::size_t i = 0; i < spare_order_.size(); ++i) spare_order_[i] = i;
  if (!config_.spare_priority_by_party.empty()) {
    std::stable_sort(spare_order_.begin(), spare_order_.end(),
                     [this](std::size_t a, std::size_t b) {
                       const auto& weights = config_.spare_priority_by_party;
                       auto weight_of = [&weights](const Terminal& t) {
                         return t.owner_party < weights.size()
                                    ? weights[t.owner_party]
                                    : 0.0;
                       };
                       return weight_of(terminals_[a]) > weight_of(terminals_[b]);
                     });
  }
}

StepSchedule BentPipeScheduler::schedule_step(
    std::span<const util::Vec3> satellite_ecef, std::size_t step,
    const fault::FaultTimeline* faults,
    std::span<const std::uint8_t> blocked_terminals,
    std::span<const std::uint32_t> sticky_prev_satellite,
    double sticky_margin) const {
  StepSchedule schedule;
  schedule.step = step;

  const bool faulted = faults != nullptr && !faults->empty();
  std::vector<int> beams_left(satellites_.size(), config_.beams_per_satellite);
  if (faulted) {
    for (std::size_t si = 0; si < satellites_.size(); ++si) {
      beams_left[si] = faults->degraded_beam_count(si, step, config_.beams_per_satellite);
    }
  }

  // Two passes: own-satellite links first (owner priority), then spare
  // capacity on anyone's satellite. Terminals served in the first pass are
  // tracked in a flat bitmap (not a scan over the links granted so far).
  std::vector<std::uint8_t> served(terminals_.size(), 0);
  for (const bool spare_pass : {false, true}) {
    for (std::size_t order_index = 0; order_index < terminals_.size(); ++order_index) {
      const std::size_t ti = spare_pass ? spare_order_[order_index] : order_index;
      // Terminals waiting out a re-acquisition backoff take no service.
      if (ti < blocked_terminals.size() && blocked_terminals[ti] != 0) continue;
      if (served[ti] != 0) continue;

      const Terminal& term = terminals_[ti];
      // Spare-commons ban: same rule as the pipelined consume_step.
      if (spare_pass && spare_excluded(config_, term.owner_party)) continue;
      const orbit::TopocentricFrame& term_frame = terminal_frames_[ti];

      // Best (highest end-to-end capacity) feasible satellite+station pair.
      double best_capacity = 0.0;
      std::size_t best_sat = 0, best_gs = 0;
      bool found = false;
      // Sticky spare grants: same hysteresis rule as the pipelined
      // consume_step — remember last step's satellite if still feasible.
      const std::uint32_t sticky_sat =
          spare_pass && sticky_margin > 0.0 && ti < sticky_prev_satellite.size()
              ? sticky_prev_satellite[ti]
              : 0xFFFFFFFFu;
      double sticky_capacity = 0.0;
      std::size_t sticky_gs = 0;
      bool sticky_found = false;

      for (std::size_t si = 0; si < satellites_.size(); ++si) {
        if (spare_pass && spare_excluded(config_, satellites_[si].owner_party)) continue;
        if (beams_left[si] <= (spare_pass ? spare_reserved_[si] : 0)) continue;
        const bool own = satellites_[si].owner_party == term.owner_party;
        if (own == spare_pass) continue;  // pass 0: own only; pass 1: spare only
        const util::Vec3& sat_pos = satellite_ecef[si];
        if (!term_frame.visible_above(sat_pos, sin_mask_)) continue;

        for (std::size_t gi = 0; gi < stations_.size(); ++gi) {
          if (stations_[gi].owner_party != term.owner_party) continue;
          if (faulted && !faults->station_available(gi, step)) continue;
          if (!station_frames_[gi].visible_above(sat_pos, sin_mask_)) continue;

          const double up = term_frame.range_m(sat_pos);
          const double down = station_frames_[gi].range_m(sat_pos);
          const RelayBudget budget = compute_relay(term.radio, config_.transponder,
                                                   stations_[gi].radio, up, down,
                                                   config_.relay_mode);
          if (si == sticky_sat && budget.end_to_end_capacity_bps > sticky_capacity) {
            sticky_capacity = budget.end_to_end_capacity_bps;
            sticky_gs = gi;
            sticky_found = true;
          }
          if (budget.end_to_end_capacity_bps > best_capacity) {
            best_capacity = budget.end_to_end_capacity_bps;
            best_sat = si;
            best_gs = gi;
            found = true;
          }
        }
      }

      if (sticky_found && best_sat != sticky_sat &&
          !(best_capacity > sticky_capacity * (1.0 + sticky_margin))) {
        best_capacity = sticky_capacity;
        best_sat = sticky_sat;
        best_gs = sticky_gs;
      }

      if (found) {
        --beams_left[best_sat];
        served[ti] = 1;
        schedule.links.push_back({ti, best_sat, best_gs, best_capacity,
                                  satellites_[best_sat].owner_party != term.owner_party});
      }
    }
  }

  for (std::size_t ti = 0; ti < terminals_.size(); ++ti) {
    if (served[ti] == 0) schedule.unserved_terminals.push_back(ti);
  }
  return schedule;
}

void BentPipeScheduler::validate_owners(std::size_t party_count) const {
  for (const Terminal& t : terminals_) {
    if (t.owner_party >= party_count) {
      throw std::invalid_argument("BentPipeScheduler::run: terminal owner out of range");
    }
  }
  for (const constellation::Satellite& s : satellites_) {
    if (s.owner_party != constellation::Satellite::kUnowned && s.owner_party >= party_count) {
      throw std::invalid_argument("BentPipeScheduler::run: satellite owner out of range");
    }
  }
}

ScheduleResult BentPipeScheduler::run(const orbit::TimeGrid& grid, std::size_t party_count,
                                      sim::RunContext& context, bool keep_steps) const {
  validate_owners(party_count);
  util::ThreadPool* const pool = context.pool();
  const fault::FaultTimeline* const faults = context.faults();
  const RunMetrics rm = RunMetrics::attach(context.metrics());
  obs::ScopedTimer run_timer(rm.run_seconds);

  ScheduleResult result;
  result.per_party.resize(party_count);
  const std::size_t step_total = grid.count;
  if (step_total == 0) return result;

  const std::size_t sat_count = satellites_.size();
  const std::size_t term_count = terminals_.size();
  const std::size_t station_count = stations_.size();
  const bool faulted = faults != nullptr && !faults->empty();

  // Every satellite propagated once through the shared ephemeris kernel;
  // both phases (and run_reference) read positions from these tables.
  const orbit::EphemerisSet eph = [&] {
    obs::ScopedTimer propagate_timer(rm.propagate_seconds);
    return orbit::EphemerisSet::compute(
        cov::ephemeris_specs(satellites_, config_.propagator_backend), grid, pool);
  }();

  // Range-independent hop pieces, hoisted once per run for the exact
  // evaluator: uplink_hops[ti] is terminal ti -> transponder receive and
  // downlink_hops[gi] transponder transmit -> station gi.
  std::vector<HopEvaluator> uplink_hops;
  uplink_hops.reserve(term_count);
  for (const Terminal& terminal : terminals_) {
    uplink_hops.push_back(HopEvaluator::make(terminal.radio, config_.transponder.receive));
  }
  std::vector<HopEvaluator> downlink_hops;
  downlink_hops.reserve(station_count);
  std::vector<double> relay_bandwidth_hz;
  relay_bandwidth_hz.reserve(station_count);
  for (const GroundStation& station : stations_) {
    downlink_hops.push_back(HopEvaluator::make(config_.transponder.transmit, station.radio));
    relay_bandwidth_hz.push_back(transparent_bandwidth_hz(config_.transponder, station.radio));
  }
  const bool uniform_relay_bandwidth =
      std::adjacent_find(relay_bandwidth_hz.begin(), relay_bandwidth_hz.end(),
                         std::not_equal_to<>()) == relay_bandwidth_hz.end();
  const ExactEvaluator exact{terminal_frames_,
                             uplink_hops,
                             stations_,
                             station_frames_,
                             downlink_hops,
                             relay_bandwidth_hz,
                             config_.relay_mode == RelayMode::kRegenerative};

  obs::ScopedTimer cull_timer(rm.cull_seconds);

  // The downlink leg table. A (satellite, station) pair's visible steps come
  // from the coverage cull, which only skips work — each set bit passed the
  // exact visible_above test the reference runs. A station the site-latitude
  // prune rules out provably sees nothing of the satellite, so its fill is
  // skipped outright. A step at which station_available reports the station
  // down gets no leg, as in the reference, so steps past the timeline's own
  // grid count as healthy.
  const cov::SiteLatitudePrune station_prune(station_frames_, config_.elevation_mask_deg);
  const cov::VisibilityCuller culler(grid, config_.elevation_mask_deg);
  const cov::CullCounters cull_counters{rm.cull_masks, rm.cull_visible_steps};
  std::atomic<std::uint64_t> pruned_pairs{0};
  const std::size_t mask_words = (step_total + 63) / 64;
  DownlinkLegs downlinks(sat_count, step_total);
  // Satellites [begin, end), one at a time through `masks`, one word mask
  // per station: count each step's healthy legs into the satellite's
  // offsets, then evaluate them into its exactly sized vector.
  const auto fill_legs = [&](std::size_t begin, std::size_t end) {
    std::vector<std::uint64_t> masks(station_count * mask_words);
    for (std::size_t si = begin; si < end; ++si) {
      const orbit::EphemerisTable& table = eph.table(si);
      const double reach = station_prune.reach_rad(table);
      std::fill(masks.begin(), masks.end(), std::uint64_t{0});
      std::uint64_t local_pruned = 0;
      for (std::size_t gi = 0; gi < station_count; ++gi) {
        if (!station_prune.reachable(reach, gi)) {
          ++local_pruned;
          continue;
        }
        culler.fill(table, station_frames_[gi], {masks.data() + gi * mask_words, mask_words},
                    cull_counters);
      }
      pruned_pairs.fetch_add(local_pruned, std::memory_order_relaxed);

      // offsets[step + 1] counts the step's legs; a downed station's bit is
      // cleared. The prefix sum then makes offsets[step] the step's begin.
      std::uint32_t* const offsets = downlinks.offsets.data() + si * (step_total + 1);
      for (std::size_t gi = 0; gi < station_count; ++gi) {
        for (std::size_t w = 0; w < mask_words; ++w) {
          std::uint64_t& word = masks[gi * mask_words + w];
          for (std::uint64_t bits = word; bits != 0; bits &= bits - 1) {
            const auto bit = static_cast<unsigned>(std::countr_zero(bits));
            const std::size_t step = w * 64 + bit;
            if (faulted && !faults->station_available(gi, step)) {
              word &= ~(std::uint64_t{1} << bit);
            } else {
              ++offsets[step + 1];
            }
          }
        }
      }
      std::uint64_t total = 0;
      for (std::size_t step = 1; step <= step_total; ++step) {
        total += offsets[step];
        if (total > std::numeric_limits<std::uint32_t>::max()) {
          throw std::length_error(
              "BentPipeScheduler::run: one satellite's downlink legs exceed 2^32");
        }
        offsets[step] = static_cast<std::uint32_t>(total);
      }

      // Station gi's leg at `step` lands at offsets[step]++, so stations
      // ascend within each step, and the pass leaves offsets[step] at the
      // next step's begin; the shift restores the begins.
      std::vector<StationBudget>& legs = downlinks.by_satellite[si];
      legs.resize(total);
      for (std::size_t gi = 0; gi < station_count; ++gi) {
        for (std::size_t w = 0; w < mask_words; ++w) {
          for (std::uint64_t bits = masks[gi * mask_words + w]; bits != 0; bits &= bits - 1) {
            const std::size_t step = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
            legs[offsets[step]++] =
                exact.leg(static_cast<std::uint32_t>(gi), table.position_ecef(step));
          }
        }
      }
      std::copy_backward(offsets, offsets + step_total, offsets + step_total + 1);
      offsets[0] = 0;
    }
  };
  if (pool != nullptr) {
    pool->parallel_for_chunks(sat_count, fill_legs);
  } else {
    fill_legs(0, sat_count);
  }

  // Footprint-stream inputs: the terminal spatial index, the shell shards
  // and one conservative cone per shard.
  const cov::FootprintIndex footprint_index(terminal_frames_);
  const std::vector<constellation::ShellShard> shards =
      constellation::shell_partition(satellites_);
  std::vector<ShardCone> shard_cones;
  shard_cones.reserve(shards.size());
  for (const constellation::ShellShard& shard : shards) {
    double r_min = 0.0, r_max = 0.0;
    for (std::size_t si = shard.begin; si < shard.end; ++si) {
      const orbit::EphemerisTable& table = eph.table(si);
      if (si == shard.begin) {
        r_min = table.min_radius_m();
        r_max = table.max_radius_m();
      } else {
        r_min = std::min(r_min, table.min_radius_m());
        r_max = std::max(r_max, table.max_radius_m());
      }
    }
    const cov::FootprintCone cone = cov::FootprintCone::make(
        r_min, r_max, footprint_index.min_site_radius_m(), config_.elevation_mask_deg);
    shard_cones.push_back({cone.psi_rad, cone.dot_threshold(r_min, r_max)});
  }
  cull_timer.stop();

  // Phase 1's site table keeps only each uplink's inverse-square constant,
  // in index slot order.
  std::vector<IndexedSite> indexed_sites;
  indexed_sites.reserve(term_count);
  std::vector<std::uint32_t> slot_of(term_count);
  for (const std::uint32_t ti : footprint_index.site_ids()) {
    slot_of[ti] = static_cast<std::uint32_t>(indexed_sites.size());
    indexed_sites.push_back({terminal_frames_[ti].origin_ecef(), terminal_frames_[ti].up(),
                             uplink_hops[ti].inverse_square_snr_m2(), ti,
                             terminals_[ti].owner_party});
  }

  std::atomic<std::size_t> step_high_water{0};
  const StreamContext sctx{satellites_,
                           term_count,
                           eph,
                           &footprint_index,
                           indexed_sites,
                           shards,
                           shard_cones,
                           downlinks,
                           exact,
                           uniform_relay_bandwidth,
                           config_.transponder.receive.bandwidth_hz,
                           sin_mask_,
                           config_.max_candidates_per_terminal,
                           slot_of,
                           &step_high_water,
                           &pruned_pairs};
  const ConsumeContext cctx{config_, satellites_, terminals_, spare_order_, spare_reserved_,
                            exact};

  // Streaming pipeline: producer chunks publish in step order through a
  // bounded ring of slots; the sequential grant phase consumes each chunk
  // the moment it lands and frees the slot for chunk + slots. Peak candidate
  // memory is `slots` chunks regardless of horizon, and the consumption
  // order (strictly chunk 0, 1, 2, ...) makes the result bit-identical for
  // any pool size, slot count, or chunk size. A slot holds its chunk's
  // candidates plus one step of scratch, both scaling with terminals, so
  // there is one slot per producer — the pool lanes plus the consuming
  // thread, which produces while it waits — 2 to 4 (2 when serial), and
  // never more slots than chunks.
  //
  // stream_chunk_steps is the largest chunk: a run splits into at least four
  // chunks per lane, so the consumer does not wait out a large share of
  // phase 1 behind the first chunk on a short grid (a 181-step epoch on
  // three lanes streams 23 chunks of 8 steps, not 3 of 64). The result is
  // never larger than the configured one.
  const std::size_t lanes = pool != nullptr ? pool->thread_count() : 1;
  const std::size_t chunk_steps =
      std::min(config_.stream_chunk_steps,
               std::bit_floor(std::max<std::size_t>(1, step_total / (4 * lanes))));
  const std::size_t chunk_total = (step_total + chunk_steps - 1) / chunk_steps;
  const std::size_t slots = std::max<std::size_t>(
      1, std::min(std::clamp<std::size_t>(lanes + 1, 2, 4), chunk_total));
  std::vector<std::vector<StepCandidates>> buffers(slots);
  std::vector<StreamScratch> scratch(slots);

  // RF interference is applied post-grant, symmetrically with run_reference.
  const bool rf_active = config_.rf != nullptr && config_.rf->any_interferer();
  std::vector<HopEvaluator> jam_hops;
  std::vector<util::Vec3> rf_positions;
  if (rf_active) {
    result.rf.emplace();
    result.rf->nominal_bps_by_party.assign(party_count, 0.0);
    result.rf->realized_bps_by_party.assign(party_count, 0.0);
    result.rf->violation_inr_by_party.assign(party_count, 0.0);
    jam_hops.reserve(term_count);
    for (const Terminal& terminal : terminals_) {
      jam_hops.push_back(HopEvaluator::make(config_.transponder.transmit, terminal.radio));
    }
    rf_positions.resize(sat_count);
  }

  const double dt_step = grid.step_seconds;
  PolicyDriver policy(config_, satellites_, terminals_, faults, party_count,
                      dt_step);
  ConsumeScratch consume_scratch;
  rm.stream_slots.set(static_cast<double>(slots));
  rm.threads.set(static_cast<double>(context.thread_count()));
  ConsumeCounts consume_counts;
  std::uint64_t links_granted = 0;

  const auto produce = [&](std::size_t chunk, std::size_t slot) {
    obs::ScopedTimer chunk_timer(rm.chunk_seconds);
    const std::size_t begin = chunk * chunk_steps;
    const std::size_t count = std::min(chunk_steps, step_total - begin);
    buffers[slot].resize(count);
    const Phase1Stats stats =
        fill_stream_chunk(sctx, begin, count, buffers[slot], scratch[slot]);
    std::uint64_t emitted = 0;
    for (const StepCandidates& sc : buffers[slot]) emitted += sc.cands.size();
    rm.candidates.add(emitted);
    rm.sites_returned.add(stats.sites_returned);
    rm.cone_survivors.add(stats.cone_survivors);
    rm.party_gate_survivors.add(stats.party_gate_survivors);
    rm.exact_visible_pairs.add(stats.exact_visible_pairs);
    rm.relay_evaluations.add(stats.relay_evaluations);
    rm.exact_capacity_evaluations.add(stats.exact_capacity_evaluations);
    rm.phase1_sites_seconds.observe(stats.sites_seconds);
    rm.phase1_emit_seconds.observe(stats.emit_seconds);
  };

  const auto consume = [&](std::size_t chunk, std::size_t slot) {
    obs::ScopedTimer drain_timer(rm.drain_seconds);
    const std::size_t begin = chunk * chunk_steps;
    for (std::size_t b = 0; b < buffers[slot].size(); ++b) {
      const std::size_t step = begin + b;
      rm.candidates_per_step.observe(static_cast<double>(buffers[slot][b].cands.size()));
      const std::span<const std::uint8_t> blocked =
          policy.pre_step(step, dt_step, result);
      const StepLegs legs{eph, downlinks, step};
      StepSchedule schedule =
          consume_step(cctx, buffers[slot][b], step, legs, faults, blocked, consume_scratch,
                       consume_counts, policy.sticky_prev(), policy.sticky_margin());
      policy.post_step(schedule);
      if (rf_active) {
        for (std::size_t si = 0; si < sat_count; ++si) {
          rf_positions[si] = eph.table(si).position_ecef(step);
        }
        apply_rf_step(*config_.rf, rf_positions, terminals_, satellites_,
                      terminal_frames_, jam_hops, sin_mask_, schedule, *result.rf);
      }
      accumulate_step(schedule, terminals_, satellites_, dt_step, result);
      links_granted += schedule.links.size();
      if (keep_steps) result.steps.push_back(std::move(schedule));
    }
  };

  util::stream_chunks(pool, chunk_total, slots, produce, consume);

  policy.finish(result);
  rm.shed_terminal_steps.add(policy.shed_terminal_steps);
  if (result.slo.has_value()) rm.grant_flaps.add(result.slo->grant_flaps);
  rm.steps.add(step_total);
  rm.beam_rejections.add(consume_counts.beam_rejections);
  rm.withheld_rejections.add(consume_counts.withheld_rejections);
  rm.exact_capacity_evaluations.add(consume_counts.exact_capacity_evaluations);
  rm.links_granted.add(links_granted);
  rm.failure_forced_detaches.add(result.failure_forced_detaches);
  rm.index_pruned_pairs.add(pruned_pairs.load(std::memory_order_relaxed));
  rm.candidate_high_water.set(
      static_cast<double>(step_high_water.load(std::memory_order_relaxed)));
  return result;
}

ScheduleResult BentPipeScheduler::run_reference(const orbit::TimeGrid& grid,
                                                std::size_t party_count,
                                                const fault::FaultTimeline* faults,
                                                bool keep_steps) const {
  validate_owners(party_count);

  ScheduleResult result;
  result.per_party.resize(party_count);
  if (grid.count == 0) return result;

  // Same shared ephemeris tables as run(): the two paths see bit-identical
  // satellite positions, which is what makes full-result bit-identity
  // possible at all.
  const orbit::EphemerisSet eph = orbit::EphemerisSet::compute(
      cov::ephemeris_specs(satellites_, config_.propagator_backend), grid);

  std::vector<util::Vec3> positions(satellites_.size());
  const double dt_step = grid.step_seconds;
  PolicyDriver policy(config_, satellites_, terminals_, faults, party_count,
                      dt_step);

  const bool rf_active = config_.rf != nullptr && config_.rf->any_interferer();
  std::vector<HopEvaluator> jam_hops;
  if (rf_active) {
    result.rf.emplace();
    result.rf->nominal_bps_by_party.assign(party_count, 0.0);
    result.rf->realized_bps_by_party.assign(party_count, 0.0);
    result.rf->violation_inr_by_party.assign(party_count, 0.0);
    jam_hops.reserve(terminals_.size());
    for (const Terminal& terminal : terminals_) {
      jam_hops.push_back(HopEvaluator::make(config_.transponder.transmit, terminal.radio));
    }
  }

  for (std::size_t step = 0; step < grid.count; ++step) {
    for (std::size_t si = 0; si < satellites_.size(); ++si) {
      positions[si] = eph.table(si).position_ecef(step);
    }

    const std::span<const std::uint8_t> blocked =
        policy.pre_step(step, dt_step, result);
    StepSchedule schedule = schedule_step(positions, step, faults, blocked,
                                          policy.sticky_prev(), policy.sticky_margin());
    policy.post_step(schedule);
    if (rf_active) {
      apply_rf_step(*config_.rf, positions, terminals_, satellites_, terminal_frames_,
                    jam_hops, sin_mask_, schedule, *result.rf);
    }
    accumulate_step(schedule, terminals_, satellites_, dt_step, result);
    if (keep_steps) result.steps.push_back(std::move(schedule));
  }
  policy.finish(result);
  return result;
}

}  // namespace mpleo::net
