#include "rf/interference.hpp"

#include "net/link_budget.hpp"

namespace mpleo::rf {

namespace {

bool mask_at(const std::vector<bool>& mask, std::size_t i) noexcept {
  return i < mask.size() && mask[i];
}

}  // namespace

InterferenceEnvironment::InterferenceEnvironment(const SpectrumConfig& config,
                                                 const SpectrumPlan& plan,
                                                 const std::vector<bool>& jamming_mask,
                                                 const std::vector<bool>& squatting_mask) {
  core::throw_if_invalid("rf::InterferenceEnvironment", config.validate());
  parties_ = plan.party_count();
  reference_bandwidth_hz_ = config.channel_bandwidth_hz;
  jams_.resize(parties_);
  squats_.resize(parties_);
  for (std::size_t p = 0; p < parties_; ++p) {
    jams_[p] = mask_at(jamming_mask, p);
    squats_[p] = mask_at(squatting_mask, p);
    if (jams_[p] || squats_[p]) any_interferer_ = true;
  }

  const double discrimination = net::db_to_linear(-config.off_axis_discrimination_db);
  const double jam_boost = net::db_to_linear(config.jammer_power_boost_db);
  coupling_.assign(parties_ * parties_, 0.0);
  for (std::size_t i = 0; i < parties_; ++i) {
    for (std::size_t v = 0; v < parties_; ++v) {
      if (i == v) continue;
      double overlap;
      double boost = 1.0;
      if (jams_[i]) {
        // A jammer sweeps the whole downlink segment at boosted EIRP: full
        // overlap with every victim channel.
        overlap = 1.0;
        boost = jam_boost;
      } else if (squats_[i]) {
        // A squatter transmits across the band at nominal power, ignoring
        // its assignment.
        overlap = 1.0;
      } else {
        // On-plan party: the partition is disjoint, so this is zero.
        overlap = plan.overlap_fraction(static_cast<std::uint32_t>(i),
                                        static_cast<std::uint32_t>(v));
      }
      coupling_[i * parties_ + v] = overlap * discrimination * boost;
    }
  }
}

bool InterferenceEnvironment::jams(std::uint32_t party) const noexcept {
  return mask_at(jams_, party);
}

bool InterferenceEnvironment::squats(std::uint32_t party) const noexcept {
  return mask_at(squats_, party);
}

double InterferenceEnvironment::coupling(std::uint32_t interferer,
                                         std::uint32_t victim) const noexcept {
  if (interferer >= parties_ || victim >= parties_) return 0.0;
  return coupling_[static_cast<std::size_t>(interferer) * parties_ + victim];
}

bool InterferenceEnvironment::violates_plan(std::uint32_t interferer,
                                            std::uint32_t victim) const noexcept {
  if (interferer == victim) return false;
  return coupling(interferer, victim) > 0.0;
}

}  // namespace mpleo::rf
