#include "coverage/contact_plan.hpp"

#include <algorithm>

namespace mpleo::cov {

std::vector<Contact> build_contact_plan(const CoverageEngine& engine,
                                        std::span<const constellation::Satellite> satellites,
                                        std::span<const GroundSite> sites) {
  std::vector<Contact> contacts;
  const double step = engine.grid().step_seconds;
  const orbit::EphemerisSet ephemerides = engine.ephemerides(satellites);
  for (std::size_t i = 0; i < satellites.size(); ++i) {
    const constellation::Satellite& sat = satellites[i];
    const std::vector<StepMask> masks =
        engine.visibility_masks(ephemerides.table(i), sites);
    for (std::size_t j = 0; j < sites.size(); ++j) {
      for (const Interval& window : masks[j].to_intervals(step)) {
        contacts.push_back({sat.id, sites[j].name, window.start, window.end});
      }
    }
  }
  std::sort(contacts.begin(), contacts.end(), [](const Contact& a, const Contact& b) {
    if (a.start_offset_s != b.start_offset_s) return a.start_offset_s < b.start_offset_s;
    return a.satellite < b.satellite;
  });
  return contacts;
}

double total_contact_seconds(std::span<const Contact> contacts,
                             const std::string& site_name) {
  double total = 0.0;
  for (const Contact& c : contacts) {
    if (c.site_name == site_name) total += c.duration_s();
  }
  return total;
}

}  // namespace mpleo::cov
