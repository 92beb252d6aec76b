// Ground-segment operations: what a software-defined ground station (§3.1's
// GSaaS model, §4's open-source receiver question) needs from the library —
// pass predictions, a contact plan, Doppler tracking profiles, handover
// rates, and a TLE export for interoperability with existing SDR tooling.
//
//   ./ground_station_ops [--days=1 --step=30]
#include <cstdio>

#include "core/mpleo.hpp"
#include "coverage/contact_plan.hpp"
#include "net/handover.hpp"

using namespace mpleo;

int main(int argc, char** argv) {
  sim::Scenario scenario;
  try {
    scenario = sim::parse_scenario(argc, argv,
                                   sim::Scenario{.duration_s = 86400.0, .step_s = 30.0});
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  std::printf("scenario: %s\n\n", sim::describe(scenario).c_str());

  // The operator's fleet: a 16-satellite slice of an MP-LEO.
  constellation::WalkerShell shell;
  shell.label = "OPS";
  shell.plane_count = 4;
  shell.sats_per_plane = 4;
  shell.phasing_factor = 1;
  const auto sats = shell.build(scenario.epoch);

  const cov::CoverageEngine engine(scenario.grid(), scenario.elevation_mask_deg);
  const std::vector<cov::GroundSite> station{
      {"Taipei-GS", orbit::TopocentricFrame(cov::taipei().location), 1.0}};

  // 1. Contact plan for the day.
  const auto contacts = cov::build_contact_plan(engine, sats, station);
  std::printf("contact plan: %zu contacts, %.1f min total\n", contacts.size(),
              cov::total_contact_seconds(contacts, "Taipei-GS") / 60.0);
  std::printf("first contacts:\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(5, contacts.size()); ++i) {
    std::printf("  sat %2u  +%6.0fs .. +%6.0fs (%3.0fs)\n", contacts[i].satellite,
                contacts[i].start_offset_s, contacts[i].end_offset_s,
                contacts[i].duration_s());
  }
  std::printf("\n");

  // 2. Doppler tracking profile of the first contact's satellite.
  if (!contacts.empty()) {
    const auto& first = contacts.front();
    const auto& sat = sats[first.satellite];
    const auto profile = cov::doppler_profile(sat, station[0].frame, engine.grid(),
                                              scenario.elevation_mask_deg, 11.7e9);
    double max_shift = 0.0, max_rate = 0.0;
    for (const cov::DopplerSample& s : profile) {
      max_shift = std::max(max_shift, std::abs(s.doppler_shift_hz));
      max_rate = std::max(max_rate, std::abs(s.range_rate_m_per_s));
    }
    std::printf("Doppler (Ku downlink 11.7 GHz) across %zu visible samples:\n",
                profile.size());
    std::printf("  worst shift %.1f kHz (acquisition bound %.1f kHz), peak range rate "
                "%.2f km/s\n\n",
                max_shift / 1e3, cov::max_doppler_bound_hz(550e3, 11.7e9) / 1e3,
                max_rate / 1e3);
  }

  // 3. Handover behaviour of a user terminal under max-elevation selection.
  const auto timeline =
      net::serving_satellite_timeline(engine, sats, station[0].frame);
  const auto handovers = net::handover_stats(timeline, scenario.step_s);
  std::printf("terminal handover profile (max-elevation policy):\n");
  std::printf("  connected %.1f%% of the day, %zu handovers (%.1f per connected hour),\n"
              "  mean dwell %.0fs, %zu outages\n\n",
              handovers.connected_fraction * 100.0, handovers.handover_count,
              handovers.handovers_per_hour, handovers.mean_dwell_seconds,
              handovers.outage_count);

  // 4. TLE catalog export for external SDR/tracking tools.
  std::vector<orbit::Tle> tles;
  for (const auto& sat : sats) {
    tles.push_back(orbit::Tle::from_elements(sat.elements, sat.epoch,
                                             9000 + static_cast<int>(sat.id), sat.name));
  }
  const std::string catalog_text = orbit::format_tle_catalog(tles);
  const orbit::TleCatalog reparsed = orbit::parse_tle_catalog(catalog_text);
  std::printf("TLE catalog export: %zu records (%zu parse errors on re-ingest)\n",
              reparsed.entries.size(), reparsed.errors.size());
  std::printf("%s", catalog_text.substr(0, 3 * 72).c_str());
  return 0;
}
