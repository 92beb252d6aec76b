#include "coverage/report.hpp"

#include <sstream>

#include "util/table.hpp"

namespace mpleo::cov {

std::string site_report(const std::string& site_name, const CoverageStats& stats) {
  std::ostringstream os;
  os << site_name << ":\n"
     << "  covered   : " << util::Table::pct(stats.covered_fraction) << " ("
     << util::Table::duration(stats.covered_seconds) << ")\n"
     << "  uncovered : " << util::Table::duration(stats.uncovered_seconds) << "\n"
     << "  max gap   : " << util::Table::duration(stats.max_gap_seconds) << "\n"
     << "  passes    : " << stats.pass_count << "\n";
  return os.str();
}

}  // namespace mpleo::cov
