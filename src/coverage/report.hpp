// Human-readable formatting of coverage results.
#pragma once

#include <string>

#include "coverage/engine.hpp"

namespace mpleo::cov {

// Multi-line report for a named site.
[[nodiscard]] std::string site_report(const std::string& site_name,
                                      const CoverageStats& stats);

}  // namespace mpleo::cov
