#include "coverage/report.hpp"

#include <gtest/gtest.h>

namespace mpleo::cov {
namespace {

CoverageStats sample_stats() {
  CoverageStats stats;
  stats.covered_fraction = 0.9432;
  stats.covered_seconds = 0.9432 * 7.0 * 86400.0;
  stats.uncovered_seconds = 7.0 * 86400.0 - stats.covered_seconds;
  stats.max_gap_seconds = 4320.0;  // 1h 12m
  stats.pass_count = 214;
  return stats;
}

TEST(Report, SummaryContainsKeyNumbers) {
  const std::string report = site_report("Taipei", sample_stats());
  EXPECT_NE(report.find("94.32%"), std::string::npos);
  EXPECT_NE(report.find("1h 12m"), std::string::npos);
  EXPECT_NE(report.find("passes    : 214"), std::string::npos);
}

TEST(Report, SiteReportIsMultiLineWithName) {
  const std::string report = site_report("Taipei", sample_stats());
  EXPECT_EQ(report.rfind("Taipei:", 0), 0u);
  EXPECT_NE(report.find("covered"), std::string::npos);
  EXPECT_NE(report.find("max gap"), std::string::npos);
  EXPECT_NE(report.find("passes"), std::string::npos);
  // Four indented stat lines.
  std::size_t lines = 0;
  for (char ch : report) {
    if (ch == '\n') ++lines;
  }
  EXPECT_EQ(lines, 5u);
}

TEST(Report, ZeroCoverageRendersCleanly) {
  CoverageStats empty;
  empty.uncovered_seconds = 86400.0;
  empty.max_gap_seconds = 86400.0;
  const std::string report = site_report("Nowhere", empty);
  EXPECT_NE(report.find("0.00%"), std::string::npos);
  EXPECT_NE(report.find("passes    : 0"), std::string::npos);
}

}  // namespace
}  // namespace mpleo::cov
