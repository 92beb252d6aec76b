// Small statistics toolkit for Monte-Carlo experiment summaries.
#pragma once

#include <cstddef>
#include <vector>

namespace mpleo::util {

// Welford online accumulator: numerically stable mean/variance plus extrema.
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Percentile with linear interpolation; p in [0,100]. Copies and sorts.
[[nodiscard]] double percentile(std::vector<double> values, double p);

[[nodiscard]] double mean_of(const std::vector<double>& values);

}  // namespace mpleo::util
