// Small statistics toolkit: chi-square, normal-tail and correlation tests
// (tests/util_stats_test.cpp), the Figure 9 bar chart, and the running
// mean/variance behind the benchmark reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace mhhea::util {

/// Running mean / variance (Welford). Numerically stable.
class RunningStats {
 public:
  void add(double x) noexcept;
  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Pearson chi-square statistic for observed counts vs a uniform expectation.
/// Returns the statistic; degrees of freedom = counts.size() - 1.
[[nodiscard]] double chi_square_uniform(std::span<const std::uint64_t> counts);

/// Upper-tail critical value of the chi-square distribution at significance
/// alpha in {0.01, 0.05} using the Wilson–Hilferty approximation — accurate
/// to ~1% for df >= 3, which is all the battery needs.
[[nodiscard]] double chi_square_critical(int df, double alpha);

/// Two-sided normal-approximation p-value for a standard normal z statistic.
[[nodiscard]] double normal_two_sided_p(double z);

/// erfc-based standard normal survival function Q(z) = P(Z > z).
[[nodiscard]] double normal_q(double z);

/// Pearson correlation of two equal-length series; 0 if degenerate.
[[nodiscard]] double pearson(std::span<const double> x, std::span<const double> y);

/// Render a simple horizontal ASCII bar chart (used for Figure 9).
/// `scale_max` of 0 auto-scales to the largest value.
[[nodiscard]] std::string ascii_bar_chart(std::span<const std::string> labels,
                                          std::span<const double> values,
                                          int width = 50, double scale_max = 0.0);

}  // namespace mhhea::util
