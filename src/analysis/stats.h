// Descriptive statistics shared by all analysis passes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

namespace bolot::analysis {

struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double variance = 0.0;  // unbiased (n-1) when count > 1, else 0
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Welford's running summary: the one recurrence behind summarize() and
/// StreamingAutocorr, so both give bit-identical results on the same
/// values pushed in the same order.
class RunningSummary {
 public:
  void push(double x) {
    ++count_;
    if (count_ == 1) min_ = max_ = x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  std::size_t count() const { return count_; }
  double mean() const { return mean_; }
  double variance() const {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  /// Zeroed struct when nothing was pushed.
  Summary summary() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Summary of a sample; returns a zeroed struct for an empty input.
Summary summarize(std::span<const double> xs);

/// q-quantile (q in [0,1]) by linear interpolation on the sorted sample.
/// Throws on empty input or q outside [0,1].
double quantile(std::span<const double> xs, double q);

/// Median convenience wrapper.
double median(std::span<const double> xs);

/// Sample autocorrelation at lags 0..max_lag (inclusive); acf[0] == 1.
/// Throws if the sample is empty or constant.
std::vector<double> autocorrelation(std::span<const double> xs,
                                    std::size_t max_lag);

/// Pearson correlation of two equal-length samples; throws on mismatch,
/// empty input, or zero variance.
double pearson(std::span<const double> xs, std::span<const double> ys);

}  // namespace bolot::analysis
