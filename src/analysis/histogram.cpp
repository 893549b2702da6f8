#include "analysis/histogram.h"

#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>

namespace bolot::analysis {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  if (bins == 0) throw std::invalid_argument("Histogram: bins == 0");
  if (!(lo < hi)) throw std::invalid_argument("Histogram: lo >= hi");
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  const auto bin = static_cast<std::size_t>((x - lo_) / (hi_ - lo_) *
                                            static_cast<double>(counts_.size()));
  ++counts_[bin < counts_.size() ? bin : counts_.size() - 1];
}

void Histogram::add_all(std::span<const double> xs) {
  for (double x : xs) add(x);
}

double Histogram::bin_width() const {
  return (hi_ - lo_) / static_cast<double>(counts_.size());
}

double Histogram::bin_center(std::size_t bin) const {
  if (bin >= counts_.size()) throw std::out_of_range("Histogram: bad bin");
  return lo_ + (static_cast<double>(bin) + 0.5) * bin_width();
}

std::vector<double> Histogram::densities() const {
  std::vector<double> out(counts_.size(), 0.0);
  const std::uint64_t in_range = total_ - underflow_ - overflow_;
  if (in_range == 0) return out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    out[i] = static_cast<double>(counts_[i]) / static_cast<double>(in_range);
  }
  return out;
}

std::vector<double> Histogram::centers() const {
  std::vector<double> out(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) out[i] = bin_center(i);
  return out;
}

std::vector<HistogramPeak> Histogram::find_peaks(
    double min_mass, std::size_t separation_bins) const {
  std::vector<HistogramPeak> peaks;
  if (total_ == 0) return peaks;
  const auto n = counts_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t c = counts_[i];
    if (c == 0) continue;
    const double mass = static_cast<double>(c) / static_cast<double>(total_);
    if (mass < min_mass) continue;
    bool is_peak = true;
    const std::size_t lo = i > separation_bins ? i - separation_bins : 0;
    const std::size_t hi = std::min(n - 1, i + separation_bins);
    for (std::size_t j = lo; j <= hi && is_peak; ++j) {
      if (j == i) continue;
      // Strictly-greater on the left makes a plateau report its first bin.
      if (j < i ? counts_[j] >= c : counts_[j] > c) is_peak = false;
    }
    if (is_peak) peaks.push_back({i, bin_center(i), mass});
  }
  return peaks;
}

namespace detail {

TickPair heaviest_tick_pair(std::span<const double> values_ms, double lo_ms,
                            double hi_ms, std::int64_t tick_us) {
  std::map<std::int64_t, std::size_t> counts;
  for (double v : values_ms) {
    if (v <= lo_ms || v >= hi_ms) continue;
    ++counts[static_cast<std::int64_t>(std::llround(v * 1e3))];
  }
  TickPair best;
  for (const auto& [value_us, count] : counts) {
    std::size_t pair = count;
    const auto next = counts.find(value_us + tick_us);
    if (next != counts.end()) pair += next->second;
    if (pair > best.count) best = {value_us, pair};
  }
  return best;
}

}  // namespace detail

}  // namespace bolot::analysis
