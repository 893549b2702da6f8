// One-pass, bounded-memory streaming forms of the core estimators.
//
// An N x N tomography mesh analyzes 10^4+ probe streams online in one
// process, so each class here is push(rtt)-driven and allocates nothing on
// the push path after construction.  For loss, Gilbert and the eq.-6
// workload the streaming core is the only implementation: the batch
// entry points in loss.h / lindley.h fold their input through it.
//
//   StreamingLossState  -- ulp / clp / plg and the Gilbert refit from
//                          integer transition counters.  loss_stats() and
//                          fit_gilbert() push into one and read stats() /
//                          gilbert(), so the two agree by construction.
//   StreamingLindley    -- the eq. (6) workload inversion over
//                          detail::WorkloadCore, the core that
//                          analyze_workload() also feeds.  The batch form
//                          adds only the auto-sized histogram edge; given
//                          the same explicit edge the two are
//                          bit-identical.
//   StreamingPhaseFit   -- the phase-plot mu / D regression.  Quantized
//                          clocks (clock_tick > 0, an integer number of
//                          microseconds) reproduce analyze_phase_plot()
//                          exactly; exact clocks reproduce the estimates
//                          (D-hat, intercept, mu-hat, diagonal fraction)
//                          up to measure-zero bin-boundary ties, and
//                          approximate compression_fraction to one
//                          auxiliary bin of boundary mass (see
//                          fractions_exact() and docs/ESTIMATORS.md).
//   StreamingAutocorr   -- fixed-lag autocorrelation plus the Welford
//                          summary.  The summary is the RunningSummary
//                          that summarize() runs, so it is bit-identical;
//                          acf() matches autocorrelation() to ~1e-12
//                          relative (the centered products are expanded
//                          algebraically around the first sample;
//                          MODEL_NOTES section 17 gives the cancellation
//                          argument).
//
// tests/analysis/streaming_test.cpp checks the loss state against a
// definition-level oracle and the phase fit and autocorrelation against
// their batch references on 10^6-sample random streams; the contract per
// estimator is documented in docs/ESTIMATORS.md.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/histogram.h"
#include "analysis/lindley.h"
#include "analysis/loss.h"
#include "analysis/phase_plot.h"
#include "analysis/stats.h"
#include "util/time.h"
#include "util/units.h"

namespace bolot::analysis {

namespace detail {

/// Fixed-capacity open-addressing map from an int64 key (a microsecond-
/// quantized descent) to a sample count and sum.  Insertion past capacity
/// throws std::length_error -- bounded memory is the whole point; the
/// capacity is a constructor knob on the estimator that owns the map.
class KeyStatMap {
 public:
  struct Entry {
    std::int64_t key = 0;
    std::uint64_t count = 0;  // 0 = empty slot
    double sum = 0.0;
  };

  /// Capacity is rounded up to a power of two; `capacity` is the maximum
  /// number of *distinct* keys accepted.
  explicit KeyStatMap(std::size_t capacity);

  void add(std::int64_t key, double value);
  std::uint64_t count_at(std::int64_t key) const;  // 0 when absent
  std::size_t distinct() const { return occupied_; }

  /// Occupied entries sorted by key ascending, written into `out` (cleared
  /// first; its capacity is reserved at construction time by the owner).
  void sorted_entries(std::vector<Entry>& out) const;

 private:
  Entry* slot_for(std::int64_t key);
  const Entry* slot_for(std::int64_t key) const;

  std::vector<Entry> slots_;
  std::size_t mask_ = 0;
  std::size_t occupied_ = 0;
  std::size_t capacity_ = 0;
};

/// The eq.-(6) workload estimator on resolved doubles: g_n samples are
/// added one at a time in trace order and analysis() decodes the
/// histogram.  analyze_workload() feeds it after auto-sizing the edge from
/// the samples; StreamingLindley feeds it from push().
class WorkloadCore {
 public:
  struct Params {
    double edge_ms = 0.0;  // histogram upper edge
    double bin_ms = 0.0;
    double delta_ms = 0.0;
    double mu_bits_per_ms = 0.0;
    double probe_bits = 0.0;      // P
    double reference_bits = 0.0;  // reference cross-traffic packet
    double min_peak_mass = 0.0;
  };

  explicit WorkloadCore(const Params& params);

  void add(double g);

  std::size_t samples() const { return samples_; }
  const Histogram& histogram() const { return histogram_; }
  double mean_workload_bits() const;
  double busy_sample_fraction() const;
  /// Peak labelling and busy-period means over the added samples.
  WorkloadAnalysis analysis() const;

 private:
  Params params_;
  Histogram histogram_;
  std::size_t samples_ = 0;
  std::size_t busy_ = 0;
  double busy_bits_sum_ = 0.0;
};

}  // namespace detail

// ---------------------------------------------------------------------------
// StreamingLossState
// ---------------------------------------------------------------------------

/// Streaming ulp / clp / plg (paper section 5).  push() one probe outcome
/// at a time in sequence order; stats() snapshots the LossStats of the
/// pushed prefix, including the still-open trailing loss run.  The batch
/// loss_stats() and fit_gilbert() are folds over this class.
class StreamingLossState {
 public:
  /// `burst_capacity` reserves the burst-length histogram; a loss run
  /// longer than every previous run *and* the reservation grows the
  /// vector (the only allocation push() can ever perform — sized so it
  /// never happens in realistic traces).
  explicit StreamingLossState(std::size_t burst_capacity = 64);

  /// The paper's convention: a zero rtt marks a lost probe.
  void push(Duration rtt) { push_lost(rtt == Duration::zero()); }
  void push_lost(bool lost);

  std::size_t probes() const { return probes_; }
  std::size_t losses() const { return losses_; }
  /// Cheap online accessor (an obs Sampler probe): losses / probes.
  double loss_fraction() const;

  /// Equals loss_stats() over the pushed prefix.  Throws
  /// std::invalid_argument when nothing was pushed (as the batch does on
  /// an empty input).  Allocates the snapshot's burst vector; the push
  /// path stays allocation-free.
  LossStats stats() const;

  /// Equals fit_gilbert() over the pushed prefix; throws
  /// std::invalid_argument below two samples.
  GilbertFit gilbert() const;

 private:
  std::size_t probes_ = 0;
  std::size_t losses_ = 0;
  std::size_t ok_pairs_ = 0;    // (ok, *) pairs
  std::size_t ok_to_lost_ = 0;  // (ok, lost) pairs
  std::size_t lost_pairs_ = 0;  // (lost, *) pairs
  std::size_t lost_to_ok_ = 0;  // (lost, ok) pairs
  std::size_t run_ = 0;         // open loss run length
  bool have_prev_ = false;
  bool prev_lost_ = false;
  std::vector<std::size_t> closed_bursts_;  // index k = runs of length k+1
};

// ---------------------------------------------------------------------------
// StreamingLindley
// ---------------------------------------------------------------------------

struct StreamingLindleyConfig {
  Duration delta;                               // probe spacing
  ByteSize probe_wire;                          // P at the bottleneck
  Bandwidth bottleneck = Bandwidth::kbps(128);  // mu used to invert eq. (6)
  Duration bin = Duration::millis(1);
  /// Histogram upper edge.  The batch estimator can auto-size this from
  /// max(g_n); a one-pass estimator cannot, so it is required here
  /// (constructor throws when zero).  Equivalence with analyze_workload()
  /// holds when the batch call is given the same explicit edge.
  Duration max;
  double min_peak_mass = 0.01;
  /// Reference cross-traffic packet for labeling peaks.
  ByteSize reference_packet = ByteSize::bytes(512);
};

/// Streaming eq.-(6) workload inversion: g_n = rtt_{n+1} - rtt_n + delta
/// over consecutively received probes, histogrammed online.
class StreamingLindley {
 public:
  explicit StreamingLindley(const StreamingLindleyConfig& config);

  /// Push the next probe's rtt in sequence order (zero = lost; a loss
  /// breaks the consecutive pair exactly as in workload_samples_ms()).
  void push(Duration rtt);

  std::size_t samples() const { return core_.samples(); }
  const Histogram& histogram() const { return core_.histogram(); }
  /// Online accessors (obs Sampler probes); both equal the batch values
  /// over the pushed prefix at any point.
  double mean_workload_bits() const { return core_.mean_workload_bits(); }
  double busy_sample_fraction() const {
    return core_.busy_sample_fraction();
  }

  /// Equals analyze_workload() with the same options over the pushed
  /// prefix; throws std::invalid_argument when no pair has formed yet.
  WorkloadAnalysis analysis() const;

 private:
  double delta_ms_ = 0.0;
  detail::WorkloadCore core_;
  bool have_prev_ = false;
  double prev_rtt_ms_ = 0.0;
};

// ---------------------------------------------------------------------------
// StreamingPhaseFit
// ---------------------------------------------------------------------------

struct StreamingPhaseFitConfig {
  Duration delta;       // probe spacing
  ByteSize probe_wire;  // P, for the mu-hat inversion
  /// Source clock resolution; zero = exact clock.  For exact batch
  /// equality a nonzero tick must be a whole number of microseconds
  /// (descents then land on the microsecond grid the batch estimator
  /// clusters on).
  Duration clock_tick;
  PhaseAnalysisOptions options{};
  /// tick > 0 only: maximum distinct quantized descent values tracked in
  /// the compression-cluster map (std::length_error past it).  Quantized
  /// descents are multiples of the tick, so a few hundred covers any
  /// realistic trace.
  std::size_t cluster_capacity = 256;
  /// tick > 0 only: same bound for the all-descents map behind
  /// compression_fraction.
  std::size_t band_capacity = 1024;
  /// tick == 0 only: bins per tolerance_ms in the auxiliary descent
  /// histogram behind compression_fraction (sets the approximation
  /// granularity; see fractions_exact()).
  std::size_t band_bins_per_tolerance = 16;
};

/// Streaming phase-plot regression (paper section 4): D-hat from the
/// minimum rtt over plotted pairs, the compression-line intercept
/// delta - P/mu from the descent cluster, mu-hat from the intercept.
class StreamingPhaseFit {
 public:
  explicit StreamingPhaseFit(const StreamingPhaseFitConfig& config);

  /// Push the next probe's rtt in sequence order (zero = lost).
  void push(Duration rtt);

  std::size_t pairs() const { return pairs_; }
  /// Online accessor: minimum rtt over plotted pairs so far (ms);
  /// +infinity before the first pair.
  double fixed_delay_ms() const { return min_rtt_ms_; }

  /// True when compression_fraction in estimate() reproduces the batch
  /// two-pass count sample-for-sample (quantized clocks); false when it
  /// is the documented histogram approximation (exact clocks).
  bool fractions_exact() const { return tick_ms_ > 0.0; }

  /// Equals analyze_phase_plot() over the pushed prefix (see the header
  /// comment for the exactness contract per field); throws
  /// std::invalid_argument when no pair has formed yet.
  PhaseAnalysis estimate() const;

 private:
  void push_pair(double prev_ms, double cur_ms);
  std::optional<double> quantized_intercept() const;
  std::optional<double> binned_intercept() const;
  double band_fraction(double intercept) const;

  double delta_ms_ = 0.0;
  double tick_ms_ = 0.0;
  double probe_bits_ = 0.0;
  PhaseAnalysisOptions options_;
  double d_lo_ = 0.0;

  std::size_t pairs_ = 0;
  std::size_t candidates_ = 0;
  std::size_t on_diagonal_ = 0;
  double min_rtt_ms_ = 0.0;  // +inf until the first pair
  bool have_prev_ = false;
  double prev_rtt_ms_ = 0.0;

  // tick > 0: quantized descent maps (candidates / all descents).
  std::optional<detail::KeyStatMap> cluster_map_;
  std::optional<detail::KeyStatMap> band_map_;
  mutable std::vector<detail::KeyStatMap::Entry> scratch_;

  // tick == 0: candidate histogram mirroring the batch bin layout, with
  // per-bin sums split at the bin center so the modal-neighborhood
  // centroid can be reassembled without the samples.
  std::size_t cand_bins_ = 0;
  double cand_width_ = 0.0;
  std::vector<std::uint64_t> cand_count_;
  std::vector<std::uint64_t> cand_lower_count_;
  std::vector<double> cand_lower_sum_;
  std::vector<double> cand_upper_sum_;
  // Overflowed candidates (d >= delta) that the batch centroid window
  // still reaches when the modal bin is the last one.
  std::uint64_t ovf_in_count_ = 0;
  double ovf_in_sum_ = 0.0;
  double last_center_ = 0.0;
  // tick == 0: auxiliary fine histogram of *all* descents for the
  // compression band count (count + sum per bin; band edges are resolved
  // per bin, hence the documented approximation).
  double band_lo_ = 0.0;
  double band_width_ = 0.0;
  std::vector<std::uint64_t> band_count_;
  std::vector<double> band_sum_;
};

// ---------------------------------------------------------------------------
// StreamingAutocorr
// ---------------------------------------------------------------------------

/// Fixed-lag streaming autocorrelation plus the Welford summary.  Memory
/// is O(max_lag), independent of the stream length: a ring of the last
/// max_lag + 1 values, the first max_lag values, and one cross-product
/// accumulator per lag.  Values are shifted by the first sample before
/// accumulation, which is what keeps the algebraic expansion of the
/// centered products well-conditioned (MODEL_NOTES section 17).
class StreamingAutocorr {
 public:
  explicit StreamingAutocorr(std::size_t max_lag);

  void push(double x);
  /// rtt-driven convenience: pushes rtt in milliseconds.
  void push(Duration rtt) { push(rtt.millis()); }

  std::size_t count() const { return running_.count(); }
  std::size_t max_lag() const { return max_lag_; }
  /// Bit-identical to summarize() over the pushed values (both run one
  /// RunningSummary in push order).
  double mean() const { return running_.mean(); }
  double variance() const { return running_.variance(); }
  Summary summary() const { return running_.summary(); }

  /// Matches autocorrelation(xs, max_lag()) to ~1e-12 relative; throws
  /// std::invalid_argument on an empty or constant stream exactly as the
  /// batch does.  Allocates only the returned vector.
  std::vector<double> acf() const;

 private:
  std::size_t max_lag_;
  RunningSummary running_;    // Welford state on the raw values
  double offset_ = 0.0;       // first sample; all sums are of x - offset_
  double shifted_sum_ = 0.0;  // sum of z_i
  std::vector<double> ring_;   // last max_lag_ + 1 shifted values
  std::vector<double> head_;   // first max_lag_ shifted values
  std::vector<double> cross_;  // cross_[l] = sum_i z_i * z_{i+l}
};

}  // namespace bolot::analysis
