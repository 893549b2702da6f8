// Batch/streaming equivalence property tests: every streaming estimator
// must reproduce its batch counterpart on identical inputs (docs/
// ESTIMATORS.md states the per-estimator contract these tests pin).
//
// The random streams are large (10^6 samples) on purpose: the algebraic
// acf expansion and the snapshot/counter paths have to hold up over long
// horizons, not toy inputs.
#include "analysis/streaming.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "analysis/lindley.h"
#include "analysis/loss.h"
#include "analysis/phase_plot.h"
#include "analysis/stats.h"
#include "trace_fixtures.h"
#include "util/rng.h"

namespace bolot::analysis {
namespace {

constexpr std::size_t kStreamLength = 1'000'000;

// |a - b| <= tol * max(1, |b|): relative where the scale allows, absolute
// near zero.
void expect_close(double a, double b, double tol = 1e-9) {
  EXPECT_LE(std::abs(a - b), tol * std::max(1.0, std::abs(b)))
      << "a=" << a << " b=" << b;
}

std::vector<std::uint8_t> random_gilbert_losses(std::uint64_t seed,
                                                double p, double q,
                                                std::size_t n) {
  Rng rng(seed);
  GilbertFit chain;
  chain.p = p;
  chain.q = q;
  return generate_gilbert(chain, n, rng);
}

// ---------------------------------------------------------------------------
// StreamingLossState
// ---------------------------------------------------------------------------

void expect_loss_stats_equal(const LossStats& got, const LossStats& want) {
  EXPECT_EQ(got.probes, want.probes);
  EXPECT_EQ(got.losses, want.losses);
  EXPECT_EQ(got.ulp, want.ulp);
  EXPECT_EQ(got.clp, want.clp);
  EXPECT_EQ(got.plg_from_clp, want.plg_from_clp);
  EXPECT_EQ(got.mean_burst_length, want.mean_burst_length);
  EXPECT_EQ(got.burst_length_counts, want.burst_length_counts);
}

void expect_gilbert_equal(const GilbertFit& got, const GilbertFit& want) {
  EXPECT_EQ(got.p, want.p);
  EXPECT_EQ(got.q, want.q);
  EXPECT_EQ(got.degenerate, want.degenerate);
}

// Definition-level oracle.  loss_stats() and fit_gilbert() are folds over
// StreamingLossState, so checking the state against them alone would
// compare the state with itself; this recomputes every field from the
// paper's definitions instead.
struct LossOracle {
  LossStats stats;
  GilbertFit fit;  // meaningful from two samples on
};

LossOracle loss_oracle(std::span<const std::uint8_t> losses) {
  const auto lost = [&](std::size_t n) { return losses[n] != 0 ? 1 : 0; };
  LossOracle oracle;
  LossStats& s = oracle.stats;
  s.probes = losses.size();
  std::size_t pairs[2][2] = {};  // pairs[a][b]: lost_n == a, lost_n+1 == b
  for (std::size_t n = 0; n < losses.size(); ++n) {
    s.losses += lost(n);
    if (n + 1 < losses.size()) ++pairs[lost(n)][lost(n + 1)];
  }
  std::size_t runs = 0;
  for (std::size_t n = 0; n < losses.size(); ++n) {
    if (!lost(n)) continue;
    std::size_t length = 0;
    for (; n < losses.size() && lost(n); ++n) ++length;
    if (s.burst_length_counts.size() < length) {
      s.burst_length_counts.resize(length, 0);
    }
    ++s.burst_length_counts[length - 1];
    ++runs;
  }
  const auto ratio = [](std::size_t num, std::size_t den) {
    return static_cast<double>(num) / static_cast<double>(den);
  };
  const std::size_t from_ok = pairs[0][0] + pairs[0][1];
  const std::size_t from_lost = pairs[1][0] + pairs[1][1];
  s.ulp = ratio(s.losses, s.probes);
  s.clp = from_lost > 0 ? ratio(pairs[1][1], from_lost) : 0.0;
  s.plg_from_clp = s.clp < 1.0 ? 1.0 / (1.0 - s.clp)
                             : std::numeric_limits<double>::infinity();
  s.mean_burst_length = runs > 0 ? ratio(s.losses, runs) : 0.0;
  // Gilbert p = P(lost | ok), q = P(ok | lost); a state never left clamps
  // the unobserved rate so the stationary loss matches the data.
  if (from_ok == 0) {
    oracle.fit = {.p = 1.0, .q = 0.0, .degenerate = true};
  } else if (from_lost == 0) {
    oracle.fit = {.p = ratio(pairs[0][1], from_ok), .q = 1.0,
                  .degenerate = true};
  } else {
    oracle.fit = {.p = ratio(pairs[0][1], from_ok),
                  .q = ratio(pairs[1][0], from_lost)};
  }
  return oracle;
}

TEST(StreamingLossStateTest, MatchesBatchExactlyOnMillionSampleStreams) {
  const struct {
    std::uint64_t seed;
    double p, q;
  } cases[] = {{1, 0.02, 0.5}, {2, 0.2, 0.2}, {3, 0.001, 0.9}};
  for (const auto& c : cases) {
    const auto losses =
        random_gilbert_losses(c.seed, c.p, c.q, kStreamLength);
    StreamingLossState streaming;
    for (std::uint8_t v : losses) streaming.push_lost(v != 0);
    const LossOracle oracle = loss_oracle(losses);
    expect_loss_stats_equal(streaming.stats(), oracle.stats);
    expect_loss_stats_equal(loss_stats(losses), oracle.stats);
    expect_gilbert_equal(streaming.gilbert(), oracle.fit);
    expect_gilbert_equal(fit_gilbert(losses), oracle.fit);
  }
}

TEST(StreamingLossStateTest, SnapshotMatchesBatchAtEveryPrefix) {
  const auto losses = random_gilbert_losses(7, 0.3, 0.4, 300);
  StreamingLossState streaming;
  for (std::size_t n = 0; n < losses.size(); ++n) {
    streaming.push_lost(losses[n] != 0);
    const auto prefix =
        std::span<const std::uint8_t>(losses.data(), n + 1);
    const LossOracle oracle = loss_oracle(prefix);
    expect_loss_stats_equal(streaming.stats(), oracle.stats);
    expect_loss_stats_equal(loss_stats(prefix), oracle.stats);
    if (n > 0) expect_gilbert_equal(streaming.gilbert(), oracle.fit);
  }
}

TEST(StreamingLossStateTest, DegenerateChainsMatchBatch) {
  for (bool all_lost : {true, false}) {
    StreamingLossState streaming;
    std::vector<std::uint8_t> losses(10, all_lost ? 1 : 0);
    for (std::uint8_t v : losses) streaming.push_lost(v != 0);
    const LossOracle oracle = loss_oracle(losses);
    EXPECT_TRUE(oracle.fit.degenerate);
    expect_gilbert_equal(streaming.gilbert(), oracle.fit);
    expect_gilbert_equal(fit_gilbert(losses), oracle.fit);
    expect_loss_stats_equal(streaming.stats(), oracle.stats);
    expect_loss_stats_equal(loss_stats(losses), oracle.stats);
  }
}

TEST(StreamingLossStateTest, EmptyThrowsLikeBatch) {
  StreamingLossState streaming;
  EXPECT_THROW(streaming.stats(), std::invalid_argument);
  EXPECT_THROW(streaming.gilbert(), std::invalid_argument);
  streaming.push_lost(false);
  EXPECT_THROW(streaming.gilbert(), std::invalid_argument);
  EXPECT_EQ(streaming.stats().probes, 1u);
}

// ---------------------------------------------------------------------------
// Shared random-walk rtt stream
// ---------------------------------------------------------------------------

/// Random-walk rtts around a base delay with loss gaps and an injected
/// compression cluster (descents of exactly `descent_ms` appear often);
/// `tick_ms` > 0 quantizes rtts to the source-clock grid.
std::vector<std::optional<double>> random_rtt_stream(
    std::uint64_t seed, std::size_t n, double loss_probability,
    double descent_ms, double tick_ms) {
  Rng rng(seed);
  std::vector<std::optional<double>> rtts;
  rtts.reserve(n);
  double rtt = 80.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.chance(loss_probability)) {
      rtts.push_back(std::nullopt);
      continue;
    }
    if (rng.chance(0.25)) {
      rtt -= descent_ms;  // compression-line event
    } else {
      rtt += rng.uniform(-4.0, 5.0);
    }
    if (rtt < 40.0) rtt = 40.0 + rng.uniform(0.0, 30.0);
    if (rtt > 400.0) rtt = 400.0 - rng.uniform(0.0, 30.0);
    double value = rtt;
    if (tick_ms > 0.0) {
      value = std::round(value / tick_ms) * tick_ms;
      if (value <= 0.0) value = tick_ms;
    }
    rtts.push_back(value);
  }
  return rtts;
}

ProbeTrace stream_trace(const std::vector<std::optional<double>>& rtts,
                        double delta_ms, double tick_ms) {
  return testing::make_trace(delta_ms, rtts, /*probe_wire_bytes=*/72,
                             tick_ms);
}

// ---------------------------------------------------------------------------
// StreamingLindley
// ---------------------------------------------------------------------------

TEST(StreamingLindleyTest, MatchesBatchBitForBitOnMillionSampleStream) {
  const double delta_ms = 50.0;
  const auto rtts =
      random_rtt_stream(11, kStreamLength, 0.05, 19.5, /*tick_ms=*/0.0);
  const ProbeTrace trace = stream_trace(rtts, delta_ms, 0.0);

  StreamingLindleyConfig config;
  config.delta = trace.delta;
  config.probe_wire = ByteSize::bytes(trace.probe_wire_bytes);
  config.bottleneck = Bandwidth::kbps(128);
  config.bin = Duration::millis(1);
  config.max = Duration::millis(200);
  StreamingLindley streaming(config);
  for (const auto& r : trace.records) streaming.push(r.rtt);

  WorkloadOptions options;
  options.bottleneck_bps = config.bottleneck.bps();
  options.bin_ms = config.bin.millis();
  options.max_ms = config.max.millis();
  const WorkloadAnalysis batch = analyze_workload(trace, options);
  const WorkloadAnalysis got = streaming.analysis();

  EXPECT_EQ(got.histogram.total(), batch.histogram.total());
  ASSERT_EQ(got.histogram.bin_count(), batch.histogram.bin_count());
  for (std::size_t bin = 0; bin < batch.histogram.bin_count(); ++bin) {
    EXPECT_EQ(got.histogram.count(bin), batch.histogram.count(bin));
  }
  EXPECT_EQ(got.histogram.overflow(), batch.histogram.overflow());
  ASSERT_EQ(got.peaks.size(), batch.peaks.size());
  for (std::size_t i = 0; i < batch.peaks.size(); ++i) {
    EXPECT_EQ(got.peaks[i].position_ms, batch.peaks[i].position_ms);
    EXPECT_EQ(got.peaks[i].mass, batch.peaks[i].mass);
    EXPECT_EQ(got.peaks[i].workload_bits, batch.peaks[i].workload_bits);
    EXPECT_EQ(got.peaks[i].cross_packets.has_value(),
              batch.peaks[i].cross_packets.has_value());
    if (batch.peaks[i].cross_packets) {
      EXPECT_EQ(*got.peaks[i].cross_packets, *batch.peaks[i].cross_packets);
    }
  }
  // Same accumulation order, same arithmetic: bit-identical, not merely
  // close.
  EXPECT_EQ(got.mean_workload_bits, batch.mean_workload_bits);
  EXPECT_EQ(got.busy_sample_fraction, batch.busy_sample_fraction);
}

TEST(StreamingLindleyTest, OnlineAccessorsMatchBatchAtPrefixes) {
  const double delta_ms = 20.0;
  const auto rtts = random_rtt_stream(13, 2000, 0.1, 8.0, 0.0);
  StreamingLindleyConfig config;
  config.delta = Duration::millis(delta_ms);
  config.probe_wire = ByteSize::bytes(72);
  config.max = Duration::millis(100);
  StreamingLindley streaming(config);

  std::vector<std::optional<double>> prefix;
  for (const auto& r : rtts) {
    prefix.push_back(r);
    streaming.push(r ? Duration::millis(*r) : Duration::zero());
  }
  const ProbeTrace trace = stream_trace(prefix, delta_ms, 0.0);
  WorkloadOptions options;
  options.max_ms = config.max.millis();
  const WorkloadAnalysis batch = analyze_workload(trace, options);
  EXPECT_EQ(streaming.mean_workload_bits(), batch.mean_workload_bits);
  EXPECT_EQ(streaming.busy_sample_fraction(), batch.busy_sample_fraction);
  EXPECT_EQ(streaming.samples(), workload_samples_ms(trace).size());
}

TEST(StreamingLindleyTest, RequiresExplicitHistogramEdge) {
  StreamingLindleyConfig config;
  config.delta = Duration::millis(50);
  config.probe_wire = ByteSize::bytes(72);
  config.max = Duration::zero();  // batch would auto-size; streaming cannot
  EXPECT_THROW(StreamingLindley{config}, std::invalid_argument);
}

TEST(StreamingLindleyTest, NoPairsThrowsLikeBatch) {
  StreamingLindleyConfig config;
  config.delta = Duration::millis(50);
  config.probe_wire = ByteSize::bytes(72);
  config.max = Duration::millis(100);
  StreamingLindley streaming(config);
  streaming.push(Duration::millis(80));
  streaming.push(Duration::zero());  // loss breaks the only pair
  streaming.push(Duration::millis(90));
  EXPECT_THROW(streaming.analysis(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// StreamingPhaseFit
// ---------------------------------------------------------------------------

void expect_phase_estimates_close(const PhaseAnalysis& got,
                                  const PhaseAnalysis& batch, double tol) {
  expect_close(got.fixed_delay_ms, batch.fixed_delay_ms, tol);
  ASSERT_EQ(got.compression_intercept_ms.has_value(),
            batch.compression_intercept_ms.has_value());
  if (batch.compression_intercept_ms) {
    expect_close(*got.compression_intercept_ms,
                 *batch.compression_intercept_ms, tol);
  }
  ASSERT_EQ(got.bottleneck_bps.has_value(), batch.bottleneck_bps.has_value());
  if (batch.bottleneck_bps) {
    expect_close(*got.bottleneck_bps, *batch.bottleneck_bps, tol);
  }
  expect_close(got.diagonal_fraction, batch.diagonal_fraction, tol);
}

TEST(StreamingPhaseFitTest, QuantizedClockMatchesBatchOnMillionSamples) {
  // The paper's DECstation regime: 3.906 ms tick (a whole 3906 us).
  const double tick_ms = 3.906;
  const double delta_ms = 50.0;
  const auto rtts = random_rtt_stream(17, kStreamLength, 0.05,
                                      /*descent_ms=*/5.0 * tick_ms, tick_ms);
  const ProbeTrace trace = stream_trace(rtts, delta_ms, tick_ms);

  StreamingPhaseFitConfig config;
  config.delta = trace.delta;
  config.probe_wire = ByteSize::bytes(trace.probe_wire_bytes);
  config.clock_tick = trace.clock_tick;
  StreamingPhaseFit streaming(config);
  for (const auto& r : trace.records) streaming.push(r.rtt);

  const PhaseAnalysis batch = analyze_phase_plot(trace);
  const PhaseAnalysis got = streaming.estimate();
  expect_phase_estimates_close(got, batch, 1e-9);
  // Quantized clocks keep the band counts exact too.
  EXPECT_TRUE(streaming.fractions_exact());
  expect_close(got.compression_fraction, batch.compression_fraction, 1e-9);
}

TEST(StreamingPhaseFitTest, ExactClockEstimatesMatchBatchOnMillionSamples) {
  const double delta_ms = 50.0;
  const auto rtts = random_rtt_stream(19, kStreamLength, 0.05,
                                      /*descent_ms=*/19.53, /*tick_ms=*/0.0);
  const ProbeTrace trace = stream_trace(rtts, delta_ms, 0.0);

  StreamingPhaseFitConfig config;
  config.delta = trace.delta;
  config.probe_wire = ByteSize::bytes(trace.probe_wire_bytes);
  config.clock_tick = Duration::zero();
  StreamingPhaseFit streaming(config);
  for (const auto& r : trace.records) streaming.push(r.rtt);

  const PhaseAnalysis batch = analyze_phase_plot(trace);
  const PhaseAnalysis got = streaming.estimate();
  expect_phase_estimates_close(got, batch, 1e-9);
  // Exact clocks: compression_fraction is the documented histogram
  // approximation, bounded by the boundary-bin mass.
  EXPECT_FALSE(streaming.fractions_exact());
  EXPECT_NEAR(got.compression_fraction, batch.compression_fraction, 0.02);
}

TEST(StreamingPhaseFitTest, NoClusterMatchesBatch) {
  // Diagonal-only stream: no descents above min_intercept_fraction*delta.
  std::vector<std::optional<double>> rtts;
  Rng rng(23);
  double rtt = 100.0;
  for (int i = 0; i < 5000; ++i) {
    rtt += rng.uniform(-1.0, 1.0);
    rtts.push_back(rtt);
  }
  const ProbeTrace trace = stream_trace(rtts, 50.0, 0.0);
  StreamingPhaseFitConfig config;
  config.delta = trace.delta;
  config.probe_wire = ByteSize::bytes(trace.probe_wire_bytes);
  StreamingPhaseFit streaming(config);
  for (const auto& r : trace.records) streaming.push(r.rtt);
  const PhaseAnalysis batch = analyze_phase_plot(trace);
  const PhaseAnalysis got = streaming.estimate();
  EXPECT_FALSE(batch.compression_intercept_ms.has_value());
  EXPECT_FALSE(got.compression_intercept_ms.has_value());
  expect_close(got.fixed_delay_ms, batch.fixed_delay_ms);
  expect_close(got.diagonal_fraction, batch.diagonal_fraction);
  EXPECT_EQ(got.compression_fraction, batch.compression_fraction);
}

TEST(StreamingPhaseFitTest, NoPairsThrowsLikeBatch) {
  StreamingPhaseFitConfig config;
  config.delta = Duration::millis(50);
  config.probe_wire = ByteSize::bytes(72);
  StreamingPhaseFit streaming(config);
  streaming.push(Duration::millis(80));
  EXPECT_THROW(streaming.estimate(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// StreamingAutocorr
// ---------------------------------------------------------------------------

TEST(StreamingAutocorrTest, SummaryIsBitIdenticalToBatchWelford) {
  Rng rng(29);
  std::vector<double> xs;
  StreamingAutocorr streaming(64);
  for (std::size_t i = 0; i < kStreamLength; ++i) {
    // Large offset: the shifted accumulation must not cancel.
    const double x = 1e6 + rng.normal(0.0, 3.0);
    xs.push_back(x);
    streaming.push(x);
  }
  const Summary batch = summarize(xs);
  const Summary got = streaming.summary();
  EXPECT_EQ(got.count, batch.count);
  EXPECT_EQ(got.mean, batch.mean);
  EXPECT_EQ(got.variance, batch.variance);
  EXPECT_EQ(got.stddev, batch.stddev);
  EXPECT_EQ(got.min, batch.min);
  EXPECT_EQ(got.max, batch.max);
}

TEST(StreamingAutocorrTest, AcfMatchesBatchOnMillionSampleArStream) {
  Rng rng(31);
  const std::size_t max_lag = 64;
  std::vector<double> xs;
  StreamingAutocorr streaming(max_lag);
  double x = 0.0;
  for (std::size_t i = 0; i < kStreamLength; ++i) {
    x = 0.8 * x + rng.normal(0.0, 1.0);  // AR(1): slowly decaying acf
    const double value = 120.0 + x;      // rtt-like offset
    xs.push_back(value);
    streaming.push(value);
  }
  const std::vector<double> batch = autocorrelation(xs, max_lag);
  const std::vector<double> got = streaming.acf();
  ASSERT_EQ(got.size(), batch.size());
  for (std::size_t lag = 0; lag < batch.size(); ++lag) {
    expect_close(got[lag], batch[lag], 1e-9);
  }
}

TEST(StreamingAutocorrTest, ShortStreamsClampLagLikeBatch) {
  StreamingAutocorr streaming(10);
  std::vector<double> xs = {1.0, 2.0, 4.0, 1.0};
  for (double v : xs) streaming.push(v);
  const auto batch = autocorrelation(xs, 10);
  const auto got = streaming.acf();
  ASSERT_EQ(got.size(), batch.size());  // clamped to n - 1 lags
  for (std::size_t lag = 0; lag < batch.size(); ++lag) {
    expect_close(got[lag], batch[lag], 1e-12);
  }
}

TEST(StreamingAutocorrTest, DegenerateStreamsThrowLikeBatch) {
  StreamingAutocorr empty(4);
  EXPECT_THROW(empty.acf(), std::invalid_argument);
  StreamingAutocorr constant(4);
  for (int i = 0; i < 100; ++i) constant.push(5.0);
  EXPECT_THROW(constant.acf(), std::invalid_argument);
}

}  // namespace
}  // namespace bolot::analysis
