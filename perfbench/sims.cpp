// The three simulated workloads.  Each unit calls the scenario layer's
// public entry point, then (paper_path) the batch analysis chain and the
// obs export, with a span around every call when tracing.
//
//   paper_path    Table 3: run_inria_umd at six probe spacings over two
//                 derived seeds, each a 10-minute plan on the sequential
//                 kernel with obs sampling, followed by the batch chain.
//   mesh_sharded  run_tomography: 240 streams over an AS-hierarchy fabric
//                 under 10^5 fluid flows, sharded over 4 PDES domains
//                 with a 1-thread pool donating a worker.
//   fabric_build  run_topology on a k=8 fat-tree carrying 2*10^5 fluid
//                 flows: world building dominates, the run itself is
//                 short.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>

#include "analysis/lindley.h"
#include "analysis/loss.h"
#include "analysis/phase_plot.h"
#include "analysis/report.h"
#include "analysis/spectral.h"
#include "analysis/stats.h"
#include "analysis/streaming.h"
#include "common.h"
#include "obs/metrics_io.h"
#include "runner/thread_pool.h"
#include "scenario/scenarios.h"
#include "scenario/tomography.h"
#include "scenario/topology_gen.h"
#include "sim/pdes.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace bolot;

// ---------------------------------------------------------------------------
// paper_path
// ---------------------------------------------------------------------------

constexpr double kPaperDeltasMs[] = {8, 20, 50, 100, 200, 500};
constexpr std::size_t kPaperSeeds = 2;

class PaperPath final : public Workload {
 public:
  explicit PaperPath(const Options& options) {
    for (std::size_t j = 0; j < kPaperSeeds; ++j) {
      seeds_.push_back(derive_stream_seed(options.seed, j));
    }
    overrides_.obs_sample_interval = Duration::millis(100);
  }

  void setup() override {
    scenario::ProbePlan plan;
    plan.delta = Duration::millis(kPaperDeltasMs[0]);
    plan.duration = plan.delta;
    plan.seed = seeds_[0];
    scenario::run_inria_umd(plan, overrides_);
  }

  Unit unit(Spans& spans, Checks& checks) override {
    const double wall0 = wall_now();
    const double cpu0 = cpu_now();
    Unit unit;
    Digest digest;
    double events = 0, deliveries = 0, samples = 0, points = 0, bytes = 0;
    std::size_t domains_used = 0;
    for (const std::uint64_t seed : seeds_) {
      std::vector<analysis::LossStats> losses;
      for (const double delta_ms : kPaperDeltasMs) {
        scenario::ProbePlan plan;
        plan.delta = Duration::millis(delta_ms);
        plan.seed = seed;
        scenario::ScenarioResult run;
        {
          Spans::Scope s(spans, "scenario.run_inria_umd", "scenario");
          run = scenario::run_inria_umd(plan, overrides_);
        }
        const analysis::ProbeTrace& trace = run.trace;
        unit.probes += trace.size();
        events += static_cast<double>(run.events);
        deliveries += static_cast<double>(run.hop_deliveries);
        domains_used = std::max(domains_used, run.domains_used);
        samples += static_cast<double>(trace.received_count());
        analyze(trace, spans, losses);
        {
          Spans::Scope s(spans, "obs.metrics_to_json", "obs");
          bytes += static_cast<double>(
              obs::metrics_to_json(run.metrics, run.series).size());
        }
        for (const obs::TimeSeries& series : run.series) {
          points += static_cast<double>(series.size());
        }
        const analysis::LossStats& loss = losses.back();
        digest.add(run.events);
        digest.add(run.hop_deliveries);
        digest.add(loss.ulp);
        digest.add(loss.clp);
        digest.add(static_cast<std::uint64_t>(trace.received_count()));
      }
      check_table3_shape(losses, seed, checks);
    }
    unit.digest = digest.hex();
    unit.counts["events"] = events;
    unit.counts["hop_deliveries"] = deliveries;
    unit.counts["scenario_calls"] =
        static_cast<double>(seeds_.size() * std::size(kPaperDeltasMs));
    unit.counts["domains_used"] = static_cast<double>(domains_used);
    unit.counts["analysis_samples"] = samples;
    unit.counts["obs_series_points"] = points;
    unit.counts["obs_export_bytes"] = bytes;
    unit.wall_s = wall_now() - wall0;
    unit.cpu_s = cpu_now() - cpu0;
    return unit;
  }

  /// Pushes one seed's six traces through the four streaming estimators
  /// (the online twins of the batch chain the mesh runs per stream).
  void traced_extras(Spans& spans, LayerValues& layer) override {
    std::vector<analysis::ProbeTrace> traces;
    for (const double delta_ms : kPaperDeltasMs) {
      scenario::ProbePlan plan;
      plan.delta = Duration::millis(delta_ms);
      plan.seed = seeds_[0];
      Spans::Scope s(spans, "scenario.run_inria_umd", "scenario");
      traces.push_back(scenario::run_inria_umd(plan, overrides_).trace);
    }
    double pushes = 0;
    double seconds = 0;
    for (const analysis::ProbeTrace& trace : traces) {
      analysis::StreamingLindleyConfig lindley_config;
      lindley_config.delta = trace.delta;
      lindley_config.probe_wire = ByteSize::bytes(trace.probe_wire_bytes);
      lindley_config.max = Duration::millis(1000);
      analysis::StreamingPhaseFitConfig phase_config;
      phase_config.delta = trace.delta;
      phase_config.probe_wire = ByteSize::bytes(trace.probe_wire_bytes);
      phase_config.clock_tick = trace.clock_tick;
      analysis::StreamingLossState loss;
      analysis::StreamingLindley lindley(lindley_config);
      analysis::StreamingPhaseFit phase(phase_config);
      analysis::StreamingAutocorr autocorr(32);
      Spans::Scope s(spans, "analysis.streaming_push", "analysis");
      const double t0 = wall_now();
      for (const analysis::ProbeRecord& record : trace.records) {
        const Duration rtt = record.received ? record.rtt : Duration::zero();
        loss.push(rtt);
        lindley.push(rtt);
        phase.push(rtt);
        autocorr.push(rtt);
      }
      seconds += wall_now() - t0;
      pushes += static_cast<double>(trace.records.size());
    }
    layer["analysis.stream_push_ns"] = seconds * 1e9 / pushes;
  }

 private:
  void analyze(const analysis::ProbeTrace& trace, Spans& spans,
               std::vector<analysis::LossStats>& losses) {
    {
      Spans::Scope s(spans, "analysis.loss_stats", "analysis");
      losses.push_back(analysis::loss_stats(trace));
    }
    {
      Spans::Scope s(spans, "analysis.fit_gilbert", "analysis");
      analysis::fit_gilbert(trace.loss_indicators());
    }
    {
      Spans::Scope s(spans, "analysis.analyze_phase_plot", "analysis");
      analysis::analyze_phase_plot(trace);
    }
    {
      Spans::Scope s(spans, "analysis.estimate_bottleneck", "analysis");
      analysis::estimate_bottleneck(trace);
    }
    {
      Spans::Scope s(spans, "analysis.analyze_workload", "analysis");
      analysis::analyze_workload(trace);
    }
    const std::vector<double> rtts = trace.rtt_ms_received();
    {
      Spans::Scope s(spans, "analysis.autocorrelation", "analysis");
      analysis::autocorrelation(rtts, 32);
    }
    {
      Spans::Scope s(spans, "analysis.periodogram", "analysis");
      analysis::periodogram(rtts);
    }
    {
      Spans::Scope s(spans, "analysis.full_report", "analysis");
      analysis::full_report(trace);
    }
  }

  /// Table 3's shape (section 5): ulp and clp fall as delta grows from 8
  /// to 50 ms, and losses are bursty (clp > ulp) at 8 ms.  Past 50 ms both
  /// flatten out and their order is within sampling noise, so it is not
  /// checked there.
  static void check_table3_shape(const std::vector<analysis::LossStats>& l,
                                 std::uint64_t seed, Checks& checks) {
    for (std::size_t i = 0; i < 2; ++i) {
      char where[96];
      std::snprintf(where, sizeof where, " (%g ms vs %g ms, seed %llu)",
                    kPaperDeltasMs[i], kPaperDeltasMs[i + 1],
                    static_cast<unsigned long long>(seed));
      checks.expect(l[i].ulp > l[i + 1].ulp,
                    std::string("paper_path: ulp does not fall") + where);
      checks.expect(l[i].clp > l[i + 1].clp,
                    std::string("paper_path: clp does not fall") + where);
    }
    checks.expect(l[0].clp > l[0].ulp,
                  "paper_path: clp <= ulp at 8 ms (seed " +
                      std::to_string(seed) + ")");
  }

  std::vector<std::uint64_t> seeds_;
  scenario::ScenarioOverrides overrides_;
};

// ---------------------------------------------------------------------------
// mesh_sharded
// ---------------------------------------------------------------------------

constexpr std::size_t kMeshDomains = 4;
/// PDES worker threads the pool donates.  With the calling thread, two
/// threads drive the four domains: on a shared 4-core host, three workers
/// ran no faster (1.17 against 1.13 s a unit at the reference speed) and
/// their median unit time spread 0.26 over five seeds, against 0.05.
constexpr std::size_t kMeshWorkers = 1;

class MeshSharded final : public Workload {
 public:
  explicit MeshSharded(const Options& options) {
    spec_.topology.family = scenario::TopologySpec::Family::kAsHierarchy;
    spec_.topology.core_count = 4;
    spec_.topology.stubs_per_core = 2;
    spec_.topology.hosts_per_stub = 2;
    spec_.topology.seed = 7;
    spec_.delta = Duration::millis(10);
    spec_.duration = Duration::seconds(20);
    spec_.drop_min = 0.02;
    spec_.drop_max = 0.05;
    spec_.seed = options.seed;
    scenario::FluidBackgroundConfig background;
    background.flows = 100000;
    background.seed = options.seed;
    spec_.fluid_background = background;
    spec_.domains = kMeshDomains;
    install_pool_donor();
  }

  ~MeshSharded() override { sim::ParallelSimulation::set_thread_donor(nullptr); }

  void setup() override {
    scenario::TomographySpec spec = spec_;
    spec.duration = spec.delta;
    scenario::run_tomography(spec);
  }

  Unit unit(Spans& spans, Checks& checks) override {
    const double wall0 = wall_now();
    const double cpu0 = cpu_now();
    scenario::TomographyResult result;
    {
      Spans::Scope s(spans, "scenario.run_tomography", "scenario");
      result = scenario::run_tomography(spec_);
    }
    Unit unit;
    unit.wall_s = wall_now() - wall0;
    unit.cpu_s = cpu_now() - cpu0;
    Digest digest;
    digest.add(result.events);
    digest.add(result.loss_error);
    for (const auto& stream : result.stream_summaries) {
      unit.probes += stream.sent;
      digest.add(static_cast<std::uint64_t>(stream.received));
    }
    unit.digest = digest.hex();
    const double audits = result.audit_loss_mismatch +
                          result.audit_summary_mismatch +
                          result.audit_lindley_mismatch;
    checks.expect(result.loss_error < 0.10,
                  "mesh_sharded: loss_error " +
                      std::to_string(result.loss_error) + " >= 0.10");
    checks.expect(result.audit_loss_mismatch == 0.0,
                  "mesh_sharded: streaming loss audit mismatch");
    checks.expect(result.audit_summary_mismatch == 0.0,
                  "mesh_sharded: streaming summary audit mismatch");
    checks.expect(result.audit_lindley_mismatch == 0.0,
                  "mesh_sharded: streaming Lindley audit mismatch");
    unit.counts["events"] = static_cast<double>(result.events);
    unit.counts["scenario_calls"] = 1;
    unit.counts["domains_used"] = static_cast<double>(result.domains_used);
    unit.counts["audit_mismatch"] = audits;
    return unit;
  }

  /// The PDES split: d=1 and d=4 with no donor (the calling thread drives
  /// every domain), against the units' d=4 with the pool.  The d=1 and d=4
  /// runs are compared per stream: the kernel promises identical streams.
  void traced_extras(Spans& spans, LayerValues& layer) override {
    sim::ParallelSimulation::set_thread_donor(nullptr);
    scenario::TomographySpec sequential = spec_;
    sequential.domains = 1;
    double t0 = wall_now();
    scenario::TomographyResult one;
    {
      Spans::Scope s(spans, "scenario.run_tomography[d=1]", "scenario");
      one = scenario::run_tomography(sequential);
    }
    layer["pdes.wall_d1_s"] = wall_now() - t0;
    t0 = wall_now();
    scenario::TomographyResult four;
    {
      Spans::Scope s(spans, "scenario.run_tomography[d=4,no donor]",
                     "scenario");
      four = scenario::run_tomography(spec_);
    }
    layer["pdes.wall_d4_nodonor_s"] = wall_now() - t0;
    install_pool_donor();

    double mismatched = 0;
    double max_rtt_diff_ms = 0;
    for (std::size_t s = 0; s < one.stream_summaries.size(); ++s) {
      const auto& a = one.stream_summaries[s];
      const auto& b = four.stream_summaries[s];
      const double rtt_diff = std::abs(a.mean_rtt_ms - b.mean_rtt_ms);
      max_rtt_diff_ms = std::max(max_rtt_diff_ms, rtt_diff);
      if (a.received != b.received || rtt_diff != 0.0) ++mismatched;
    }
    layer["pdes.stream_mismatch"] = mismatched;
    layer["pdes.stream_max_rtt_diff_ms"] = max_rtt_diff_ms;
    layer["pdes.loss_error_diff"] =
        std::abs(one.loss_error - four.loss_error);
    layer["pdes.events_d1"] = static_cast<double>(one.events);
    layer["pdes.events_d4"] = static_cast<double>(four.events);
  }

 private:
  void install_pool_donor() {
    sim::ParallelSimulation::set_thread_donor(
        [pool = &pool_](std::function<void()> job) {
          pool->submit(std::move(job));
        });
  }

  runner::ThreadPool pool_{kMeshWorkers};
  scenario::TomographySpec spec_;
};

// ---------------------------------------------------------------------------
// fabric_build
// ---------------------------------------------------------------------------

constexpr std::size_t kFabricFlows = 200000;

class FabricBuild final : public Workload {
 public:
  explicit FabricBuild(const Options& options) {
    plan_.delta = Duration::millis(20);
    plan_.duration = Duration::minutes(10);
    plan_.seed = options.seed;
    scenario::TopologySpec topology;
    topology.family = scenario::TopologySpec::Family::kFatTree;
    topology.fat_tree_k = 8;
    topology.hosts_per_edge = 2;
    topology.seed = 3;
    overrides_.topology = topology;
    scenario::FluidBackgroundConfig background;
    background.flows = kFabricFlows;
    background.max_link_load = 0.4;
    background.envelope_states = 3;
    background.seed = options.seed;
    overrides_.fluid_background = background;
  }

  void setup() override { setup_with(overrides_); }

  Unit unit(Spans& spans, Checks& checks) override {
    const double wall0 = wall_now();
    const double cpu0 = cpu_now();
    scenario::ScenarioResult run;
    {
      Spans::Scope s(spans, "scenario.run_topology", "scenario");
      run = scenario::run_topology(plan_, overrides_);
    }
    Unit unit;
    unit.wall_s = wall_now() - wall0;
    unit.cpu_s = cpu_now() - cpu0;
    unit.probes = run.trace.size();
    Digest digest;
    digest.add(run.events);
    digest.add(run.hop_deliveries);
    digest.add(static_cast<std::uint64_t>(run.trace.received_count()));
    digest.add(static_cast<std::uint64_t>(run.background_flows_fluid));
    digest.add(static_cast<std::uint64_t>(run.background_flows_packetized));
    // The probes all return on this lossless fabric, so the event count
    // alone can repeat across seeds; their summed rtt does not.
    std::int64_t rtt_ns = 0;
    for (const auto& record : run.trace.records) rtt_ns += record.rtt.count_nanos();
    digest.add(static_cast<std::uint64_t>(rtt_ns));
    unit.digest = digest.hex();
    checks.expect(run.background_flows_fluid +
                          run.background_flows_packetized ==
                      kFabricFlows,
                  "fabric_build: fluid + packetized flows != configured");
    unit.counts["events"] = static_cast<double>(run.events);
    unit.counts["hop_deliveries"] = static_cast<double>(run.hop_deliveries);
    unit.counts["scenario_calls"] = 1;
    unit.counts["domains_used"] = static_cast<double>(run.domains_used);
    unit.counts["flows_fluid"] = static_cast<double>(run.background_flows_fluid);
    unit.counts["flows_packetized"] =
        static_cast<double>(run.background_flows_packetized);
    return unit;
  }

  /// Runs first in a traced process, while the peak RSS still reflects
  /// nothing but this call: the set-up with no flows, then with all of
  /// them, gives the fluid layer's memory and time per flow.  Also times
  /// the topology generator on its own.
  void traced_extras(Spans& spans, LayerValues& layer) override {
    scenario::ScenarioOverrides bare = overrides_;
    bare.fluid_background->flows = 0;
    std::vector<double> bare_times;
    for (int i = 0; i < 3; ++i) {
      Spans::Scope s(spans, "scenario.run_topology[setup,0 flows]",
                     "scenario");
      const double t0 = wall_now();
      setup_with(bare);
      bare_times.push_back(wall_now() - t0);
    }
    const double rss_bare = static_cast<double>(peak_rss_kb());
    {
      Spans::Scope s(spans, "scenario.run_topology[setup]", "scenario");
      setup_with(overrides_);
    }
    const double rss_full = static_cast<double>(peak_rss_kb());
    layer["fluid.setup_bare_s"] = analysis::median(bare_times);
    layer["fluid.rss_bytes_per_flow"] =
        (rss_full - rss_bare) * 1024.0 / static_cast<double>(kFabricFlows);

    std::vector<double> generate_times;
    scenario::TopologyPlan topology;
    for (int i = 0; i < 5; ++i) {
      Spans::Scope s(spans, "scenario.generate_topology", "scenario");
      const double t0 = wall_now();
      topology = scenario::generate_topology(*overrides_.topology);
      generate_times.push_back(wall_now() - t0);
    }
    layer["scenario.generate_s"] = analysis::median(generate_times);
    layer["scenario.nodes"] = static_cast<double>(topology.nodes.size());
    layer["scenario.links"] =
        static_cast<double>(2 * topology.edges.size());
  }

 private:
  void setup_with(const scenario::ScenarioOverrides& overrides) {
    scenario::ProbePlan plan = plan_;
    plan.duration = plan.delta;
    scenario::run_topology(plan, overrides);
  }

  scenario::ProbePlan plan_;
  scenario::ScenarioOverrides overrides_;
};

}  // namespace

std::unique_ptr<Workload> make_paper_path(const Options& options) {
  return std::make_unique<PaperPath>(options);
}
std::unique_ptr<Workload> make_mesh_sharded(const Options& options) {
  return std::make_unique<MeshSharded>(options);
}
std::unique_ptr<Workload> make_fabric_build(const Options& options) {
  return std::make_unique<FabricBuild>(options);
}

}  // namespace perfbench
