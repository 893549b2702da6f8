// Tracked perf baseline for the parallel (conservative-lookahead PDES)
// kernel — the sharded counterpart of datapath_baseline.  Two topologies,
// each run at 1, 2, 4, and 8 domains over the SAME workload:
//
//   chain         an 8-hop chain saturated by line-rate CBR in both
//                 directions: every domain owns an equal slice of a
//                 steadily busy pipeline, the best case for conservative
//                 lookahead (cut-hop propagation delay >> event spacing).
//   parking_lot   the classic parking-lot topology: every node of the
//                 same chain also injects a Poisson flow toward the far
//                 end, so load (and event density) grows hop by hop and
//                 the domains are deliberately imbalanced.
//
// The d=1 rows run the plain sequential kernel (no channels, no atomics)
// so the table prices both the sharding overhead (d=1 vs sequential is
// covered by tests asserting identical streams; here domains=1 IS the
// sequential kernel) and the scaling (d=2/4/8 vs d=1).  Every d>1 row runs
// twice: once with the process-wide pool donating workers, and once — the
// `_w1` rows — with no donor, the calling thread driving every domain.
// d=1 against `_w1` is the structural gain of sharding (smaller heaps,
// batched domains); `_w1` against the pooled row is the parallel gain.
// The digest-level equality of the event streams across all rows is
// asserted by tests/sim/pdes_test.cpp and the audit fuzz — this harness
// only times.
//
// Emits BENCH_pdes.{json,csv} (runner/sweep_io convention) into --out
// DIR, defaulting to the current directory.  CI runs it on every push
// and uploads the JSON next to BENCH_sim_core/BENCH_datapath.  NOTE:
// speedup numbers are only meaningful on multi-core hosts — on a 1-core
// container the d>1 rows measure pure protocol overhead (they still run
// correctly via cooperative driving on the calling thread).
#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "runner/sweep.h"
#include "runner/sweep_cli.h"
#include "runner/sweep_io.h"
#include "runner/thread_pool.h"
#include "sim/network.h"
#include "sim/pdes.h"
#include "sim/simulator.h"
#include "sim/traffic.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace bolot;

using Clock = std::chrono::steady_clock;

constexpr std::size_t kNodes = 9;  // 8 hops

struct PdesResult {
  std::uint64_t hop_deliveries = 0;
  std::uint64_t events = 0;
  double wall_seconds = 0.0;
  sim::DomainStats kernel;  // summed over domains (zero for d=1)
};

/// Shared harness: builds the 8-hop duplex chain on `domains` domains
/// (domains == 1 uses the plain sequential kernel), wires the topology
/// via `add_flows`, and times run_until over `span`.
template <typename AddFlows>
PdesResult run_sharded(std::size_t domains, Duration span, AddFlows add_flows) {
  std::optional<sim::ParallelSimulation> psim;
  std::optional<sim::Simulator> seq;
  if (domains > 1) {
    psim.emplace(domains);
  } else {
    seq.emplace();
  }
  const auto domain_of = [&](std::size_t i) {
    return psim ? i * domains / kNodes : 0;
  };
  const auto sim_of = [&](std::size_t i) -> sim::Simulator& {
    return psim ? psim->simulator(domain_of(i)) : *seq;
  };

  sim::Network net(sim_of(0), /*rng_seed=*/7);
  std::vector<sim::NodeId> nodes;
  for (std::size_t i = 0; i < kNodes; ++i) {
    nodes.push_back(net.add_node("n" + std::to_string(i)));
  }
  sim::LinkConfig config;
  config.rate = Bandwidth::bps(1.024e8);  // 512 B -> exactly 40 us of service
  config.propagation = Duration::millis(1);  // lookahead = 25 packet times
  config.buffer_packets = 64;
  for (std::size_t h = 0; h + 1 < kNodes; ++h) {
    config.name = "hop" + std::to_string(h);
    net.add_duplex_link(nodes[h], nodes[h + 1], config, sim_of(h),
                        sim_of(h + 1));
  }

  // Sources must outlive the run; collected here by the flow builder.
  std::vector<std::unique_ptr<sim::TrafficSource>> sources;
  add_flows(net, nodes, sim_of, sources);

  net.compute_routes();
  if (psim) {
    std::vector<std::size_t> node_domain;
    for (std::size_t i = 0; i < kNodes; ++i) node_domain.push_back(domain_of(i));
    psim->attach(net, node_domain);
  }
  for (auto& source : sources) source->start(SimTime());

  const auto start = Clock::now();
  if (psim) {
    psim->run_until(span);
  } else {
    seq->run_until(span);
  }
  PdesResult result;
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  result.hop_deliveries = net.total_delivered();
  result.events = psim ? psim->events_dispatched() : seq->events_dispatched();
  if (psim) {
    for (const sim::DomainStats& d : psim->domain_stats()) {
      result.kernel.handoffs += d.handoffs;
      result.kernel.advances += d.advances;
      result.kernel.empty_advances += d.empty_advances;
      result.kernel.stolen_advances += d.stolen_advances;
    }
  }
  return result;
}

PdesResult run_chain(std::size_t domains) {
  return run_sharded(
      domains, Duration::seconds(10),
      [](sim::Network& net, const std::vector<sim::NodeId>& nodes,
         const auto& sim_of,
         std::vector<std::unique_ptr<sim::TrafficSource>>& sources) {
        // CBR at exactly the service rate, both directions: every hop's
        // transmitter stays busy for the whole run.
        sources.push_back(std::make_unique<sim::CbrSource>(
            sim_of(0), net, nodes.front(), nodes.back(), /*flow=*/1,
            sim::PacketKind::kBulk, Rng(11), Duration::micros(40),
            /*packet=*/ByteSize::bytes(512)));
        sources.push_back(std::make_unique<sim::CbrSource>(
            sim_of(kNodes - 1), net, nodes.back(), nodes.front(), /*flow=*/2,
            sim::PacketKind::kBulk, Rng(13), Duration::micros(40),
            /*packet=*/ByteSize::bytes(512)));
      });
}

PdesResult run_parking_lot(std::size_t domains) {
  return run_sharded(
      domains, Duration::seconds(10),
      [](sim::Network& net, const std::vector<sim::NodeId>& nodes,
         const auto& sim_of,
         std::vector<std::unique_ptr<sim::TrafficSource>>& sources) {
        // Every node injects an independent Poisson flow toward the far
        // end at 1/10 of line rate: the last hop carries the aggregate of
        // eight flows (~80% load) while the first carries one — the
        // domain owning the tail does most of the work.
        Rng rng(29);
        for (std::size_t i = 0; i + 1 < kNodes; ++i) {
          sources.push_back(std::make_unique<sim::PoissonSource>(
              sim_of(i), net, nodes[i], nodes.back(),
              /*flow=*/static_cast<std::uint32_t>(10 + i),
              sim::PacketKind::kBulk, rng.split(), Duration::micros(400),
              /*packet=*/ByteSize::bytes(512)));
        }
      });
}

std::vector<runner::Metric> to_metrics(const PdesResult& r) {
  const double hops = static_cast<double>(r.hop_deliveries);
  std::vector<runner::Metric> metrics;
  // "domains" is already a sweep param (one CSV column, not two).
  metrics.push_back({"hop_deliveries", hops});
  metrics.push_back({"events", static_cast<double>(r.events)});
  metrics.push_back({"kernel_wall_seconds", r.wall_seconds});
  metrics.push_back({"handoffs", static_cast<double>(r.kernel.handoffs)});
  metrics.push_back({"advances", static_cast<double>(r.kernel.advances)});
  metrics.push_back(
      {"empty_advances", static_cast<double>(r.kernel.empty_advances)});
  metrics.push_back(
      {"stolen_advances", static_cast<double>(r.kernel.stolen_advances)});
  if (r.wall_seconds > 0.0) {
    metrics.push_back({"packets_per_sec", hops / r.wall_seconds});
  }
  return metrics;
}

}  // namespace

int main(int argc, char** argv) {
  runner::SweepCli cli;
  try {
    cli = runner::parse_sweep_cli(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n" << runner::sweep_cli_usage("pdes_baseline");
    return 2;
  }
  if (cli.out_dir.empty()) cli.out_dir = ".";

  // Pooled rows borrow the process-wide workers (on a 1-core host the
  // pool has one worker and the calling thread still cooperatively drives
  // every domain — correct, just not faster); `_w1` rows run with no
  // donor at all.
  const sim::ParallelSimulation::ThreadDonor pool_donor =
      [](std::function<void()> job) {
        runner::shared_pool().submit(std::move(job));
      };

  const std::size_t kDomainSweep[] = {1, 2, 4, 8};
  std::vector<runner::RunSpec> specs;
  for (const char* topo : {"chain", "parking_lot"}) {
    for (std::size_t domains : kDomainSweep) {
      for (const char* suffix : {"", "_w1"}) {
        if (domains == 1 && *suffix != '\0') continue;  // no donor to drop
        runner::RunSpec spec;
        spec.label =
            std::string(topo) + "_d" + std::to_string(domains) + suffix;
        spec.params.push_back({"domains", static_cast<double>(domains)});
        specs.push_back(std::move(spec));
      }
    }
  }

  runner::SweepOptions options;
  options.name = "pdes";
  options.threads = 1;  // one timing run at a time; domains use the donor
  options.base_seed = cli.base_seed;

  const runner::SweepResult sweep = runner::run_sweep(
      specs,
      [&](const runner::RunContext& ctx) {
        const std::size_t domains =
            static_cast<std::size_t>(ctx.spec->param("domains"));
        const std::string& label = ctx.spec->label;
        const bool pooled = !label.ends_with("_w1");
        sim::ParallelSimulation::set_thread_donor(pooled ? pool_donor
                                                         : nullptr);
        if (label.rfind("chain", 0) == 0) {
          return to_metrics(run_chain(domains));
        }
        return to_metrics(run_parking_lot(domains));
      },
      options);

  TextTable table;
  table.row({"kernel", "domains", "hop deliveries", "packets/sec", "wall(s)",
             "advances", "empty", "stolen"});
  for (const runner::RunResult& run : sweep.runs) {
    if (run.failed) {
      std::cerr << run.label << ": " << run.error << "\n";
      return 1;
    }
    const double* rate = run.metric("packets_per_sec");
    table.row({});
    table.cell(run.label)
        .cell(static_cast<std::int64_t>(run.param("domains")))
        .cell(static_cast<std::int64_t>(*run.metric("hop_deliveries")))
        .cell(rate != nullptr ? *rate : 0.0, 0)
        .cell(*run.metric("kernel_wall_seconds"), 4)
        .cell(static_cast<std::int64_t>(*run.metric("advances")))
        .cell(static_cast<std::int64_t>(*run.metric("empty_advances")))
        .cell(static_cast<std::int64_t>(*run.metric("stolen_advances")));
  }
  std::cout << "PDES kernel scaling baseline\n\n";
  table.print(std::cout);

  try {
    const std::string path = runner::write_sweep_artifacts(sweep, cli.out_dir);
    std::cout << "\nartifacts: " << path << " (+ .csv)\n";
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
  return 0;
}
