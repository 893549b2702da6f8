// The run scaffold the three scenario runners share (run_chain,
// run_topology, run_tomography): the PDES kernel, the Network it drives,
// and each node's home domain.  Internal to the scenario layer.
//
// One kernel serves every domain count: a one-domain ParallelSimulation
// is the sequential kernel (its run_until is Simulator::run_until, its
// attach wires nothing), so no runner forks on the domain count.  Node
// partition p of P lands in domain p * domains / P; a link lives in the
// domain of the node whose queue it drains, and whatever runs at a node
// runs on sim_of(node).  Links split the Network's rng in add order, so
// every random stream is the same whatever the domain count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/sampler.h"
#include "sim/link.h"
#include "sim/network.h"
#include "sim/pdes.h"
#include "sim/simulator.h"
#include "sim/udp_echo.h"
#include "util/time.h"

namespace bolot::scenario {

struct ScenarioResult;  // scenarios.h

/// Warm-up before a probe run so background traffic reaches steady state,
/// and drain afterwards so in-flight echoes are counted.
inline constexpr Duration kWarmup = Duration::seconds(5);
inline constexpr Duration kDrain = Duration::seconds(2);

/// An edge a partition may cut: its endpoints' partitions and its
/// propagation delay (the lookahead it would give).
struct CutCandidate {
  std::size_t a = 0;
  std::size_t b = 0;
  Duration propagation;
};

/// The PDES domain count a run uses: `requested` clamped to
/// [1, partitions], falling back to 1 when `sampled` (the sampler reads
/// state across the whole topology) or when any edge the partition would
/// cut has zero propagation delay (zero lookahead; MODEL_NOTES §14).
std::size_t clamp_domains(std::size_t requested, bool sampled,
                          std::size_t partitions,
                          const std::vector<CutCandidate>& edges);

class World {
 public:
  /// `domains` must lie in [1, partitions] (see clamp_domains).
  World(std::size_t domains, std::size_t partitions, std::uint64_t seed);

  std::size_t domains() const { return kernel_.domain_count(); }
  std::size_t partitions() const { return partitions_; }
  sim::ParallelSimulation& kernel() { return kernel_; }
  sim::Network& net() { return net_; }

  /// Adds a node homed in the domain of `partition`.
  sim::NodeId add_node(std::string name, std::size_t partition);
  std::size_t domain_of(sim::NodeId node) const {
    return node_domain_.at(node);
  }
  /// The simulator of `node`'s home domain.
  sim::Simulator& sim_of(sim::NodeId node) {
    return kernel_.simulator(domain_of(node));
  }

  /// Links homed per direction in their source node's domain.
  sim::Link& add_link(sim::NodeId a, sim::NodeId b,
                      const sim::LinkConfig& config);
  sim::Link& add_duplex_link(sim::NodeId a, sim::NodeId b,
                             const sim::LinkConfig& config);

  /// Wires the cut links to handoff channels (nothing on one domain);
  /// call once the topology and its routes are final.
  void attach() { kernel_.attach(net_, node_domain_); }
  void run_until(SimTime end) { kernel_.run_until(end); }
  std::uint64_t events() const { return kernel_.events_dispatched(); }

 private:
  sim::ParallelSimulation kernel_;
  std::size_t partitions_;
  sim::Network net_;
  std::vector<std::size_t> node_domain_;
};

/// The probe-path half of a ScenarioResult, filled alike by every runner
/// that probes one path: trace, route, bottleneck stats, drop and
/// delivery totals, simulated span, events, domains, and the obs
/// snapshot and series when `sampler` is set.
ScenarioResult probe_result(World& world, const sim::UdpEchoSource& probe,
                            sim::NodeId src, sim::NodeId dst,
                            const sim::Link& bneck_fwd,
                            const sim::Link& bneck_rev, Duration end,
                            obs::MetricsRegistry& registry,
                            const std::optional<obs::Sampler>& sampler);

}  // namespace bolot::scenario
