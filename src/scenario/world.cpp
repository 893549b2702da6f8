#include "scenario/world.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "scenario/scenarios.h"

namespace bolot::scenario {

std::size_t clamp_domains(std::size_t requested, bool sampled,
                          std::size_t partitions,
                          const std::vector<CutCandidate>& edges) {
  const std::size_t domains =
      std::min(std::max<std::size_t>(1, requested), partitions);
  if (domains <= 1 || sampled) return 1;
  for (const CutCandidate& edge : edges) {
    const bool cut = edge.a * domains / partitions !=
                     edge.b * domains / partitions;
    if (cut && edge.propagation <= Duration::zero()) return 1;
  }
  return domains;
}

World::World(std::size_t domains, std::size_t partitions, std::uint64_t seed)
    : kernel_(domains),
      partitions_(partitions),
      net_(kernel_.simulator(0), seed) {
  if (domains > partitions) {
    throw std::invalid_argument(
        "World: more domains than partition hints (clamp against the "
        "partition count first)");
  }
}

sim::NodeId World::add_node(std::string name, std::size_t partition) {
  if (partition >= partitions_) {
    throw std::invalid_argument("World: partition out of range");
  }
  node_domain_.push_back(partition * domains() / partitions_);
  return net_.add_node(std::move(name));
}

sim::Link& World::add_link(sim::NodeId a, sim::NodeId b,
                           const sim::LinkConfig& config) {
  return net_.add_link(a, b, config, sim_of(a));
}

sim::Link& World::add_duplex_link(sim::NodeId a, sim::NodeId b,
                                  const sim::LinkConfig& config) {
  return net_.add_duplex_link(a, b, config, sim_of(a), sim_of(b));
}

ScenarioResult probe_result(World& world, const sim::UdpEchoSource& probe,
                            sim::NodeId src, sim::NodeId dst,
                            const sim::Link& bneck_fwd,
                            const sim::Link& bneck_rev, Duration end,
                            obs::MetricsRegistry& registry,
                            const std::optional<obs::Sampler>& sampler) {
  const sim::Network& net = world.net();
  ScenarioResult result;
  result.trace = probe.trace();
  result.route = net.traceroute(src, dst);
  result.bottleneck_forward = bneck_fwd.stats();
  result.bottleneck_reverse = bneck_rev.stats();
  result.total_overflow_drops = net.total_overflow_drops();
  result.total_random_drops = net.total_random_drops();
  result.total_channel_drops = net.total_channel_drops();
  result.hop_deliveries = net.total_delivered();
  result.simulated = end;
  result.events = world.events();
  result.domains_used = world.domains();
  if (sampler) {
    result.metrics = registry.snapshot(world.kernel().simulator(0).now());
    result.series = sampler->snapshot();
  }
  return result;
}

}  // namespace bolot::scenario
