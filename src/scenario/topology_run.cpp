// run_topology: probe a generated topology (topology_gen.h) loaded by a
// large background flow population served hybrid fluid/packet (sim/fluid.h,
// MODEL_NOTES §15).  Flows whose route touches the packetized zone around
// the probed path are simulated packet-by-packet; everything else is folded
// into per-link fluid aggregates, so the event cost of a run scales with
// probed/packetized packets rather than with the flow count.
#include "scenario/scenarios.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/sampler.h"
#include "obs/trace.h"
#include "scenario/world.h"
#include "sim/traffic.h"
#include "sim/udp_echo.h"

namespace bolot::scenario {

ScenarioResult run_topology(const ProbePlan& plan,
                            const ScenarioOverrides& overrides) {
  TRACE_SCOPE("scenario.run_topology");
  if (!overrides.topology) {
    throw std::invalid_argument("run_topology: overrides.topology required");
  }
  const TopologyPlan topo = generate_topology(*overrides.topology);
  if (topo.hosts.size() < 2) {
    throw std::invalid_argument("run_topology: need at least two hosts");
  }
  const FluidBackgroundConfig background =
      overrides.fluid_background.value_or(FluidBackgroundConfig{});

  World world(clamp_domains(overrides.domains,
                            overrides.obs_sample_interval.has_value(),
                            topo.partition_count, cut_candidates(topo)),
              topo.partition_count, plan.seed);
  instantiate_topology(topo, world);
  sim::Network& net = world.net();

  // The probe travels between the first and last generated hosts, which
  // the generators place in different partitions (pod 0 vs the last pod /
  // AS), so the probe crosses the fabric core.
  const sim::NodeId probe_src = topo.hosts.front();
  const sim::NodeId probe_dst = topo.hosts.back();
  const std::vector<std::uint32_t> probe_fwd =
      net.route_links(probe_src, probe_dst);

  // Packetized zone: links all of whose endpoints are within
  // packetize_radius hops of a probe-path node.  radius 0 = the probed
  // path's own links (and path-to-path shortcuts); nullopt = no zone.
  std::vector<bool> in_zone(net.link_count(), false);
  if (overrides.packetize_radius) {
    // Hop distance from each node to the nearest probe-path node: routes
    // are min-hop over duplex links, so a route's length is a distance.
    std::vector<sim::NodeId> on_path{probe_src};
    for (const std::uint32_t uid : probe_fwd) {
      on_path.push_back(net.link_target(uid));
    }
    std::vector<std::size_t> dist(net.node_count(), net.node_count());
    for (sim::NodeId n = 0; n < net.node_count(); ++n) {
      for (const sim::NodeId p : on_path) {
        dist[n] = std::min(dist[n], net.route_links(n, p).size());
      }
    }
    for (std::size_t i = 0; i < net.link_count(); ++i) {
      in_zone[i] = dist[net.link_source(i)] <= *overrides.packetize_radius &&
                   dist[net.link_target(i)] <= *overrides.packetize_radius;
    }
  }

  // --- Background flow population -------------------------------------
  FluidBackground fluid =
      book_fluid_background(background, topo, world, in_zone);

  // Packetized background: flows touching the zone run packet-by-packet
  // as Poisson sources at their mean rate (peak * duty), so the zone sees
  // real contention while its per-run cost stays proportional to the
  // zone's traffic, not the population.
  Rng packet_rng(derive_stream_seed(background.seed, 0xBEEF));
  std::vector<std::unique_ptr<sim::TrafficSource>> sources;
  std::uint32_t next_flow = 1;
  const double mean_flow_bps = fluid.peak.bps() * background.duty;
  if (!fluid.packet_flows.empty() && mean_flow_bps > 0.0) {
    const double packet_bits =
        static_cast<double>(background.mean_packet.bit_count());
    const Duration mean_interarrival =
        Duration::seconds(packet_bits / mean_flow_bps);
    for (const auto& [src, dst] : fluid.packet_flows) {
      sources.push_back(std::make_unique<sim::PoissonSource>(
          world.sim_of(src), net, src, dst, next_flow++,
          sim::PacketKind::kBulk, packet_rng.split(), mean_interarrival,
          background.mean_packet));
    }
  }

  // NetDyn endpoints.
  sim::EchoHost echo(world.sim_of(probe_dst), net, probe_dst);
  sim::ProbeSourceConfig probe_config;
  probe_config.delta = plan.delta;
  probe_config.probe_wire = plan.probe_wire;
  probe_config.probe_count = plan.probe_count();
  if (overrides.clock_tick && *overrides.clock_tick > Duration::zero()) {
    probe_config.clock_tick = *overrides.clock_tick;
  }
  sim::UdpEchoSource probe_source(world.sim_of(probe_src), net, probe_src,
                                  probe_dst, probe_config);

  // The probe path's slowest forward link plays the bottleneck role in
  // the result (generated fabrics have no designated bottleneck hop).
  std::uint32_t bneck_uid = probe_fwd.front();
  for (const std::uint32_t uid : probe_fwd) {
    if (net.link_at(uid).config().rate <
        net.link_at(bneck_uid).config().rate) {
      bneck_uid = uid;
    }
  }
  sim::Link& bneck_fwd = net.link_at(bneck_uid);
  sim::Link& bneck_rev =
      net.link(net.link_target(bneck_uid), net.link_source(bneck_uid));

  obs::MetricsRegistry registry;
  std::optional<obs::Sampler> sampler;
  if (overrides.obs_sample_interval) {
    sim::Simulator& simulator = world.kernel().simulator(0);
    sampler.emplace(simulator, *overrides.obs_sample_interval,
                    overrides.obs_series_budget);
    // Every forward hop of the probed path publishes under a stable
    // prefix; fluid-served hops add their fluid gauges automatically
    // (Link::publish_metrics).
    for (std::size_t h = 0; h < probe_fwd.size(); ++h) {
      net.link_at(probe_fwd[h])
          .publish_metrics(registry, "path.hop" + std::to_string(h));
    }
    probe_source.publish_metrics(registry);
    obs::watch_queue_packets(*sampler, bneck_fwd);
    obs::watch_utilization(*sampler, bneck_fwd, simulator);
    obs::watch_probe_rtt_ms(*sampler, probe_source);
  }

  world.attach();
  for (auto& envelope : fluid.envelopes) envelope->start(Duration::zero());
  for (auto& source : sources) {
    source->start(Duration::millis(packet_rng.uniform(0.0, 100.0)));
  }
  probe_source.start(kWarmup);
  if (sampler) sampler->start(kWarmup);

  const Duration end = kWarmup + plan.duration + kDrain;
  world.run_until(end);
  if (sampler) sampler->stop();

  ScenarioResult result =
      probe_result(world, probe_source, probe_src, probe_dst, bneck_fwd,
                   bneck_rev, end, registry, sampler);
  result.background_flows_fluid = fluid.table.size();
  result.background_flows_packetized = fluid.packet_flows.size();
  std::vector<std::uint32_t> round_trip = probe_fwd;
  const std::vector<std::uint32_t> echo_path =
      net.route_links(probe_dst, probe_src);
  round_trip.insert(round_trip.end(), echo_path.begin(), echo_path.end());
  result.probe_hops.reserve(round_trip.size());
  for (const std::uint32_t uid : round_trip) {
    ScenarioResult::ProbeHop hop;
    hop.capacity = net.link_at(uid).config().rate;
    hop.propagation = net.link_at(uid).config().propagation;
    hop.fluid = Bandwidth::bps(fluid.demand[uid]);
    result.probe_hops.push_back(hop);
  }
  return result;
}

}  // namespace bolot::scenario
