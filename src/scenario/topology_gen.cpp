#include "scenario/topology_gen.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "util/rng.h"

namespace bolot::scenario {

namespace {

/// FNV-1a, the digest primitive the audit fuzzer uses for event streams;
/// here it fingerprints wiring.
class Fnv {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void mix(const std::string& s) {
    mix(s.size());
    for (const char c : s) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  __builtin_memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Seeded jitter in [1-x, 1+x] from a SplitMix64 stream; pure function of
/// the draw order, which is fixed by the generation code below.
Duration jittered(Duration base, double jitter, SplitMix64& stream) {
  if (jitter <= 0.0) return base;
  const double u =
      static_cast<double>(stream.next() >> 11) * 0x1.0p-53;  // [0, 1)
  const double factor = 1.0 - jitter + 2.0 * jitter * u;
  return Duration::nanos(static_cast<std::int64_t>(
      static_cast<double>(base.count_nanos()) * factor));
}

TopologyPlan generate_fat_tree(const TopologySpec& spec) {
  const std::size_t k = spec.fat_tree_k;
  if (k < 2 || k % 2 != 0) {
    throw std::invalid_argument("generate_topology: fat_tree_k must be even");
  }
  if (spec.hosts_per_edge == 0) {
    throw std::invalid_argument("generate_topology: hosts_per_edge == 0");
  }
  const std::size_t half = k / 2;
  SplitMix64 stream(derive_stream_seed(spec.seed, 0xFA77EE));

  TopologyPlan plan;
  plan.partition_count = k;

  // Node layout: per pod [edge 0..half) [agg 0..half) [hosts]; cores last.
  std::vector<std::vector<std::uint32_t>> pod_edges(k), pod_aggs(k);
  for (std::size_t p = 0; p < k; ++p) {
    const std::string pod = "pod" + std::to_string(p);
    for (std::size_t e = 0; e < half; ++e) {
      pod_edges[p].push_back(static_cast<std::uint32_t>(plan.nodes.size()));
      plan.nodes.push_back({pod + "-edge" + std::to_string(e), p, false});
    }
    for (std::size_t a = 0; a < half; ++a) {
      pod_aggs[p].push_back(static_cast<std::uint32_t>(plan.nodes.size()));
      plan.nodes.push_back({pod + "-agg" + std::to_string(a), p, false});
    }
    for (std::size_t e = 0; e < half; ++e) {
      for (std::size_t h = 0; h < spec.hosts_per_edge; ++h) {
        const std::uint32_t id = static_cast<std::uint32_t>(plan.nodes.size());
        plan.nodes.push_back({pod + "-edge" + std::to_string(e) + "-host" +
                                  std::to_string(h),
                              p, true});
        plan.hosts.push_back(id);
        plan.edges.push_back({pod_edges[p][e], id, spec.edge_rate,
                              jittered(spec.edge_propagation,
                                       spec.propagation_jitter, stream),
                              spec.edge_buffer_packets});
      }
    }
    // Full bipartite edge <-> aggregation inside the pod.
    for (std::size_t e = 0; e < half; ++e) {
      for (std::size_t a = 0; a < half; ++a) {
        plan.edges.push_back({pod_edges[p][e], pod_aggs[p][a],
                              spec.aggregation_rate,
                              jittered(spec.aggregation_propagation,
                                       spec.propagation_jitter, stream),
                              spec.core_buffer_packets});
      }
    }
  }
  // Core switches: core (r, j) connects to aggregation switch r of every
  // pod.  Round-robin partitions spread the shared core across domains.
  for (std::size_t r = 0; r < half; ++r) {
    for (std::size_t j = 0; j < half; ++j) {
      const std::uint32_t core =
          static_cast<std::uint32_t>(plan.nodes.size());
      plan.nodes.push_back({"core-" + std::to_string(r) + "-" +
                                std::to_string(j),
                            (r * half + j) % k, false});
      for (std::size_t p = 0; p < k; ++p) {
        plan.edges.push_back({pod_aggs[p][r], core, spec.core_rate,
                              jittered(spec.core_propagation,
                                       spec.propagation_jitter, stream),
                              spec.core_buffer_packets});
      }
    }
  }
  return plan;
}

TopologyPlan generate_as_hierarchy(const TopologySpec& spec) {
  if (spec.core_count < 2 || spec.stubs_per_core == 0 ||
      spec.hosts_per_stub == 0) {
    throw std::invalid_argument("generate_topology: malformed AS hierarchy");
  }
  SplitMix64 stream(derive_stream_seed(spec.seed, 0xA5A5A5));

  TopologyPlan plan;
  plan.partition_count = spec.core_count;

  std::vector<std::uint32_t> cores;
  std::vector<std::uint32_t> stubs;
  for (std::size_t c = 0; c < spec.core_count; ++c) {
    cores.push_back(static_cast<std::uint32_t>(plan.nodes.size()));
    plan.nodes.push_back({"core" + std::to_string(c), c, false});
  }
  // Full transit mesh between core routers.
  for (std::size_t i = 0; i < spec.core_count; ++i) {
    for (std::size_t j = i + 1; j < spec.core_count; ++j) {
      plan.edges.push_back({cores[i], cores[j], spec.core_rate,
                            jittered(spec.core_propagation,
                                     spec.propagation_jitter, stream),
                            spec.core_buffer_packets});
    }
  }
  // Stub ASes ride in their provider's partition; hosts behind each stub.
  for (std::size_t c = 0; c < spec.core_count; ++c) {
    for (std::size_t s = 0; s < spec.stubs_per_core; ++s) {
      const std::uint32_t stub =
          static_cast<std::uint32_t>(plan.nodes.size());
      const std::string name =
          "as" + std::to_string(c) + "-stub" + std::to_string(s);
      plan.nodes.push_back({name, c, false});
      stubs.push_back(stub);
      plan.edges.push_back({cores[c], stub, spec.aggregation_rate,
                            jittered(spec.aggregation_propagation,
                                     spec.propagation_jitter, stream),
                            spec.core_buffer_packets});
      for (std::size_t h = 0; h < spec.hosts_per_stub; ++h) {
        const std::uint32_t host =
            static_cast<std::uint32_t>(plan.nodes.size());
        plan.nodes.push_back({name + "-host" + std::to_string(h), c, true});
        plan.hosts.push_back(host);
        plan.edges.push_back({stub, host, spec.edge_rate,
                              jittered(spec.edge_propagation,
                                       spec.propagation_jitter, stream),
                              spec.edge_buffer_packets});
      }
    }
  }
  // Seeded stub-stub peering shortcuts: draw pairs deterministically,
  // skipping self-pairs and duplicates (bounded retries keep this a pure
  // function of the stream).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> peered;
  std::size_t added = 0, attempts = 0;
  while (added < spec.peer_links && attempts < spec.peer_links * 16 + 16) {
    ++attempts;
    const std::uint32_t x = stubs[stream.next() % stubs.size()];
    const std::uint32_t y = stubs[stream.next() % stubs.size()];
    if (x == y) continue;
    const std::uint32_t lo = std::min(x, y);
    const std::uint32_t hi = std::max(x, y);
    bool duplicate = false;
    for (const auto& p : peered) {
      if (p.first == lo && p.second == hi) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    peered.emplace_back(lo, hi);
    plan.edges.push_back({lo, hi, spec.aggregation_rate,
                          jittered(spec.aggregation_propagation,
                                   spec.propagation_jitter, stream),
                          spec.core_buffer_packets});
    ++added;
  }
  return plan;
}

}  // namespace

std::uint64_t TopologyPlan::wiring_digest() const {
  Fnv fnv;
  fnv.mix(nodes.size());
  for (const NodeSpec& node : nodes) {
    fnv.mix(node.name);
    fnv.mix(node.partition);
    fnv.mix(node.is_host ? 1u : 0u);
  }
  fnv.mix(edges.size());
  for (const EdgeSpec& edge : edges) {
    fnv.mix(edge.a);
    fnv.mix(edge.b);
    fnv.mix(double_bits(edge.rate.bps()));
    fnv.mix(static_cast<std::uint64_t>(edge.propagation.count_nanos()));
    fnv.mix(edge.buffer_packets);
  }
  fnv.mix(partition_count);
  fnv.mix(hosts.size());
  for (const std::uint32_t host : hosts) fnv.mix(host);
  return fnv.value();
}

TopologyPlan generate_topology(const TopologySpec& spec) {
  switch (spec.family) {
    case TopologySpec::Family::kFatTree:
      return generate_fat_tree(spec);
    case TopologySpec::Family::kAsHierarchy:
      return generate_as_hierarchy(spec);
  }
  throw std::invalid_argument("generate_topology: unknown family");
}

std::vector<CutCandidate> cut_candidates(const TopologyPlan& plan) {
  std::vector<CutCandidate> edges;
  edges.reserve(plan.edges.size());
  for (const TopologyPlan::EdgeSpec& edge : plan.edges) {
    edges.push_back({plan.nodes[edge.a].partition,
                     plan.nodes[edge.b].partition, edge.propagation});
  }
  return edges;
}

void instantiate_topology(const TopologyPlan& plan, World& world) {
  if (world.partitions() != plan.partition_count) {
    throw std::invalid_argument(
        "instantiate_topology: world partitions differ from the plan's");
  }
  if (world.net().node_count() != 0) {
    throw std::invalid_argument("instantiate_topology: world not empty");
  }
  for (const TopologyPlan::NodeSpec& node : plan.nodes) {
    world.add_node(node.name, node.partition);
  }
  for (const TopologyPlan::EdgeSpec& edge : plan.edges) {
    sim::LinkConfig config;
    config.name =
        plan.nodes[edge.a].name + "<->" + plan.nodes[edge.b].name;
    config.rate = edge.rate;
    config.propagation = edge.propagation;
    config.buffer_packets = edge.buffer_packets;
    world.add_duplex_link(edge.a, edge.b, config);
  }
  world.net().compute_routes();
}

FluidBackground book_fluid_background(const FluidBackgroundConfig& config,
                                      const TopologyPlan& topo, World& world,
                                      const std::vector<bool>& in_zone) {
  sim::Network& net = world.net();
  FluidBackground out;

  // Pass 1: draw the population's host pairs from a seeded stream and
  // accumulate per-link duty-weighted traversal counts (for the peak
  // calibration).  Each distinct pair is routed, zone-checked and, when
  // fluid, interned once; a dense hosts x hosts slot index finds it again.
  struct PairRoute {
    sim::NodeId src = 0, dst = 0;
    std::vector<std::uint32_t> uids;
    bool packetized = false;
    sim::FlowTable::RouteId route = 0;
  };
  constexpr std::uint32_t kUnseen = std::numeric_limits<std::uint32_t>::max();
  const std::size_t host_count = topo.hosts.size();
  std::vector<std::uint32_t> pair_slot;
  if (config.flows > 0) pair_slot.assign(host_count * host_count, kUnseen);
  std::vector<PairRoute> pairs;
  std::vector<std::uint32_t> flow_pair;
  flow_pair.reserve(config.flows);
  std::size_t fluid_flows = 0;
  std::vector<double> unit_demand(net.link_count(), 0.0);  // all flows
  SplitMix64 pair_stream(derive_stream_seed(config.seed, 0xB6));
  for (std::size_t f = 0; f < config.flows; ++f) {
    const std::size_t si = pair_stream.next() % host_count;
    std::size_t di = pair_stream.next() % host_count;
    while (di == si) di = pair_stream.next() % host_count;
    std::uint32_t& slot = pair_slot[si * host_count + di];
    if (slot == kUnseen) {
      slot = static_cast<std::uint32_t>(pairs.size());
      PairRoute& pair = pairs.emplace_back();
      pair.src = topo.hosts[si];
      pair.dst = topo.hosts[di];
      pair.uids = net.route_links(pair.src, pair.dst);
      pair.packetized =
          !in_zone.empty() &&
          std::any_of(pair.uids.begin(), pair.uids.end(),
                      [&](std::uint32_t uid) { return in_zone[uid]; });
      if (!pair.packetized) pair.route = out.table.intern_route(pair.uids);
    }
    flow_pair.push_back(slot);
    const PairRoute& pair = pairs[slot];
    if (!pair.packetized) ++fluid_flows;
    for (const std::uint32_t uid : pair.uids) {
      unit_demand[uid] += config.duty;
    }
  }

  // Peak calibration: unit peaks would load link `uid` at
  // unit_demand[uid] / capacity; scale so the busiest link carries
  // max_link_load.  All background flows count — fluid and packetized
  // alike load the fabric.
  double peak = config.flow_peak.bps();
  if (peak <= 0.0) {
    double worst = 0.0;
    for (std::size_t i = 0; i < net.link_count(); ++i) {
      if (unit_demand[i] > 0.0) {
        worst = std::max(worst,
                         unit_demand[i] / net.link_at(i).config().rate.bps());
      }
    }
    peak = worst > 0.0 ? config.max_link_load / worst : 0.0;
  }
  out.peak = Bandwidth::bps(peak);

  // Pass 2: book fluid flows (zero events each) and hand packetized ones
  // back; phases spread evenly so FlowTable::rate_at queries desynchronize.
  out.table.reserve(fluid_flows);
  out.packet_flows.reserve(config.flows - fluid_flows);
  for (std::size_t f = 0; f < config.flows; ++f) {
    const PairRoute& pair = pairs[flow_pair[f]];
    if (pair.packetized) {
      out.packet_flows.emplace_back(pair.src, pair.dst);
      continue;
    }
    const Duration phase = Duration::nanos(static_cast<std::int64_t>(
        (static_cast<double>(f) / static_cast<double>(config.flows)) *
        static_cast<double>(config.period.count_nanos())));
    out.table.add_flow(f, pair.route, out.peak,
                       static_cast<float>(config.duty), config.period, phase);
  }

  // Per-link fluid demand (mean rates of the folded flows) -> aggregates,
  // each homed in its link's domain and seeded by link uid.  With
  // envelope modulation the mean demand arrives as a K-state FluidFlow
  // (stationary mean == demand) instead of a constant base rate — the
  // only event source a fluid link has, O(1) per link.
  out.demand = out.table.link_demands(net.link_count());
  out.aggregates.resize(net.link_count());
  const bool modulated = config.envelope_states >= 2;
  for (std::size_t i = 0; i < net.link_count(); ++i) {
    const Bandwidth demand = Bandwidth::bps(out.demand[i]);
    if (!demand.is_positive()) continue;
    sim::Link& link = net.link_at(i);
    sim::Simulator& link_sim = world.sim_of(net.link_source(i));
    sim::FluidAggregateConfig aggregate_config;
    aggregate_config.capacity = link.config().rate;
    aggregate_config.queue_model = config.queue_model;
    aggregate_config.mean_packet = config.mean_packet;
    out.aggregates[i] = std::make_unique<sim::FluidAggregate>(
        link_sim, aggregate_config,
        Rng(derive_stream_seed(config.seed ^ 0xF1u, i)));
    link.attach_fluid(*out.aggregates[i]);
    if (modulated) {
      out.envelopes.push_back(std::make_unique<sim::FluidFlow>(
          link_sim,
          sim::FluidFlowConfig::envelope(demand, config.envelope_states,
                                         config.envelope_swing,
                                         config.envelope_mean_holding),
          Rng(derive_stream_seed(config.seed ^ 0xE2u, i))));
      out.envelopes.back()->attach(*out.aggregates[i]);
    } else {
      out.aggregates[i]->add_base_rate(demand);
    }
  }
  return out;
}

}  // namespace bolot::scenario
