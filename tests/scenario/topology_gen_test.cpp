#include "scenario/topology_gen.h"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <vector>

#include "runner/thread_pool.h"
#include "scenario/scenarios.h"
#include "scenario/tomography.h"
#include "scenario/world.h"
#include "sim/network.h"

namespace bolot::scenario {
namespace {

TEST(TopologyGenTest, SameSeedWiresIdentically) {
  for (const auto family :
       {TopologySpec::Family::kFatTree, TopologySpec::Family::kAsHierarchy}) {
    TopologySpec spec;
    spec.family = family;
    spec.seed = 77;
    const std::uint64_t digest = generate_topology(spec).wiring_digest();
    EXPECT_EQ(generate_topology(spec).wiring_digest(), digest);
    spec.seed = 78;
    EXPECT_NE(generate_topology(spec).wiring_digest(), digest)
        << "seed must reach the wiring (propagation jitter)";
  }
}

TEST(TopologyGenTest, FatTreeHasTheTextbookShape) {
  TopologySpec spec;
  spec.fat_tree_k = 4;
  spec.hosts_per_edge = 2;
  const TopologyPlan plan = generate_topology(spec);
  // k pods x (k/2 edge + k/2 agg + (k/2)*hosts) + (k/2)^2 cores.
  EXPECT_EQ(plan.nodes.size(), 4u * (2 + 2 + 4) + 4u);
  EXPECT_EQ(plan.hosts.size(), 16u);
  // Host links + per-pod bipartite + core links.
  EXPECT_EQ(plan.edges.size(), 16u + 4u * 4u + 4u * 4u);
  EXPECT_EQ(plan.partition_count, 4u);
  for (const std::uint32_t host : plan.hosts) {
    EXPECT_TRUE(plan.nodes[host].is_host);
  }
}

TEST(TopologyGenTest, AsHierarchyHasMeshProvidersAndPeers) {
  TopologySpec spec;
  spec.family = TopologySpec::Family::kAsHierarchy;
  spec.core_count = 4;
  spec.stubs_per_core = 3;
  spec.hosts_per_stub = 2;
  spec.peer_links = 2;
  const TopologyPlan plan = generate_topology(spec);
  EXPECT_EQ(plan.nodes.size(), 4u + 12u + 24u);
  EXPECT_EQ(plan.hosts.size(), 24u);
  // Core mesh C(4,2) + provider links + host links + peering shortcuts.
  EXPECT_EQ(plan.edges.size(), 6u + 12u + 24u + 2u);
  EXPECT_EQ(plan.partition_count, 4u);
}

TEST(TopologyGenTest, InstantiateRejectsMoreDomainsThanPartitions) {
  // The enforcement surface behind the ScenarioOverrides::domains clamp
  // bugfix: callers must clamp against partition_count, not any route
  // length, and the instantiator refuses to paper over it.
  const TopologyPlan plan = generate_topology(TopologySpec{});  // 4 pods
  EXPECT_THROW(
      {
        World world(5, plan.partition_count, 1);
        instantiate_topology(plan, world);
      },
      std::invalid_argument);
}

TEST(TopologyGenTest, InstantiateBuildsEveryNodeAndDuplexLink) {
  const TopologyPlan plan = generate_topology(TopologySpec{});
  World world(1, plan.partition_count, 1);
  instantiate_topology(plan, world);
  const sim::Network& net = world.net();
  EXPECT_EQ(net.node_count(), plan.nodes.size());
  EXPECT_EQ(net.link_count(), 2 * plan.edges.size());
  for (sim::NodeId node = 0; node < net.node_count(); ++node) {
    EXPECT_EQ(world.domain_of(node), 0u);
  }
}

TEST(TopologyGenTest, PartitionHintsSplitEvenlyAcrossDomains) {
  const TopologyPlan plan = generate_topology(TopologySpec{});  // 4 pods
  World world(2, plan.partition_count, 1);
  instantiate_topology(plan, world);
  std::vector<std::size_t> population(2, 0);
  for (sim::NodeId node = 0; node < world.net().node_count(); ++node) {
    const std::size_t domain = world.domain_of(node);
    ASSERT_LT(domain, 2u);
    ++population[domain];
  }
  EXPECT_EQ(population[0], population[1]);  // pods 0+1 vs pods 2+3
}

TEST(TopologyGenTest, RouteLinksWalkTracerouteOnEveryHostPair) {
  // Link-uid routes read straight off the routing table must cross
  // exactly the traceroute path, for every ordered host pair, before and
  // after a link on the probed route goes down.  The digest over all
  // routes was recorded from the earlier router, which mapped traceroute
  // hops back to link uids through a (source, target) -> uid map.
  std::uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a
  const auto mix = [&digest](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (v >> (8 * i)) & 0xFF;
      digest *= 0x100000001b3ULL;
    }
  };
  for (const auto family :
       {TopologySpec::Family::kFatTree, TopologySpec::Family::kAsHierarchy}) {
    TopologySpec spec;
    spec.family = family;
    spec.fat_tree_k = 4;
    spec.core_count = 4;
    const TopologyPlan plan = generate_topology(spec);
    World world(1, plan.partition_count, 1);
    instantiate_topology(plan, world);
    sim::Network& net = world.net();
    for (const bool link_down : {false, true}) {
      SCOPED_TRACE(link_down ? "one link down" : "all links up");
      if (link_down) {
        const std::vector<std::uint32_t> probed =
            net.route_links(plan.hosts.front(), plan.hosts.back());
        const std::uint32_t down = probed[probed.size() / 2];
        net.set_link_down(net.link_source(down), net.link_target(down));
      }
      for (const sim::NodeId a : plan.hosts) {
        for (const sim::NodeId b : plan.hosts) {
          if (a == b) continue;
          const std::vector<std::uint32_t> uids = net.route_links(a, b);
          const std::vector<sim::TracerouteHop> hops = net.traceroute(a, b);
          ASSERT_EQ(hops.size(), uids.size() + 1);
          for (std::size_t i = 0; i < uids.size(); ++i) {
            EXPECT_EQ(net.link_source(uids[i]), hops[i].node);
            EXPECT_EQ(net.link_target(uids[i]), hops[i + 1].node);
          }
          mix(uids.size());
          for (const std::uint32_t uid : uids) mix(uid);
        }
      }
    }
  }
  EXPECT_EQ(digest, 0x79a250c012b45f25ULL);
}

ScenarioResult run_small_fabric(std::size_t domains,
                                std::optional<std::size_t> radius) {
  ProbePlan plan;
  plan.delta = Duration::millis(40);
  plan.duration = Duration::seconds(4);
  plan.seed = 424242;
  ScenarioOverrides overrides;
  overrides.domains = domains;
  TopologySpec spec;
  spec.fat_tree_k = 4;
  spec.hosts_per_edge = 2;
  spec.seed = 11;
  overrides.topology = spec;
  FluidBackgroundConfig background;
  background.flows = 500;
  background.max_link_load = 0.4;
  background.envelope_states = 3;
  background.envelope_mean_holding = Duration::millis(400);
  overrides.fluid_background = background;
  overrides.packetize_radius = radius;
  return run_topology(plan, overrides);
}

TEST(RunTopologyTest, DomainsClampAgainstPartitionHints) {
  // Requesting far more domains than the generator's partition hints must
  // clamp (to the hint count), not throw and not shard arbitrarily.
  const ScenarioResult result = run_small_fabric(64, std::nullopt);
  EXPECT_EQ(result.domains_used, 4u);  // fat_tree_k = 4 partitions
  EXPECT_GT(result.trace.received_count(), 0u);
}

TEST(RunTopologyTest, EventStreamIsInvariantAcrossDomainCounts) {
  // The hybrid engine rides the PDES contract: fluid trajectories are
  // seed-replicated per link, so the probe trace and the event count must
  // not depend on how the fabric is sharded.  The shared pool donates
  // worker threads, so the sharded runs really cross threads.
  runner::shared_pool();
  const ScenarioResult sequential = run_small_fabric(1, 1);
  ASSERT_GT(sequential.trace.received_count(), 0u);
  EXPECT_GT(sequential.background_flows_fluid, 0u);
  EXPECT_GT(sequential.background_flows_packetized, 0u);
  for (const std::size_t domains : {2u, 4u}) {
    SCOPED_TRACE(std::to_string(domains) + " domains");
    const ScenarioResult sharded = run_small_fabric(domains, 1);
    EXPECT_EQ(sharded.domains_used, domains);
    EXPECT_EQ(sharded.events, sequential.events);
    ASSERT_EQ(sharded.trace.records.size(), sequential.trace.records.size());
    for (std::size_t i = 0; i < sequential.trace.records.size(); ++i) {
      EXPECT_EQ(sharded.trace.records[i].rtt, sequential.trace.records[i].rtt)
          << "probe " << i;
      EXPECT_EQ(sharded.trace.records[i].received,
                sequential.trace.records[i].received);
    }
    EXPECT_EQ(sharded.hop_deliveries, sequential.hop_deliveries);
    EXPECT_EQ(sharded.background_flows_fluid,
              sequential.background_flows_fluid);
  }
}

TEST(DomainClampTest, ZeroCoreLookaheadRunsBothFabricRunnersOnOneDomain) {
  // Hosts hang off links that are never cut, so only a zero core
  // propagation puts a zero-lookahead edge across the partition.  The one
  // domain clamp must then fall back to one domain in both generated-
  // fabric runners, exactly as if one domain had been asked for.
  ProbePlan plan;
  plan.delta = Duration::millis(40);
  plan.duration = Duration::seconds(2);
  plan.seed = 424242;
  ScenarioOverrides overrides;
  TopologySpec fabric;
  fabric.core_propagation = Duration::zero();
  fabric.seed = 11;
  overrides.topology = fabric;
  FluidBackgroundConfig background;
  background.flows = 300;
  overrides.fluid_background = background;
  overrides.packetize_radius = 1;
  const ScenarioResult one = run_topology(plan, overrides);
  overrides.domains = 4;
  const ScenarioResult four = run_topology(plan, overrides);
  EXPECT_EQ(one.domains_used, 1u);
  EXPECT_EQ(four.domains_used, 1u);
  EXPECT_GT(one.trace.received_count(), 0u);
  EXPECT_EQ(four.events, one.events);
  EXPECT_EQ(four.hop_deliveries, one.hop_deliveries);
  EXPECT_EQ(four.background_flows_packetized, one.background_flows_packetized);
  ASSERT_EQ(four.trace.records.size(), one.trace.records.size());
  for (std::size_t i = 0; i < one.trace.records.size(); ++i) {
    EXPECT_EQ(four.trace.records[i].rtt, one.trace.records[i].rtt);
    EXPECT_EQ(four.trace.records[i].received, one.trace.records[i].received);
  }

  TomographySpec mesh;
  mesh.topology.family = TopologySpec::Family::kAsHierarchy;
  mesh.topology.core_count = 4;
  mesh.topology.stubs_per_core = 1;
  mesh.topology.hosts_per_stub = 1;
  mesh.topology.core_propagation = Duration::zero();
  mesh.duration = Duration::seconds(2);
  const TomographyResult mesh_one = run_tomography(mesh);
  mesh.domains = 4;
  const TomographyResult mesh_four = run_tomography(mesh);
  EXPECT_EQ(mesh_one.domains_used, 1u);
  EXPECT_EQ(mesh_four.domains_used, 1u);
  EXPECT_TRUE(mesh_four.delay_truth_collected);
  EXPECT_EQ(mesh_four.events, mesh_one.events);
  EXPECT_EQ(mesh_four.loss_error, mesh_one.loss_error);
  EXPECT_EQ(mesh_four.delay_error, mesh_one.delay_error);
  ASSERT_EQ(mesh_four.streams, mesh_one.streams);
  for (std::size_t s = 0; s < mesh_one.streams; ++s) {
    EXPECT_EQ(mesh_four.stream_summaries[s].received,
              mesh_one.stream_summaries[s].received);
    EXPECT_EQ(mesh_four.stream_summaries[s].mean_rtt_ms,
              mesh_one.stream_summaries[s].mean_rtt_ms);
  }
}

TEST(RunTopologyTest, PacketizeRadiusSplitsThePopulation) {
  // nullopt -> everything fluid; a huge radius -> everything packetized.
  const ScenarioResult all_fluid = run_small_fabric(1, std::nullopt);
  EXPECT_EQ(all_fluid.background_flows_packetized, 0u);
  EXPECT_GT(all_fluid.background_flows_fluid, 0u);
  const ScenarioResult all_packets = run_small_fabric(1, 100);
  EXPECT_EQ(all_packets.background_flows_fluid, 0u);
  EXPECT_GT(all_packets.background_flows_packetized, 0u);
  // A fully fluid run dispatches far fewer events than a fully packetized
  // one carrying the identical population — the engine's reason to exist.
  EXPECT_LT(all_fluid.events, all_packets.events / 2);
}

TEST(FluidSetupPinTest, TopologyRunKeepsItsExactOutputs) {
  // Exact outputs of the fluid background set-up, pinned so that any
  // rework of how flows are booked (routing, interning, the demand fold)
  // has to leave them bit-identical.  Radius 1 exercises both halves of
  // the hybrid split; its zone covers the probed path, so the probe hops
  // carry no fluid, and the zone-free run pins the folded demand there.
  const ScenarioResult zoned = run_small_fabric(1, 1);
  EXPECT_EQ(zoned.events, 1459403u);
  EXPECT_EQ(zoned.hop_deliveries, 671704u);
  EXPECT_EQ(zoned.background_flows_fluid, 51u);
  EXPECT_EQ(zoned.background_flows_packetized, 449u);
  ASSERT_EQ(zoned.probe_hops.size(), 12u);
  for (const ScenarioResult::ProbeHop& hop : zoned.probe_hops) {
    EXPECT_EQ(hop.fluid.bps(), 0.0);
  }

  const ScenarioResult all_fluid = run_small_fabric(1, std::nullopt);
  EXPECT_EQ(all_fluid.events, 4034u);
  EXPECT_EQ(all_fluid.hop_deliveries, 1200u);
  const std::vector<double> fluid_bps{
      2285714.25,   4190476.125,    9333333.1875,  8761904.625,
      4380952.3125, 2571428.53125,  3238095.1875,  6190476.09375,
      10761904.59375, 10285714.125, 6476190.375,   3904761.84375};
  ASSERT_EQ(all_fluid.probe_hops.size(), fluid_bps.size());
  for (std::size_t i = 0; i < fluid_bps.size(); ++i) {
    EXPECT_EQ(all_fluid.probe_hops[i].fluid.bps(), fluid_bps[i])
        << "hop " << i;
  }
}

TEST(FluidSetupPinTest, TomographyMeshKeepsItsExactOutputs) {
  // The mesh books its background through the same set-up, all fluid.
  TomographySpec spec;
  spec.topology.family = TopologySpec::Family::kAsHierarchy;
  spec.topology.core_count = 4;
  spec.topology.stubs_per_core = 2;
  spec.topology.hosts_per_stub = 1;
  spec.topology.peer_links = 2;
  spec.topology.seed = 7;
  spec.delta = Duration::millis(20);
  spec.duration = Duration::seconds(4);
  FluidBackgroundConfig background;
  background.flows = 2000;
  background.max_link_load = 0.5;
  spec.fluid_background = background;
  const TomographyResult result = run_tomography(spec);
  EXPECT_EQ(result.streams, 56u);
  EXPECT_EQ(result.events, 217826u);
  EXPECT_EQ(result.loss_error, 0.33888750873960705);
}

}  // namespace
}  // namespace bolot::scenario
