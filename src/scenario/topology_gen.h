// Deterministic seeded topology generators for internet-scale runs.
//
// Two families, both emitting a TopologyPlan — a pure-value description of
// nodes, duplex edges, and PDES partition hints — that instantiate_topology
// builds into a World (scenario/world.h), one simulator per domain:
//
//   * kFatTree     — the classic k-ary fat-tree (k pods of k/2 edge + k/2
//                    aggregation switches, (k/2)^2 core switches), hosts
//                    hanging off edge switches.  Partition hint = pod;
//                    core switches are spread round-robin.
//   * kAsHierarchy — a 2-level AS-like hierarchy: a full mesh of core
//                    routers, each providing transit to a set of stub
//                    ASes, plus seeded random stub-stub peering shortcuts.
//                    Partition hint = provider core.
//
// Wiring is a pure function of the spec (including its seed — propagation
// delays carry seeded jitter), so the same spec generates byte-identical
// plans on every run and across PDES domain counts; the audit fuzzer
// asserts digest equality of whole runs over these topologies.
//
// book_fluid_background loads a built fabric with a seeded background
// flow population (MODEL_NOTES §15) — the one set-up path run_topology
// and run_tomography share.  Cost: O(flows x route length + host pairs x
// route length); each host pair is routed and interned once.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "scenario/world.h"
#include "sim/fluid.h"
#include "sim/network.h"
#include "util/time.h"
#include "util/units.h"

namespace bolot::scenario {

struct TopologySpec {
  enum class Family : std::uint8_t { kFatTree, kAsHierarchy };
  Family family = Family::kFatTree;
  std::uint64_t seed = 1;

  // --- kFatTree knobs ---
  std::size_t fat_tree_k = 4;  // even, >= 2: k pods, (k/2)^2 cores
  std::size_t hosts_per_edge = 2;

  // --- kAsHierarchy knobs ---
  std::size_t core_count = 4;
  std::size_t stubs_per_core = 3;
  std::size_t hosts_per_stub = 2;
  /// Seeded random stub-stub peering shortcuts (0 = strict hierarchy).
  std::size_t peer_links = 2;

  // --- per-tier link parameters (shared by both families) ---
  Bandwidth core_rate = Bandwidth::bps(100e6);
  Bandwidth aggregation_rate = Bandwidth::bps(40e6);
  Bandwidth edge_rate = Bandwidth::bps(10e6);
  Duration core_propagation = Duration::millis(2);
  Duration aggregation_propagation = Duration::millis(1);
  Duration edge_propagation = Duration::micros(200);
  /// Seeded multiplicative jitter applied to every propagation delay,
  /// uniform in [1-x, 1+x]; keeps event timestamps off exact ties.
  double propagation_jitter = 0.2;
  std::size_t core_buffer_packets = 256;
  std::size_t edge_buffer_packets = 64;
};

/// Pure-value wiring: everything needed to rebuild the Network, plus the
/// PDES partition hints the domains clamp is checked against.
struct TopologyPlan {
  struct NodeSpec {
    std::string name;
    std::size_t partition = 0;
    bool is_host = false;
  };
  struct EdgeSpec {
    std::uint32_t a = 0, b = 0;  // indices into nodes; instantiated duplex
    Bandwidth rate = Bandwidth::zero();
    Duration propagation;
    std::size_t buffer_packets = 0;
  };

  std::vector<NodeSpec> nodes;
  std::vector<EdgeSpec> edges;
  /// Number of distinct partition hints (== max partition + 1).
  std::size_t partition_count = 1;
  /// Node indices of hosts (probe endpoints / flow sources), in id order.
  std::vector<std::uint32_t> hosts;

  /// FNV-1a over the complete wiring (names, partitions, edge tuples,
  /// rates, propagations, buffers): two plans are identically wired iff
  /// their digests match, which is what the determinism tests compare.
  std::uint64_t wiring_digest() const;
};

TopologyPlan generate_topology(const TopologySpec& spec);

/// Cut-candidate edges of `plan` for clamp_domains: each edge between
/// its endpoints' partition hints.
std::vector<CutCandidate> cut_candidates(const TopologyPlan& plan);

/// Builds `plan` into an empty `world` whose partition count is the
/// plan's, and computes its routes: node i becomes NodeId i, homed by its
/// partition hint, and each edge a duplex link homed per direction in its
/// source node's domain.  Edge order is plan order, so the Network's
/// per-link rng split order — and every random stream — is a function of
/// the plan alone, not of the domain count.
void instantiate_topology(const TopologyPlan& plan, World& world);

/// Background-traffic population for generated-topology runs
/// (run_topology, run_tomography): `flows` on/off flows between seeded
/// random host pairs.  Flows whose route stays outside the packetized
/// zone are folded into per-link FluidAggregates (zero events per flow —
/// see MODEL_NOTES §15); flows that touch the zone become real packet
/// sources.
struct FluidBackgroundConfig {
  std::size_t flows = 10000;
  /// On/off shape of each flow: peak rate, fraction of time on, cycle.
  /// A zero flow_peak auto-calibrates the peak so the busiest link
  /// carries `max_link_load` of its capacity in mean background demand.
  Bandwidth flow_peak = Bandwidth::zero();
  double duty = 0.5;
  Duration period = Duration::seconds(2);
  double max_link_load = 0.5;
  /// How fluid-served links model queueing (see sim::FluidQueueModel):
  /// kResidualRate drains probes at the residual capacity; kMd1Wait adds
  /// a sampled M/D/1 wait that also matches delay variance.
  sim::FluidQueueModel queue_model = sim::FluidQueueModel::kResidualRate;
  ByteSize mean_packet = ByteSize::bytes(512);
  /// Optional K-state envelope modulation of each fluid link's aggregate
  /// demand (0 = constant mean demand).  The envelope is the only event
  /// source a fluid link has: O(1) per link, independent of flow count.
  std::size_t envelope_states = 0;
  Duration envelope_mean_holding = Duration::seconds(2);
  double envelope_swing = 0.5;
  std::uint64_t seed = 0xF10D;
};

struct FluidBackground {
  sim::FlowTable table;  // the folded (fluid) flows
  /// Mean fluid demand per link uid, bps (FlowTable::link_demands).
  std::vector<double> demand;
  /// Calibrated per-flow peak rate (zero when nothing loads the fabric).
  Bandwidth peak = Bandwidth::zero();
  /// Flows whose route touches the packetized zone, as (src, dst) hosts in
  /// flow order; the caller runs them as packet sources.
  std::vector<std::pair<sim::NodeId, sim::NodeId>> packet_flows;
  std::vector<std::unique_ptr<sim::FluidAggregate>> aggregates;  // by uid
  /// Envelope processes to start once the kernel is attached.
  std::vector<std::unique_ptr<sim::FluidFlow>> envelopes;
};

/// Books `config`'s flow population onto the fabric instantiate_topology
/// built from `topo` into `world`.  `in_zone[uid]` marks the packetized
/// zone (empty = no zone: every flow is fluid).  Each link's aggregate is
/// homed in its source node's domain; aggregates and envelopes are seeded
/// by link uid, so the set-up does not depend on the domain count.
FluidBackground book_fluid_background(const FluidBackgroundConfig& config,
                                      const TopologyPlan& topo, World& world,
                                      const std::vector<bool>& in_zone);

}  // namespace bolot::scenario
