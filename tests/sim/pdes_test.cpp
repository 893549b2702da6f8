// Parallel-kernel tests: SPSC channel semantics, lookahead/partition
// rules, cross-domain merge ordering, and — the core contract — exact
// equality of sharded and sequential event streams.
#include "sim/pdes.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "runner/thread_pool.h"
#include "scenario/scenarios.h"
#include "sim/network.h"
#include "sim/spsc_channel.h"
#include "sim/traffic.h"
#include "util/rng.h"

namespace bolot::sim {
namespace {

Handoff make_handoff(std::int64_t at_ns, std::uint32_t link,
                     std::uint64_t stamp, std::uint64_t id = 0) {
  Handoff h{};
  h.at = Duration::nanos(at_ns);
  h.link = link;
  h.stamp = stamp;
  h.packet.id = id;
  h.packet.size_bytes = 100;
  return h;
}

TEST(SpscChannelTest, FifoOrderPreserved) {
  SpscChannel chan(8);
  for (std::uint64_t i = 0; i < 6; ++i) {
    chan.push(make_handoff(1000 + static_cast<std::int64_t>(i), 0, i, i));
  }
  Handoff h;
  for (std::uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(chan.pop(h));
    EXPECT_EQ(h.stamp, i);
    EXPECT_EQ(h.packet.id, i);
  }
  EXPECT_FALSE(chan.pop(h));
}

TEST(SpscChannelTest, RejectsNonPowerOfTwoCapacity) {
  EXPECT_THROW(SpscChannel(0), std::invalid_argument);
  EXPECT_THROW(SpscChannel(12), std::invalid_argument);
}

TEST(SpscChannelTest, OverflowSpillsAndPreservesOrder) {
  SpscChannel chan(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    chan.push(make_handoff(static_cast<std::int64_t>(100 * i), 0, i, i));
  }
  EXPECT_FALSE(chan.spill_empty());  // 6 handoffs did not fit the ring
  std::vector<std::uint64_t> ids;
  Handoff h;
  // Consumer drains, producer flushes, repeatedly — the pattern a real
  // domain pair follows — and the total order must be the push order.
  while (ids.size() < 10) {
    while (chan.pop(h)) ids.push_back(h.packet.id);
    chan.flush();
  }
  EXPECT_TRUE(chan.spill_empty());
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(ids[i], i);
}

TEST(SpscChannelTest, SpillBoundCapsSafeTimeByLookahead) {
  SpscChannel chan(2);
  chan.set_lookahead(Duration::millis(3));
  EXPECT_EQ(chan.spill_bound_ns(), SpscChannel::kNever);  // nothing spilled
  chan.push(make_handoff(Duration::millis(10).count_nanos(), 0, 0));
  chan.push(make_handoff(Duration::millis(11).count_nanos(), 0, 1));
  chan.push(make_handoff(Duration::millis(12).count_nanos(), 0, 2));  // spills
  // The producer must not advertise past (earliest spilled arrival -
  // lookahead): the consumer's horizon is safe + lookahead, and the
  // spilled packet at 12 ms is invisible to it.
  EXPECT_EQ(chan.spill_bound_ns(), Duration::millis(9).count_nanos());
  Handoff h;
  ASSERT_TRUE(chan.pop(h));
  chan.flush();
  EXPECT_TRUE(chan.spill_empty());
  EXPECT_EQ(chan.spill_bound_ns(), SpscChannel::kNever);
}

TEST(PdesTest, AttachRejectsZeroLookaheadCut) {
  ParallelSimulation psim(2);
  Network net(psim.simulator(0), 7);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  LinkConfig config;
  config.name = "a->b";
  config.rate = Bandwidth::bps(1e6);
  config.propagation = Duration::zero();  // no lookahead across the cut
  net.add_link(a, b, config, psim.simulator(0));
  EXPECT_THROW(psim.attach(net, {0, 1}), std::invalid_argument);
}

TEST(PdesTest, AttachRejectsBadPartition) {
  ParallelSimulation psim(2);
  Network net(psim.simulator(0), 7);
  net.add_node("a");
  net.add_node("b");
  EXPECT_THROW(psim.attach(net, {0}), std::invalid_argument);      // short
  EXPECT_THROW(psim.attach(net, {0, 5}), std::invalid_argument);   // range
}

TEST(PdesTest, EqualTimestampHandoffsDeliverInSendOrder) {
  // A trace-driven transmitter can retire several packets in one
  // opportunity, so they cross the cut with the SAME arrival nanosecond;
  // the per-link send stamp must keep them FIFO at the receiver.
  ParallelSimulation psim(2);
  Network net(psim.simulator(0), 7);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  auto schedule = std::make_shared<DeliverySchedule>();
  schedule->opportunities = {Duration::millis(1)};
  schedule->period = Duration::millis(10);
  schedule->bytes_per_opportunity = 3000;  // both 1000-byte packets at once
  LinkConfig config;
  config.name = "a->b";
  config.rate = Bandwidth::bps(1e6);  // ignored (trace-driven)
  config.propagation = Duration::millis(2);
  config.buffer_packets = 8;
  config.schedule = schedule;
  Link& link = net.add_link(a, b, config, psim.simulator(0));
  std::vector<std::pair<std::int64_t, std::uint64_t>> arrivals;
  link.add_delivery_hook([&arrivals](const Packet& p, SimTime at) {
    arrivals.emplace_back(at.count_nanos(), p.id);
  });
  psim.attach(net, {0, 1});
  psim.simulator(0).schedule_at(Duration::zero(), [&link, a, b] {
    Packet p;
    p.size_bytes = 1000;
    p.src = a;
    p.dst = b;  // consumed at b (the Network sink routes by dst)
    p.id = 1;
    link.enqueue(Packet(p));
    p.id = 2;
    link.enqueue(Packet(p));
  });
  psim.run_until(Duration::millis(20));
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0].first, arrivals[1].first);  // same nanosecond
  EXPECT_EQ(arrivals[0].second, 1u);                // send order kept
  EXPECT_EQ(arrivals[1].second, 2u);
}

// ---------------------------------------------------------------------
// Exact-equality harness: one bidirectional 4-node chain with Poisson
// traffic both ways, run by the sequential kernel (domains == 0) or a
// sharded kernel, recording every delivery on the two end links plus the
// total event count.  Every variant must produce the same bytes.

struct ChainTrace {
  // (arrival ns, packet id, flow) per delivery, in delivery order.
  std::vector<std::tuple<std::int64_t, std::uint64_t, std::uint32_t>> fwd;
  std::vector<std::tuple<std::int64_t, std::uint64_t, std::uint32_t>> rev;
  std::uint64_t events = 0;
  // Kernel counters of a sharded run (not part of the equality: the
  // advance counts depend on scheduling).
  std::vector<DomainStats> domains;

  bool operator==(const ChainTrace& other) const {
    return fwd == other.fwd && rev == other.rev && events == other.events;
  }
};

ChainTrace run_chain_case(std::size_t domains, Duration slice = {},
                          Duration end = Duration::seconds(2)) {
  std::optional<ParallelSimulation> psim;
  std::optional<Simulator> seq;
  if (domains > 0) {
    psim.emplace(domains);
  } else {
    seq.emplace();
  }
  const std::size_t node_count = 4;
  const auto domain_of = [&](std::size_t i) {
    return domains > 0 ? i * domains / node_count : 0;
  };
  const auto sim_of = [&](std::size_t i) -> Simulator& {
    return psim ? psim->simulator(domain_of(i)) : *seq;
  };

  Network net(sim_of(0), 42);
  std::vector<NodeId> nodes;
  for (std::size_t i = 0; i < node_count; ++i) {
    nodes.push_back(net.add_node("n" + std::to_string(i)));
  }
  const Duration props[] = {Duration::micros(1300.5), Duration::micros(2701.3),
                            Duration::micros(897.1)};
  for (std::size_t h = 0; h < 3; ++h) {
    LinkConfig config;
    config.name = "n" + std::to_string(h) + "<->n" + std::to_string(h + 1);
    config.rate = Bandwidth::bps(1e6);
    config.propagation = props[h];
    config.buffer_packets = 6;  // small: overflow drops are part of the run
    net.add_duplex_link(nodes[h], nodes[h + 1], config, sim_of(h),
                        sim_of(h + 1));
  }

  Rng rng(0xFEEDull);
  PoissonSource fwd_src(sim_of(0), net, nodes[0], nodes[3], 1,
                        PacketKind::kBulk, rng.split(),
                        Duration::micros(3517.9), ByteSize::bytes(400));
  PoissonSource rev_src(sim_of(3), net, nodes[3], nodes[0], 2,
                        PacketKind::kInteractive, rng.split(),
                        Duration::micros(5233.7), ByteSize::bytes(200));

  ChainTrace trace;
  net.link(nodes[2], nodes[3])
      .add_delivery_hook([&trace](const Packet& p, SimTime at) {
        trace.fwd.emplace_back(at.count_nanos(), p.id, p.flow);
      });
  net.link(nodes[1], nodes[0])
      .add_delivery_hook([&trace](const Packet& p, SimTime at) {
        trace.rev.emplace_back(at.count_nanos(), p.id, p.flow);
      });

  net.compute_routes();
  if (psim) {
    std::vector<std::size_t> node_domain;
    for (std::size_t i = 0; i < node_count; ++i) {
      node_domain.push_back(domain_of(i));
    }
    psim->attach(net, node_domain);
  }
  fwd_src.start(Duration::zero());
  rev_src.start(Duration::micros(733.3));

  if (slice > Duration::zero()) {
    // Slice stepping, the fuzz harness's pattern: repeated run_until
    // calls with increasing end must match a single-shot run.
    for (Duration t = slice; t < end; t += slice) {
      if (psim) {
        psim->run_until(t);
      } else {
        seq->run_until(t);
      }
    }
  }
  if (psim) {
    psim->run_until(end);
    trace.events = psim->events_dispatched();
    trace.domains = psim->domain_stats();
  } else {
    seq->run_until(end);
    trace.events = seq->events_dispatched();
  }
  return trace;
}

TEST(PdesTest, SingleDomainMatchesSequentialByteForByte) {
  const ChainTrace sequential = run_chain_case(0);
  ASSERT_FALSE(sequential.fwd.empty());
  ASSERT_FALSE(sequential.rev.empty());
  EXPECT_TRUE(run_chain_case(1) == sequential);
}

TEST(PdesTest, ShardedChainMatchesSequentialExactly) {
  const ChainTrace sequential = run_chain_case(0);
  for (std::size_t domains : {2u, 3u, 4u}) {
    const ChainTrace sharded = run_chain_case(domains);
    EXPECT_EQ(sharded.fwd, sequential.fwd) << domains << " domains";
    EXPECT_EQ(sharded.rev, sequential.rev) << domains << " domains";
    EXPECT_EQ(sharded.events, sequential.events) << domains << " domains";
  }
}

TEST(PdesTest, SliceSteppingMatchesSingleShot) {
  const ChainTrace single = run_chain_case(2);
  EXPECT_TRUE(run_chain_case(2, Duration::millis(83)) == single);
}

TEST(PdesTest, RepeatedShardedRunsIdenticalWithWorkerThreads) {
  // Borrow the process-wide pool (as production sweeps do) so domain
  // driving really crosses threads where the host has them; the result
  // must not depend on scheduling either way.
  runner::shared_pool();
  const ChainTrace first = run_chain_case(4);
  const ChainTrace second = run_chain_case(4);
  EXPECT_TRUE(first == second);
  EXPECT_TRUE(run_chain_case(0) == first);
}

/// Installs `donor` for one test, then puts back the process-wide pool's
/// donor so later tests borrow real workers again.
class DonorScope {
 public:
  explicit DonorScope(ParallelSimulation::ThreadDonor donor) {
    ParallelSimulation::set_thread_donor(std::move(donor));
  }
  ~DonorScope() {
    ParallelSimulation::set_thread_donor([](std::function<void()> job) {
      runner::shared_pool().submit(std::move(job));
    });
  }
  DonorScope(const DonorScope&) = delete;
  DonorScope& operator=(const DonorScope&) = delete;
};

ParallelSimulation::ThreadDonor pool_donor(runner::ThreadPool& pool) {
  return [&pool](std::function<void()> job) { pool.submit(std::move(job)); };
}

// Donor shapes the owner/steal driver must survive.  Every one must give
// the sequential kernel's exact streams: a worker's share of the domains
// changes who runs a batch, never what the batch does.

TEST(PdesDriverTest, DroppingDonorLeavesTheCallerToDriveEveryDomain) {
  const ChainTrace sequential = run_chain_case(0);
  const DonorScope scope([](std::function<void()>) {});  // jobs never run
  const ChainTrace sharded = run_chain_case(4);
  EXPECT_TRUE(sharded == sequential);
  for (const DomainStats& d : sharded.domains) {
    EXPECT_EQ(d.stolen_advances, 0u);  // a lone participant owns all four
  }
}

TEST(PdesDriverTest, LateWorkersJoinMidRun) {
  // A long run, so workers 20 ms late arrive while the caller, which
  // owned every domain until then, is still driving.
  const Duration end = Duration::seconds(120);
  const ChainTrace sequential = run_chain_case(0, {}, end);
  std::vector<std::thread> late;
  ChainTrace sharded;
  {
    const DonorScope scope([&late](std::function<void()> job) {
      late.emplace_back([job = std::move(job)] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        job();
      });
    });
    sharded = run_chain_case(4, {}, end);
  }
  for (std::thread& t : late) t.join();
  EXPECT_TRUE(sharded == sequential);
}

TEST(PdesDriverTest, OneThreadDonorMatchesSequential) {
  const ChainTrace sequential = run_chain_case(0);
  runner::ThreadPool pool(1);
  const DonorScope scope(pool_donor(pool));
  EXPECT_TRUE(run_chain_case(4) == sequential);
  EXPECT_TRUE(run_chain_case(3) == sequential);
}

TEST(PdesDriverTest, MoreWorkersThanDomainsMatchesSequential) {
  const ChainTrace sequential = run_chain_case(0);
  runner::ThreadPool pool(8);
  const DonorScope scope(pool_donor(pool));
  EXPECT_TRUE(run_chain_case(4) == sequential);
  EXPECT_TRUE(run_chain_case(2) == sequential);
  EXPECT_TRUE(run_chain_case(4, Duration::millis(83)) == sequential);
}

TEST(PdesDriverTest, DomainStatsSumToEventsDispatched) {
  const DonorScope scope(nullptr);
  const ChainTrace sharded = run_chain_case(4);
  ASSERT_EQ(sharded.domains.size(), 4u);
  std::uint64_t events = 0;
  for (const DomainStats& d : sharded.domains) {
    events += d.events;
    EXPECT_GT(d.handoffs, 0u);  // traffic crosses every cut both ways
    EXPECT_GT(d.advances, 0u);
    EXPECT_LE(d.empty_advances, d.advances);
    EXPECT_LE(d.handoffs, d.events);
  }
  EXPECT_EQ(events, sharded.events);
}

TEST(PdesDriverTest, DomainEventsAndHandoffsIndependentOfWorkerCount) {
  std::vector<ChainTrace> runs;
  {
    const DonorScope scope(nullptr);
    runs.push_back(run_chain_case(4));
  }
  for (std::size_t workers : {1u, 3u}) {
    runner::ThreadPool pool(workers);
    const DonorScope scope(pool_donor(pool));
    runs.push_back(run_chain_case(4));
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].domains.size(), runs[0].domains.size());
    for (std::size_t i = 0; i < runs[0].domains.size(); ++i) {
      EXPECT_EQ(runs[r].domains[i].events, runs[0].domains[i].events)
          << "run " << r << " domain " << i;
      EXPECT_EQ(runs[r].domains[i].handoffs, runs[0].domains[i].handoffs)
          << "run " << r << " domain " << i;
    }
  }
}

TEST(PdesScenarioTest, ShardedInriaUmdMatchesSequential) {
  scenario::ProbePlan plan;
  plan.delta = Duration::millis(20);
  plan.duration = Duration::seconds(3);
  plan.seed = 1993;
  const scenario::ScenarioResult sequential = scenario::run_inria_umd(plan);
  scenario::ScenarioOverrides overrides;
  overrides.domains = 4;
  const scenario::ScenarioResult sharded =
      scenario::run_inria_umd(plan, overrides);
  EXPECT_EQ(sharded.domains_used, 4u);
  EXPECT_EQ(sequential.domains_used, 1u);

  ASSERT_EQ(sharded.trace.records.size(), sequential.trace.records.size());
  for (std::size_t i = 0; i < sequential.trace.records.size(); ++i) {
    const auto& a = sequential.trace.records[i];
    const auto& b = sharded.trace.records[i];
    EXPECT_EQ(a.send_time, b.send_time) << "probe " << i;
    EXPECT_EQ(a.rtt, b.rtt) << "probe " << i;
    EXPECT_EQ(a.received, b.received) << "probe " << i;
  }
  EXPECT_EQ(sharded.bottleneck_forward.delivered,
            sequential.bottleneck_forward.delivered);
  EXPECT_EQ(sharded.bottleneck_forward.overflow_drops,
            sequential.bottleneck_forward.overflow_drops);
  EXPECT_EQ(sharded.total_overflow_drops, sequential.total_overflow_drops);
  EXPECT_EQ(sharded.total_random_drops, sequential.total_random_drops);
  EXPECT_EQ(sharded.hop_deliveries, sequential.hop_deliveries);
  EXPECT_EQ(sharded.events, sequential.events);
}

TEST(PdesScenarioTest, DomainsClampAndFallback) {
  scenario::ProbePlan plan;
  plan.delta = Duration::millis(50);
  plan.duration = Duration::seconds(1);
  scenario::ScenarioOverrides overrides;
  overrides.domains = 64;  // far beyond the path length: clamped, still runs
  const scenario::ScenarioResult big = scenario::run_inria_umd(plan, overrides);
  EXPECT_GT(big.domains_used, 1u);
  EXPECT_LE(big.domains_used, scenario::inria_umd_route_names().size());

  overrides.domains = 4;
  overrides.obs_sample_interval = Duration::millis(100);  // sampler => seq
  const scenario::ScenarioResult sampled =
      scenario::run_inria_umd(plan, overrides);
  EXPECT_EQ(sampled.domains_used, 1u);
}

}  // namespace
}  // namespace bolot::sim
