#include "scenario/scenarios.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "nettime/clock.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "scenario/world.h"
#include "sim/traffic.h"
#include "sim/udp_echo.h"

namespace bolot::scenario {

namespace {

/// One hop of the probe path.
struct HopSpec {
  Bandwidth rate;
  Duration propagation;
  std::size_t buffer_packets;
  Probability random_drop = Probability::zero();  // faulty-interface loss
  std::optional<sim::RedConfig> red = std::nullopt;
  /// Forward-direction-only stages: the probe direction carries the
  /// modeled channel / trace-driven transmitter, the reverse (echo)
  /// direction stays an ideal constant-rate link so measured loss
  /// attributes cleanly.
  std::optional<sim::MarkovChannelConfig> channel = std::nullopt;
  std::shared_ptr<const sim::DeliverySchedule> schedule = nullptr;
};

struct ChainSpec {
  std::vector<std::string> names;  // path nodes, source first
  std::vector<HopSpec> hops;       // names.size() - 1 entries
  std::size_t bottleneck_hop = 0;  // index into hops
  /// Hops with faulty interface cards: the ones
  /// ScenarioOverrides::faulty_interface_drop sets.
  std::vector<std::size_t> faulty_hops;
  Duration source_clock_tick;      // zero = exact clock
};

/// Applies the overrides every chain scenario honours to its spec.
void apply_overrides(ChainSpec& spec, const ScenarioOverrides& overrides) {
  HopSpec& bottleneck = spec.hops[spec.bottleneck_hop];
  if (overrides.bottleneck_rate) bottleneck.rate = *overrides.bottleneck_rate;
  if (overrides.bottleneck_buffer_packets) {
    bottleneck.buffer_packets = *overrides.bottleneck_buffer_packets;
  }
  if (overrides.bottleneck_red) bottleneck.red = *overrides.bottleneck_red;
  if (overrides.bottleneck_channel) {
    bottleneck.channel = overrides.bottleneck_channel;
  }
  if (overrides.bottleneck_schedule) {
    bottleneck.schedule = overrides.bottleneck_schedule;
  }
  if (overrides.faulty_interface_drop) {
    for (const std::size_t hop : spec.faulty_hops) {
      spec.hops[hop].random_drop = *overrides.faulty_interface_drop;
    }
  }
  if (overrides.clock_tick) spec.source_clock_tick = *overrides.clock_tick;
}

ScenarioResult run_chain(ChainSpec spec, const ProbePlan& plan,
                         const CrossTraffic& cross,
                         const ScenarioOverrides& overrides) {
  TRACE_SCOPE("scenario.run_chain");
  if (spec.names.size() < 2 || spec.hops.size() + 1 != spec.names.size()) {
    throw std::invalid_argument("run_chain: inconsistent chain spec");
  }
  apply_overrides(spec, overrides);

  // Path node i is partition i, so the PDES partition is contiguous blocks
  // of path nodes and only chain hops can be cut; cross-traffic hosts ride
  // with their router over never-cut access links.
  const std::size_t n_path = spec.names.size();
  std::vector<CutCandidate> cuts;
  for (std::size_t h = 0; h < spec.hops.size(); ++h) {
    cuts.push_back({h, h + 1, spec.hops[h].propagation});
  }
  World world(clamp_domains(overrides.domains,
                            overrides.obs_sample_interval.has_value(),
                            n_path, cuts),
              n_path, plan.seed);
  sim::Network& net = world.net();

  // Path nodes and links.
  std::vector<sim::NodeId> path;
  path.reserve(n_path);
  for (std::size_t i = 0; i < n_path; ++i) {
    path.push_back(world.add_node(spec.names[i], i));
  }
  for (std::size_t h = 0; h < spec.hops.size(); ++h) {
    const HopSpec& hop = spec.hops[h];
    sim::LinkConfig config;
    config.name = spec.names[h] + "->" + spec.names[h + 1];
    config.rate = hop.rate;
    config.propagation = hop.propagation;
    config.buffer_packets = hop.buffer_packets;
    config.random_drop_probability = hop.random_drop;
    config.red = hop.red;
    if (hop.channel || hop.schedule) {
      // Channel stages are forward-only (see HopSpec), so the duplex pair
      // becomes two directed links with asymmetric configs.  Forward
      // first: add_duplex_link also creates a->b before b->a, so the
      // per-link rng split order — and thus every channel-free stream —
      // is unchanged.
      config.channel = hop.channel;
      config.schedule = hop.schedule;
      world.add_link(path[h], path[h + 1], config);
      config.channel.reset();
      config.schedule.reset();
      world.add_link(path[h + 1], path[h], config);
    } else {
      world.add_duplex_link(path[h], path[h + 1], config);
    }
  }

  // Cross-traffic hosts hang off the two bottleneck routers via fast access
  // links, so their packets traverse exactly the bottleneck link.
  const sim::NodeId upstream = path[spec.bottleneck_hop];
  const sim::NodeId downstream = path[spec.bottleneck_hop + 1];
  const Bandwidth mu = spec.hops[spec.bottleneck_hop].rate;

  sim::LinkConfig access;
  access.name = "cross-access";
  access.rate = Bandwidth::bps(std::max(10e6, mu.bps() * 10.0));
  access.propagation = Duration::micros(100);
  access.buffer_packets = 2000;
  const sim::NodeId host_up =
      world.add_node("cross-host-upstream", spec.bottleneck_hop);
  const sim::NodeId host_down =
      world.add_node("cross-host-downstream", spec.bottleneck_hop + 1);
  world.add_duplex_link(host_up, upstream, access);
  world.add_duplex_link(host_down, downstream, access);

  Rng rng(plan.seed ^ 0xC0FFEE);
  std::vector<std::unique_ptr<sim::TrafficSource>> sources;
  std::uint32_t next_flow = 1;

  const auto add_direction = [&](sim::NodeId from, sim::NodeId to,
                                 double scale) {
    sim::Simulator& src_sim = world.sim_of(from);
    const double session_bps = cross.session_load * mu.bps() * scale;
    if (session_bps > 0.0) {
      sim::FtpSessionConfig session;
      session.mean_session = cross.mean_session;
      session.pace_load = cross.session_pace;
      session.bottleneck = mu;
      session.packet = cross.bulk_packet;
      // mean_idle chosen so the long-run average share is session_load:
      // on_fraction = session_load * scale / session_pace.
      const double on_fraction =
          std::min(0.95, cross.session_load * scale / cross.session_pace);
      session.mean_idle =
          cross.mean_session * ((1.0 - on_fraction) / on_fraction);
      sources.push_back(std::make_unique<sim::FtpSessionSource>(
          src_sim, net, from, to, next_flow++, sim::PacketKind::kBulk,
          rng.split(), session));
    }
    const double bulk_bps = cross.bulk_load * mu.bps() * scale;
    if (bulk_bps > 0.0) {
      const double burst_bits =
          cross.mean_burst_packets *
          static_cast<double>(cross.bulk_packet.bit_count());
      sim::BurstConfig burst;
      burst.mean_burst_gap = Duration::seconds(burst_bits / bulk_bps);
      burst.mean_burst_packets = cross.mean_burst_packets;
      burst.packet = cross.bulk_packet;
      // Bursts are clocked out at the access rate, i.e. effectively
      // back-to-back as seen by the (much slower) bottleneck.
      burst.in_burst_spacing = access.rate.transmission_time(
          cross.bulk_packet);
      sources.push_back(std::make_unique<sim::BurstSource>(
          src_sim, net, from, to, next_flow++, sim::PacketKind::kBulk,
          rng.split(), burst));
    }
    const double interactive_bps = cross.interactive_load * mu.bps() * scale;
    if (interactive_bps > 0.0) {
      const double pkt_bits =
          static_cast<double>(cross.interactive_packet.bit_count());
      sources.push_back(std::make_unique<sim::PoissonSource>(
          src_sim, net, from, to, next_flow++,
          sim::PacketKind::kInteractive, rng.split(),
          Duration::seconds(pkt_bits / interactive_bps),
          cross.interactive_packet));
    }
  };
  add_direction(host_up, host_down, 1.0);
  add_direction(host_down, host_up, cross.reverse_scale);

  // NetDyn endpoints: source at the head of the chain, echo at the tail.
  sim::EchoHost echo(world.sim_of(path.back()), net, path.back());
  sim::ProbeSourceConfig probe_config;
  probe_config.delta = plan.delta;
  probe_config.probe_wire = plan.probe_wire;
  probe_config.probe_count = plan.probe_count();
  if (spec.source_clock_tick > Duration::zero()) {
    probe_config.clock_tick = spec.source_clock_tick;
  }
  sim::UdpEchoSource probe_source(world.sim_of(path.front()), net,
                                  path.front(), path.back(), probe_config);

  // Optional observability: nothing below is even constructed on the
  // default path, so default runs schedule exactly the same events.
  sim::Link& bneck_fwd = net.link(upstream, downstream);
  sim::Link& bneck_rev = net.link(downstream, upstream);
  std::vector<SimTime> bneck_deliveries;
  if (overrides.record_bottleneck_deliveries) {
    bneck_fwd.add_delivery_hook(
        [&bneck_deliveries](const sim::Packet&, SimTime at) {
          bneck_deliveries.push_back(at);
        });
  }
  obs::MetricsRegistry registry;
  std::optional<obs::Sampler> sampler;
  if (overrides.obs_sample_interval) {
    sim::Simulator& simulator = world.kernel().simulator(0);
    sampler.emplace(simulator, *overrides.obs_sample_interval,
                    overrides.obs_series_budget);
    // Both directions of a duplex link share one config name; publish
    // them under stable direction-qualified prefixes so sweeps can be
    // diffed across scenarios.
    bneck_fwd.publish_metrics(registry, "bneck.fwd");
    bneck_rev.publish_metrics(registry, "bneck.rev");
    probe_source.publish_metrics(registry);
    obs::watch_queue_packets(*sampler, bneck_fwd);
    obs::watch_backlog_work_ms(*sampler, bneck_fwd);
    obs::watch_utilization(*sampler, bneck_fwd, simulator);
    if (spec.hops[spec.bottleneck_hop].red) {
      obs::watch_red_average_queue(*sampler, bneck_fwd);
    }
    obs::watch_probe_rtt_ms(*sampler, probe_source);
  }

  net.compute_routes();
  world.attach();
  for (auto& source : sources) {
    // Stagger starts so sources do not phase-lock on the first event.
    source->start(Duration::millis(rng.uniform(0.0, 100.0)));
  }
  probe_source.start(kWarmup);
  if (sampler) sampler->start(kWarmup);

  const Duration end = kWarmup + plan.duration + kDrain;
  world.run_until(end);
  if (sampler) sampler->stop();

  ScenarioResult result =
      probe_result(world, probe_source, path.front(), path.back(), bneck_fwd,
                   bneck_rev, end, registry, sampler);
  result.bottleneck_delivery_times = std::move(bneck_deliveries);
  return result;
}

ChainSpec inria_umd_spec() {
  ChainSpec spec;
  spec.names = inria_umd_route_names();
  // Rates/propagations chosen so the fixed round-trip delay is ~140 ms
  // (Fig. 2) with the 128 kb/s transatlantic hop as bottleneck (Table 1).
  spec.hops = {
      {Bandwidth::bps(10e6), Duration::millis(0.2), 100, Probability::zero(), {}},    // tom -> t8-gw
      {Bandwidth::bps(10e6), Duration::millis(0.3), 100, Probability::zero(), {}},    // t8-gw -> sophia-gw
      {Bandwidth::bps(2e6), Duration::millis(1.0), 80, Probability::zero(), {}},      // sophia-gw -> icm-sophia
      {Bandwidth::bps(128e3), Duration::millis(52.0), 14, Probability::zero(), {}},   // transatlantic (bottleneck)
      {Bandwidth::bps(45e6), Duration::millis(0.1), 200, Probability::zero(), {}},    // Ithaca NSS internal
      {Bandwidth::bps(1.544e6), Duration::millis(8.0), 60, Probability::zero(), {}},  // NSS -> SURAnet
      {Bandwidth::bps(1.544e6), Duration::millis(2.0), 60, Probability::checked(0.011), {}},  // SURAnet (faulty card)
      {Bandwidth::bps(10e6), Duration::millis(0.3), 100, Probability::checked(0.011), {}},    // SURAnet -> UMd (faulty)
      {Bandwidth::bps(10e6), Duration::millis(0.2), 100, Probability::zero(), {}},    // UMd campus
  };
  spec.bottleneck_hop = 3;
  spec.faulty_hops = {6, 7};
  spec.source_clock_tick = kDecstationTick;  // DECstation 5000
  return spec;
}

ChainSpec umd_pitt_spec() {
  ChainSpec spec;
  spec.names = umd_pitt_route_names();
  // The T3 backbone is fast; the Pittsburgh campus Ethernet is the
  // bottleneck ("very likely that the bottleneck bandwidth is much higher
  // than ... 128 kb/s").  Fixed RTT ~ 25 ms.
  spec.hops = {
      {Bandwidth::bps(10e6), Duration::millis(0.2), 100, Probability::zero(), {}},   // lena -> avw1hub
      {Bandwidth::bps(10e6), Duration::millis(0.2), 100, Probability::zero(), {}},   // avw1hub -> csc2hub
      {Bandwidth::bps(10e6), Duration::millis(0.3), 100, Probability::zero(), {}},   // csc2hub -> 192.221.38.5
      {Bandwidth::bps(45e6), Duration::millis(0.5), 200, Probability::zero(), {}},   // -> enss136
      {Bandwidth::bps(45e6), Duration::millis(1.0), 200, Probability::zero(), {}},   // -> DC cnss58
      {Bandwidth::bps(45e6), Duration::millis(0.3), 200, Probability::zero(), {}},   // -> DC cnss56
      {Bandwidth::bps(45e6), Duration::millis(2.5), 200, Probability::zero(), {}},   // -> New York cnss32
      {Bandwidth::bps(45e6), Duration::millis(4.0), 200, Probability::zero(), {}},   // -> Cleveland cnss40
      {Bandwidth::bps(45e6), Duration::millis(0.3), 200, Probability::zero(), {}},   // -> Cleveland cnss41
      {Bandwidth::bps(45e6), Duration::millis(1.5), 200, Probability::zero(), {}},   // -> enss132
      {Bandwidth::bps(10e6), Duration::millis(0.5), 60, Probability::zero(), {}},    // -> externals.gw.pitt.edu
      {Bandwidth::bps(10e6), Duration::millis(0.3), 60, Probability::zero(), {}},    // -> 136.142.2.54 (bottleneck)
      {Bandwidth::bps(10e6), Duration::millis(0.2), 60, Probability::zero(), {}},    // -> hub-eh.gw.pitt.edu
  };
  spec.bottleneck_hop = 11;
  spec.faulty_hops = {10};
  spec.source_clock_tick = kUmdPittClockTick;
  return spec;
}

}  // namespace

const std::vector<std::string>& inria_umd_route_names() {
  static const std::vector<std::string> names = {
      "tom.inria.fr",          "t8-gw.inria.fr",
      "sophia-gw.atlantic.fr", "icm-sophia.icp.net",
      "Ithaca.NY.NSS.NSF.NET", "Ithaca1.NY.NSS.NSF.NET",
      "nss-SURA-eth.sura.net", "sura8-umd-c1.sura.net",
      "csc2hub-gw.umd.edu",    "avwhub-gw.umd.edu",
  };
  return names;
}

const std::vector<std::string>& inria_europe_route_names() {
  static const std::vector<std::string> names = {
      "tom.inria.fr",        "t8-gw.inria.fr", "sophia-gw.atlantic.fr",
      "paris-gw.renater.fr", "geneva-gw.switch.ch",
      "ezinfo.ethz.ch",
  };
  return names;
}

const std::vector<std::string>& umd_pitt_route_names() {
  static const std::vector<std::string> names = {
      "lena.cs.umd.edu",
      "avw1hub-gw.umd.edu",
      "csc2hub-gw.umd.edu",
      "192.221.38.5",
      "en-0.enss136.t3.nsf.net",
      "t3-1.Washington-DC-cnss58.t3.ans.net",
      "t3-3.Washington-DC-cnss56.t3.ans.net",
      "t3-0.New-York-cnss32.t3.ans.net",
      "t3-1.Cleveland-cnss40.t3.ans.net",
      "t3-0.Cleveland-cnss41.t3.ans.net",
      "t3-0.enss132.t3.ans.net",
      "externals.gw.pitt.edu",
      "136.142.2.54",
      "hub-eh.gw.pitt.edu",
  };
  return names;
}

ScenarioResult run_inria_umd(const ProbePlan& plan,
                             const ScenarioOverrides& overrides) {
  const CrossTraffic cross = overrides.cross_traffic.value_or(CrossTraffic{});
  return run_chain(inria_umd_spec(), plan, cross, overrides);
}

ChainSpec inria_europe_spec() {
  ChainSpec spec;
  spec.names = inria_europe_route_names();
  // Six hops inside Europe; the 2 Mb/s national backbone segment is the
  // bottleneck.  Fixed RTT ~ 45 ms.
  spec.hops = {
      {Bandwidth::bps(10e6), Duration::millis(0.3), 100, Probability::zero(), {}},   // tom -> t8-gw
      {Bandwidth::bps(10e6), Duration::millis(0.5), 100, Probability::zero(), {}},   // t8-gw -> sophia-gw
      {Bandwidth::bps(2e6), Duration::millis(8.0), 30, Probability::zero(), {}},     // national backbone (bneck)
      {Bandwidth::bps(2e6), Duration::millis(9.0), 60, Probability::checked(0.004), {}},   // cross-border segment
      {Bandwidth::bps(10e6), Duration::millis(2.0), 100, Probability::zero(), {}},   // destination campus
  };
  spec.bottleneck_hop = 2;
  spec.faulty_hops = {3};
  spec.source_clock_tick = kDecstationTick;  // same INRIA source host
  return spec;
}

ScenarioResult run_umd_pitt(const ProbePlan& plan,
                            const ScenarioOverrides& overrides) {
  // Campus-Ethernet cross traffic: full-MTU packets and larger bursts
  // (many concurrent flows share the 10 Mb/s segment), so probes queue
  // for several ms and the delta = 8 ms compression line of Fig. 5
  // appears.
  CrossTraffic defaults;
  defaults.session_load = 0.22;
  defaults.bulk_load = 0.45;
  defaults.mean_burst_packets = 30.0;
  defaults.bulk_packet = ByteSize::bytes(1500);
  defaults.interactive_load = 0.08;
  defaults.interactive_packet = ByteSize::bytes(128);
  const CrossTraffic cross = overrides.cross_traffic.value_or(defaults);
  return run_chain(umd_pitt_spec(), plan, cross, overrides);
}

ScenarioResult run_inria_europe(const ProbePlan& plan,
                                const ScenarioOverrides& overrides) {
  // European mid-speed path: the same traffic families at intermediate
  // intensity (the bottleneck is 16x faster than the transatlantic link,
  // packets are the same sizes).
  CrossTraffic defaults;
  defaults.session_load = 0.30;
  defaults.bulk_load = 0.30;
  defaults.mean_burst_packets = 12.0;
  defaults.interactive_load = 0.08;
  const CrossTraffic cross = overrides.cross_traffic.value_or(defaults);
  return run_chain(inria_europe_spec(), plan, cross, overrides);
}

}  // namespace bolot::scenario
