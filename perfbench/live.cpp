// live_loopback: an open-loop netdyn::Prober sends through a PathEmulator
// (10 Mb/s, 5 ms one way, 64-packet buffers, lossless) to an EchoServer,
// all over the host's loopback interface — three threads in one process.
//
// One unit is one rung: a fresh echo server, emulator and prober probing
// at a fixed rate for a fixed time.  A phase runs the ladder once
// (max_rate_pps) and spends the rest of its budget on windows at the
// reference rate (the rtt metrics); the windows come first.  Every rtt
// is timed from the probe's *due* send time start + n*delta, so a
// generator stall shows in the probes behind it, and the model rtt the
// emulator imposes is subtracted.
#include <algorithm>
#include <optional>
#include <stdexcept>

#include "common.h"
#include "netdyn/echo_server.h"
#include "netdyn/emulator.h"
#include "netdyn/prober.h"
#include "netdyn/wire_format.h"
#include "nettime/clock.h"
#include "util/time.h"

namespace perfbench {
namespace {

using bolot::Duration;

constexpr Duration kOneWay = Duration::millis(5);
constexpr bolot::Bandwidth kRate = bolot::Bandwidth::mbps(10);
constexpr std::size_t kBuffer = 64;
constexpr Duration kDrain = Duration::millis(100);

/// A system clock that remembers its first reading: Prober::run reads
/// the clock once before its first send and schedules probe n at that
/// reading + n*delta, so the first reading is the schedule's origin.
class FirstReadingClock final : public bolot::Clock {
 public:
  Duration now() const override {
    const Duration t = base_.now();
    if (!first_) first_ = t;
    return t;
  }
  Duration first() const { return first_.value(); }

 private:
  bolot::SystemClock base_;
  mutable std::optional<Duration> first_;
};

class LiveLoopback final : public Workload {
 public:
  explicit LiveLoopback(const Options& options) : options_(options) {
    if (options.ladder_pps.empty() || options.reference_pps <= 0.0 ||
        options.rung_seconds <= 0.0) {
      throw std::invalid_argument(
          "live_loopback: --ladder, --reference-pps and --rung-seconds are "
          "required");
    }
    // The ladder runs once; the rest of the budget goes to reference
    // windows, at least one.
    const auto rungs =
        static_cast<std::size_t>(options.seconds / options.rung_seconds);
    reference_windows_ = std::max<std::size_t>(
        1, rungs > options.ladder_pps.size()
               ? rungs - options.ladder_pps.size()
               : 0);
    schedule_.assign(reference_windows_, options.reference_pps);
    for (const double rate : options.ladder_pps) schedule_.push_back(rate);
  }

  void setup() override {
    Spans quiet(false);
    run_rung(options_.reference_pps, 1, quiet);
  }

  Unit unit(Spans& spans, Checks& checks) override {
    const std::size_t position = next_++ % schedule_.size();
    const double rate = schedule_[position];
    const auto probes =
        static_cast<std::uint64_t>(rate * options_.rung_seconds + 0.5);
    Unit unit = run_rung(rate, probes, spans);
    unit.counts["reference"] = position < reference_windows_;
    if (position < reference_windows_) {
      checks.expect(unit.counts["returned"] == unit.counts["sent"],
                    "live_loopback: reference rung lost a probe");
    }
    return unit;
  }

  bool phase_done(std::size_t units, double /*elapsed_s*/,
                  double /*budget_s*/) const override {
    return units == schedule_.size();
  }

  // Every rung starts its own threads and sockets; nothing carries over.
  bool needs_warm_up() const override { return false; }

 private:
  Unit run_rung(double rate_pps, std::uint64_t probes, Spans& spans) {
    const double wall0 = wall_now();
    const double cpu0 = cpu_now();

    bolot::SystemClock echo_clock;
    FirstReadingClock clock;
    const Duration delta = Duration::seconds(1.0 / rate_pps);
    std::optional<bolot::netdyn::EchoServer> echo;
    std::optional<bolot::netdyn::PathEmulator> emulator;
    {
      Spans::Scope scope(spans, "netdyn.start", "netdyn");
      echo.emplace(0, echo_clock);
      echo->start();
      bolot::netdyn::PathEmulatorConfig config;
      config.target = bolot::netdyn::loopback(echo->port());
      config.one_way_delay = kOneWay;
      config.rate = kRate;
      config.buffer_packets = kBuffer;
      config.seed = options_.seed;
      emulator.emplace(0, config);
      emulator->start();
    }
    bolot::analysis::ProbeTrace trace;
    {
      Spans::Scope scope(spans, "netdyn.Prober.run", "netdyn");
      bolot::netdyn::Prober prober(clock, {delta, probes, kDrain});
      trace = prober.run(bolot::netdyn::loopback(emulator->port()));
    }
    bolot::netdyn::PathEmulatorStats emu;
    std::uint64_t echoed = 0;
    {
      Spans::Scope scope(spans, "netdyn.stop", "netdyn");
      emulator->stop();
      echo->stop();
      emu = emulator->stats();
      echoed = echo->echoed_count();
    }

    Unit unit;
    unit.wall_s = wall_now() - wall0;
    unit.cpu_s = cpu_now() - cpu0;
    unit.probes = trace.size();

    // The emulator serializes the 32-byte datagram at the link rate in
    // each direction; propagation is added once per direction.
    const Duration one_way_model =
        kOneWay + bolot::transmission_time(
                      static_cast<std::int64_t>(
                          bolot::netdyn::kProbePacketSize) * 8,
                      kRate.bps());
    const Duration origin = clock.first();
    auto& excess = unit.samples["excess_ms"];
    auto& forward = unit.samples["fwd_excess_ms"];
    auto& back = unit.samples["ret_excess_ms"];
    auto& lag = unit.samples["send_lag_ms"];
    std::size_t returned = 0;
    for (const auto& record : trace.records) {
      const Duration due = origin + delta * static_cast<std::int64_t>(record.seq);
      lag.push_back((record.send_time - due).millis());
      if (!record.received) continue;
      ++returned;
      const Duration arrival = record.send_time + record.rtt;
      excess.push_back((arrival - due - one_way_model * 2).millis());
      forward.push_back(
          (record.echo_time - record.send_time - one_way_model).millis());
      back.push_back((arrival - record.echo_time - one_way_model).millis());
    }
    const auto& records = trace.records;
    unit.counts["rate_pps"] = rate_pps;
    unit.counts["sent"] = static_cast<double>(records.size());
    unit.counts["returned"] = static_cast<double>(returned);
    unit.counts["emu_forwarded"] = static_cast<double>(emu.forwarded);
    unit.counts["emu_overflow_drops"] = static_cast<double>(emu.overflow_drops);
    unit.counts["echoed"] = static_cast<double>(echoed);
    if (records.size() >= 2) {
      const Duration span = records.back().send_time - records.front().send_time;
      unit.counts["achieved_pps"] =
          static_cast<double>(records.size() - 1) / span.seconds();
    }
    return unit;
  }

  Options options_;
  std::vector<double> schedule_;
  std::size_t reference_windows_ = 0;
  std::size_t next_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_live_loopback(const Options& options) {
  return std::make_unique<LiveLoopback>(options);
}

}  // namespace perfbench
