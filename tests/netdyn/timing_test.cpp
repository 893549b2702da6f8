// Timing of the live probe path: the waits the prober, echo server and
// path emulator block in must cost the measurement nothing it could
// mistake for network delay.  Every bound is one-sided (the OS scheduler
// can only stretch a wait) and sits well above what a precise wait takes,
// but below what a millisecond-rounded or one-socket-at-a-time wait
// takes.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "analysis/stats.h"
#include "netdyn/echo_server.h"
#include "netdyn/emulator.h"
#include "netdyn/prober.h"
#include "netdyn/udp_socket.h"
#include "netdyn/wire_format.h"
#include "nettime/clock.h"
#include "util/units.h"

namespace bolot::netdyn {
namespace {

/// Milliseconds `fn` takes, by the monotonic clock.
template <typename Fn>
double elapsed_ms(Fn&& fn) {
  const SystemClock clock;
  const Duration start = clock.now();
  fn();
  return (clock.now() - start).millis();
}

TEST(LivePathTimingTest, QuietReceiveHonoursSubMillisecondTimeout) {
  UdpSocket socket(0);
  std::array<std::byte, 64> buffer{};
  std::vector<double> took;
  for (int i = 0; i < 20; ++i) {
    took.push_back(elapsed_ms([&] {
      EXPECT_FALSE(socket.receive(buffer, Duration::micros(200)));
    }));
  }
  // Never early, and not rounded up to a whole millisecond.
  EXPECT_GE(analysis::summarize(took).min, 0.2);
  EXPECT_LT(analysis::median(took), 1.0);
}

TEST(LivePathTimingTest, EmulatorRelaysBackToBackBurstsWhole) {
  // 500 datagrams, in back-to-back bursts of 50 every 5 ms: about twice
  // what Linux's default 208 KiB receive buffer holds of these, so a reader
  // taking about a millisecond per datagram overflows it, while one that
  // drains each burst keeps up even when it is scheduled tens of
  // milliseconds late.
  constexpr std::size_t kBurst = 50;
  constexpr std::size_t kTotal = 500;
  UdpSocket sink(0);
  PathEmulatorConfig config;
  config.target = loopback(sink.local_port());
  config.one_way_delay = Duration::millis(1);
  config.rate = Bandwidth::zero();
  PathEmulator wan(0, config);
  wan.start();

  std::size_t arrived = 0;
  std::thread reader([&] {
    std::array<std::byte, 64> buffer{};
    while (arrived < kTotal && sink.receive(buffer, Duration::millis(500))) {
      ++arrived;
    }
  });
  UdpSocket client(0);
  const auto datagram = encode_probe(ProbeMessage{});
  for (std::size_t sent = 0; sent < kTotal; sent += kBurst) {
    for (std::size_t i = 0; i < kBurst; ++i) {
      client.send_to(datagram, loopback(wan.port()));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  reader.join();

  EXPECT_EQ(arrived, kTotal);
  EXPECT_EQ(wan.stats().forwarded, kTotal);
}

TEST(LivePathTimingTest, EmulatorAddsUnderOneAndAHalfMsAtOneKpps) {
  SystemClock clock;
  EchoServer echo(0, clock);
  echo.start();

  PathEmulatorConfig config;
  config.target = loopback(echo.port());
  config.one_way_delay = Duration::millis(5);
  config.rate = Bandwidth::mbps(10);
  config.buffer_packets = 64;
  PathEmulator wan(0, config);
  wan.start();

  ProberConfig probe_config;
  probe_config.delta = Duration::millis(1);
  probe_config.probe_count = 500;
  probe_config.drain = Duration::millis(100);
  Prober prober(clock, probe_config);
  const auto trace = prober.run(loopback(wan.port()));
  ASSERT_GT(trace.received_count(), 450u);

  // rtt is timed from the actual send, so generator lateness is excluded:
  // what is left above the model is the emulator's and echo's own.
  const Duration one_way_model =
      config.one_way_delay +
      transmission_time(static_cast<std::int64_t>(kProbePacketSize) * 8,
                        config.rate.bps());
  std::vector<double> excess;
  for (const double rtt : trace.rtt_ms_received()) {
    excess.push_back(rtt - (one_way_model * 2).millis());
  }
  EXPECT_LT(analysis::median(excess), 1.5);
}

/// Median time stop() takes on a server from `make`, called a little after
/// start() so the server's worker is blocked in its wait.
template <typename Make>
double median_stop_ms(Make make) {
  std::vector<double> took;
  for (int i = 0; i < 5; ++i) {
    auto server = make();
    server->start();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    took.push_back(elapsed_ms([&] { server->stop(); }));
  }
  return analysis::median(took);
}

TEST(LivePathTimingTest, StopWakesRunningEchoServer) {
  SystemClock clock;
  EXPECT_LT(median_stop_ms([&] { return std::make_unique<EchoServer>(0, clock); }),
            10.0);
}

TEST(LivePathTimingTest, StopWakesRunningPathEmulator) {
  PathEmulatorConfig config;
  config.target = loopback(9);  // never used
  EXPECT_LT(median_stop_ms([&] {
              return std::make_unique<PathEmulator>(0, config);
            }),
            10.0);
}

}  // namespace
}  // namespace bolot::netdyn
