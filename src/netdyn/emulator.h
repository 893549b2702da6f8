// A real-time UDP path emulator: the bridge between the real-socket
// NetDyn and the simulated 1992 Internet.
//
// PathEmulator listens on a UDP port and relays datagrams to a target
// (and replies back to the most recent client), imposing the Fig.-3 path
// model in *wall-clock* time: one-way propagation delay, a serialization
// rate with a finite drop-tail queue, and random loss.  Point the real
// prober at the emulator instead of the echo server and it measures a
// transatlantic-1992 path on loopback:
//
//   EchoServer echo(0, clock);                 echo.start();
//   PathEmulatorConfig cfg;                    // 128 kb/s, 52 ms, ...
//   cfg.target = loopback(echo.port());
//   PathEmulator wan(0, cfg);                  wan.start();
//   Prober(clock, {...}).run(loopback(wan.port()));
//
// Single-flow by design (like the experiment): replies go to the last
// client seen.  Both directions get their own rate limiter and queue.
//
// Timing: one worker thread waits once, at nanosecond precision, over both
// sockets and a stop wake-up, timed to the earliest due datagram.  Each
// wake drains every datagram queued on either socket, stamping its arrival
// as it is read, then sends what has come due.  A datagram's due time is
// its departure from the direction's virtual transmitter plus the one-way
// delay; arrivals come from the monotonic clock and the transmitter's
// busy-until time only grows, so due times within one direction never
// decrease and each direction's queue is a plain FIFO.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "netdyn/udp_socket.h"
#include "util/rng.h"
#include "util/time.h"
#include "util/units.h"

namespace bolot::netdyn {

struct PathEmulatorConfig {
  Endpoint target;                       // upstream destination
  Duration one_way_delay = Duration::millis(52);
  Bandwidth rate = Bandwidth::kbps(128);  // zero = no serialization delay
  std::size_t buffer_packets = 14;        // per direction, when rate-limited
  Probability loss_probability = Probability::zero();  // per traversal/dir
  std::uint64_t seed = 1;
};

struct PathEmulatorStats {
  std::uint64_t forwarded = 0;
  std::uint64_t overflow_drops = 0;
  std::uint64_t random_drops = 0;
};

class PathEmulator {
 public:
  /// Binds the client-facing socket to `listen_port` (0 = ephemeral).
  PathEmulator(std::uint16_t listen_port, PathEmulatorConfig config);
  ~PathEmulator();

  PathEmulator(const PathEmulator&) = delete;
  PathEmulator& operator=(const PathEmulator&) = delete;

  std::uint16_t port() const;

  void start();
  void stop();

  /// Snapshot of the counters (approximate while running).
  PathEmulatorStats stats() const;

 private:
  struct Pending {
    Duration due;
    std::vector<std::byte> payload;
  };

  /// One direction of the path: its virtual transmitter and the datagrams
  /// in flight on it, in due order.
  struct Direction {
    Duration busy_until;
    std::deque<Pending> in_flight;
  };

  void worker();
  /// Applies loss/rate/delay to a datagram that arrived at `now` and
  /// queues it on `direction`.
  void admit(Direction& direction, std::span<const std::byte> datagram,
             Duration now);
  void flush_due(Duration now);
  /// How long the worker may wait: until the earliest due datagram.
  Duration wait_budget(Duration now) const;

  PathEmulatorConfig config_;
  UdpSocket client_side_;   // clients talk to this
  UdpSocket upstream_side_; // we talk to the target from this
  WakeEvent wake_;
  std::optional<Endpoint> last_client_;
  Rng rng_;

  Direction to_target_;
  Direction to_client_;

  std::atomic<bool> running_{false};
  std::thread thread_;
  std::atomic<std::uint64_t> forwarded_{0};
  std::atomic<std::uint64_t> overflow_drops_{0};
  std::atomic<std::uint64_t> random_drops_{0};
};

}  // namespace bolot::netdyn
