// Minimal RAII wrapper over a POSIX UDP socket, sufficient for the NetDyn
// prober, echo server and path emulator.  IPv4 only (the original tool
// predates IPv6).
//
// Every wait here is one ppoll() on a nanosecond timespec: a timeout is
// never rounded to whole milliseconds, and a thread serving several
// descriptors (the emulator's two sockets plus its stop wake-up) waits on
// all of them at once instead of taking turns.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>

#include "util/time.h"

namespace bolot::netdyn {

struct Endpoint {
  std::uint32_t addr_be = 0;  // network byte order
  std::uint16_t port = 0;     // host byte order

  std::string to_string() const;
};

/// Parses "a.b.c.d" (throws std::invalid_argument on malformed input).
Endpoint make_endpoint(const std::string& dotted_quad, std::uint16_t port);

/// Loopback shorthand.
Endpoint loopback(std::uint16_t port);

class UdpSocket {
 public:
  /// Creates and binds to the given local port (0 = ephemeral).
  explicit UdpSocket(std::uint16_t local_port = 0);
  ~UdpSocket();

  UdpSocket(UdpSocket&& other) noexcept;
  UdpSocket& operator=(UdpSocket&& other) noexcept;
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  std::uint16_t local_port() const;

  void send_to(std::span<const std::byte> payload, const Endpoint& to);

  struct Received {
    std::size_t size = 0;
    Endpoint from;
  };

  /// Waits up to `timeout` for one datagram; returns nullopt on timeout.
  /// Datagrams longer than `buffer` are truncated (UDP semantics).
  std::optional<Received> receive(std::span<std::byte> buffer,
                                  Duration timeout);

  /// Reads one datagram already queued on the socket without waiting;
  /// returns nullopt when none is.
  std::optional<Received> try_receive(std::span<std::byte> buffer);

  /// The descriptor, for wait_readable().
  int fd() const { return fd_; }

 private:
  void close_fd() noexcept;

  int fd_ = -1;
};

/// A descriptor another thread can make readable to end a wait_readable()
/// early: how a worker blocked on its sockets learns it must stop.
class WakeEvent {
 public:
  WakeEvent();
  ~WakeEvent();

  WakeEvent(const WakeEvent&) = delete;
  WakeEvent& operator=(const WakeEvent&) = delete;

  /// Makes fd() readable until clear(); safe from any thread.
  void notify() noexcept;
  /// Makes fd() unreadable again.
  void clear() noexcept;

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

/// Waits up to `timeout` (nanosecond precision; a negative timeout polls)
/// until at least one of `fds` is readable.  Returns false on timeout.
bool wait_readable(std::initializer_list<int> fds, Duration timeout);

}  // namespace bolot::netdyn
