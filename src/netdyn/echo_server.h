// The intermediate host of the NetDyn experiment: echoes each probe back
// to its sender after stamping the echo timestamp, exactly as the paper
// describes ("upon receipt of a probe packet from the source, the
// intermediate host immediately echoes the packet").
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <thread>

#include "netdyn/udp_socket.h"
#include "nettime/clock.h"

namespace bolot::netdyn {

class EchoServer {
 public:
  /// Binds to `port` (0 = ephemeral; query with port()).  `clock` must
  /// outlive the server.
  EchoServer(std::uint16_t port, const Clock& clock);
  ~EchoServer();

  EchoServer(const EchoServer&) = delete;
  EchoServer& operator=(const EchoServer&) = delete;

  std::uint16_t port() const;

  /// Processes at most one datagram, waiting up to `timeout`.  Returns
  /// true if a probe was echoed.  Non-probe datagrams are dropped.
  bool poll_once(Duration timeout);

  /// Starts a background echo loop, which waits on the socket and echoes
  /// every datagram queued when it wakes; stopped by the destructor or
  /// stop(), which wakes the loop instead of waiting out its timeout.
  void start();
  void stop();

  std::uint64_t echoed_count() const { return echoed_.load(); }

 private:
  /// Stamps the datagram held in `buffer` and sends it back to its sender
  /// if it is a probe; returns whether it was.
  bool echo(std::span<std::byte> buffer, const UdpSocket::Received& received);

  UdpSocket socket_;
  const Clock& clock_;
  WakeEvent wake_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> echoed_{0};
  std::thread worker_;
};

}  // namespace bolot::netdyn
