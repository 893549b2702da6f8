#include "netdyn/echo_server.h"

#include <array>

#include "netdyn/wire_format.h"

namespace bolot::netdyn {

namespace {
// Only a backstop: stop() wakes the wait.
constexpr Duration kIdleWait = Duration::seconds(1);
}  // namespace

EchoServer::EchoServer(std::uint16_t port, const Clock& clock)
    : socket_(port), clock_(clock) {}

EchoServer::~EchoServer() { stop(); }

std::uint16_t EchoServer::port() const { return socket_.local_port(); }

bool EchoServer::poll_once(Duration timeout) {
  std::array<std::byte, kProbePacketSize> buffer{};
  const auto received = socket_.receive(buffer, timeout);
  return received && echo(buffer, *received);
}

bool EchoServer::echo(std::span<std::byte> buffer,
                      const UdpSocket::Received& received) {
  if (received.size != kProbePacketSize) return false;
  if (!decode_probe(buffer)) return false;
  stamp_echo_in_place(buffer, clock_.now());
  socket_.send_to(buffer, received.from);
  echoed_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void EchoServer::start() {
  if (running_.exchange(true)) return;
  wake_.clear();
  worker_ = std::thread([this] {
    std::array<std::byte, kProbePacketSize> buffer{};
    while (running_.load(std::memory_order_relaxed)) {
      wait_readable({socket_.fd(), wake_.fd()}, kIdleWait);
      while (const auto received = socket_.try_receive(buffer)) {
        echo(buffer, *received);
      }
    }
  });
}

void EchoServer::stop() {
  if (!running_.exchange(false)) return;
  wake_.notify();
  if (worker_.joinable()) worker_.join();
}

}  // namespace bolot::netdyn
