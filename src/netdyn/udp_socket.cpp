#include "netdyn/udp_socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "nettime/clock.h"

namespace bolot::netdyn {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

sockaddr_in to_sockaddr(const Endpoint& ep) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = ep.addr_be;
  sa.sin_port = htons(ep.port);
  return sa;
}

Endpoint from_sockaddr(const sockaddr_in& sa) {
  Endpoint ep;
  ep.addr_be = sa.sin_addr.s_addr;
  ep.port = ntohs(sa.sin_port);
  return ep;
}

/// ppoll() on `fds` until one is readable or the monotonic clock passes
/// `deadline`; an interrupted wait resumes with the time left.
bool wait_until(std::initializer_list<int> fds, Duration deadline) {
  std::array<pollfd, 4> pfds{};
  if (fds.size() > pfds.size()) {
    throw std::invalid_argument("wait_readable: too many descriptors");
  }
  std::size_t count = 0;
  for (const int fd : fds) pfds[count++] = pollfd{fd, POLLIN, 0};
  const SystemClock clock;
  for (;;) {
    const std::int64_t left =
        std::max<std::int64_t>((deadline - clock.now()).count_nanos(), 0);
    const timespec timeout{static_cast<std::time_t>(left / 1'000'000'000),
                           static_cast<long>(left % 1'000'000'000)};
    const int rc = ::ppoll(pfds.data(), count, &timeout, nullptr);
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno != EINTR) throw_errno("ppoll");
  }
}

}  // namespace

bool wait_readable(std::initializer_list<int> fds, Duration timeout) {
  return wait_until(fds, SystemClock().now() + timeout);
}

std::string Endpoint::to_string() const {
  char buf[INET_ADDRSTRLEN] = {};
  in_addr addr{};
  addr.s_addr = addr_be;
  if (inet_ntop(AF_INET, &addr, buf, sizeof buf) == nullptr) {
    return "<bad-endpoint>";
  }
  return std::string(buf) + ":" + std::to_string(port);
}

Endpoint make_endpoint(const std::string& dotted_quad, std::uint16_t port) {
  in_addr addr{};
  if (inet_pton(AF_INET, dotted_quad.c_str(), &addr) != 1) {
    throw std::invalid_argument("make_endpoint: bad address " + dotted_quad);
  }
  return Endpoint{addr.s_addr, port};
}

Endpoint loopback(std::uint16_t port) { return make_endpoint("127.0.0.1", port); }

UdpSocket::UdpSocket(std::uint16_t local_port) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) throw_errno("socket");
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_ANY);
  sa.sin_port = htons(local_port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) {
    const int saved = errno;
    close_fd();
    errno = saved;
    throw_errno("bind");
  }
}

UdpSocket::~UdpSocket() { close_fd(); }

UdpSocket::UdpSocket(UdpSocket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

UdpSocket& UdpSocket::operator=(UdpSocket&& other) noexcept {
  if (this != &other) {
    close_fd();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

void UdpSocket::close_fd() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::uint16_t UdpSocket::local_port() const {
  sockaddr_in sa{};
  socklen_t len = sizeof sa;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&sa), &len) != 0) {
    throw_errno("getsockname");
  }
  return ntohs(sa.sin_port);
}

void UdpSocket::send_to(std::span<const std::byte> payload,
                        const Endpoint& to) {
  const sockaddr_in sa = to_sockaddr(to);
  const ssize_t sent =
      ::sendto(fd_, payload.data(), payload.size(), 0,
               reinterpret_cast<const sockaddr*>(&sa), sizeof sa);
  if (sent < 0) throw_errno("sendto");
  if (static_cast<std::size_t>(sent) != payload.size()) {
    throw std::runtime_error("sendto: short datagram write");
  }
}

std::optional<UdpSocket::Received> UdpSocket::receive(
    std::span<std::byte> buffer, Duration timeout) {
  const Duration deadline = SystemClock().now() + timeout;
  // A readable socket can still come up empty (a datagram failing its
  // checksum is dropped at read), so wait again for the time left.
  while (wait_until({fd_}, deadline)) {
    if (auto received = try_receive(buffer)) return received;
  }
  return std::nullopt;
}

std::optional<UdpSocket::Received> UdpSocket::try_receive(
    std::span<std::byte> buffer) {
  for (;;) {
    sockaddr_in sa{};
    socklen_t len = sizeof sa;
    const ssize_t n =
        ::recvfrom(fd_, buffer.data(), buffer.size(), MSG_DONTWAIT,
                   reinterpret_cast<sockaddr*>(&sa), &len);
    if (n >= 0) return Received{static_cast<std::size_t>(n), from_sockaddr(sa)};
    if (errno == EAGAIN || errno == EWOULDBLOCK) return std::nullopt;
    if (errno != EINTR) throw_errno("recvfrom");
  }
}

WakeEvent::WakeEvent() : fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  if (fd_ < 0) throw_errno("eventfd");
}

WakeEvent::~WakeEvent() { ::close(fd_); }

// Neither call can fail on a valid eventfd but with EAGAIN, which means
// the counter is already saturated (notify) or already zero (clear).
void WakeEvent::notify() noexcept {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t rc = ::write(fd_, &one, sizeof one);
}

void WakeEvent::clear() noexcept {
  std::uint64_t count = 0;
  [[maybe_unused]] const ssize_t rc = ::read(fd_, &count, sizeof count);
}

}  // namespace bolot::netdyn
