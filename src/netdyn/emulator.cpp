#include "netdyn/emulator.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "nettime/clock.h"

namespace bolot::netdyn {

namespace {
constexpr std::size_t kMaxDatagram = 2048;
// Only a backstop when nothing is in flight: stop() wakes the wait.
constexpr Duration kIdleWait = Duration::seconds(1);
}  // namespace

PathEmulator::PathEmulator(std::uint16_t listen_port,
                           PathEmulatorConfig config)
    : config_(config),
      client_side_(listen_port),
      upstream_side_(0),
      rng_(config.seed) {
  if (config_.rate < Bandwidth::zero() ||
      config_.loss_probability >= Probability::one()) {
    throw std::invalid_argument("PathEmulator: bad configuration");
  }
  if (config_.rate.is_positive() && config_.buffer_packets == 0) {
    throw std::invalid_argument("PathEmulator: buffer must be positive");
  }
}

PathEmulator::~PathEmulator() { stop(); }

std::uint16_t PathEmulator::port() const { return client_side_.local_port(); }

void PathEmulator::start() {
  if (running_.exchange(true)) return;
  wake_.clear();
  thread_ = std::thread([this] { worker(); });
}

void PathEmulator::stop() {
  if (!running_.exchange(false)) return;
  wake_.notify();
  if (thread_.joinable()) thread_.join();
}

PathEmulatorStats PathEmulator::stats() const {
  PathEmulatorStats out;
  out.forwarded = forwarded_.load();
  out.overflow_drops = overflow_drops_.load();
  out.random_drops = random_drops_.load();
  return out;
}

void PathEmulator::admit(Direction& direction,
                         std::span<const std::byte> datagram, Duration now) {
  if (!config_.loss_probability.is_zero() &&
      rng_.chance(config_.loss_probability.value())) {
    random_drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Duration depart = now;
  if (config_.rate.is_positive()) {
    const Duration service = transmission_time(
        static_cast<std::int64_t>(datagram.size()) * 8, config_.rate.bps());
    const Duration start = std::max(now, direction.busy_until);
    // Drop-tail: the backlog ahead of this packet, in packets, is the
    // queued service time over this packet's service time.
    const double backlog_packets = (start - now) / service;
    if (backlog_packets >= static_cast<double>(config_.buffer_packets)) {
      overflow_drops_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    direction.busy_until = start + service;
    depart = direction.busy_until;
  }
  direction.in_flight.push_back(
      Pending{depart + config_.one_way_delay,
              std::vector<std::byte>(datagram.begin(), datagram.end())});
}

void PathEmulator::flush_due(Duration now) {
  auto& ahead = to_target_.in_flight;
  for (; !ahead.empty() && ahead.front().due <= now; ahead.pop_front()) {
    upstream_side_.send_to(ahead.front().payload, config_.target);
    forwarded_.fetch_add(1, std::memory_order_relaxed);
  }
  auto& back = to_client_.in_flight;
  for (; !back.empty() && back.front().due <= now; back.pop_front()) {
    if (!last_client_) continue;
    client_side_.send_to(back.front().payload, *last_client_);
    forwarded_.fetch_add(1, std::memory_order_relaxed);
  }
}

Duration PathEmulator::wait_budget(Duration now) const {
  Duration budget = kIdleWait;
  for (const Direction* direction : {&to_target_, &to_client_}) {
    if (!direction->in_flight.empty()) {
      budget = std::min(budget, direction->in_flight.front().due - now);
    }
  }
  return budget;
}

void PathEmulator::worker() {
  SystemClock clock;
  std::array<std::byte, kMaxDatagram> buffer{};
  while (running_.load(std::memory_order_relaxed)) {
    const Duration now = clock.now();
    flush_due(now);
    wait_readable({client_side_.fd(), upstream_side_.fd(), wake_.fd()},
                  wait_budget(now));
    while (const auto received = client_side_.try_receive(buffer)) {
      last_client_ = received->from;
      admit(to_target_, std::span(buffer.data(), received->size), clock.now());
    }
    while (const auto received = upstream_side_.try_receive(buffer)) {
      admit(to_client_, std::span(buffer.data(), received->size), clock.now());
    }
  }
}

}  // namespace bolot::netdyn
