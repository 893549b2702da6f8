#include "netdyn/prober.h"

#include <array>
#include <stdexcept>

#include "netdyn/wire_format.h"

namespace bolot::netdyn {

Prober::Prober(const Clock& clock, ProberConfig config)
    : clock_(clock), config_(config), socket_(0) {
  if (config_.delta <= Duration::zero()) {
    throw std::invalid_argument("Prober: delta must be positive");
  }
  if (config_.probe_count == 0) {
    throw std::invalid_argument("Prober: probe_count must be positive");
  }
  trace_.delta = config_.delta;
  trace_.probe_wire_bytes = static_cast<std::int64_t>(kProbePacketSize) + 40;
}

void Prober::record_echo(std::span<const std::byte> datagram) {
  const auto msg = decode_probe(datagram);
  if (!msg || msg->seq >= trace_.records.size()) return;
  auto& record = trace_.records[msg->seq];
  if (record.received) return;
  record.received = true;
  record.rtt = clock_.now() - record.send_time;
  record.echo_time = msg->echo_ts;
}

void Prober::drain_ready() {
  std::array<std::byte, kProbePacketSize> buffer{};
  while (const auto received = socket_.try_receive(buffer)) {
    record_echo(std::span(buffer.data(), received->size));
  }
}

void Prober::receive_until(SimTime deadline) {
  std::array<std::byte, kProbePacketSize> buffer{};
  for (;;) {
    const Duration remaining = deadline - clock_.now();
    if (remaining <= Duration::zero()) return;
    const auto received = socket_.receive(buffer, remaining);
    if (!received) return;  // timed out: deadline reached
    record_echo(std::span(buffer.data(), received->size));
  }
}

analysis::ProbeTrace Prober::run(const Endpoint& echo_host) {
  if (used_) throw std::logic_error("Prober: run() may be called once");
  used_ = true;

  trace_.records.reserve(config_.probe_count);
  const SimTime start = clock_.now();
  for (std::uint64_t seq = 0; seq < config_.probe_count; ++seq) {
    // Wait (collecting echoes) until this probe's send time.
    receive_until(start + config_.delta * static_cast<std::int64_t>(seq));

    analysis::ProbeRecord record;
    record.seq = seq;
    record.send_time = clock_.now();
    trace_.records.push_back(record);

    ProbeMessage msg;
    msg.seq = static_cast<std::uint32_t>(seq);
    msg.source_ts = record.send_time;
    const auto datagram = encode_probe(msg);
    socket_.send_to(datagram, echo_host);
    drain_ready();
  }
  receive_until(clock_.now() + config_.drain);
  return trace_;
}

}  // namespace bolot::netdyn
