// Seeded mutation fuzz of the NetDyn datagram parser: decode_probe and
// stamp_echo_in_place read bytes straight off the network, so every
// malformed datagram must be rejected (nullopt or an exception), never
// read out of bounds or overflow.  Inputs are random datagrams of 0-64
// bytes (half of them behind a valid magic, so the field parsers are
// reached) and valid probes with bits flipped or lengths changed.  The
// sanitizer build runs this test, where an out-of-bounds read or an
// overflow fails it outright.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "netdyn/wire_format.h"
#include "util/rng.h"

namespace bolot::netdyn {
namespace {

constexpr std::size_t kMaxLength = 64;
constexpr int kCases = 20000;
// The bytes a decoded probe determines: everything but the padding.
constexpr std::size_t kFieldBytes = 26;

std::vector<std::byte> random_bytes(Rng& rng, std::size_t length) {
  std::vector<std::byte> out(length);
  for (auto& b : out) b = static_cast<std::byte>(rng.uniform_int(256));
  return out;
}

Duration random_timestamp(Rng& rng) {
  // Any value the 48-bit microsecond field can hold.
  return Duration::nanos(
      static_cast<std::int64_t>(rng.uniform_int(std::uint64_t{1} << 48)) *
      1000);
}

ProbeMessage random_probe(Rng& rng) {
  ProbeMessage msg;
  msg.seq = static_cast<std::uint32_t>(rng.next_u64());
  msg.source_ts = random_timestamp(rng);
  msg.echo_ts = random_timestamp(rng);
  msg.destination_ts = random_timestamp(rng);
  return msg;
}

bool has_magic(const std::vector<std::byte>& datagram) {
  return datagram.size() >= kMagic.size() &&
         std::equal(kMagic.begin(), kMagic.end(), datagram.begin());
}

/// The parser's whole contract on one datagram: accepted exactly when it
/// is probe-sized with the magic, and then every field re-encodes to the
/// bytes it came from; stamping succeeds exactly on probe-sized input and
/// writes only the echo field.
void check_datagram(const std::vector<std::byte>& datagram) {
  const bool well_formed =
      datagram.size() == kProbePacketSize && has_magic(datagram);
  const auto msg = decode_probe(datagram);
  ASSERT_EQ(msg.has_value(), well_formed) << "length " << datagram.size();
  if (msg) {
    const auto again = encode_probe(*msg);
    ASSERT_TRUE(std::equal(again.begin(), again.begin() + kFieldBytes,
                           datagram.begin()));
  }

  std::vector<std::byte> stamped = datagram;
  if (datagram.size() != kProbePacketSize) {
    EXPECT_THROW(stamp_echo_in_place(stamped, Duration::millis(1)),
                 std::invalid_argument);
    return;
  }
  stamp_echo_in_place(stamped, Duration::millis(1));
  for (std::size_t i = 0; i < datagram.size(); ++i) {
    if (i < 14 || i >= 20) {
      ASSERT_EQ(stamped[i], datagram[i]) << i;
    }
  }
  if (well_formed) {
    ASSERT_EQ(decode_probe(stamped)->echo_ts, Duration::millis(1));
  }
}

TEST(WireFormatFuzzTest, RandomDatagramsAreRejectedOrParsedExactly) {
  Rng rng(0xB0107);
  for (int i = 0; i < kCases; ++i) {
    auto datagram = random_bytes(rng, rng.uniform_int(kMaxLength + 1));
    if (rng.chance(0.5)) {
      std::copy_n(kMagic.begin(), std::min(kMagic.size(), datagram.size()),
                  datagram.begin());
    }
    check_datagram(datagram);
    if (HasFatalFailure()) return;
  }
}

TEST(WireFormatFuzzTest, MutatedProbesAreRejectedOrParsedExactly) {
  Rng rng(0x1993);
  for (int i = 0; i < kCases; ++i) {
    const auto wire = encode_probe(random_probe(rng));
    std::vector<std::byte> datagram(wire.begin(), wire.end());
    // Flip 1-8 bits anywhere, magic included.
    const auto flips = 1 + rng.uniform_int(8);
    for (std::uint64_t f = 0; f < flips; ++f) {
      const auto bit = rng.uniform_int(kProbePacketSize * 8);
      datagram[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    }
    // Now and then truncate or extend it.
    if (rng.chance(0.25)) {
      datagram.resize(rng.uniform_int(kMaxLength + 1),
                      static_cast<std::byte>(rng.uniform_int(256)));
    }
    check_datagram(datagram);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace bolot::netdyn
