#include "netdyn/udp_socket.h"

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstring>
#include <thread>

namespace bolot::netdyn {
namespace {

TEST(EndpointTest, ParseAndFormat) {
  const Endpoint ep = make_endpoint("127.0.0.1", 9000);
  EXPECT_EQ(ep.port, 9000);
  EXPECT_EQ(ep.to_string(), "127.0.0.1:9000");
  EXPECT_EQ(loopback(80).to_string(), "127.0.0.1:80");
}

TEST(EndpointTest, RejectsMalformedAddress) {
  EXPECT_THROW(make_endpoint("not-an-ip", 80), std::invalid_argument);
  EXPECT_THROW(make_endpoint("256.0.0.1", 80), std::invalid_argument);
  EXPECT_THROW(make_endpoint("", 80), std::invalid_argument);
}

TEST(UdpSocketTest, BindsEphemeralPort) {
  UdpSocket socket(0);
  EXPECT_GT(socket.local_port(), 0);
}

TEST(UdpSocketTest, ReceiveTimesOutWhenQuiet) {
  UdpSocket socket(0);
  std::array<std::byte, 64> buffer{};
  const auto received = socket.receive(buffer, Duration::millis(10));
  EXPECT_FALSE(received.has_value());
}

TEST(UdpSocketTest, LoopbackRoundTrip) {
  UdpSocket sender(0);
  UdpSocket receiver(0);
  const char payload[] = "netdyn";
  sender.send_to(std::as_bytes(std::span(payload, sizeof payload)),
                 loopback(receiver.local_port()));
  std::array<std::byte, 64> buffer{};
  const auto received = receiver.receive(buffer, Duration::seconds(2));
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->size, sizeof payload);
  EXPECT_EQ(std::memcmp(buffer.data(), payload, sizeof payload), 0);
  EXPECT_EQ(received->from.port, sender.local_port());
}

TEST(UdpSocketTest, ReplyReachesOriginalSender) {
  UdpSocket a(0);
  UdpSocket b(0);
  const char ping[] = "ping";
  a.send_to(std::as_bytes(std::span(ping, 4)), loopback(b.local_port()));
  std::array<std::byte, 64> buffer{};
  const auto at_b = b.receive(buffer, Duration::seconds(2));
  ASSERT_TRUE(at_b.has_value());
  b.send_to(std::span(buffer.data(), at_b->size), at_b->from);
  const auto back_at_a = a.receive(buffer, Duration::seconds(2));
  ASSERT_TRUE(back_at_a.has_value());
  EXPECT_EQ(back_at_a->size, 4u);
}

TEST(UdpSocketTest, MoveTransfersOwnership) {
  UdpSocket original(0);
  const std::uint16_t port = original.local_port();
  UdpSocket moved(std::move(original));
  EXPECT_EQ(moved.local_port(), port);
}

TEST(UdpSocketTest, BindingSamePortTwiceFails) {
  UdpSocket first(0);
  EXPECT_THROW(UdpSocket second(first.local_port()), std::system_error);
}

TEST(UdpSocketTest, TryReceiveReturnsAtOnceWhenQuiet) {
  UdpSocket socket(0);
  std::array<std::byte, 64> buffer{};
  EXPECT_FALSE(socket.try_receive(buffer).has_value());
}

TEST(UdpSocketTest, WaitReadableThenTryReceiveDrainsEveryDatagram) {
  UdpSocket sender(0);
  UdpSocket receiver(0);
  const char payload[] = "probe";
  for (int i = 0; i < 3; ++i) {
    sender.send_to(std::as_bytes(std::span(payload, sizeof payload)),
                   loopback(receiver.local_port()));
  }
  std::array<std::byte, 64> buffer{};
  int drained = 0;
  while (drained < 3 &&
         wait_readable({receiver.fd()}, Duration::seconds(2))) {
    while (const auto received = receiver.try_receive(buffer)) {
      EXPECT_EQ(received->size, sizeof payload);
      ++drained;
    }
  }
  EXPECT_EQ(drained, 3);
  EXPECT_FALSE(wait_readable({receiver.fd()}, Duration::zero()));
}

TEST(WakeEventTest, NotifyEndsAWaitAndClearRearms) {
  UdpSocket quiet(0);
  WakeEvent wake;
  std::thread notifier([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    wake.notify();
  });
  EXPECT_TRUE(wait_readable({quiet.fd(), wake.fd()}, Duration::seconds(10)));
  notifier.join();
  // Stays readable until cleared.
  EXPECT_TRUE(wait_readable({quiet.fd(), wake.fd()}, Duration::zero()));
  wake.clear();
  EXPECT_FALSE(wait_readable({quiet.fd(), wake.fd()}, Duration::millis(1)));
}

}  // namespace
}  // namespace bolot::netdyn
