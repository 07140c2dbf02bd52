#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <utility>

#include "runtime/marshal.hpp"
#include "util/assert.hpp"

using namespace wishbone;
using namespace wishbone::runtime;
using graph::Encoding;
using graph::Frame;
using wishbone::util::ContractError;

TEST(Marshal, Int16RoundTrip) {
  Frame f({100.0f, -200.0f, 0.0f, 32767.0f, -32768.0f}, Encoding::kInt16);
  const Frame back = unmarshal(marshal(f));
  ASSERT_EQ(back.size(), f.size());
  EXPECT_EQ(back.encoding(), Encoding::kInt16);
  for (std::size_t i = 0; i < f.size(); ++i) {
    EXPECT_FLOAT_EQ(back[i], f[i]);
  }
}

TEST(Marshal, Float32RoundTripExact) {
  Frame f({3.14159f, -2.71828f, 1e-20f, 1e20f, 0.0f}, Encoding::kFloat32);
  const Frame back = unmarshal(marshal(f));
  EXPECT_EQ(back.encoding(), Encoding::kFloat32);
  for (std::size_t i = 0; i < f.size(); ++i) {
    EXPECT_EQ(back[i], f[i]);  // bit-exact
  }
}

TEST(Marshal, Int16SaturatesOutOfRange) {
  Frame f({1e6f, -1e6f}, Encoding::kInt16);
  const Frame back = unmarshal(marshal(f));
  EXPECT_FLOAT_EQ(back[0], 32767.0f);
  EXPECT_FLOAT_EQ(back[1], -32768.0f);
}

TEST(Marshal, WireSizeMatchesHeaderPlusPayload) {
  Frame f(std::vector<float>(200, 1.0f), Encoding::kInt16);
  const auto wire = marshal(f);
  EXPECT_EQ(wire.size(), 5u + 400u);  // 5-byte header + 2 B/sample
  Frame g(std::vector<float>(13, 1.0f), Encoding::kFloat32);
  EXPECT_EQ(marshal(g).size(), 5u + 52u);  // the paper's 52-byte frame
}

TEST(Marshal, EmptyFrame) {
  Frame f(std::vector<float>{}, Encoding::kInt16);
  const Frame back = unmarshal(marshal(f));
  EXPECT_TRUE(back.empty());
}

TEST(Unmarshal, MalformedInputThrows) {
  EXPECT_THROW((void)unmarshal({}), ContractError);
  EXPECT_THROW((void)unmarshal({1, 2, 3}), ContractError);  // short header
  // Valid header claiming 4 samples but no payload.
  std::vector<std::uint8_t> bad{4, 0, 0, 0,
                                static_cast<std::uint8_t>(Encoding::kInt16)};
  EXPECT_THROW((void)unmarshal(bad), ContractError);
  // Unknown encoding byte.
  std::vector<std::uint8_t> enc{0, 0, 0, 0, 77};
  EXPECT_THROW((void)unmarshal(enc), ContractError);
}

TEST(Packetize, SplitsAndReassembles) {
  std::vector<std::uint8_t> data(100);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  const auto packets = packetize(data, 28);
  EXPECT_EQ(packets.size(), 4u);  // 28+28+28+16
  EXPECT_EQ(packets[0].size(), 28u);
  EXPECT_EQ(packets[3].size(), 16u);
  EXPECT_EQ(reassemble(packets), data);
}

TEST(Packetize, ExactMultiple) {
  std::vector<std::uint8_t> data(56, 7);
  const auto packets = packetize(data, 28);
  EXPECT_EQ(packets.size(), 2u);
}

TEST(Packetize, EmptyInputYieldsOneEmptyPacket) {
  const auto packets = packetize({}, 28);
  ASSERT_EQ(packets.size(), 1u);
  EXPECT_TRUE(packets[0].empty());
  EXPECT_THROW((void)packetize({1}, 0), ContractError);
}

TEST(Marshal, RandomizedRoundTripProperty) {
  std::mt19937 rng(17);
  std::uniform_real_distribution<float> u(-1000.0f, 1000.0f);
  std::uniform_int_distribution<std::size_t> len(0, 600);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<float> s(len(rng));
    for (auto& x : s) x = std::nearbyint(u(rng));
    const Encoding enc = trial % 2 ? Encoding::kInt16 : Encoding::kFloat32;
    Frame f(s, enc);
    // Round trip through marshal -> packetize -> reassemble -> unmarshal.
    const Frame back = unmarshal(reassemble(packetize(marshal(f), 28)));
    ASSERT_EQ(back.size(), f.size());
    for (std::size_t i = 0; i < f.size(); ++i) {
      EXPECT_FLOAT_EQ(back[i], f[i]);
    }
  }
}

TEST(Marshal, Int16RuleRoundsHalfToEvenAndSaturates) {
  // The one int16 rule: what an operator emitting an int16 stream
  // computes is exactly what the wire carries.
  const std::vector<std::pair<float, float>> cases = {
      {0.5f, 0.0f},         {1.5f, 2.0f},          {2.5f, 2.0f},
      {-0.5f, 0.0f},        {-1.5f, -2.0f},        {-0.4f, 0.0f},
      {-0.6f, -1.0f},       {12.49f, 12.0f},       {32767.4f, 32767.0f},
      {32767.5f, 32767.0f}, {-32768.5f, -32768.0f}, {1e9f, 32767.0f},
      {-1e9f, -32768.0f},   {-0.0f, 0.0f}};
  for (const auto& [x, want] : cases) {
    const float got = graph::round_int16(x);
    EXPECT_EQ(got, want) << x;
    EXPECT_FALSE(std::signbit(got) && got == 0.0f) << x << " gave -0";
    const Frame back = unmarshal(marshal(Frame({x}, Encoding::kInt16)));
    EXPECT_EQ(back[0], got) << x;
  }
  std::mt19937 rng(3);
  std::uniform_real_distribution<float> u(-40000.0f, 40000.0f);
  for (int i = 0; i < 10000; ++i) {
    const float x = u(rng);
    const double ref =
        std::clamp(static_cast<double>(std::nearbyint(x)), -32768.0, 32767.0);
    EXPECT_EQ(graph::round_int16(x), static_cast<float>(ref)) << x;
  }
}

TEST(Marshal, IntoReusedBuffersMatchesAllocatingForms) {
  std::vector<std::uint8_t> wire;
  std::vector<float> samples;
  for (const Frame& f :
       {Frame(std::vector<float>(300, 7.0f), Encoding::kInt16),
        Frame({1.25f, -3.5f}, Encoding::kFloat32),
        Frame(std::vector<float>{}, Encoding::kInt16)}) {
    marshal_into(f, wire);
    EXPECT_EQ(wire, marshal(f));
    EXPECT_EQ(unmarshal_into(wire, samples), f.encoding());
    EXPECT_EQ(samples, unmarshal(wire).samples());
  }
}

TEST(Packetize, MessageCountMatchesPacketize) {
  for (std::size_t payload : {1u, 5u, 28u, 100u}) {
    for (std::size_t n : {0u, 1u, 5u, 27u, 28u, 29u, 56u, 57u, 405u}) {
      const std::vector<std::uint8_t> bytes(n, 1);
      EXPECT_EQ(message_count(n, payload), packetize(bytes, payload).size())
          << n << " bytes, payload " << payload;
    }
  }
  EXPECT_THROW((void)message_count(10, 0), ContractError);
}
