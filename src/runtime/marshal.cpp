#include "runtime/marshal.hpp"

#include <algorithm>
#include <cstring>

#include "util/assert.hpp"

namespace wishbone::runtime {

namespace {

/// Bytes before the payload: u32 sample count + u8 encoding.
constexpr std::size_t kWireHeaderBytes = 5;

void put_u32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v & 0xff);
  out[1] = static_cast<std::uint8_t>((v >> 8) & 0xff);
  out[2] = static_cast<std::uint8_t>((v >> 16) & 0xff);
  out[3] = static_cast<std::uint8_t>((v >> 24) & 0xff);
}

std::uint32_t get_u32(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) |
         (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) |
         (static_cast<std::uint32_t>(in[3]) << 24);
}

}  // namespace

std::vector<std::uint8_t> marshal(const Frame& f) {
  std::vector<std::uint8_t> out;
  marshal_into(f, out);
  return out;
}

void marshal_into(const Frame& f, std::vector<std::uint8_t>& out) {
  out.resize(kWireHeaderBytes + f.wire_bytes());
  std::uint8_t* p = out.data();
  put_u32(p, static_cast<std::uint32_t>(f.size()));
  p[4] = static_cast<std::uint8_t>(f.encoding());
  p += kWireHeaderBytes;
  if (f.encoding() == Encoding::kInt16) {
    for (float x : f.samples()) {
      const auto u = static_cast<std::uint16_t>(
          static_cast<std::int16_t>(graph::round_int16(x)));
      p[0] = static_cast<std::uint8_t>(u & 0xff);
      p[1] = static_cast<std::uint8_t>(u >> 8);
      p += 2;
    }
  } else {
    for (float x : f.samples()) {
      std::uint32_t bits = 0;
      static_assert(sizeof bits == sizeof x);
      std::memcpy(&bits, &x, sizeof bits);
      put_u32(p, bits);
      p += 4;
    }
  }
}

Frame unmarshal(const std::vector<std::uint8_t>& bytes) {
  std::vector<float> samples;
  const Encoding enc = unmarshal_into(bytes, samples);
  return Frame(std::move(samples), enc);
}

Encoding unmarshal_into(const std::vector<std::uint8_t>& bytes,
                        std::vector<float>& samples) {
  WB_REQUIRE(bytes.size() >= kWireHeaderBytes, "unmarshal: truncated header");
  const std::uint32_t count = get_u32(bytes.data());
  const auto enc_raw = bytes[4];
  WB_REQUIRE(enc_raw == static_cast<std::uint8_t>(Encoding::kInt16) ||
                 enc_raw == static_cast<std::uint8_t>(Encoding::kFloat32),
             "unmarshal: unknown encoding");
  const Encoding enc = static_cast<Encoding>(enc_raw);
  const std::size_t value_bytes = static_cast<std::size_t>(enc);
  WB_REQUIRE(bytes.size() ==
                 kWireHeaderBytes + static_cast<std::size_t>(count) * value_bytes,
             "unmarshal: payload size mismatch");
  samples.resize(count);
  const std::uint8_t* p = bytes.data() + kWireHeaderBytes;
  if (enc == Encoding::kInt16) {
    for (std::uint32_t i = 0; i < count; ++i, p += 2) {
      const auto u = static_cast<std::uint16_t>(
          p[0] | (static_cast<std::uint16_t>(p[1]) << 8));
      samples[i] = static_cast<float>(static_cast<std::int16_t>(u));
    }
  } else {
    for (std::uint32_t i = 0; i < count; ++i, p += 4) {
      const std::uint32_t bits = get_u32(p);
      std::memcpy(&samples[i], &bits, sizeof bits);
    }
  }
  return enc;
}

std::vector<std::vector<std::uint8_t>> packetize(
    const std::vector<std::uint8_t>& bytes, std::size_t payload_bytes) {
  WB_REQUIRE(payload_bytes >= 1, "packetize: payload must be >= 1 byte");
  std::vector<std::vector<std::uint8_t>> out;
  for (std::size_t at = 0; at < bytes.size(); at += payload_bytes) {
    const std::size_t n = std::min(payload_bytes, bytes.size() - at);
    out.emplace_back(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                     bytes.begin() + static_cast<std::ptrdiff_t>(at + n));
  }
  if (out.empty()) out.emplace_back();  // empty frame -> one empty packet
  return out;
}

std::size_t message_count(std::size_t wire_bytes, std::size_t payload_bytes) {
  WB_REQUIRE(payload_bytes >= 1, "packetize: payload must be >= 1 byte");
  return std::max<std::size_t>(
      1, (wire_bytes + payload_bytes - 1) / payload_bytes);
}

std::vector<std::uint8_t> reassemble(
    const std::vector<std::vector<std::uint8_t>>& packets) {
  std::vector<std::uint8_t> out;
  for (const auto& p : packets) out.insert(out.end(), p.begin(), p.end());
  return out;
}

}  // namespace wishbone::runtime
