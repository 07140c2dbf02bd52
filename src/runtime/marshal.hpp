// Marshaling for cut edges (§3: "code generation proceeds, including
// generating communication code for cut edges (e.g., code to marshal
// and unmarshal data structures)") and packetization into link-layer
// messages (§5.2: "program objects must be serialized and split into
// small network packets").
//
// Wire format (little-endian):
//   u32 sample_count | u8 encoding | payload
// with payload either int16 (raw samples, graph::round_int16) or
// float32.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/frame.hpp"

namespace wishbone::runtime {

using graph::Encoding;
using graph::Frame;

/// Serializes a frame into its wire representation.
[[nodiscard]] std::vector<std::uint8_t> marshal(const Frame& f);

/// Serializes a frame into `out`, replacing its contents. Reuses the
/// capacity of `out`, so a caller that keeps one buffer marshals
/// without allocating once the buffer has grown to its largest frame.
void marshal_into(const Frame& f, std::vector<std::uint8_t>& out);

/// Parses a wire representation back into a frame. Throws ContractError
/// on malformed input (bad magic sizes, truncated payload).
[[nodiscard]] Frame unmarshal(const std::vector<std::uint8_t>& bytes);

/// Parses a wire representation into `samples` (resized to the sample
/// count, so a buffer of at least that capacity is not reallocated) and
/// returns its encoding. Throws ContractError like unmarshal.
Encoding unmarshal_into(const std::vector<std::uint8_t>& bytes,
                        std::vector<float>& samples);

/// Splits a wire buffer into messages of at most `payload_bytes` each.
[[nodiscard]] std::vector<std::vector<std::uint8_t>> packetize(
    const std::vector<std::uint8_t>& bytes, std::size_t payload_bytes);

/// Number of messages packetize() splits `wire_bytes` bytes into:
/// ceil(wire_bytes / payload_bytes), and at least one.
[[nodiscard]] std::size_t message_count(std::size_t wire_bytes,
                                        std::size_t payload_bytes);

/// Reassembles packetized messages (inverse of packetize, assuming
/// in-order, complete delivery).
[[nodiscard]] std::vector<std::uint8_t> reassemble(
    const std::vector<std::vector<std::uint8_t>>& packets);

}  // namespace wishbone::runtime
