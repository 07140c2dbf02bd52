// A Frame is the unit of data flowing on a stream edge.
//
// WaveScript streams carry typed elements; for Wishbone's purposes the
// only properties that matter are the numeric payload (operators compute
// on it) and the marshaled wire size (the partitioner charges cut edges
// by bytes on the radio). Raw ADC samples are 16-bit (2 bytes each, §6.2.3)
// while extracted features are 32-bit values (4 bytes each), which is how
// the paper arrives at 400-byte raw frames and 52-byte cepstral frames.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

namespace wishbone::graph {

/// Bytes used to marshal one value of each payload encoding.
enum class Encoding : std::uint8_t {
  kInt16 = 2,   ///< raw ADC samples
  kFloat32 = 4  ///< computed features / filtered signals
};

/// Adding and subtracting 1.5 * 2^23 rounds any float |x| < 2^22 to
/// the nearest integer (ties to even) and never yields -0; larger |x|
/// stay far outside the int16 range.
inline constexpr float kInt16RoundBias = 12582912.0f;

/// The int16 sample rule: round to the nearest integer (ties to even),
/// then saturate to [-32768, 32767]. Returns the value as a float.
/// runtime::marshal applies it to every value it puts on an int16 wire,
/// and operators that emit Encoding::kInt16 streams apply it to their
/// outputs (through dsp::simd::round_int16, which computes the same
/// values), so a stream carries the same values whether or not a cut
/// crosses it.
[[nodiscard]] inline float round_int16(float x) {
  const float r = (x + kInt16RoundBias) - kInt16RoundBias;
  const float lo = r < -32768.0f ? -32768.0f : r;
  return lo > 32767.0f ? 32767.0f : lo;
}

class Frame {
 public:
  Frame() = default;
  Frame(std::vector<float> samples, Encoding enc)
      : samples_(std::move(samples)), encoding_(enc) {}
  Frame(std::initializer_list<float> samples, Encoding enc)
      : samples_(samples), encoding_(enc) {}

  [[nodiscard]] const std::vector<float>& samples() const { return samples_; }
  [[nodiscard]] std::vector<float>& samples() { return samples_; }
  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] Encoding encoding() const { return encoding_; }

  [[nodiscard]] float operator[](std::size_t i) const { return samples_[i]; }
  [[nodiscard]] float& operator[](std::size_t i) { return samples_[i]; }

  /// Marshaled size on a network link, in bytes. Used as the edge
  /// bandwidth contribution of this element by the profiler.
  [[nodiscard]] std::size_t wire_bytes() const {
    return samples_.size() * static_cast<std::size_t>(encoding_);
  }

 private:
  std::vector<float> samples_;
  Encoding encoding_ = Encoding::kFloat32;
};

}  // namespace wishbone::graph
