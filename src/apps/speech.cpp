#include "apps/speech.hpp"

#include <algorithm>
#include <memory>

#include "dsp/dct.hpp"
#include "dsp/fft.hpp"
#include "dsp/mel.hpp"
#include "dsp/simd.hpp"
#include "dsp/window.hpp"
#include "util/assert.hpp"

namespace wishbone::apps {

namespace {

using graph::Context;
using graph::Encoding;
using graph::OperatorImpl;

constexpr std::size_t kFrameSamples = 200;
constexpr std::size_t kFftSize = 256;
constexpr std::size_t kMelFilters = 32;
constexpr std::size_t kCepstra = 13;
constexpr double kSampleRate = 8000.0;

/// Windowing/batching stage: the ReadStream driver delivers raw sample
/// arrays; this operator frames them for the DSP chain. Data-neutral,
/// so preprocessing merges it downstream (keeping "source" alone as
/// deployment cut point 1).
class WindowOp final : public OperatorImpl {
 public:
  void process(std::size_t, const Frame& in, Context& ctx) override {
    if (auto* m = ctx.cost_meter()) {
      m->charge_mem(2 * in.wire_bytes());
      m->charge_int(in.size());
    }
    std::vector<float> out = ctx.get_buffer(in.size());
    std::copy(in.samples().begin(), in.samples().end(), out.begin());
    ctx.emit(Frame(std::move(out), Encoding::kInt16));
  }
  [[nodiscard]] std::unique_ptr<OperatorImpl> clone() const override {
    return std::make_unique<WindowOp>(*this);
  }
};

/// Pre-emphasis y[n] = x[n] - 0.97 x[n-1]; stateful across frames.
/// Like Hamming below, it emits an int16 stream and so rounds its
/// output by graph::round_int16: the values are then the same whether
/// or not a cut puts the stream on the radio.
class PreemphOp final : public OperatorImpl {
 public:
  void process(std::size_t, const Frame& in, Context& ctx) override {
    std::vector<float> out = ctx.get_buffer(in.size());
    dsp::preemphasis_into(dsp::SignalView(in.samples()), 0.97f, prev_,
                          dsp::MutSignalView(out), ctx.cost_meter());
    dsp::simd::round_int16(out.data(), out.size());
    ctx.emit(Frame(std::move(out), Encoding::kInt16));
  }
  [[nodiscard]] std::unique_ptr<OperatorImpl> clone() const override {
    return std::make_unique<PreemphOp>(*this);
  }
  void reset() override { prev_ = 0.0f; }

 private:
  float prev_ = 0.0f;
};

class HammingOp final : public OperatorImpl {
 public:
  HammingOp() : window_(dsp::hamming_window(kFrameSamples)) {}
  void process(std::size_t, const Frame& in, Context& ctx) override {
    WB_REQUIRE(in.size() == kFrameSamples, "hamming: bad frame size");
    std::vector<float> out = ctx.get_buffer(in.size());
    dsp::apply_window_into(dsp::SignalView(in.samples()),
                           dsp::SignalView(window_),
                           dsp::MutSignalView(out), ctx.cost_meter());
    dsp::simd::round_int16(out.data(), out.size());
    ctx.emit(Frame(std::move(out), Encoding::kInt16));
  }
  [[nodiscard]] std::unique_ptr<OperatorImpl> clone() const override {
    return std::make_unique<HammingOp>(*this);
  }

 private:
  std::vector<float> window_;
};

/// Conditioning for the FFT: zero-pad the 200-sample frame to 256.
class PrefiltOp final : public OperatorImpl {
 public:
  void process(std::size_t, const Frame& in, Context& ctx) override {
    std::vector<float> out = ctx.get_buffer(kFftSize);
    dsp::zero_pad_into(dsp::SignalView(in.samples()),
                       dsp::MutSignalView(out), ctx.cost_meter());
    ctx.emit(Frame(std::move(out), Encoding::kInt16));
  }
  [[nodiscard]] std::unique_ptr<OperatorImpl> clone() const override {
    return std::make_unique<PrefiltOp>(*this);
  }
};

class FftOp final : public OperatorImpl {
 public:
  void process(std::size_t, const Frame& in, Context& ctx) override {
    WB_REQUIRE(in.size() == kFftSize, "fft: bad frame size");
    std::vector<float> out = ctx.get_buffer(kFftSize / 2 + 1);
    dsp::power_spectrum_into(dsp::SignalView(in.samples()),
                             dsp::MutSignalView(out), scratch_,
                             ctx.cost_meter());
    ctx.emit(Frame(std::move(out), Encoding::kFloat32));
  }
  [[nodiscard]] std::unique_ptr<OperatorImpl> clone() const override {
    return std::make_unique<FftOp>(*this);
  }

 private:
  dsp::SpectrumScratch scratch_;  ///< complex frame, reused every event
};

class FilterBankOp final : public OperatorImpl {
 public:
  FilterBankOp() : bank_(kMelFilters, kFftSize / 2 + 1, kSampleRate) {}
  void process(std::size_t, const Frame& in, Context& ctx) override {
    std::vector<float> out = ctx.get_buffer(kMelFilters);
    bank_.apply_into(dsp::SignalView(in.samples()), dsp::MutSignalView(out),
                     ctx.cost_meter());
    ctx.emit(Frame(std::move(out), Encoding::kFloat32));
  }
  [[nodiscard]] std::unique_ptr<OperatorImpl> clone() const override {
    return std::make_unique<FilterBankOp>(*this);
  }

 private:
  dsp::MelFilterbank bank_;
};

class LogsOp final : public OperatorImpl {
 public:
  void process(std::size_t, const Frame& in, Context& ctx) override {
    std::vector<float> out = ctx.get_buffer(in.size());
    dsp::log_compress_into(dsp::SignalView(in.samples()),
                           dsp::MutSignalView(out), ctx.cost_meter());
    ctx.emit(Frame(std::move(out), Encoding::kFloat32));
  }
  [[nodiscard]] std::unique_ptr<OperatorImpl> clone() const override {
    return std::make_unique<LogsOp>(*this);
  }
};

class CepstralsOp final : public OperatorImpl {
 public:
  void process(std::size_t, const Frame& in, Context& ctx) override {
    std::vector<float> out = ctx.get_buffer(kCepstra);
    dsp::dct_ii_into(dsp::SignalView(in.samples()), dsp::MutSignalView(out),
                     ctx.cost_meter());
    ctx.emit(Frame(std::move(out), Encoding::kFloat32));
  }
  [[nodiscard]] std::unique_ptr<OperatorImpl> clone() const override {
    return std::make_unique<CepstralsOp>(*this);
  }
};

/// Server-side speech/non-speech decision: thresholded log-energy (the
/// 0th cepstral coefficient tracks frame energy) with hysteresis over
/// consecutive frames, following the clustering-based detection
/// approach of Martin et al. in spirit.
class DetectOp final : public OperatorImpl {
 public:
  void process(std::size_t, const Frame& in, Context& ctx) override {
    WB_REQUIRE(!in.empty(), "detect: empty cepstral frame");
    if (auto* m = ctx.cost_meter()) m->charge_float(4);
    const float energy = in[0];
    // Adaptive noise floor: slow exponential tracker.
    floor_ = seen_ ? 0.995f * floor_ + 0.005f * energy : energy;
    seen_ = true;
    const bool speech = energy > floor_ + 2.0f;
    run_ = speech ? run_ + 1 : 0;
    std::vector<float> out = ctx.get_buffer(2);
    out[0] = run_ >= 3 ? 1.0f : 0.0f;
    out[1] = energy;
    ctx.emit(Frame(std::move(out), Encoding::kFloat32));
  }
  [[nodiscard]] std::unique_ptr<OperatorImpl> clone() const override {
    return std::make_unique<DetectOp>(*this);
  }
  void reset() override {
    floor_ = 0.0f;
    seen_ = false;
    run_ = 0;
  }

 private:
  float floor_ = 0.0f;
  bool seen_ = false;
  int run_ = 0;
};

}  // namespace

SpeechApp build_speech_app() {
  SpeechApp app;
  graph::GraphBuilder b;
  graph::Stream s_detect;
  {
    auto node = b.node_scope();
    graph::Stream s0 = b.source("source", nullptr);
    graph::Stream s1 = b.stateless("window", s0, std::make_unique<WindowOp>());
    graph::Stream s2 =
        b.stateful("preemph", s1, std::make_unique<PreemphOp>());
    graph::Stream s3 =
        b.stateless("hamming", s2, std::make_unique<HammingOp>());
    graph::Stream s4 =
        b.stateless("prefilt", s3, std::make_unique<PrefiltOp>());
    graph::Stream s5 = b.stateless("FFT", s4, std::make_unique<FftOp>());
    graph::Stream s6 =
        b.stateless("filtBank", s5, std::make_unique<FilterBankOp>());
    graph::Stream s7 = b.stateless("logs", s6, std::make_unique<LogsOp>());
    graph::Stream s8 =
        b.stateless("cepstrals", s7, std::make_unique<CepstralsOp>());
    s_detect = s8;
  }
  graph::Stream s9 = b.stateful("detect", s_detect,
                                std::make_unique<DetectOp>());
  OperatorId sink = b.sink("main", s9);
  app.g = b.build();

  app.source = app.g.find("source");
  app.window = app.g.find("window");
  app.preemph = app.g.find("preemph");
  app.hamming = app.g.find("hamming");
  app.prefilt = app.g.find("prefilt");
  app.fft = app.g.find("FFT");
  app.filtbank = app.g.find("filtBank");
  app.logs = app.g.find("logs");
  app.cepstrals = app.g.find("cepstrals");
  app.detect = app.g.find("detect");
  app.sink = sink;
  return app;
}

std::vector<OperatorId> SpeechApp::pipeline_order() const {
  return {source, window, preemph, hamming, prefilt,
          fft,    filtbank, logs,  cepstrals};
}

std::vector<OperatorId> SpeechApp::deployment_cutpoints() const {
  // The six cut points exercised on the testbed (§7.3): 4th = filtBank,
  // 6th = cepstrals, matching the paper's peak locations.
  return {source, hamming, fft, filtbank, logs, cepstrals};
}

std::vector<graph::Side> SpeechApp::assignment_for_cut(
    std::size_t cut_index) const {
  const std::vector<OperatorId> cuts = deployment_cutpoints();
  WB_REQUIRE(cut_index >= 1 && cut_index <= cuts.size(),
             "cut index out of range (1..6)");
  const OperatorId last_on_node = cuts[cut_index - 1];
  const std::vector<OperatorId> order = pipeline_order();
  std::vector<graph::Side> sides(g.num_operators(), graph::Side::kServer);
  for (OperatorId v : order) {
    sides[v] = graph::Side::kNode;
    if (v == last_on_node) break;
  }
  return sides;
}

std::map<OperatorId, std::vector<Frame>> speech_traces(const SpeechApp& app,
                                                       std::size_t num_frames,
                                                       std::uint32_t seed) {
  profile::traces::SpeechParams sp;
  sp.seed = seed;
  sp.frame_samples = kFrameSamples;
  sp.sample_rate_hz = kSampleRate;
  std::map<OperatorId, std::vector<Frame>> t;
  t[app.source] = profile::traces::speech_trace(num_frames, sp);
  return t;
}

}  // namespace wishbone::apps
