#include "apps/eeg.hpp"

#include <algorithm>
#include <memory>
#include <string>

#include "dsp/fir.hpp"
#include "dsp/simd.hpp"
#include "dsp/svm.hpp"
#include "dsp/wavelet.hpp"
#include "graph/builder.hpp"
#include "util/assert.hpp"

namespace wishbone::apps {

namespace {

using graph::Context;
using graph::Encoding;
using graph::GraphBuilder;
using graph::OperatorImpl;
using graph::Stream;

/// Bounded-depth FIFO of frames whose slots recycle their capacity, so
/// steady-state push/pop never allocates (std::deque<std::vector> frees
/// and reallocates blocks as it cycles; this ring does not).
class FrameFifo {
 public:
  void push(const std::vector<float>& samples) {
    if (count_ == slots_.size()) {
      // Grow (warmup only): rotate so the ring starts at index 0, then
      // append a fresh slot at the write position.
      std::rotate(slots_.begin(),
                  slots_.begin() + static_cast<std::ptrdiff_t>(head_),
                  slots_.end());
      head_ = 0;
      slots_.emplace_back();
    }
    std::vector<float>& slot = slots_[(head_ + count_) % slots_.size()];
    slot.assign(samples.begin(), samples.end());
    ++count_;
  }

  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] const std::vector<float>& front() const {
    return slots_[head_];
  }
  void pop() {
    WB_ASSERT(count_ > 0);
    head_ = (head_ + 1) % slots_.size();
    --count_;
  }
  void clear() {
    head_ = 0;
    count_ = 0;
  }

 private:
  std::vector<std::vector<float>> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

/// Re-framing of the raw channel stream into analysis windows
/// (data-neutral; §6.1 "we divide the stream into 2 second windows").
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

/// Per-electrode calibration gain. Like FIR and Add below, it emits an
/// int16 stream and so rounds its output by graph::round_int16: the
/// values are then the same whether or not a cut puts the stream on
/// the radio.
class PreGainOp final : public OperatorImpl {
 public:
  explicit PreGainOp(float gain) : gain_(gain) {}
  void process(std::size_t, const Frame& in, Context& ctx) override {
    std::vector<float> out = ctx.get_buffer(in.size());
    dsp::simd::scale(in.samples().data(), gain_, out.data(), in.size());
    dsp::simd::round_int16(out.data(), out.size());
    if (auto* m = ctx.cost_meter()) {
      m->charge_float(in.size());
      m->charge_mem(8 * in.size());
      m->charge_branch(in.size());
    }
    ctx.emit(Frame(std::move(out), Encoding::kInt16));
  }
  [[nodiscard]] std::unique_ptr<OperatorImpl> clone() const override {
    return std::make_unique<PreGainOp>(*this);
  }

 private:
  float gain_;
};

/// GetEven / GetOdd of Fig. 1: stateful parity selection.
class ParityOp final : public OperatorImpl {
 public:
  explicit ParityOp(bool even) : even_(even) {}
  void process(std::size_t, const Frame& in, Context& ctx) override {
    std::vector<float> out = ctx.get_buffer(in.size() / 2 + 1);
    const dsp::SignalView x(in.samples());
    const dsp::MutSignalView ov(out.data(), out.size());
    const std::size_t cnt =
        even_ ? dsp::take_even_into(x, phase_, ov, ctx.cost_meter())
              : dsp::take_odd_into(x, phase_, ov, ctx.cost_meter());
    out.resize(cnt);
    ctx.emit(Frame(std::move(out), Encoding::kInt16));
  }
  [[nodiscard]] std::unique_ptr<OperatorImpl> clone() const override {
    return std::make_unique<ParityOp>(*this);
  }
  void reset() override { phase_ = 0; }

 private:
  bool even_;
  std::size_t phase_ = 0;
};

/// The 4-tap FIRFilter of Fig. 1 (stateful FIFO).
class FirOp final : public OperatorImpl {
 public:
  explicit FirOp(std::vector<float> coeffs) : fir_(std::move(coeffs)) {}
  void process(std::size_t, const Frame& in, Context& ctx) override {
    std::vector<float> out = ctx.get_buffer(in.size());
    fir_.process_into(dsp::SignalView(in.samples()),
                      dsp::MutSignalView(out), ctx.cost_meter());
    dsp::simd::round_int16(out.data(), out.size());
    ctx.emit(Frame(std::move(out), Encoding::kInt16));
  }
  [[nodiscard]] std::unique_ptr<OperatorImpl> clone() const override {
    return std::make_unique<FirOp>(*this);
  }
  void reset() override { fir_.reset(); }

 private:
  dsp::FirFilter fir_;
};

/// AddOddAndEven of Fig. 1: a two-input join summing paired frames.
class AddOp final : public OperatorImpl {
 public:
  void process(std::size_t port, const Frame& in, Context& ctx) override {
    WB_REQUIRE(port < 2, "AddOp has two ports");
    pending_[port].push(in.samples());
    auto* m = ctx.cost_meter();
    if (m) m->charge_mem(in.wire_bytes());
    while (!pending_[0].empty() && !pending_[1].empty()) {
      const std::vector<float>& a = pending_[0].front();
      const std::vector<float>& b = pending_[1].front();
      std::vector<float> out = ctx.get_buffer(std::min(a.size(), b.size()));
      dsp::add_frames_into(dsp::SignalView(a), dsp::SignalView(b),
                           dsp::MutSignalView(out), m);
      dsp::simd::round_int16(out.data(), out.size());
      pending_[0].pop();
      pending_[1].pop();
      ctx.emit(Frame(std::move(out), Encoding::kInt16));
    }
  }
  [[nodiscard]] std::unique_ptr<OperatorImpl> clone() const override {
    return std::make_unique<AddOp>(*this);
  }
  void reset() override {
    pending_[0].clear();
    pending_[1].clear();
  }

 private:
  FrameFifo pending_[2];
};

/// MagWithScale of Fig. 1: scaled mean magnitude of the band signal.
class MagScaleOp final : public OperatorImpl {
 public:
  explicit MagScaleOp(float gain) : gain_(gain) {}
  void process(std::size_t, const Frame& in, Context& ctx) override {
    std::vector<float> out = ctx.get_buffer(1);
    out[0] = dsp::mag_with_scale(dsp::SignalView(in.samples()), gain_,
                                 ctx.cost_meter());
    ctx.emit(Frame(std::move(out), Encoding::kFloat32));
  }
  [[nodiscard]] std::unique_ptr<OperatorImpl> clone() const override {
    return std::make_unique<MagScaleOp>(*this);
  }

 private:
  float gain_;
};

/// Squares the magnitude into an energy feature.
class EnergyOp final : public OperatorImpl {
 public:
  void process(std::size_t, const Frame& in, Context& ctx) override {
    WB_REQUIRE(!in.empty(), "energy: empty frame");
    if (auto* m = ctx.cost_meter()) m->charge_float(1);
    std::vector<float> out = ctx.get_buffer(1);
    out[0] = in[0] * in[0];
    ctx.emit(Frame(std::move(out), Encoding::kFloat32));
  }
  [[nodiscard]] std::unique_ptr<OperatorImpl> clone() const override {
    return std::make_unique<EnergyOp>(*this);
  }
};

/// EWMA smoothing of a scalar feature across windows (stateful).
class SmoothOp final : public OperatorImpl {
 public:
  explicit SmoothOp(float alpha) : alpha_(alpha) {}
  void process(std::size_t, const Frame& in, Context& ctx) override {
    WB_REQUIRE(!in.empty(), "smooth: empty frame");
    state_ = seen_ ? alpha_ * state_ + (1.0f - alpha_) * in[0] : in[0];
    seen_ = true;
    if (auto* m = ctx.cost_meter()) m->charge_float(3);
    std::vector<float> out = ctx.get_buffer(1);
    out[0] = state_;
    ctx.emit(Frame(std::move(out), Encoding::kFloat32));
  }
  [[nodiscard]] std::unique_ptr<OperatorImpl> clone() const override {
    return std::make_unique<SmoothOp>(*this);
  }
  void reset() override {
    state_ = 0.0f;
    seen_ = false;
  }

 private:
  float alpha_;
  float state_ = 0.0f;
  bool seen_ = false;
};

/// zipN of Fig. 1: joins N scalar streams into one feature vector.
class ZipOp final : public OperatorImpl {
 public:
  explicit ZipOp(std::size_t ports) : pending_(ports) {}
  void process(std::size_t port, const Frame& in, Context& ctx) override {
    WB_REQUIRE(port < pending_.size(), "zip: port out of range");
    pending_[port].push(in.samples());
    auto* m = ctx.cost_meter();
    if (m) m->charge_mem(in.wire_bytes());
    for (;;) {
      std::size_t total = 0;
      for (const auto& q : pending_) {
        if (q.empty()) return;
        total += q.front().size();
      }
      std::vector<float> joined = ctx.get_buffer(total);
      std::size_t off = 0;
      for (auto& q : pending_) {
        const std::vector<float>& head = q.front();
        std::copy(head.begin(), head.end(),
                  joined.begin() + static_cast<std::ptrdiff_t>(off));
        off += head.size();
        q.pop();
      }
      if (m) m->charge_mem(4 * total);
      ctx.emit(Frame(std::move(joined), Encoding::kFloat32));
    }
  }
  [[nodiscard]] std::unique_ptr<OperatorImpl> clone() const override {
    return std::make_unique<ZipOp>(*this);
  }
  void reset() override {
    for (auto& q : pending_) q.clear();
  }

 private:
  std::vector<FrameFifo> pending_;
};

/// Per-channel feature normalization.
class NormalizeOp final : public OperatorImpl {
 public:
  explicit NormalizeOp(float scale) : scale_(scale) {}
  void process(std::size_t, const Frame& in, Context& ctx) override {
    std::vector<float> out = ctx.get_buffer(in.size());
    for (std::size_t i = 0; i < in.size(); ++i) out[i] = scale_ * in[i];
    if (auto* m = ctx.cost_meter()) m->charge_float(in.size());
    ctx.emit(Frame(std::move(out), Encoding::kFloat32));
  }
  [[nodiscard]] std::unique_ptr<OperatorImpl> clone() const override {
    return std::make_unique<NormalizeOp>(*this);
  }

 private:
  float scale_;
};

/// The patient-specific linear SVM (§6.1). Weights favour energy in
/// the low-frequency bands where seizure oscillations live.
class SvmOp final : public OperatorImpl {
 public:
  explicit SvmOp(std::size_t dim)
      // Patient-specific training is out of scope; the margin threshold
      // is calibrated per feature against the synthetic-EEG amplitude
      // statistics (background band energy ~400/feature, seizure >1000).
      : svm_(std::vector<float>(dim, 1.0f),
             /*bias=*/-800.0f * static_cast<float>(dim)) {}
  void process(std::size_t, const Frame& in, Context& ctx) override {
    const float d = svm_.decision(dsp::SignalView(in.samples()),
                                  ctx.cost_meter());
    std::vector<float> out = ctx.get_buffer(2);
    out[0] = d > 0.0f ? 1.0f : 0.0f;
    out[1] = d;
    ctx.emit(Frame(std::move(out), Encoding::kFloat32));
  }
  [[nodiscard]] std::unique_ptr<OperatorImpl> clone() const override {
    return std::make_unique<SvmOp>(*this);
  }

 private:
  dsp::LinearSvm svm_;
};

/// Declares a seizure after three consecutive positive windows.
class SeizureDetectOp final : public OperatorImpl {
 public:
  SeizureDetectOp() : det_(3) {}
  void process(std::size_t, const Frame& in, Context& ctx) override {
    WB_REQUIRE(!in.empty(), "detect: empty frame");
    if (auto* m = ctx.cost_meter()) m->charge_int(2);
    const bool fired = det_.feed(in[0] > 0.5f);
    // Forward the SVM margin so downstream consumers (and tests) can
    // inspect classifier confidence alongside the declaration.
    const float margin = in.size() > 1 ? in[1] : 0.0f;
    std::vector<float> out = ctx.get_buffer(3);
    out[0] = fired ? 1.0f : 0.0f;
    out[1] = static_cast<float>(det_.run_length());
    out[2] = margin;
    ctx.emit(Frame(std::move(out), Encoding::kFloat32));
  }
  [[nodiscard]] std::unique_ptr<OperatorImpl> clone() const override {
    return std::make_unique<SeizureDetectOp>(*this);
  }
  void reset() override { det_.reset(); }

 private:
  dsp::ConsecutiveDetector det_;
};

/// Wires one LowFreqFilter / HighFreqFilter stage (5 operators).
Stream polyphase_stage(GraphBuilder& b, const std::string& prefix,
                       Stream in, const dsp::PolyphaseCoeffs& coeffs) {
  Stream even = b.stateful(prefix + ".even", in,
                           std::make_unique<ParityOp>(true));
  Stream odd = b.stateful(prefix + ".odd", in,
                          std::make_unique<ParityOp>(false));
  Stream fe = b.stateful(
      prefix + ".firE", even,
      std::make_unique<FirOp>(std::vector<float>(coeffs.even.begin(),
                                                 coeffs.even.end())));
  Stream fo = b.stateful(
      prefix + ".firO", odd,
      std::make_unique<FirOp>(std::vector<float>(coeffs.odd.begin(),
                                                 coeffs.odd.end())));
  return b.join(prefix + ".add", {fe, fo}, std::make_unique<AddOp>());
}

}  // namespace

std::size_t eeg_expected_operators(const EegConfig& cfg) {
  // Per channel: src + window + preGain + 5*levels + 5*bands
  //              + 3*bands (mag, energy, smooth) + zipN + normalize.
  const std::size_t per_channel =
      3 + 5 * cfg.levels + 8 * cfg.energy_bands + 2;
  // Global: zipAll (only with >1 channel) + svm + detect + sink.
  return cfg.channels * per_channel + (cfg.channels > 1 ? 4 : 3);
}

EegApp build_eeg_app(const EegConfig& cfg) {
  WB_REQUIRE(cfg.channels >= 1, "need at least one channel");
  WB_REQUIRE(cfg.levels >= cfg.energy_bands + 1,
             "cascade too shallow for the requested energy bands");
  EegApp app;
  app.cfg = cfg;

  GraphBuilder b;
  std::vector<Stream> channel_features;
  {
    auto node = b.node_scope();
    for (std::size_t ch = 0; ch < cfg.channels; ++ch) {
      const std::string c = "ch" + std::to_string(ch);
      Stream src = b.source(c + ".src", nullptr);
      Stream win =
          b.stateless(c + ".window", src, std::make_unique<WindowOp>());
      Stream sig = b.stateless(
          c + ".preGain", win,
          std::make_unique<PreGainOp>(1.0f + 0.01f * static_cast<float>(ch)));

      // 7-level low-pass cascade; each level halves the data rate.
      std::vector<Stream> lows;
      Stream cur = sig;
      for (std::size_t lv = 1; lv <= cfg.levels; ++lv) {
        cur = polyphase_stage(b, c + ".low" + std::to_string(lv), cur,
                              dsp::lowpass_polyphase());
        lows.push_back(cur);
      }
      // High-frequency bands off the last `energy_bands` levels. The
      // band at level L filters the low output of level L, so every
      // cascade output is consumed (Fig. 1's code leaves the deepest
      // low dangling; our graph validator insists on connectivity).
      std::vector<Stream> band_feats;
      for (std::size_t k = 0; k < cfg.energy_bands; ++k) {
        const std::size_t lv = cfg.levels - cfg.energy_bands + k + 1;
        Stream parent = lows[lv - 1];  // low output of level lv
        Stream high =
            polyphase_stage(b, c + ".high" + std::to_string(lv), parent,
                            dsp::highpass_polyphase());
        Stream mag = b.stateless(
            c + ".mag" + std::to_string(lv), high,
            std::make_unique<MagScaleOp>(1.0f + 0.5f * static_cast<float>(k)));
        Stream energy = b.stateless(c + ".energy" + std::to_string(lv), mag,
                                    std::make_unique<EnergyOp>());
        Stream smooth = b.stateful(c + ".smooth" + std::to_string(lv), energy,
                                   std::make_unique<SmoothOp>(0.5f));
        band_feats.push_back(smooth);
      }
      Stream zipped = b.join(c + ".zipN", band_feats,
                             std::make_unique<ZipOp>(band_feats.size()));
      Stream norm = b.stateless(c + ".normalize", zipped,
                                std::make_unique<NormalizeOp>(0.01f));
      channel_features.push_back(norm);
    }
  }

  Stream all_features =
      channel_features.size() == 1
          ? channel_features.front()
          : b.join("zipAll", channel_features,
                   std::make_unique<ZipOp>(channel_features.size()));
  Stream svm_out = b.stateless(
      "SVM", all_features,
      std::make_unique<SvmOp>(cfg.channels * cfg.energy_bands));
  Stream det = b.stateful("detect", svm_out,
                          std::make_unique<SeizureDetectOp>());
  OperatorId sink = b.sink("main", det);
  app.g = b.build();

  for (std::size_t ch = 0; ch < cfg.channels; ++ch) {
    app.sources.push_back(app.g.find("ch" + std::to_string(ch) + ".src"));
  }
  app.svm = app.g.find("SVM");
  app.detect = app.g.find("detect");
  app.sink = sink;
  return app;
}

std::map<OperatorId, std::vector<Frame>> eeg_traces(const EegApp& app,
                                                    std::size_t num_windows) {
  std::map<OperatorId, std::vector<Frame>> t;
  for (std::size_t ch = 0; ch < app.sources.size(); ++ch) {
    profile::traces::EegParams ep;
    ep.seed = app.cfg.trace_seed;
    ep.channel = ch;
    ep.window_samples = app.cfg.window_samples;
    ep.sample_rate_hz = app.cfg.sample_rate_hz;
    t[app.sources[ch]] = profile::traces::eeg_trace(num_windows, ep);
  }
  return t;
}

}  // namespace wishbone::apps
