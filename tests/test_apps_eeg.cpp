#include <gtest/gtest.h>
#include <cmath>
#include <cstring>

#include "apps/eeg.hpp"
#include "graph/pinning.hpp"
#include "profile/platform.hpp"
#include "profile/profiler.hpp"
#include "runtime/executor.hpp"
#include "test_helpers.hpp"
#include "util/assert.hpp"

using namespace wishbone;
using namespace wishbone::apps;

TEST(EegApp, FullAppHas1412Operators) {
  // §7.1: "our worst case scenario — partitioning all 22-channels
  // (1412 operators)".
  const EegConfig cfg;  // defaults: 22 channels, 7 levels, 3 bands
  EXPECT_EQ(eeg_expected_operators(cfg), 1412u);
  EegApp app = build_eeg_app(cfg);
  EXPECT_EQ(app.g.num_operators(), 1412u);
  EXPECT_EQ(app.g.validate(), std::nullopt);
  EXPECT_EQ(app.sources.size(), 22u);
}

TEST(EegApp, SingleChannelSize) {
  EegConfig cfg;
  cfg.channels = 1;
  EegApp app = build_eeg_app(cfg);
  EXPECT_EQ(app.g.num_operators(), eeg_expected_operators(cfg));
  EXPECT_EQ(app.g.num_operators(), 67u);  // 64 + svm + detect + sink
}

TEST(EegApp, ShallowCascadeRejected) {
  EegConfig cfg;
  cfg.levels = 3;
  cfg.energy_bands = 3;
  EXPECT_THROW((void)build_eeg_app(cfg), util::ContractError);
}

TEST(EegApp, WaveletCascadeHalvesData) {
  // Each low level halves the byte rate (§6.1).
  EegConfig cfg;
  cfg.channels = 1;
  EegApp app = build_eeg_app(cfg);
  profile::Profiler prof(app.g);
  const auto pd = prof.run(eeg_traces(app, 8), 8);
  auto out_bytes = [&](const std::string& name) {
    const auto v = app.g.find(name);
    return pd.op_bytes_out[v] / static_cast<double>(pd.num_events);
  };
  EXPECT_DOUBLE_EQ(out_bytes("ch0.src"), 1024.0);  // 512 x int16
  double prev = out_bytes("ch0.low1.add");
  EXPECT_DOUBLE_EQ(prev, 512.0);
  for (int lv = 2; lv <= 7; ++lv) {
    const double cur = out_bytes("ch0.low" + std::to_string(lv) + ".add");
    EXPECT_NEAR(cur, prev / 2.0, 1.0) << "level " << lv;
    prev = cur;
  }
  // Feature vector: 3 band energies x 4 bytes, normalized stream.
  EXPECT_DOUBLE_EQ(out_bytes("ch0.normalize"), 12.0);
}

TEST(EegApp, SvmSeparatesSeizureFromBackground) {
  EegConfig cfg;
  cfg.channels = 4;  // keep runtime modest; episodes shared by channels
  EegApp app = build_eeg_app(cfg);
  std::vector<graph::Side> sides(app.g.num_operators(),
                                 graph::Side::kServer);
  for (auto s : app.sources) sides[s] = graph::Side::kNode;
  runtime::PartitionedExecutor ex(app.g, sides);
  const std::size_t windows = 60;
  const auto traces = eeg_traces(app, windows);
  const auto out = ex.run(traces, windows);
  const auto& decisions = out.at(app.sink);
  ASSERT_EQ(decisions.size(), windows);

  // Identify seizure windows from the raw trace RMS of channel 0.
  const auto& ch0 = traces.at(app.sources[0]);
  std::vector<bool> seiz;
  double max_rms = 0.0;
  std::vector<double> rms;
  for (const auto& f : ch0) {
    double e = 0.0;
    for (float x : f.samples()) e += static_cast<double>(x) * x;
    rms.push_back(std::sqrt(e / static_cast<double>(f.size())));
    max_rms = std::max(max_rms, rms.back());
  }
  for (double r : rms) seiz.push_back(r > 0.6 * max_rms);

  // detect emits {fired, run_length, svm_margin}: the margin must be
  // clearly higher during seizure windows, and the declaration must
  // fire during episodes but not constantly.
  double seiz_margin = 0.0, bg_margin = 0.0;
  std::size_t nseiz = 0, nbg = 0, fired = 0, fired_in_seiz = 0;
  for (std::size_t w = 0; w < windows; ++w) {
    ASSERT_EQ(decisions[w].size(), 3u);
    if (decisions[w][0] > 0.5f) {
      ++fired;
      // EWMA smoothing delays features by ~1 window; accept a fire
      // within one window of a marked episode.
      const bool near_seiz =
          seiz[w] || (w > 0 && seiz[w - 1]) ||
          (w + 1 < windows && seiz[w + 1]);
      fired_in_seiz += near_seiz;
    }
    if (seiz[w]) {
      seiz_margin += decisions[w][2];
      ++nseiz;
    } else {
      bg_margin += decisions[w][2];
      ++nbg;
    }
  }
  ASSERT_GT(nseiz, 0u);
  ASSERT_GT(nbg, 0u);
  // Margins may be negative (decision = w.x + bias); require a clear
  // additive separation between the two regimes.
  EXPECT_GT(seiz_margin / static_cast<double>(nseiz),
            bg_margin / static_cast<double>(nbg) + 1000.0);
  EXPECT_GT(fired, 0u);
  EXPECT_EQ(fired, fired_in_seiz);  // no false declarations
  EXPECT_LT(fired, windows / 4);
}

TEST(EegApp, PartitionedRunMatchesAllOnNodeBitForBit) {
  // §2.1: a partitioned program computes exactly what the unpartitioned
  // one does. Under the N80 cut the int16 cascade outputs cross the
  // radio, so this holds only if the operators emitting int16 streams
  // round their outputs the way the wire does.
  EegApp app = build_eeg_app();  // 22 channels
  const std::size_t windows = 6;
  const auto traces = eeg_traces(app, windows);
  const std::vector<graph::Side> cut =
      wbtest::planned_cut(app.g, traces, 3, profile::nokia_n80(),
                          app.full_rate_events_per_sec());
  ASSERT_FALSE(cut.empty());

  graph::Graph cut_g = app.g.clone();
  graph::Graph all_g = app.g.clone();
  runtime::PartitionedExecutor cut_ex(cut_g, cut);
  runtime::PartitionedExecutor all_ex(
      all_g,
      std::vector<graph::Side>(all_g.num_operators(), graph::Side::kNode));
  const auto a = cut_ex.run(traces, windows);
  const auto b = all_ex.run(traces, windows);
  ASSERT_GT(cut_ex.stats().cut_frames, 0u) << "the cut crosses no edge";

  const auto& fa = a.at(app.sink);
  const auto& fb = b.at(app.sink);
  ASSERT_EQ(fa.size(), windows);
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t i = 0; i < fa.size(); ++i) {
    ASSERT_EQ(fa[i].encoding(), fb[i].encoding());
    ASSERT_EQ(fa[i].size(), fb[i].size());
    EXPECT_EQ(std::memcmp(fa[i].samples().data(), fb[i].samples().data(),
                          fa[i].size() * sizeof(float)),
              0)
        << "window " << i << ": margin " << fa[i][2] << " vs " << fb[i][2];
  }
}

TEST(EegApp, PermissiveModeLeavesCascadeMovable) {
  EegConfig cfg;
  cfg.channels = 2;
  EegApp app = build_eeg_app(cfg);
  const auto perm = graph::analyze_pins(app.g, graph::Mode::kPermissive);
  const auto cons = graph::analyze_pins(app.g, graph::Mode::kConservative);
  // Permissive: everything but sources/sink/zips... the stateful FIR
  // cascade is movable.
  EXPECT_EQ(perm.requirement[app.g.find("ch0.low3.firE")],
            graph::Requirement::kMovable);
  // Conservative: the stateful cascade is node-pinned.
  EXPECT_EQ(cons.requirement[app.g.find("ch0.low3.firE")],
            graph::Requirement::kNode);
  EXPECT_GT(perm.num_movable(), cons.num_movable());
}

TEST(EegApp, ChannelsAreIndependentSubgraphs) {
  EegConfig cfg;
  cfg.channels = 3;
  EegApp app = build_eeg_app(cfg);
  // No operator of channel 1 is reachable from channel 0's source.
  const auto desc = app.g.descendants(app.sources[0]);
  for (graph::OperatorId v : desc) {
    const std::string& name = app.g.info(v).name;
    EXPECT_TRUE(name.find("ch1.") == std::string::npos &&
                name.find("ch2.") == std::string::npos)
        << name;
  }
}

TEST(EegApp, FullRateIsHalfHertz) {
  EegApp app = build_eeg_app(EegConfig{});
  EXPECT_DOUBLE_EQ(app.full_rate_events_per_sec(), 0.5);  // 2 s windows
}
