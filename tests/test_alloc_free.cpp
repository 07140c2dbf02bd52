// Steady-state allocation tests: once the executor's buffer pool has
// warmed up, streaming events through a fully-local pipeline must not
// touch the heap at all. Measured with the counting global operator
// new (util/alloc_count.hpp) by comparing two runs of different length:
// any fixed per-run overhead (the sources vector, the empty result map)
// cancels out, so the difference isolates per-event allocations. The
// same holds under the cuts the partitioner picks, where frames cross
// the node/server boundary through marshal and unmarshal.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <vector>

#include "apps/eeg.hpp"
#include "apps/speech.hpp"
#include "graph/frame.hpp"
#include "graph/graph.hpp"
#include "profile/platform.hpp"
#include "runtime/executor.hpp"
#include "test_helpers.hpp"
#include "util/alloc_count.hpp"

namespace wishbone {
namespace {

using apps::EegConfig;
using graph::Frame;
using graph::OperatorId;
using graph::Side;
using runtime::PartitionedExecutor;

/// Allocations attributable to streaming `extra` additional events:
/// runs the executor for `base` events, then `base + extra`, and
/// returns the difference in heap allocation counts between the two
/// runs. Zero means the steady state never allocates.
std::size_t per_event_allocs(
    PartitionedExecutor& ex,
    const std::map<OperatorId, std::vector<Frame>>& traces,
    std::size_t base, std::size_t extra) {
  const std::size_t a0 = util::allocation_count();
  ex.run(traces, base);
  const std::size_t a1 = util::allocation_count();
  ex.run(traces, base + extra);
  const std::size_t a2 = util::allocation_count();
  const std::size_t short_run = a1 - a0;
  const std::size_t long_run = a2 - a1;
  return long_run > short_run ? long_run - short_run : 0;
}

TEST(AllocFree, EegSteadyStateMakesZeroAllocationsPerEvent) {
  EegConfig cfg;
  cfg.channels = 3;          // full wavelet cascade, smaller fan-in
  cfg.window_samples = 256;  // keep the test fast; depth unchanged
  apps::EegApp app = apps::build_eeg_app(cfg);
  const auto traces = apps::eeg_traces(app, 130);

  // All operators on the node: no cut edges, so nothing marshals.
  PartitionedExecutor ex(app.g,
                         std::vector<Side>(app.g.num_operators(),
                                           Side::kNode));
  ex.set_collect_sink_output(false);

  // Warm up pools, FIFOs, and plan caches (join operators reach their
  // steady ring occupancy only after the cascade's pipeline fills).
  ex.run(traces, 30);

  EXPECT_EQ(per_event_allocs(ex, traces, 20, 80), 0u);
}

TEST(AllocFree, SpeechSteadyStateMakesZeroAllocationsPerEvent) {
  apps::SpeechApp app = apps::build_speech_app();
  const auto traces = apps::speech_traces(app, 130);

  PartitionedExecutor ex(app.g,
                         std::vector<Side>(app.g.num_operators(),
                                           Side::kNode));
  ex.set_collect_sink_output(false);

  // First run populates the FFT/DCT plan caches and the buffer pool.
  ex.run(traces, 30);

  EXPECT_EQ(per_event_allocs(ex, traces, 20, 80), 0u);
}

TEST(AllocFree, EegUnderN80CutMakesZeroAllocationsPerEvent) {
  apps::EegApp app = apps::build_eeg_app();  // 22 channels
  const auto traces = apps::eeg_traces(app, 130);
  const std::vector<Side> cut =
      wbtest::planned_cut(app.g, traces, 3, profile::nokia_n80(),
                          app.full_rate_events_per_sec());
  ASSERT_FALSE(cut.empty());

  PartitionedExecutor ex(app.g, cut);
  ex.set_collect_sink_output(false);
  ex.run(traces, 30);
  ASSERT_GT(ex.stats().cut_frames, 0u) << "the cut crosses no edge";

  EXPECT_EQ(per_event_allocs(ex, traces, 20, 80), 0u);
}

TEST(AllocFree, SpeechUnderGumstixCutMakesZeroAllocationsPerEvent) {
  apps::SpeechApp app = apps::build_speech_app();
  const auto traces = apps::speech_traces(app, 130);
  const std::vector<Side> cut =
      wbtest::planned_cut(app.g, traces, 64, profile::gumstix(),
                          apps::SpeechApp::kFullRateEventsPerSec);
  ASSERT_FALSE(cut.empty());

  PartitionedExecutor ex(app.g, cut);
  ex.set_collect_sink_output(false);
  ex.run(traces, 30);
  ASSERT_GT(ex.stats().cut_frames, 0u) << "the cut crosses no edge";

  EXPECT_EQ(per_event_allocs(ex, traces, 20, 80), 0u);
}

/// Collecting sink output allocates (by design); streaming mode is the
/// allocation-free path. Guard that the flag actually switches modes.
TEST(AllocFree, CollectingSinkOutputStillWorks) {
  apps::SpeechApp app = apps::build_speech_app();
  const auto traces = apps::speech_traces(app, 10);
  PartitionedExecutor ex(app.g,
                         std::vector<Side>(app.g.num_operators(),
                                           Side::kNode));
  auto out = ex.run(traces, 10);
  ASSERT_EQ(out.count(app.sink), 1u);
  EXPECT_EQ(out[app.sink].size(), 10u);

  ex.set_collect_sink_output(false);
  auto out2 = ex.run(traces, 10);
  EXPECT_TRUE(out2.empty());
}

}  // namespace
}  // namespace wishbone
