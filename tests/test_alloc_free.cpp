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
#include <random>
#include <utility>
#include <vector>

#include "apps/eeg.hpp"
#include "apps/speech.hpp"
#include "graph/frame.hpp"
#include "graph/graph.hpp"
#include "ilp/basis_lu.hpp"
#include "ilp/simplex.hpp"
#include "lp_generators.hpp"
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

/// The LU basis engine at solver scale: once a pivot walk has grown
/// every buffer (factor rows, column lists, the eta arena, the FTRAN
/// reach), replaying the same walk — FTRAN, BTRAN, BTRAN-unit, eta
/// updates and the refactorizations between chains — and factorizing
/// the same basis a second time make no heap allocation.
TEST(AllocFree, LuBasisEngineSteadyStateMakesZeroAllocations) {
  using namespace ilp;
  const LinearProgram lp = testgen::gen_partition_at_scale(7);
  const int m = lp.num_constraints();
  const int n_total = lp.num_variables() + m;
  const std::vector<SparseColumn> cols = testgen::working_columns(lp);
  BasisEngineOptions opts;
  opts.max_eta = 16;
  auto lu = make_basis_engine(BasisEngineKind::kLu, m, opts);

  std::vector<int> slack_basis(m);
  for (int i = 0; i < m; ++i) slack_basis[i] = lp.num_variables() + i;
  IndexedVector w, rho;
  std::vector<double> y(m);
  std::vector<int> basic;

  // Replays `walk` (entering column, leaving row) from the slack basis.
  // Returns false if the engine refused a factorization.
  auto replay = [&](const std::vector<std::pair<int, int>>& walk) {
    basic = slack_basis;
    if (!lu->factorize(cols, basic)) return false;
    for (const auto& [enter, r] : walk) {
      lu->ftran(cols[enter], w);
      for (int i = 0; i < m; ++i) y[i] = static_cast<double>(i % 3) - 1.0;
      lu->btran(y);
      lu->btran_unit(r, rho);
      basic[r] = enter;
      if (!lu->update(r, w) && !lu->factorize(cols, basic)) return false;
    }
    return true;
  };

  // Record a walk: random entering columns, largest-|w| leaving rows.
  std::vector<std::pair<int, int>> walk;
  std::vector<char> in_basis(n_total, 0);
  for (int v : slack_basis) in_basis[v] = 1;
  basic = slack_basis;
  ASSERT_TRUE(lu->factorize(cols, basic));
  std::mt19937 rng(7);
  while (walk.size() < 80) {
    const int enter = static_cast<int>(rng() % n_total);
    if (in_basis[enter]) continue;
    lu->ftran(cols[enter], w);
    const int r = testgen::largest_entry_row(w);
    if (r < 0) continue;
    in_basis[basic[r]] = 0;
    in_basis[enter] = 1;
    basic[r] = enter;
    if (!lu->update(r, w)) ASSERT_TRUE(lu->factorize(cols, basic));
    walk.emplace_back(enter, r);
  }
  const std::vector<int> final_basis = basic;
  ASSERT_TRUE(replay(walk));  // warm-up: every buffer at its final size
  ASSERT_TRUE(lu->factorize(cols, final_basis));
  const std::size_t refactorizations = lu->stats().refactorizations;

  const std::size_t a0 = util::allocation_count();
  const bool refactorized = lu->factorize(cols, final_basis);
  const std::size_t a1 = util::allocation_count();
  const bool replayed = replay(walk);
  const std::size_t a2 = util::allocation_count();
  ASSERT_TRUE(refactorized);
  ASSERT_TRUE(replayed);
  EXPECT_EQ(a1 - a0, 0u) << "second factorize of the same basis";
  EXPECT_EQ(a2 - a1, 0u) << "replayed pivot walk";
  EXPECT_GE(lu->stats().refactorizations, refactorizations + 3)
      << "the walk never ran an eta chain up to a refactorization";
}

/// A warm SimplexState at solver scale, both re-entry modes: a round
/// reloads the root basis, then runs branching-style bound edits and
/// re-solves. Once a round has grown every buffer (pivot rows, the
/// reduced-cost updates and rebuilds, phase-1 cost folds, dual ratio
/// tests, eta files and the refactorizations between them), replaying
/// it allocates nothing but the solution vector each optimal
/// LpSolution returns. (The replay keeps factorize() on bases it has
/// seen: its per-row lists grow with the fill-in of a new basis.)
TEST(AllocFree, WarmSimplexResolveMakesZeroAllocations) {
  using namespace ilp;
  const LinearProgram lp = testgen::gen_partition_at_scale(7);
  for (ReentryKind reentry : {ReentryKind::kPhase1, ReentryKind::kDual}) {
    SimplexOptions opts;
    opts.engine = BasisEngineKind::kLu;
    opts.reentry = reentry;
    opts.refactor_interval = 16;
    SimplexState state(lp, opts);
    const LpSolution root = state.solve();
    ASSERT_EQ(root.status, SolveStatus::kOptimal);
    std::vector<int> frac;
    for (int v = 0; v < lp.num_variables() && frac.size() < 6; ++v) {
      if (root.x[v] > state.lower(v) + 1e-6 &&
          root.x[v] < state.upper(v) - 1e-6) {
        frac.push_back(v);
      }
    }
    ASSERT_FALSE(frac.empty()) << "root LP solved integral";
    const Basis root_basis = state.extract_basis();

    std::size_t solutions = 0;  // optimal solves, each returning x
    auto round = [&] {
      solutions = 0;
      ASSERT_TRUE(state.load_basis(root_basis));
      for (int v : frac) {
        const double lo = lp.lower(v), up = lp.upper(v);
        for (const auto& [a, b] : {std::pair{lo, lo}, {up, up}, {lo, up}}) {
          state.set_bounds(v, a, b);
          const LpSolution sol = state.solve();
          if (!sol.x.empty()) ++solutions;
          if (sol.status == SolveStatus::kOptimal) {
            (void)state.reduced_costs();
          }
        }
      }
    };
    round();  // warm-up
    const std::size_t pivots = state.telemetry().primal_pivots +
                               state.telemetry().dual_pivots;
    const std::size_t refactorizations =
        state.basis_stats().refactorizations;
    const std::size_t a0 = util::allocation_count();
    round();
    const std::size_t a1 = util::allocation_count();
    EXPECT_EQ(a1 - a0, solutions) << reentry_name(reentry);
    EXPECT_GT(state.telemetry().primal_pivots +
                  state.telemetry().dual_pivots,
              pivots + 20)
        << reentry_name(reentry) << ": the measured round barely pivoted";
    EXPECT_GT(state.basis_stats().refactorizations, refactorizations + 1)
        << reentry_name(reentry)
        << ": no refactorization besides the basis load";
  }
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
