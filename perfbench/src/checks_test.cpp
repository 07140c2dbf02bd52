// Shows that each output check of the benchmark rejects a corrupted
// output: a flipped vertex side, an altered sink byte, a request whose
// budget its plan exceeds, and a perturbed kernel output.
//
// Run: python3 perfbench/run.py --selftest (exits non-zero on failure).
#include <cstdio>
#include <cstring>

#include "checks.hpp"
#include "graph/pinning.hpp"
#include "layers.hpp"
#include "partition/partitioner.hpp"
#include "runtime/executor.hpp"

using namespace perfbench;
namespace wb = wishbone;

namespace {

int g_failures = 0;

void expect(bool cond, const char* what) {
  std::printf("%s %s\n", cond ? "ok  " : "FAIL", what);
  if (!cond) ++g_failures;
}

struct Solved {
  wb::partition::PartitionProblem p;
  wb::partition::PartitionResult r;
};

/// The 2-channel EEG app on the TMote Sky at its native rate: a solve
/// whose plan puts operators on both sides of the cut.
Solved solved_eeg() {
  wb::apps::EegConfig cfg;
  cfg.channels = 2;
  wb::apps::EegApp app = wb::apps::build_eeg_app(cfg);
  wb::profile::Profiler prof(app.g);
  const auto pd = prof.run(wb::apps::eeg_traces(app, 3), 3);
  const auto pins = wb::graph::analyze_pins(app.g, wb::graph::Mode::kPermissive);
  Solved s;
  s.p = wb::partition::make_problem(app.g, pins, pd, wb::profile::tmote_sky(),
                                    app.full_rate_events_per_sec());
  s.r = wb::partition::solve_partition(s.p);
  return s;
}

void test_flipped_side(const Solved& s) {
  expect(s.r.feasible, "reference plan is feasible");
  expect(check_reported_plan(s.p, s.r.sides, s.r.objective, s.r.cpu_used,
                             s.r.net_used).empty(),
         "reference plan passes the plan check");
  // Flip the node-side end of a cut edge whose flip moves the cut.
  bool flipped = false;
  for (const auto& e : s.p.edges) {
    if (s.r.sides[e.from] == s.r.sides[e.to]) continue;
    const std::size_t v = e.from;
    if (s.p.vertices[v].req != wb::graph::Requirement::kMovable) continue;
    std::vector<Side> bad = s.r.sides;
    bad[v] = Side::kServer;
    if (plan_loads(s.p, bad).net == plan_loads(s.p, s.r.sides).net) continue;
    expect(!check_reported_plan(s.p, bad, s.r.objective, s.r.cpu_used,
                                s.r.net_used).empty(),
           "one flipped movable vertex is rejected");
    flipped = true;
    break;
  }
  expect(flipped, "found a cut vertex to flip");
  for (std::size_t v = 0; v < s.p.vertices.size(); ++v) {
    if (s.p.vertices[v].req != wb::graph::Requirement::kNode) continue;
    std::vector<Side> bad = s.r.sides;
    bad[v] = Side::kServer;
    expect(!check_plan(s.p, bad).empty(), "one flipped pinned vertex is rejected");
    break;
  }
}

void test_sweep_monotone() {
  std::vector<SweepPoint> pts = {{1.0, true, true, 10.0}, {2.0, true, false, 25.0}};
  expect(check_sweep_monotone(pts).empty(), "monotone sweep passes");
  pts[1].objective = 15.0;  // 7.5 per unit rate beats the proved 10
  expect(!check_sweep_monotone(pts).empty(),
         "a plan beating a proved optimum at a lower rate is rejected");
}

void test_budget_exceeded(const Solved& s) {
  wb::partition::PartitionProblem req = s.p;
  expect(check_plan(req, s.r.sides).empty(), "plan fits its own request");
  req.cpu_budget = plan_loads(req, s.r.sides).cpu * (1.0 - 1e-6);
  expect(!check_plan(req, s.r.sides).empty(),
         "a request whose CPU budget the plan exceeds is rejected");
  req = s.p;
  req.net_budget = plan_loads(req, s.r.sides).net * (1.0 - 1e-6);
  expect(!check_plan(req, s.r.sides).empty(),
         "a request whose bandwidth budget the plan exceeds is rejected");
}

void test_sink_byte() {
  Tracer quiet(false);
  StreamApp app = setup_stream_app(false, 1, 64, quiet);
  wb::graph::Graph& g = app.graph();
  g.reset_state();
  wb::runtime::PartitionedExecutor cut(g, app.cut);
  const auto a = cut.run(app.traces, 64);
  g.reset_state();
  wb::runtime::PartitionedExecutor all(
      g, std::vector<Side>(g.num_operators(), Side::kNode));
  auto b = all.run(app.traces, 64);
  expect(!b.empty() && !b.begin()->second.empty(), "speech sink produced frames");
  expect(compare_sinks(a, b).empty(), "partitioned sink output matches");
  auto& frame = b.begin()->second.front();
  unsigned char bytes[sizeof(float)];
  std::memcpy(bytes, &frame.samples()[0], sizeof bytes);
  bytes[0] ^= 1u;
  std::memcpy(&frame.samples()[0], bytes, sizeof bytes);
  expect(!compare_sinks(a, b).empty(), "one altered sink byte is rejected");
}

void test_kernel_reference() {
  const std::vector<float> x = {1.0f, 2.0f, 3.0f, 4.0f};
  std::vector<float> y = {1.0f, 2.0f, 3.0f, 4.0f};
  const std::vector<double> ref = ref_preemphasis(x, 0.0);
  expect(check_close("identity", y, ref, 1e-6).empty(), "exact kernel passes");
  y[2] += 1e-3f;
  expect(!check_close("identity", y, ref, 1e-6).empty(),
         "a perturbed kernel output is rejected");
}

}  // namespace

int main() {
  const Solved s = solved_eeg();
  test_flipped_side(s);
  test_sweep_monotone();
  test_budget_exceeded(s);
  test_sink_byte();
  test_kernel_reference();
  std::printf("%s (%d failures)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
