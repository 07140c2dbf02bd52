#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "apps/fig3.hpp"
#include "partition/partitioner.hpp"
#include "partition/problem.hpp"
#include "profile/profiler.hpp"
#include "test_helpers.hpp"
#include "util/assert.hpp"

using namespace wishbone;
using namespace wishbone::partition;
using wishbone::util::ContractError;

TEST(Problem, CheckRejectsBadInstances) {
  PartitionProblem p;
  EXPECT_THROW(p.check(), ContractError);  // empty

  p = apps::fig3_problem();
  p.edges[0].from = 99;
  EXPECT_THROW(p.check(), ContractError);  // bad endpoint

  p = apps::fig3_problem();
  p.vertices[0].cpu = -1.0;
  EXPECT_THROW(p.check(), ContractError);  // negative weight

  p = apps::fig3_problem();
  p.edges.push_back(ProblemEdge{2, 2, 1.0});
  EXPECT_THROW(p.check(), ContractError);  // self loop
}

// ---------------------------------------------- non-finite inputs

namespace {

constexpr double kPosInf = std::numeric_limits<double>::infinity();

/// Source (pinned to the node) -> two movable filters -> sink (pinned
/// to the server); 0.2 CPU per vertex under a 0.5 CPU budget, so at
/// most two vertices fit on the node.
PartitionProblem chain4() {
  PartitionProblem p;
  for (const char* name : {"src", "f1", "f2", "sink"}) {
    ProblemVertex v;
    v.name = name;
    v.cpu = 0.2;
    v.ops = {p.vertices.size()};
    p.vertices.push_back(v);
  }
  p.vertices.front().req = Requirement::kNode;
  p.vertices.back().req = Requirement::kServer;
  p.edges = {ProblemEdge{0, 1, 100.0}, ProblemEdge{1, 2, 50.0},
             ProblemEdge{2, 3, 10.0}};
  p.cpu_budget = 0.5;
  p.net_budget = 1e18;
  return p;
}

/// check() and solve_partition() must both refuse `p`, for +inf, -inf
/// and NaN written through `field`.
template <class Set>
void expect_non_finite_rejected(Set field) {
  for (double bad : {kPosInf, -kPosInf,
                     std::numeric_limits<double>::quiet_NaN()}) {
    PartitionProblem p = chain4();
    field(p, bad);
    EXPECT_THROW(p.check(), ContractError) << bad;
    EXPECT_THROW((void)solve_partition(p), ContractError) << bad;
  }
}

}  // namespace

TEST(ProblemNonFinite, NetBudgetRejected) {
  // Probe: an infinite network budget used to come back "feasible" with
  // three vertices on the node, 0.6 CPU against a 0.5 budget. Huge
  // finite budgets solve within the CPU budget.
  PartitionProblem p = chain4();
  const PartitionResult ok = solve_partition(p);
  ASSERT_TRUE(ok.feasible);
  EXPECT_LE(ok.cpu_used, p.cpu_budget + 1e-9);
  p.net_budget = 1e300;
  EXPECT_LE(solve_partition(p).cpu_used, p.cpu_budget + 1e-9);

  expect_non_finite_rejected(
      [](PartitionProblem& q, double x) { q.net_budget = x; });
}

TEST(ProblemNonFinite, RamBytesRejected) {
  // Probe: an infinite RAM weight under a 10-byte RAM budget used to
  // come back "feasible" with a server->node edge.
  expect_non_finite_rejected([](PartitionProblem& q, double x) {
    q.ram_budget = 10.0;
    q.vertices[1].ram_bytes = x;
  });
}

TEST(ProblemNonFinite, CpuWeightRejected) {
  expect_non_finite_rejected(
      [](PartitionProblem& q, double x) { q.vertices[2].cpu = x; });
}

TEST(ProblemNonFinite, RomBytesRejected) {
  expect_non_finite_rejected([](PartitionProblem& q, double x) {
    q.rom_budget = 10.0;
    q.vertices[1].rom_bytes = x;
  });
}

TEST(ProblemNonFinite, BandwidthRejected) {
  expect_non_finite_rejected(
      [](PartitionProblem& q, double x) { q.edges[1].bandwidth = x; });
}

TEST(ProblemNonFinite, CpuBudgetRejected) {
  expect_non_finite_rejected(
      [](PartitionProblem& q, double x) { q.cpu_budget = x; });
}

TEST(ProblemNonFinite, RamBudgetRejected) {
  expect_non_finite_rejected(
      [](PartitionProblem& q, double x) { q.ram_budget = x; });
}

TEST(ProblemNonFinite, RomBudgetRejected) {
  expect_non_finite_rejected(
      [](PartitionProblem& q, double x) { q.rom_budget = x; });
}

TEST(Problem, TopoOrderDetectsCycle) {
  PartitionProblem p = apps::fig3_problem();
  // a1 -> a2 exists; close a cycle a2 -> a1.
  p.edges.push_back(ProblemEdge{3, 2, 1.0});
  EXPECT_THROW((void)p.topo_order(), ContractError);
}

TEST(Problem, InOutBandwidth) {
  const PartitionProblem p = apps::fig3_problem();
  // a1 (index 2): in 4 from s1, out 2 to a2.
  EXPECT_DOUBLE_EQ(p.in_bandwidth(2), 4.0);
  EXPECT_DOUBLE_EQ(p.out_bandwidth(2), 2.0);
  // sink (index 6): in 1 + 1.
  EXPECT_DOUBLE_EQ(p.in_bandwidth(6), 2.0);
  EXPECT_DOUBLE_EQ(p.out_bandwidth(6), 0.0);
}

TEST(Evaluate, AllServerCutsRawStreams) {
  const PartitionProblem p = apps::fig3_problem();
  std::vector<Side> sides(p.num_vertices(), Side::kServer);
  sides[0] = sides[1] = Side::kNode;  // pinned sources
  const AssignmentEval ev = evaluate_assignment(p, sides);
  EXPECT_TRUE(ev.respects_pins);
  EXPECT_TRUE(ev.unidirectional);
  EXPECT_DOUBLE_EQ(ev.net, 8.0);  // both raw edges cut
  EXPECT_DOUBLE_EQ(ev.cpu, 0.0);
  EXPECT_DOUBLE_EQ(objective_of(p, ev), 8.0);
}

TEST(Evaluate, PinViolationsDetected) {
  const PartitionProblem p = apps::fig3_problem();
  std::vector<Side> sides(p.num_vertices(), Side::kServer);
  // Sources forced to server: violates pins.
  EXPECT_FALSE(evaluate_assignment(p, sides).respects_pins);
}

TEST(Evaluate, BackwardEdgeFlagsNonUnidirectional) {
  const PartitionProblem p = apps::fig3_problem();
  std::vector<Side> sides(p.num_vertices(), Side::kServer);
  sides[0] = sides[1] = Side::kNode;
  sides[3] = Side::kNode;  // a2 on node but a1 on server: server->node
  const AssignmentEval ev = evaluate_assignment(p, sides);
  EXPECT_FALSE(ev.unidirectional);
}

TEST(Evaluate, FeasibilityAgainstBudgets) {
  PartitionProblem p = apps::fig3_problem();
  std::vector<Side> sides(p.num_vertices(), Side::kServer);
  sides[0] = sides[1] = Side::kNode;
  sides[2] = Side::kNode;  // a1: cpu 3
  AssignmentEval ev = evaluate_assignment(p, sides);
  p.cpu_budget = 2.0;
  EXPECT_FALSE(ev.feasible(p));
  p.cpu_budget = 3.0;
  EXPECT_TRUE(ev.feasible(p));
  p.net_budget = 1.0;  // cut is 2 + 4 = 6 > 1
  EXPECT_FALSE(ev.feasible(p));
}

TEST(MakeProblem, FromProfiledGraph) {
  wbtest::TinyApp t = wbtest::tiny_app();
  profile::Profiler prof(t.g);
  std::map<graph::OperatorId, std::vector<graph::Frame>> traces;
  traces[t.src] = wbtest::int_frames(5, 8);
  const auto pd = prof.run(traces, 5);
  const auto pins = graph::analyze_pins(t.g, graph::Mode::kPermissive);
  const auto plat = profile::tmote_sky();
  const PartitionProblem p = make_problem(t.g, pins, pd, plat, 10.0);

  ASSERT_EQ(p.num_vertices(), t.g.num_operators());
  ASSERT_EQ(p.num_edges(), t.g.num_edges());
  EXPECT_EQ(p.vertices[t.src].req, Requirement::kNode);
  EXPECT_EQ(p.vertices[t.sink].req, Requirement::kServer);
  EXPECT_EQ(p.vertices[t.dbl].req, Requirement::kMovable);
  EXPECT_DOUBLE_EQ(p.cpu_budget, plat.cpu_budget);
  EXPECT_DOUBLE_EQ(p.net_budget, plat.radio_bytes_per_sec);
  // Bandwidths: src->dbl carries 16 B/event * 10 events/s.
  for (std::size_t ei = 0; ei < p.edges.size(); ++ei) {
    if (p.edges[ei].from == t.src) {
      EXPECT_DOUBLE_EQ(p.edges[ei].bandwidth, 160.0);
    }
  }
  // CPU fractions are consistent with the profile.
  EXPECT_NEAR(p.vertices[t.dbl].cpu, pd.cpu_fraction(plat, t.dbl, 10.0),
              1e-15);
  // Each vertex maps back to its own operator.
  EXPECT_EQ(p.vertices[t.dbl].ops, std::vector<graph::OperatorId>{t.dbl});
}

TEST(MakeProblem, RejectsNonPositiveRate) {
  wbtest::TinyApp t = wbtest::tiny_app();
  profile::Profiler prof(t.g);
  std::map<graph::OperatorId, std::vector<graph::Frame>> traces;
  traces[t.src] = wbtest::int_frames(2, 8);
  const auto pd = prof.run(traces, 2);
  const auto pins = graph::analyze_pins(t.g, graph::Mode::kPermissive);
  EXPECT_THROW(
      (void)make_problem(t.g, pins, pd, profile::tmote_sky(), 0.0),
      ContractError);
}

TEST(ExpandAssignment, MapsClustersToOperators) {
  PartitionProblem p;
  ProblemVertex a;
  a.name = "a+b";
  a.ops = {0, 2};
  ProblemVertex b;
  b.name = "c";
  b.ops = {1};
  p.vertices = {a, b};
  const auto sides = expand_assignment(
      p, {Side::kNode, Side::kServer}, 3);
  EXPECT_EQ(sides[0], Side::kNode);
  EXPECT_EQ(sides[2], Side::kNode);
  EXPECT_EQ(sides[1], Side::kServer);
}

TEST(RandomProblemGenerator, ProducesValidInstances) {
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    const PartitionProblem p = wbtest::random_problem(seed);
    EXPECT_NO_THROW(p.check());
    EXPECT_GE(p.num_vertices(), 3u);
  }
}
