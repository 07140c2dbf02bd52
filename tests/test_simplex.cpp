#include <gtest/gtest.h>

#include <random>
#include <string>

#include "ilp/simplex.hpp"

using namespace wishbone::ilp;

namespace {

Constraint make(std::vector<std::pair<int, double>> terms, Relation rel,
                double rhs) {
  Constraint c;
  c.terms = std::move(terms);
  c.rel = rel;
  c.rhs = rhs;
  return c;
}

}  // namespace

TEST(Simplex, UnconstrainedBoxMinimum) {
  // min 2x - 3y, 0<=x<=4, 0<=y<=5  ->  x=0, y=5, obj=-15.
  LinearProgram lp;
  (void)lp.add_variable("x", 0.0, 4.0, 2.0, false);
  (void)lp.add_variable("y", 0.0, 5.0, -3.0, false);
  const auto sol = SimplexSolver().solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, -15.0, 1e-6);
  EXPECT_NEAR(sol.x[0], 0.0, 1e-6);
  EXPECT_NEAR(sol.x[1], 5.0, 1e-6);
}

TEST(Simplex, ClassicTwoVariableLp) {
  // max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18  (min of the negation).
  // Optimum: x=2, y=6, obj=36.
  LinearProgram lp;
  const int x = lp.add_variable("x", 0.0, kInf, -3.0, false);
  const int y = lp.add_variable("y", 0.0, kInf, -5.0, false);
  lp.add_constraint(make({{x, 1.0}}, Relation::kLe, 4.0));
  lp.add_constraint(make({{y, 2.0}}, Relation::kLe, 12.0));
  lp.add_constraint(make({{x, 3.0}, {y, 2.0}}, Relation::kLe, 18.0));
  const auto sol = SimplexSolver().solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, -36.0, 1e-6);
  EXPECT_NEAR(sol.x[0], 2.0, 1e-6);
  EXPECT_NEAR(sol.x[1], 6.0, 1e-6);
}

TEST(Simplex, GeConstraintNeedsPhaseOne) {
  // min x s.t. x >= 3, 0 <= x <= 10.
  LinearProgram lp;
  const int x = lp.add_variable("x", 0.0, 10.0, 1.0, false);
  lp.add_constraint(make({{x, 1.0}}, Relation::kGe, 3.0));
  const auto sol = SimplexSolver().solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 3.0, 1e-6);
}

TEST(Simplex, EqualityConstraint) {
  // min x + y s.t. x + y == 4, x <= 3, y <= 3.
  LinearProgram lp;
  const int x = lp.add_variable("x", 0.0, 3.0, 1.0, false);
  const int y = lp.add_variable("y", 0.0, 3.0, 1.0, false);
  lp.add_constraint(make({{x, 1.0}, {y, 1.0}}, Relation::kEq, 4.0));
  const auto sol = SimplexSolver().solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 4.0, 1e-6);
  EXPECT_NEAR(sol.x[0] + sol.x[1], 4.0, 1e-6);
}

TEST(Simplex, DetectsInfeasible) {
  // x <= 1 and x >= 2 cannot both hold.
  LinearProgram lp;
  const int x = lp.add_variable("x", 0.0, 10.0, 1.0, false);
  lp.add_constraint(make({{x, 1.0}}, Relation::kLe, 1.0));
  lp.add_constraint(make({{x, 1.0}}, Relation::kGe, 2.0));
  EXPECT_EQ(SimplexSolver().solve(lp).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsInfeasibleBoundsVsEquality) {
  LinearProgram lp;
  const int x = lp.add_variable("x", 0.0, 1.0, 0.0, false);
  lp.add_constraint(make({{x, 1.0}}, Relation::kEq, 5.0));
  EXPECT_EQ(SimplexSolver().solve(lp).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  // min -x with x >= 0 unbounded above.
  LinearProgram lp;
  (void)lp.add_variable("x", 0.0, kInf, -1.0, false);
  EXPECT_EQ(SimplexSolver().solve(lp).status, SolveStatus::kUnbounded);
}

TEST(Simplex, FixedVariablesRespected) {
  LinearProgram lp;
  const int x = lp.add_variable("x", 2.0, 2.0, 1.0, false);
  const int y = lp.add_variable("y", 0.0, 5.0, 1.0, false);
  lp.add_constraint(make({{x, 1.0}, {y, 1.0}}, Relation::kGe, 4.0));
  const auto sol = SimplexSolver().solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], 2.0, 1e-9);
  EXPECT_NEAR(sol.x[1], 2.0, 1e-6);
}

TEST(Simplex, NegativeLowerBounds) {
  // min x + y with -5<=x<=-1, -3<=y<=7, x+y >= -6.
  LinearProgram lp;
  const int x = lp.add_variable("x", -5.0, -1.0, 1.0, false);
  const int y = lp.add_variable("y", -3.0, 7.0, 1.0, false);
  lp.add_constraint(make({{x, 1.0}, {y, 1.0}}, Relation::kGe, -6.0));
  const auto sol = SimplexSolver().solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, -6.0, 1e-6);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Many redundant constraints through the same vertex.
  LinearProgram lp;
  const int x = lp.add_variable("x", 0.0, kInf, -1.0, false);
  const int y = lp.add_variable("y", 0.0, kInf, -1.0, false);
  for (int k = 1; k <= 6; ++k) {
    lp.add_constraint(
        make({{x, static_cast<double>(k)}, {y, static_cast<double>(k)}},
             Relation::kLe, 4.0 * k));
  }
  const auto sol = SimplexSolver().solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, -4.0, 1e-6);
}

// Property test: on random partition-shaped LPs the solution must be
// feasible and no sampled feasible point may beat it.
class SimplexRandom : public ::testing::TestWithParam<int> {};

TEST_P(SimplexRandom, OptimalBeatsRandomFeasiblePoints) {
  std::mt19937 rng(GetParam());
  std::uniform_real_distribution<double> cost(-2.0, 2.0);
  std::uniform_real_distribution<double> coeff(0.1, 1.0);

  const int n = 6;
  LinearProgram lp;
  for (int j = 0; j < n; ++j) {
    (void)lp.add_variable("x" + std::to_string(j), 0.0, 1.0, cost(rng),
                          false);
  }
  // A couple of knapsack-style rows keep the box from being trivial.
  for (int r = 0; r < 3; ++r) {
    Constraint c;
    for (int j = 0; j < n; ++j) c.terms.emplace_back(j, coeff(rng));
    c.rel = Relation::kLe;
    c.rhs = 1.5;
    lp.add_constraint(c);
  }
  const auto sol = SimplexSolver().solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_LE(lp.max_violation(sol.x), 1e-6);

  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<double> x(n);
    for (auto& v : x) v = u(rng) * 0.3;  // keep within the knapsacks
    if (lp.max_violation(x) > 1e-9) continue;
    EXPECT_GE(lp.objective_value(x), sol.objective - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandom,
                         ::testing::Range(1, 13));

// ---------------------------------------------------------------------------
// Warm phase-1 re-entry after bound edits
// ---------------------------------------------------------------------------

namespace {

// The classic two-variable LP above (max 3x+5y; optimum x=2, y=6).
LinearProgram classic_lp() {
  LinearProgram lp;
  const int x = lp.add_variable("x", 0.0, kInf, -3.0, false);
  const int y = lp.add_variable("y", 0.0, kInf, -5.0, false);
  lp.add_constraint(make({{x, 1.0}}, Relation::kLe, 4.0));
  lp.add_constraint(make({{y, 2.0}}, Relation::kLe, 12.0));
  lp.add_constraint(make({{x, 3.0}, {y, 2.0}}, Relation::kLe, 18.0));
  return lp;
}

}  // namespace

TEST(SimplexReentry, BoundTightenRepairsFromWarmBasis) {
  const LinearProgram lp = classic_lp();
  SimplexState state(lp, SimplexOptions{});
  const auto cold = state.solve();
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  EXPECT_NEAR(cold.objective, -36.0, 1e-6);
  // The crash basis (origin, slacks basic) is primal feasible here, so
  // the cold solve is not a re-entry.
  EXPECT_EQ(state.telemetry().phase1_reentries, 0u);

  // Tighten y's upper bound below its basic value (6): the basis is now
  // primal infeasible, and phase 1 repairs it from the warm basis.
  state.set_bounds(1, 0.0, 4.0);
  const auto warm = state.solve();
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  EXPECT_NEAR(warm.objective, -30.0, 1e-6);  // x=10/3, y=4
  EXPECT_EQ(state.telemetry().phase1_reentries, 1u);

  // A cold solve of the edited model agrees on the optimum.
  LinearProgram edited = classic_lp();
  edited.set_bounds(1, 0.0, 4.0);
  const auto fresh = SimplexSolver().solve(edited);
  ASSERT_EQ(fresh.status, SolveStatus::kOptimal);
  EXPECT_NEAR(warm.objective, fresh.objective, 1e-6);
}

TEST(SimplexReentry, SurvivesDegenerateTies) {
  // Six scaled copies of x+y<=4 meet at the optimal vertex, so the
  // warm re-solve after the bound edit starts on a wall of ties.
  LinearProgram lp;
  const int x = lp.add_variable("x", 0.0, kInf, -1.0, false);
  const int y = lp.add_variable("y", 0.0, kInf, -1.0, false);
  for (int k = 1; k <= 6; ++k) {
    lp.add_constraint(
        make({{x, static_cast<double>(k)}, {y, static_cast<double>(k)}},
             Relation::kLe, 4.0 * k));
  }
  SimplexState state(lp, SimplexOptions{});
  ASSERT_EQ(state.solve().status, SolveStatus::kOptimal);
  EXPECT_EQ(state.telemetry().phase1_reentries, 0u);

  state.set_bounds(x, 0.0, 1.0);
  state.set_bounds(y, 0.0, 2.0);
  const auto sol = state.solve();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, -3.0, 1e-6);  // x=1, y=2
  EXPECT_EQ(state.telemetry().phase1_reentries, 1u);
}

TEST(SimplexReentry, ShrunkBoxesReportInfeasible) {
  // x+y >= 3 with generous boxes, then shrink both boxes so the row can
  // no longer be satisfied. The warm re-solve must prove primal
  // infeasibility, not spin or mislabel it.
  LinearProgram lp;
  const int x = lp.add_variable("x", 0.0, 2.0, 1.0, false);
  const int y = lp.add_variable("y", 0.0, 2.0, 1.0, false);
  lp.add_constraint(make({{x, 1.0}, {y, 1.0}}, Relation::kGe, 3.0));
  SimplexState state(lp, SimplexOptions{});
  const auto first = state.solve();
  ASSERT_EQ(first.status, SolveStatus::kOptimal);
  EXPECT_NEAR(first.objective, 3.0, 1e-6);
  // The crash basis violates the row, so even the cold solve repairs.
  EXPECT_EQ(state.telemetry().phase1_reentries, 1u);

  state.set_bounds(x, 0.0, 1.0);
  state.set_bounds(y, 0.0, 1.0);
  EXPECT_EQ(state.solve().status, SolveStatus::kInfeasible);
  EXPECT_EQ(state.telemetry().phase1_reentries, 2u);
}

TEST(SimplexReentry, FreeCostedColumnSolves) {
  // A free variable with nonzero cost has no finite bound to rest on;
  // the crash basis violates f >= 3 and phase 1 must still repair it.
  LinearProgram lp;
  const int f = lp.add_variable("f", -kInf, kInf, 1.0, false);
  lp.add_constraint(make({{f, 1.0}}, Relation::kGe, 3.0));
  SimplexState state(lp, SimplexOptions{});
  const auto sol = state.solve();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 3.0, 1e-6);
  EXPECT_EQ(state.telemetry().phase1_reentries, 1u);
}

TEST(SimplexReentry, BoxedColumnOnWrongBoundSolves) {
  // Bound edits can park a boxed nonbasic at the bound its reduced
  // cost does not prefer — the branch-and-bound child-solve common
  // case. The warm re-solve must still reach the edited optimum.
  LinearProgram lp;
  const int x = lp.add_variable("x", 0.0, 5.0, -1.0, false);
  const int y = lp.add_variable("y", 0.0, 5.0, -2.0, false);
  lp.add_constraint(make({{x, 1.0}, {y, 1.0}}, Relation::kLe, 6.0));
  SimplexState state(lp, SimplexOptions{});
  ASSERT_EQ(state.solve().status, SolveStatus::kOptimal);
  // Both columns crash-start at their upper bound 5, past the row.
  EXPECT_EQ(state.telemetry().phase1_reentries, 1u);

  // y rests nonbasic at its upper bound; snapping it onto the shrunk
  // box re-derives the basic x as 5, inside [4, 5]. The warm basis is
  // then primal feasible and phase 2 alone finishes: no re-entry.
  state.set_bounds(x, 4.0, 5.0);
  state.set_bounds(y, 0.0, 1.0);
  const auto sol = state.solve();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, -7.0, 1e-6);  // x=5, y=1
  EXPECT_EQ(state.telemetry().phase1_reentries, 1u);
}

// ---------------------------------------------------------------------------
// load_basis reject reasons
// ---------------------------------------------------------------------------

TEST(BasisReject, ShapeMismatchReported) {
  const LinearProgram lp = classic_lp();
  SimplexState src(lp, SimplexOptions{});
  ASSERT_EQ(src.solve().status, SolveStatus::kOptimal);
  const Basis b = src.extract_basis();

  LinearProgram other;  // 1 variable, 1 row: different shape entirely
  const int x = other.add_variable("x", 0.0, 10.0, 1.0, false);
  other.add_constraint(make({{x, 1.0}}, Relation::kGe, 3.0));
  EXPECT_EQ(b.compatibility_with(other), BasisRejectReason::kShape);
  EXPECT_FALSE(b.compatible_with(other));

  SimplexState dst(other, SimplexOptions{});
  EXPECT_FALSE(dst.load_basis(b));
  EXPECT_EQ(dst.last_load_reject(), BasisRejectReason::kShape);
  // The failed load must leave a solvable cold-start state behind.
  EXPECT_EQ(dst.solve().status, SolveStatus::kOptimal);
}

TEST(BasisReject, StructureMismatchReported) {
  // Same shape (2 variables, 1 row), different sparsity pattern.
  LinearProgram lp_a;
  {
    const int x = lp_a.add_variable("x", 0.0, 4.0, -1.0, false);
    const int y = lp_a.add_variable("y", 0.0, 4.0, -1.0, false);
    lp_a.add_constraint(make({{x, 1.0}, {y, 1.0}}, Relation::kLe, 5.0));
  }
  LinearProgram lp_b;
  {
    const int x = lp_b.add_variable("x", 0.0, 4.0, -1.0, false);
    (void)lp_b.add_variable("y", 0.0, 4.0, -1.0, false);
    lp_b.add_constraint(make({{x, 1.0}}, Relation::kLe, 5.0));
  }
  SimplexState src(lp_a, SimplexOptions{});
  ASSERT_EQ(src.solve().status, SolveStatus::kOptimal);
  const Basis b = src.extract_basis();
  ASSERT_TRUE(b.stamped());

  EXPECT_EQ(b.compatibility_with(lp_a), BasisRejectReason::kNone);
  EXPECT_EQ(b.compatibility_with(lp_b), BasisRejectReason::kStructure);

  SimplexState dst(lp_b, SimplexOptions{});
  EXPECT_FALSE(dst.load_basis(b));
  EXPECT_EQ(dst.last_load_reject(), BasisRejectReason::kStructure);
  EXPECT_EQ(dst.solve().status, SolveStatus::kOptimal);
}

TEST(BasisReject, StaleBoundsBasisLoadsAndResnaps) {
  LinearProgram lp = classic_lp();
  SimplexState src(lp, SimplexOptions{});
  ASSERT_EQ(src.solve().status, SolveStatus::kOptimal);
  const Basis b = src.extract_basis();

  // Bump the model's bound revision after extraction.
  lp.set_bounds(0, 0.0, 3.0);

  // The stale basis loads and nonbasics re-snap onto the current
  // bounds (the serve-layer stale-cache contract).
  SimplexState lenient(lp, SimplexOptions{});
  EXPECT_TRUE(lenient.load_basis(b));
  EXPECT_EQ(lenient.last_load_reject(), BasisRejectReason::kNone);
  EXPECT_EQ(lenient.solve().status, SolveStatus::kOptimal);
}

TEST(Simplex, ViolationsEachWithinToleranceDoNotReadAsInfeasible) {
  // Crash basis: every x_i at its upper bound 1 + 5e-8, so every slack
  // of x_i <= 1 sits 5e-8 below zero — each within the 1e-7 tolerance,
  // but together past it. Pricing charges a phase-1 cost only beyond
  // the tolerance, so phase 1 must not start (it would price all-zero
  // costs and report the feasible LP infeasible); with two such rows
  // the sum stays under the tolerance and the LP always solved.
  for (BasisEngineKind engine :
       {BasisEngineKind::kDense, BasisEngineKind::kLu}) {
    for (int n : {2, 3, 5}) {
      LinearProgram lp;
      for (int i = 0; i < n; ++i) {
        const int x = lp.add_variable("x" + std::to_string(i), 0.0,
                                      1.0 + 5e-8, -1.0, false);
        lp.add_constraint(make({{x, 1.0}}, Relation::kLe, 1.0));
      }
      SimplexOptions opts;
      opts.engine = engine;
      const auto sol = SimplexSolver().solve(lp, opts);
      ASSERT_EQ(sol.status, SolveStatus::kOptimal)
          << engine_name(engine) << " n=" << n;
      EXPECT_NEAR(sol.objective, -static_cast<double>(n), 1e-6);
    }
  }
}
