// Randomized differential testing of the two basis engines: the dense
// Gauss-Jordan inverse (PR 1 reference) and the Markowitz LU + eta-file
// engine must agree on status, objective, solution feasibility, and
// bound-proof outcomes on thousands of generated LPs and MIPs — the
// solver core's correctness oracle.
//
// Trial count: WISHBONE_DIFF_TRIALS sets the per-family instance count
// (default 400, which CI runs: 5 LP families x 400 = 2000 instances
// plus the MIP / warm-chain / medium-LP families on top). Crank it up
// locally, e.g.
//
//   WISHBONE_DIFF_TRIALS=5000 ./build/wishbone_tests \
//       --gtest_filter='LpDifferential*'
//
// Generators (tests/lp_generators.hpp, shared with the serial-vs-
// parallel suite in test_parallel_bnb.cpp) draw coefficients from a
// dyadic grid (multiples of 1/64) so feasibility/optimality margins
// are either exactly zero or far above the solver tolerances —
// instances stay off the tolerance knife-edge where the two engines
// could legitimately disagree, while exact ties (the degenerate family
// exists to produce them) remain.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <random>
#include <string>

#include "ilp/basis_lu.hpp"
#include "ilp/branch_and_bound.hpp"
#include "ilp/simplex.hpp"
#include "lp_generators.hpp"

using namespace wishbone::ilp;

namespace {

using testgen::diff_trials;
using testgen::gen_bounded_lp;
using testgen::gen_degenerate_lp;
using testgen::gen_dense_lp;
using testgen::gen_partition_shaped;
using testgen::gen_sparse_lp;
using testgen::grid;
using testgen::grid_nz;

// ------------------------------------------------------- the oracle

SimplexOptions engine_opts(BasisEngineKind kind) {
  SimplexOptions o;
  o.engine = kind;
  // A short eta file forces the LU engine through its full
  // refactorization cycle on nearly every nontrivial instance, so the
  // harness exercises factorize/eta/refactorize, not just one of them.
  o.refactor_interval = 16;
  return o;
}

std::string describe(const LpSolution& s) {
  return "status=" + std::to_string(static_cast<int>(s.status)) +
         " obj=" + std::to_string(s.objective) +
         " iters=" + std::to_string(s.iterations);
}

/// Solves `lp` with both engines and asserts full agreement.
void expect_engines_agree(const LinearProgram& lp, const std::string& label) {
  const LpSolution dense =
      SimplexSolver().solve(lp, engine_opts(BasisEngineKind::kDense));
  const LpSolution lu =
      SimplexSolver().solve(lp, engine_opts(BasisEngineKind::kLu));
  ASSERT_EQ(dense.status, lu.status)
      << label << "\ndense: " << describe(dense) << "\nlu: " << describe(lu)
      << "\n" << lp.to_text();
  if (dense.status != SolveStatus::kOptimal) return;
  const double tol = 1e-6 * std::max(1.0, std::fabs(dense.objective));
  EXPECT_NEAR(dense.objective, lu.objective, tol) << label;
  EXPECT_LE(lp.max_violation(lu.x), 1e-5)
      << label << ": LU engine returned an infeasible point";
  EXPECT_LE(lp.max_violation(dense.x), 1e-5)
      << label << ": dense engine returned an infeasible point";
}

void run_lp_family(const char* name,
                   LinearProgram (*gen)(std::uint32_t)) {
  const int trials = diff_trials();
  for (int t = 0; t < trials; ++t) {
    const std::uint32_t seed = 1000u + static_cast<std::uint32_t>(t);
    expect_engines_agree(gen(seed),
                         std::string(name) + " seed=" + std::to_string(seed));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace

// --------------------------------------------------------- LP families

TEST(LpDifferential, DenseRandomLps) {
  run_lp_family("dense_lp", gen_dense_lp);
}

TEST(LpDifferential, SparseRandomLps) {
  run_lp_family("sparse_lp", gen_sparse_lp);
}

TEST(LpDifferential, DegenerateLps) {
  run_lp_family("degenerate_lp", gen_degenerate_lp);
}

TEST(LpDifferential, BoundedVariableLps) {
  run_lp_family("bounded_lp", gen_bounded_lp);
}

TEST(LpDifferential, PartitionShapedLps) {
  run_lp_family("partition_lp", [](std::uint32_t seed) {
    return gen_partition_shaped(seed, /*integral=*/false);
  });
}

// ------------------------------------------------- MIPs through B&B

TEST(LpDifferential, PartitionMipsAgreeOnProofs) {
  // Status, incumbent objective, AND the proven bound must match: a
  // basis-engine bug that corrupts duals shows up first in bound
  // proofs (wrongly pruned subtrees), not in incumbents.
  const int trials = std::max(diff_trials() / 2, 25);
  for (int t = 0; t < trials; ++t) {
    const std::uint32_t seed = 9000u + static_cast<std::uint32_t>(t);
    const LinearProgram lp = gen_partition_shaped(seed, /*integral=*/true);

    MipOptions dense_opts, lu_opts;
    dense_opts.lp = engine_opts(BasisEngineKind::kDense);
    lu_opts.lp = engine_opts(BasisEngineKind::kLu);
    const MipResult rd = BranchAndBound().solve(lp, dense_opts);
    const MipResult rl = BranchAndBound().solve(lp, lu_opts);

    ASSERT_EQ(rd.status, rl.status) << "seed=" << seed;
    ASSERT_EQ(rd.has_incumbent, rl.has_incumbent) << "seed=" << seed;
    if (!rd.has_incumbent) continue;
    const double tol = 1e-6 * std::max(1.0, std::fabs(rd.objective));
    EXPECT_NEAR(rd.objective, rl.objective, tol) << "seed=" << seed;
    if (rd.status == SolveStatus::kOptimal) {
      EXPECT_NEAR(rd.best_bound, rl.best_bound, tol) << "seed=" << seed;
    }
    EXPECT_LE(lp.max_violation(rl.x), 1e-5) << "seed=" << seed;
  }
}

// ------------------------- warm-start re-entry chains (B&B bound edits)

TEST(LpDifferential, WarmReentryChainsAgree) {
  // Mimics branch and bound's bound-edit pattern: one persistent state
  // per engine, a chain of random fixings, solve after each edit. The
  // dense state doubles as the oracle for the LU state, and a fresh
  // cold solve cross-checks both (catching drift that a consistent
  // pair of warm states could otherwise share).
  const int chains = std::max(diff_trials() / 4, 25);
  std::mt19937 rng(0xC0FFEE);
  for (int t = 0; t < chains; ++t) {
    const std::uint32_t seed = 20000u + static_cast<std::uint32_t>(t);
    const LinearProgram base = gen_partition_shaped(seed, false);
    LinearProgram edited = base;
    SimplexState dense(base, engine_opts(BasisEngineKind::kDense));
    SimplexState lu(base, engine_opts(BasisEngineKind::kLu));
    const int n = base.num_variables();
    for (int step = 0; step < 5; ++step) {
      const int v = static_cast<int>(rng() % static_cast<unsigned>(n));
      const double b = (rng() % 2) ? 1.0 : 0.0;
      dense.set_bounds(v, b, b);
      lu.set_bounds(v, b, b);
      edited.set_bounds(v, b, b);

      const LpSolution rd = dense.solve();
      const LpSolution rl = lu.solve();
      ASSERT_EQ(rd.status, rl.status)
          << "seed=" << seed << " step=" << step << "\ndense: "
          << describe(rd) << "\nlu: " << describe(rl);
      const LpSolution fresh =
          SimplexSolver().solve(edited, engine_opts(BasisEngineKind::kDense));
      ASSERT_EQ(fresh.status, rd.status) << "seed=" << seed
                                         << " step=" << step;
      if (rd.status != SolveStatus::kOptimal) break;
      const double tol = 1e-6 * std::max(1.0, std::fabs(rd.objective));
      EXPECT_NEAR(rd.objective, rl.objective, tol)
          << "seed=" << seed << " step=" << step;
      EXPECT_NEAR(fresh.objective, rl.objective, tol)
          << "seed=" << seed << " step=" << step;
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------- engine cross product

TEST(LpDifferential, EngineCrossProductAgrees) {
  // The LU engine is the same solver as the dense one: a different
  // pivot walk, identical answers. The dense walk is the oracle.
  const int trials = std::max(diff_trials() / 8, 25);
  for (int t = 0; t < trials; ++t) {
    const std::uint32_t seed = 50000u + static_cast<std::uint32_t>(t);
    const LinearProgram lp = gen_partition_shaped(seed, /*integral=*/false);
    const LpSolution ref =
        SimplexSolver().solve(lp, engine_opts(BasisEngineKind::kDense));
    const std::string label = "lu seed=" + std::to_string(seed);
    const LpSolution got =
        SimplexSolver().solve(lp, engine_opts(BasisEngineKind::kLu));
    ASSERT_EQ(got.status, ref.status)
        << label << "\nref: " << describe(ref)
        << "\ngot: " << describe(got) << "\n" << lp.to_text();
    if (ref.status != SolveStatus::kOptimal) continue;
    const double tol = 1e-6 * std::max(1.0, std::fabs(ref.objective));
    EXPECT_NEAR(got.objective, ref.objective, tol) << label;
    EXPECT_LE(lp.max_violation(got.x), 1e-5) << label << ": infeasible point";
  }
}

// ----------------------------- medium instances (real eta/refactor use)

TEST(LpDifferential, MediumSparseLpsExerciseRefactorization) {
  // Large enough that kAuto itself would pick LU and the eta file
  // cycles through several refactorizations per solve.
  const int trials = std::max(diff_trials() / 20, 5);
  for (int t = 0; t < trials; ++t) {
    const std::uint32_t seed = 31000u + static_cast<std::uint32_t>(t);
    const LinearProgram lp =
        gen_partition_shaped(seed, /*integral=*/false, /*n=*/120);

    SimplexState dense(lp, engine_opts(BasisEngineKind::kDense));
    SimplexState lu(lp, engine_opts(BasisEngineKind::kLu));
    const LpSolution rd = dense.solve();
    const LpSolution rl = lu.solve();
    ASSERT_EQ(rd.status, rl.status) << "seed=" << seed;
    if (rd.status == SolveStatus::kOptimal) {
      const double tol = 1e-6 * std::max(1.0, std::fabs(rd.objective));
      EXPECT_NEAR(rd.objective, rl.objective, tol) << "seed=" << seed;
    }
    if (rl.iterations > 3 * 16) {
      // More pivots than the eta file holds: the solve must have gone
      // through the drift-containment refactorization path.
      EXPECT_GE(lu.basis_stats().refactorizations, 1u) << "seed=" << seed;
    }
    EXPECT_EQ(lu.engine_kind(), BasisEngineKind::kLu);
    EXPECT_EQ(dense.engine_kind(), BasisEngineKind::kDense);
  }
}

// ------------------------------------- basis snapshots across engines

TEST(LpDifferential, BasisSnapshotsPortAcrossEngines) {
  // A Basis is engine-independent: extract from a dense state, load
  // into an LU state (and back) — both must refactorize it and land on
  // the same optimum immediately.
  for (std::uint32_t seed = 41000; seed < 41020; ++seed) {
    const LinearProgram lp = gen_partition_shaped(seed, false);
    SimplexState dense(lp, engine_opts(BasisEngineKind::kDense));
    const LpSolution rd = dense.solve();
    ASSERT_EQ(rd.status, SolveStatus::kOptimal);

    SimplexState lu(lp, engine_opts(BasisEngineKind::kLu));
    ASSERT_TRUE(lu.load_basis(dense.extract_basis())) << "seed=" << seed;
    const LpSolution rl = lu.solve();
    ASSERT_EQ(rl.status, SolveStatus::kOptimal) << "seed=" << seed;
    EXPECT_NEAR(rl.objective, rd.objective, 1e-9) << "seed=" << seed;
    EXPECT_LE(rl.iterations, 2u) << "seed=" << seed;

    SimplexState dense2(lp, engine_opts(BasisEngineKind::kDense));
    ASSERT_TRUE(dense2.load_basis(lu.extract_basis())) << "seed=" << seed;
    const LpSolution rd2 = dense2.solve();
    ASSERT_EQ(rd2.status, SolveStatus::kOptimal) << "seed=" << seed;
    EXPECT_NEAR(rd2.objective, rd.objective, 1e-9) << "seed=" << seed;
  }
}

// ----------------------------------------- engine unit: drift triggers

/// A pivot direction as FTRAN hands it over: values plus the ascending
/// positions of their nonzeros.
IndexedVector indexed(std::vector<double> values) {
  IndexedVector w;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] != 0.0) w.pattern.push_back(static_cast<int>(i));
  }
  w.values = std::move(values);
  return w;
}

TEST(BasisEngineUnit, LuUpdateDeclinesUnstablePivot) {
  // |w_r| tiny relative to max|w|: absorbing this pivot as an eta
  // would amplify error through every later solve — the engine must
  // decline and force a refactorization.
  const BasisEngineOptions opts;
  auto eng = make_basis_engine(BasisEngineKind::kLu, 3, opts);
  std::vector<SparseColumn> cols = {
      {{0, 1.0}}, {{1, 1.0}}, {{2, 1.0}}};
  ASSERT_TRUE(eng->factorize(cols, {0, 1, 2}));
  const IndexedVector w = indexed({1.0, 1e-12, 0.5});
  EXPECT_FALSE(eng->update(1, w));           // unstable leave row
  EXPECT_TRUE(eng->update(0, w));            // stable pivot absorbs fine
  EXPECT_EQ(eng->stats().eta_updates, 1u);
  EXPECT_EQ(eng->stats().eta_len, 1u);
}

TEST(BasisEngineUnit, LuUpdateDeclinesWhenEtaFileFull) {
  BasisEngineOptions opts;
  opts.max_eta = 2;
  auto eng = make_basis_engine(BasisEngineKind::kLu, 2, opts);
  std::vector<SparseColumn> cols = {{{0, 1.0}}, {{1, 1.0}}};
  ASSERT_TRUE(eng->factorize(cols, {0, 1}));
  const IndexedVector w = indexed({1.0, 0.25});
  EXPECT_TRUE(eng->update(0, w));
  EXPECT_TRUE(eng->update(1, w));
  EXPECT_FALSE(eng->update(0, w));  // file full: caller must refactorize
  ASSERT_TRUE(eng->factorize(cols, {0, 1}));
  EXPECT_EQ(eng->stats().eta_len, 0u) << "refactorization clears the file";
  EXPECT_TRUE(eng->update(0, w));
}

TEST(BasisEngineUnit, FactorizeRejectsSingularBasis) {
  for (BasisEngineKind kind :
       {BasisEngineKind::kDense, BasisEngineKind::kLu}) {
    auto eng = make_basis_engine(kind, 2, {});
    // Columns 0 and 1 are linearly dependent.
    std::vector<SparseColumn> cols = {{{0, 1.0}, {1, 2.0}},
                                      {{0, 2.0}, {1, 4.0}},
                                      {{0, 1.0}}};
    EXPECT_FALSE(eng->factorize(cols, {0, 1})) << engine_name(kind);
    EXPECT_TRUE(eng->factorize(cols, {0, 2})) << engine_name(kind);
  }
}

TEST(BasisEngineUnit, AutoResolvesByRowCount) {
  EXPECT_EQ(resolve_engine(BasisEngineKind::kAuto, kAutoDenseCutoff - 1),
            BasisEngineKind::kDense);
  EXPECT_EQ(resolve_engine(BasisEngineKind::kAuto, kAutoDenseCutoff),
            BasisEngineKind::kLu);
  EXPECT_EQ(resolve_engine(BasisEngineKind::kDense, 10000),
            BasisEngineKind::kDense);
  EXPECT_EQ(resolve_engine(BasisEngineKind::kLu, 1),
            BasisEngineKind::kLu);
}

/// LU FTRAN result against the dense engine's: the values agree, the
/// pattern is strictly ascending and covers every nonzero.
void expect_ftran_matches(const IndexedVector& dense, const IndexedVector& lu,
                          const std::string& where) {
  const std::size_t m = dense.values.size();
  ASSERT_EQ(lu.values.size(), m) << where;
  std::vector<char> listed(m, 0);
  for (std::size_t t = 0; t < lu.pattern.size(); ++t) {
    const int i = lu.pattern[t];
    ASSERT_TRUE(i >= 0 && static_cast<std::size_t>(i) < m) << where;
    if (t > 0) {
      ASSERT_LT(lu.pattern[t - 1], i) << where << ": pattern not ascending";
    }
    listed[i] = 1;
  }
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_NEAR(lu.values[i], dense.values[i],
                1e-8 * (1.0 + std::fabs(dense.values[i])))
        << where << " i=" << i;
    if (lu.values[i] != 0.0) {
      EXPECT_TRUE(listed[i]) << where << ": nonzero " << i << " not listed";
    }
  }
}

TEST(LpDifferential, LuEngineMatchesDenseThroughEtaChainsAtScale) {
  // Partition-shaped bases at realistic scale (m = 301, one budget row
  // spanning every indicator), driven pivot by pivot through both
  // engines: eta chains grow until the LU engine's file is full and it
  // refactorizes the walk's current basis, several times over. Every
  // FTRAN (sparse and dense right-hand side), BTRAN and pivot row is
  // compared with the dense oracle.
  for (std::uint32_t seed = 1; seed <= 3; ++seed) {
    const LinearProgram lp = testgen::gen_partition_at_scale(seed);
    const int m = lp.num_constraints();
    ASSERT_GE(m, 200);
    const int n_total = lp.num_variables() + m;
    const std::vector<SparseColumn> cols = testgen::working_columns(lp);
    BasisEngineOptions opts;
    opts.max_eta = 24;
    auto dense = make_basis_engine(BasisEngineKind::kDense, m, opts);
    auto lu = make_basis_engine(BasisEngineKind::kLu, m, opts);
    std::vector<int> basic(m);
    std::vector<char> in_basis(n_total, 0);
    for (int i = 0; i < m; ++i) {
      basic[i] = lp.num_variables() + i;
      in_basis[basic[i]] = 1;
    }
    std::mt19937 rng(seed);
    IndexedVector wd, wl, rhod, rhol;
    std::vector<double> rd, rl, yd(m), yl;
    int pivots = 0;
    for (int step = 0; step < 240; ++step) {
      const std::string where =
          "seed=" + std::to_string(seed) + " step=" + std::to_string(step);
      const int enter = static_cast<int>(rng() % n_total);
      if (in_basis[enter]) continue;
      dense->ftran(cols[enter], wd);
      lu->ftran(cols[enter], wl);
      expect_ftran_matches(wd, wl, where);
      for (int i = 0; i < m; ++i) yd[i] = grid(rng, -1.0, 1.0);
      yl = yd;
      dense->btran(yd);
      lu->btran(yl);
      rd = yd;  // dense right-hand side for ftran_dense
      rl = yd;
      dense->ftran_dense(rd);
      lu->ftran_dense(rl);
      for (int i = 0; i < m; ++i) {
        EXPECT_NEAR(yl[i], yd[i], 1e-8 * (1.0 + std::fabs(yd[i])))
            << where << " btran i=" << i;
        EXPECT_NEAR(rl[i], rd[i], 1e-8 * (1.0 + std::fabs(rd[i])))
            << where << " ftran_dense i=" << i;
      }
      const int r = testgen::largest_entry_row(wl);
      if (r < 0) continue;
      dense->btran_unit(r, rhod);
      lu->btran_unit(r, rhol);
      expect_ftran_matches(rhod, rhol, where + " btran_unit");
      in_basis[basic[r]] = 0;
      basic[r] = enter;
      in_basis[enter] = 1;
      ASSERT_TRUE(dense->update(r, wd)) << where;
      if (!lu->update(r, wl)) {
        // Refresh the oracle with the LU engine so neither carries the
        // other's accumulated update error into the next chain.
        ASSERT_TRUE(lu->factorize(cols, basic)) << where;
        ASSERT_TRUE(dense->factorize(cols, basic)) << where;
      }
      ++pivots;
    }
    EXPECT_GE(pivots, 100) << "seed=" << seed;
    EXPECT_GE(lu->stats().refactorizations, 3u)
        << "seed=" << seed
        << ": the eta chains never reached a refactorization";
  }
}

TEST(BasisEngineUnit, FtranBtranMatchDenseOnRandomBases) {
  // Same factorized basis, same right-hand sides: the two engines'
  // FTRAN/BTRAN must agree to near machine precision.
  std::mt19937 rng(99);
  for (int t = 0; t < 50; ++t) {
    const int m = 2 + static_cast<int>(rng() % 12);
    std::vector<SparseColumn> cols(m);
    for (int j = 0; j < m; ++j) {
      for (int i = 0; i < m; ++i) {
        if (i != j && rng() % 3 == 0) {
          cols[j].emplace_back(i, grid_nz(rng, -1, 1));
        }
      }
      cols[j].emplace_back(j, 8.0 + grid(rng, 0.0, 1.0));  // diag dominant
    }
    std::vector<int> basic(m);
    for (int i = 0; i < m; ++i) basic[i] = i;

    auto dense = make_basis_engine(BasisEngineKind::kDense, m, {});
    auto lu = make_basis_engine(BasisEngineKind::kLu, m, {});
    ASSERT_TRUE(dense->factorize(cols, basic));
    ASSERT_TRUE(lu->factorize(cols, basic));

    SparseColumn a;
    for (int i = 0; i < m; ++i) {
      if (rng() % 2) a.emplace_back(i, grid_nz(rng, -2, 2));
    }
    IndexedVector fd, fl;
    dense->ftran(a, fd);
    lu->ftran(a, fl);
    for (int i = 0; i < m; ++i) {
      EXPECT_NEAR(fd.values[i], fl.values[i], 1e-8) << "t=" << t << " i=" << i;
    }

    std::vector<double> yd(m), yl;
    for (int i = 0; i < m; ++i) yd[i] = grid(rng, -1, 1);
    yl = yd;
    dense->btran(yd);
    lu->btran(yl);
    for (int i = 0; i < m; ++i) {
      EXPECT_NEAR(yd[i], yl[i], 1e-8) << "t=" << t << " i=" << i;
    }
  }
}

TEST(BasisEngineUnit, BtranUnitMatchesDenseBtranThroughEtaChains) {
  // Row r of B^-1 from the hypersparse BTRAN-unit against the same
  // engine's dense BTRAN of e_r, along pivot walks whose eta chains run
  // into refactorizations: the values agree to 1e-12, and the pattern
  // is strictly ascending and lists every nonzero.
  for (BasisEngineKind kind :
       {BasisEngineKind::kDense, BasisEngineKind::kLu}) {
    for (std::uint32_t seed = 1; seed <= 2; ++seed) {
      const LinearProgram lp = testgen::gen_partition_at_scale(seed);
      const int m = lp.num_constraints();
      const int n_total = lp.num_variables() + m;
      const std::vector<SparseColumn> cols = testgen::working_columns(lp);
      BasisEngineOptions opts;
      opts.max_eta = 24;
      auto eng = make_basis_engine(kind, m, opts);
      std::vector<int> basic(m);
      std::vector<char> in_basis(n_total, 0);
      for (int i = 0; i < m; ++i) {
        basic[i] = lp.num_variables() + i;
        in_basis[basic[i]] = 1;
      }
      ASSERT_TRUE(eng->factorize(cols, basic));
      std::mt19937 rng(seed);
      IndexedVector w, rho;
      std::vector<double> unit(m);
      std::size_t max_nnz = 0;
      for (int step = 0; step < 160; ++step) {
        const int enter = static_cast<int>(rng() % n_total);
        if (in_basis[enter]) continue;
        eng->ftran(cols[enter], w);
        const int leave = testgen::largest_entry_row(w);
        if (leave < 0) continue;
        for (int probe = 0; probe < 3; ++probe) {
          const int r = probe == 0 ? leave : static_cast<int>(rng() % m);
          const std::string where = std::string(engine_name(kind)) +
                                    " seed=" + std::to_string(seed) +
                                    " step=" + std::to_string(step) +
                                    " r=" + std::to_string(r);
          eng->btran_unit(r, rho);
          std::fill(unit.begin(), unit.end(), 0.0);
          unit[r] = 1.0;
          eng->btran(unit);
          ASSERT_EQ(rho.values.size(), static_cast<std::size_t>(m)) << where;
          std::vector<char> listed(m, 0);
          for (std::size_t t = 0; t < rho.pattern.size(); ++t) {
            if (t > 0) {
              ASSERT_LT(rho.pattern[t - 1], rho.pattern[t])
                  << where << ": pattern not strictly ascending";
            }
            listed[rho.pattern[t]] = 1;
          }
          for (int i = 0; i < m; ++i) {
            EXPECT_NEAR(rho.values[i], unit[i],
                        1e-12 * (1.0 + std::fabs(unit[i])))
                << where << " i=" << i;
            if (rho.values[i] != 0.0 || unit[i] != 0.0) {
              EXPECT_TRUE(listed[i]) << where << ": nonzero " << i
                                     << " not listed";
            }
          }
          max_nnz = std::max(max_nnz, rho.pattern.size());
        }
        in_basis[basic[leave]] = 0;
        basic[leave] = enter;
        in_basis[enter] = 1;
        if (!eng->update(leave, w)) {
          ASSERT_TRUE(eng->factorize(cols, basic));
        }
      }
      EXPECT_GT(max_nnz, 1u) << engine_name(kind) << ": only unit rows seen";
      if (kind == BasisEngineKind::kLu) {
        EXPECT_GE(eng->stats().refactorizations, 3u)
            << "seed=" << seed
            << ": the eta chains never reached a refactorization";
      }
    }
  }
}

// ---------------------------------------- maintained reduced costs

namespace {

/// Reduced costs of `state`'s current basis, recomputed from scratch on
/// a freshly factorized engine: nonbasic columns rest on the bound
/// at_upper names (0 when free), basic values solve B x_B = b - N x_N,
/// and the costs are the true objective or, for phase 1, +/-1 on the
/// basics more than eps outside a bound.
std::vector<double> fresh_reduced_costs(const LinearProgram& lp,
                                        const SimplexState& state,
                                        bool phase1, double eps) {
  const int n = lp.num_variables();
  const int m = lp.num_constraints();
  const std::vector<SparseColumn> cols = testgen::working_columns(lp);
  const Basis basis = state.extract_basis();
  std::vector<double> lo(n + m), up(n + m), cost(n + m, 0.0), xb(m);
  for (int j = 0; j < n; ++j) {
    lo[j] = state.lower(j);
    up[j] = state.upper(j);
    cost[j] = lp.objective_coeff(j);
  }
  for (int i = 0; i < m; ++i) {
    const Constraint& c = lp.constraints()[i];
    xb[i] = (c.rel == Relation::kGe ? -1.0 : 1.0) * c.rhs;
    lo[n + i] = 0.0;
    up[n + i] = c.rel == Relation::kEq ? 0.0 : kInf;
  }
  auto eng = make_basis_engine(BasisEngineKind::kLu, m);
  EXPECT_TRUE(eng->factorize(cols, basis.basic));
  std::vector<char> is_basic(n + m, 0);
  for (int v : basis.basic) is_basic[v] = 1;
  std::vector<double> y(m);
  if (phase1) {
    for (int j = 0; j < n + m; ++j) {
      if (is_basic[j]) continue;
      double x = 0.0;
      if (basis.at_upper[j] && std::isfinite(up[j])) {
        x = up[j];
      } else if (std::isfinite(lo[j])) {
        x = lo[j];
      } else if (std::isfinite(up[j])) {
        x = up[j];
      }
      for (const auto& [row, coeff] : cols[j]) xb[row] -= coeff * x;
    }
    eng->ftran_dense(xb);
    for (int i = 0; i < m; ++i) {
      const int v = basis.basic[i];
      y[i] = xb[i] > up[v] + eps ? 1.0 : (xb[i] < lo[v] - eps ? -1.0 : 0.0);
    }
  } else {
    for (int i = 0; i < m; ++i) y[i] = cost[basis.basic[i]];
  }
  eng->btran(y);
  std::vector<double> d(n + m, 0.0);
  for (int j = 0; j < n + m; ++j) {
    if (is_basic[j]) continue;
    d[j] = phase1 ? 0.0 : cost[j];
    for (const auto& [row, coeff] : cols[j]) d[j] -= y[row] * coeff;
  }
  return d;
}

struct DriftTally {
  int compared = 0;       ///< stops whose maintained d was checked
  int mid_eta_chain = 0;  ///< of those, with a nonempty LU eta file
  int past_refactor = 0;  ///< of those, after a mid-walk refactorization
};

/// Replays one deterministic walk, stopping it after every `stride`-th
/// iteration (a fresh state per stop: `prepare` loads the start basis
/// and bound edits, then solve() runs into the iteration limit), and
/// compares the maintained reduced costs with fresh_reduced_costs.
/// `walk_len` is the walk's length without a limit.
void expect_maintained_costs_match(
    const LinearProgram& lp, SimplexOptions opts, std::size_t walk_len,
    std::size_t stride,
    const std::function<void(SimplexState&)>& prepare, DriftTally& tally,
    const std::string& where) {
  for (std::size_t k = 1; k < walk_len; k += stride) {
    opts.max_iterations = k;
    SimplexState state(lp, opts);
    prepare(state);
    const std::size_t refacs = state.basis_stats().refactorizations;
    const LpSolution sol = state.solve();
    if (sol.status != SolveStatus::kIterationLimit) continue;
    const SimplexState::Costs costs = state.maintained_costs();
    if (costs == SimplexState::Costs::kNone) continue;  // stale: rebuilds
    const std::vector<double> fresh = fresh_reduced_costs(
        lp, state, costs == SimplexState::Costs::kPhase1, opts.eps);
    const std::vector<double>& d = state.maintained_reduced_costs();
    ASSERT_EQ(d.size(), fresh.size()) << where;
    for (std::size_t j = 0; j < d.size(); ++j) {
      ASSERT_NEAR(d[j], fresh[j], 1e-9 * (1.0 + std::fabs(fresh[j])))
          << where << " k=" << k << " j=" << j << " phase "
          << (costs == SimplexState::Costs::kPhase1 ? 1 : 2);
    }
    ++tally.compared;
    if (state.basis_stats().eta_len > 0) ++tally.mid_eta_chain;
    if (state.basis_stats().refactorizations > refacs) ++tally.past_refactor;
  }
}

/// Cold walks and warm walks (phase-1 re-solves from the optimal basis
/// after branching-style bound cuts) of `lp`, both engines.
void check_maintained_costs(const LinearProgram& lp, std::size_t checks,
                            DriftTally& tally, const std::string& where) {
  for (BasisEngineKind kind :
       {BasisEngineKind::kDense, BasisEngineKind::kLu}) {
    SimplexOptions opts;
    opts.engine = kind;
    opts.refactor_interval = 8;
    const std::string tag = where + " " + engine_name(kind);

    SimplexState full(lp, opts);
    const LpSolution cold = full.solve();
    expect_maintained_costs_match(
        lp, opts, cold.iterations, std::max<std::size_t>(1, cold.iterations / checks),
        [](SimplexState&) {}, tally, tag + " cold");
    if (cold.status != SolveStatus::kOptimal) continue;

    // Cut the first few fractional structurals to their lower half.
    std::vector<std::pair<int, double>> cuts;
    for (int v = 0; v < lp.num_variables() && cuts.size() < 3; ++v) {
      const double lo = full.lower(v);
      if (std::isfinite(lo) && cold.x[v] > lo + 1e-3 &&
          cold.x[v] < full.upper(v) - 1e-3) {
        cuts.emplace_back(v, lo + 0.5 * (cold.x[v] - lo));
      }
    }
    if (cuts.empty()) continue;
    const Basis start = full.extract_basis();
    const auto prepare = [&](SimplexState& s) {
      ASSERT_TRUE(s.load_basis(start));
      for (const auto& [v, up] : cuts) s.set_bounds(v, s.lower(v), up);
    };
    SimplexState probe(lp, opts);
    prepare(probe);
    const LpSolution warm = probe.solve();
    expect_maintained_costs_match(
        lp, opts, warm.iterations, std::max<std::size_t>(1, warm.iterations / checks),
        prepare, tally, tag + " warm");
  }
}

}  // namespace

TEST(LpDifferential, MaintainedReducedCostsMatchFreshRecompute) {
  // The reduced costs both phases price from are updated along pivot
  // rows, never recomputed, between rebuilds. Stopped anywhere in a
  // cold or warm walk, they must equal a from-scratch recompute over
  // the current basis to 1e-9 relative — through eta chains, bound
  // flips, phase-1 cost folds and refactorizations.
  DriftTally tally;
  for (std::uint32_t seed = 1; seed <= 40; ++seed) {
    check_maintained_costs(gen_sparse_lp(seed), 1000, tally,
                           "sparse seed=" + std::to_string(seed));
    check_maintained_costs(gen_bounded_lp(seed), 1000, tally,
                           "bounded seed=" + std::to_string(seed));
    check_maintained_costs(gen_partition_shaped(seed, false), 1000, tally,
                           "partition seed=" + std::to_string(seed));
  }
  check_maintained_costs(testgen::gen_partition_at_scale(3), 12, tally,
                         "at-scale seed=3");
  EXPECT_GE(tally.compared, 1000);
  EXPECT_GE(tally.mid_eta_chain, 400);
  EXPECT_GE(tally.past_refactor, 100);
}
