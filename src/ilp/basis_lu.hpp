// Basis factorization engines for the revised simplex.
//
// `SimplexState` needs five operations on the basis matrix B (the m
// columns of the working constraint matrix currently basic):
//
//   factorize   rebuild the factorization from the basis columns
//   ftran       x = B^-1 a            (pivot directions, basic values)
//   btran       y = B^-T c            (duals: rebuilding the reduced costs)
//   btran_unit  rho = B^-T e_r        (row r of B^-1: the pivot row the
//               simplex updates its reduced costs from)
//   update      absorb one pivot: column `leave_row` of B replaced by
//               the entering column whose FTRAN image is `w`
//
// Two engines implement this contract:
//
//  - `DenseBasisEngine` maintains an explicit dense m x m inverse by
//    Gauss-Jordan (the PR 1 solver). O(m^2) per pivot and per solve,
//    O(m^3) per refactorization — exact reference implementation.
//  - `LuBasisEngine` keeps a sparse LU factorization chosen by
//    Markowitz pivoting (fill-minimizing merit, threshold stability)
//    plus a product-form eta file: each pivot appends one sparse eta
//    vector instead of touching m^2 entries, and the factorization is
//    rebuilt only when the eta file hits `max_eta` or a pivot is too
//    unstable to absorb (update() returns false and the caller
//    refactorizes). Its work follows the nonzeros it touches, not m:
//    FTRAN and BTRAN-unit cost O(reach) (the symbolic reach of the
//    right-hand side through L, U and the eta file), update()
//    O(nnz(w)), and factorize() updates the active rows in place. Only
//    the full BTRAN, which the simplex runs when it rebuilds its reduced
//    costs, stays a dense O(m + nnz(L) + nnz(U) + nnz(etas)) pass.
//
// The engines are numerically interchangeable; the randomized
// differential harness (tests/test_lp_differential.cpp) pits them
// against each other on thousands of generated LPs/MIPs.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace wishbone::ilp {

/// One working-form column: (constraint row, coefficient) pairs.
using SparseColumn = std::vector<std::pair<int, double>>;

/// A dense m-vector plus the ascending list of the positions that may
/// hold a nonzero; every entry outside `pattern` is exactly zero. FTRAN
/// and BTRAN-unit return their results in this form so the simplex
/// loops (ratio tests, basic-value step, eta update, pivot row) walk
/// the pattern instead of 0..m-1 — in ascending order, so ties break
/// and sums accumulate exactly as a dense walk would.
struct IndexedVector {
  std::vector<double> values;
  std::vector<int> pattern;
};

enum class BasisEngineKind {
  kAuto,   ///< resolve by row count: dense for small m, LU otherwise
  kDense,  ///< explicit dense inverse (PR 1 reference path)
  kLu,     ///< Markowitz sparse LU + eta-file updates
};

/// kAuto picks the dense engine strictly below this many rows; at this
/// size and above the sparse LU's per-pivot advantage dominates the
/// permutation/scatter overhead.
inline constexpr int kAutoDenseCutoff = 48;

[[nodiscard]] BasisEngineKind resolve_engine(BasisEngineKind kind, int m);

[[nodiscard]] const char* engine_name(BasisEngineKind kind);

struct BasisEngineStats {
  std::size_t refactorizations = 0;  ///< full factorizations performed
  std::size_t eta_updates = 0;       ///< pivots absorbed into the eta file
  std::size_t eta_len = 0;           ///< current eta-file length
  std::size_t eta_len_peak = 0;      ///< longest eta file ever held
  std::size_t factor_nnz = 0;        ///< nnz(L)+nnz(U) of the last LU
  /// Work counts (deterministic, no clocks): sparse-column FTRANs, the
  /// summed size of their result patterns, and the entries factorize()'s
  /// row updates visit — row entries updated, cancelled or filled in,
  /// plus the column-list entries scanned to find them; full BTRANs;
  /// BTRAN-units and the summed size of their result patterns.
  std::size_t ftran_calls = 0;
  std::size_t ftran_nnz = 0;
  std::size_t factor_row_entries = 0;
  std::size_t btran_calls = 0;
  std::size_t btran_unit_calls = 0;
  std::size_t btran_unit_nnz = 0;
};

struct BasisEngineOptions {
  double pivot_eps = 1e-9;      ///< singularity threshold in factorize()
  double markowitz_tau = 0.05;  ///< stability: |pivot| >= tau * row max
  std::size_t max_eta = 64;     ///< refactorize when the eta file is full
  double eta_drop = 1e-14;      ///< eta entries below this are dropped
  double eta_stab = 1e-7;       ///< min |w_r| / max|w| for an eta update
};

class BasisEngine {
 public:
  virtual ~BasisEngine() = default;

  [[nodiscard]] virtual BasisEngineKind kind() const = 0;

  /// Resets to the factorization of the identity basis (all slacks).
  virtual void set_identity() = 0;

  /// Factorizes the basis whose i-th column is cols[basic[i]].
  /// Returns false when the basis is numerically singular (the engine
  /// is then unusable until the next successful factorize).
  [[nodiscard]] virtual bool factorize(const std::vector<SparseColumn>& cols,
                                       const std::vector<int>& basic) = 0;

  /// out = B^-1 a for a sparse column `a`. `out` is either empty or
  /// the untouched result of an earlier ftran (its old pattern is
  /// cleared); on return out.values has size m and out.pattern lists,
  /// strictly ascending, a superset of the result's nonzeros.
  virtual void ftran(const SparseColumn& a, IndexedVector& out) const = 0;

  /// In-place x = B^-1 x for a dense right-hand side.
  virtual void ftran_dense(std::vector<double>& x) const = 0;

  /// In-place y = B^-T y (i.e. y^T = y_in^T B^-1): basic costs in,
  /// duals out.
  virtual void btran(std::vector<double>& y) const = 0;

  /// out = B^-T e_r — row r of the basis inverse (rho^T = e_r^T B^-1),
  /// from which the simplex builds its pivot row. Same `out` contract as
  /// ftran: the pattern lists, strictly ascending, a superset of the
  /// nonzeros. The dense engine reads the row straight out of its
  /// explicit inverse; the LU engine runs a hypersparse BTRAN that
  /// visits only the etas, U steps and L steps e_r can reach.
  virtual void btran_unit(int r, IndexedVector& out) const = 0;

  /// Absorbs a pivot: basis column `leave_row` replaced by the column
  /// whose FTRAN image is `w` (the simplex pivot direction, as ftran
  /// returned it). Returns false when the engine declines — eta file
  /// full or the pivot too unstable — in which case the caller must
  /// refactorize() instead.
  [[nodiscard]] virtual bool update(int leave_row, const IndexedVector& w) = 0;

  [[nodiscard]] const BasisEngineStats& stats() const { return stats_; }

 protected:
  mutable BasisEngineStats stats_;  ///< const solves advance the work counts
};

/// Creates an engine for an m-row basis; kAuto is resolved here.
[[nodiscard]] std::unique_ptr<BasisEngine> make_basis_engine(
    BasisEngineKind kind, int m, const BasisEngineOptions& opts = {});

}  // namespace wishbone::ilp
