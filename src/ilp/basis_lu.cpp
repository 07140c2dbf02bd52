#include "ilp/basis_lu.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/assert.hpp"

namespace wishbone::ilp {

BasisEngineKind resolve_engine(BasisEngineKind kind, int m) {
  if (kind != BasisEngineKind::kAuto) return kind;
  return m < kAutoDenseCutoff ? BasisEngineKind::kDense
                              : BasisEngineKind::kLu;
}

const char* engine_name(BasisEngineKind kind) {
  switch (kind) {
    case BasisEngineKind::kAuto: return "auto";
    case BasisEngineKind::kDense: return "dense";
    case BasisEngineKind::kLu: return "lu";
  }
  return "?";
}

namespace {

// ---------------------------------------------------------------- dense

/// Explicit dense inverse maintained by Gauss-Jordan elimination and
/// elementary row updates — the PR 1 solver core, kept verbatim as the
/// reference implementation the LU engine is differentially tested
/// against.
class DenseBasisEngine final : public BasisEngine {
 public:
  DenseBasisEngine(int m, const BasisEngineOptions& opts)
      : m_(m), opts_(opts) {
    set_identity();
  }

  [[nodiscard]] BasisEngineKind kind() const override {
    return BasisEngineKind::kDense;
  }

  void set_identity() override {
    binv_.assign(static_cast<std::size_t>(m_) * m_, 0.0);
    for (int i = 0; i < m_; ++i) at(i, i) = 1.0;
  }

  [[nodiscard]] bool factorize(const std::vector<SparseColumn>& cols,
                               const std::vector<int>& basic) override {
    // binv_ = B^-1 by Gauss-Jordan with partial pivoting, where column
    // i of B is the constraint column of basic[i].
    std::vector<double>& B = b_scratch_;
    B.assign(static_cast<std::size_t>(m_) * m_, 0.0);
    for (int i = 0; i < m_; ++i) {
      for (const auto& [row, coeff] : cols[basic[i]]) {
        B[static_cast<std::size_t>(row) * m_ + i] = coeff;
      }
    }
    set_identity();
    for (int col = 0; col < m_; ++col) {
      int piv = -1;
      double best = opts_.pivot_eps;
      for (int r = col; r < m_; ++r) {
        const double a = std::fabs(B[static_cast<std::size_t>(r) * m_ + col]);
        if (a > best) {
          best = a;
          piv = r;
        }
      }
      if (piv < 0) return false;  // singular basis
      if (piv != col) {
        for (int c = 0; c < m_; ++c) {
          std::swap(B[static_cast<std::size_t>(piv) * m_ + c],
                    B[static_cast<std::size_t>(col) * m_ + c]);
          std::swap(at(piv, c), at(col, c));
        }
      }
      const double d = B[static_cast<std::size_t>(col) * m_ + col];
      for (int c = 0; c < m_; ++c) {
        B[static_cast<std::size_t>(col) * m_ + c] /= d;
        at(col, c) /= d;
      }
      for (int r = 0; r < m_; ++r) {
        if (r == col) continue;
        const double f = B[static_cast<std::size_t>(r) * m_ + col];
        if (f == 0.0) continue;
        for (int c = 0; c < m_; ++c) {
          B[static_cast<std::size_t>(r) * m_ + c] -=
              f * B[static_cast<std::size_t>(col) * m_ + c];
          at(r, c) -= f * at(col, c);
        }
      }
    }
    ++stats_.refactorizations;
    return true;
  }

  void ftran(const SparseColumn& a, IndexedVector& out) const override {
    std::vector<double>& v = out.values;
    v.assign(m_, 0.0);
    for (const auto& [row, coeff] : a) {
      if (coeff == 0.0) continue;
      for (int i = 0; i < m_; ++i) v[i] += at(i, row) * coeff;
    }
    out.pattern.clear();
    for (int i = 0; i < m_; ++i) {
      if (v[i] != 0.0) out.pattern.push_back(i);
    }
    ++stats_.ftran_calls;
    stats_.ftran_nnz += out.pattern.size();
  }

  void ftran_dense(std::vector<double>& x) const override {
    std::vector<double>& tmp = scratch_;
    tmp.assign(m_, 0.0);
    for (int i = 0; i < m_; ++i) {
      double v = 0.0;
      for (int k = 0; k < m_; ++k) v += at(i, k) * x[k];
      tmp[i] = v;
    }
    x = tmp;
  }

  void btran(std::vector<double>& y) const override {
    // y_out^T = y_in^T * Binv; the input (basic costs) is usually
    // sparse, so accumulate row-wise and skip zero rows.
    std::vector<double>& tmp = scratch_;
    tmp.assign(m_, 0.0);
    for (int i = 0; i < m_; ++i) {
      const double cb = y[i];
      if (cb == 0.0) continue;
      for (int k = 0; k < m_; ++k) tmp[k] += cb * at(i, k);
    }
    y = tmp;
    ++stats_.btran_calls;
  }

  void btran_unit(int r, IndexedVector& out) const override {
    // e_r^T * Binv is literally row r of the explicit inverse.
    out.values.resize(m_);
    out.pattern.clear();
    for (int k = 0; k < m_; ++k) {
      out.values[k] = at(r, k);
      if (out.values[k] != 0.0) out.pattern.push_back(k);
    }
    ++stats_.btran_unit_calls;
    stats_.btran_unit_nnz += out.pattern.size();
  }

  [[nodiscard]] bool update(int leave_row, const IndexedVector& iw) override {
    // Elementary row update: eliminate the entering column from all
    // other rows of the inverse.
    const std::vector<double>& w = iw.values;
    const double piv = w[leave_row];
    WB_ASSERT_MSG(std::fabs(piv) > opts_.pivot_eps, "degenerate pivot");
    for (int c = 0; c < m_; ++c) at(leave_row, c) /= piv;
    for (int k = 0; k < m_; ++k) {
      if (k == leave_row || std::fabs(w[k]) < 1e-14) continue;
      const double f = w[k];
      for (int c = 0; c < m_; ++c) at(k, c) -= f * at(leave_row, c);
    }
    return true;
  }

 private:
  double& at(int r, int c) {
    return binv_[static_cast<std::size_t>(r) * m_ + c];
  }
  [[nodiscard]] double at(int r, int c) const {
    return binv_[static_cast<std::size_t>(r) * m_ + c];
  }

  const int m_;
  const BasisEngineOptions opts_;
  std::vector<double> binv_;
  std::vector<double> b_scratch_;
  mutable std::vector<double> scratch_;
};

// ------------------------------------------------------------------- LU

/// Entries of magnitude at or below this are dropped from the active
/// submatrix during elimination (cancellation).
constexpr double kFactorDrop = 1e-14;

/// Sparse LU with Markowitz pivoting plus a product-form eta file.
///
/// factorize() runs Gaussian elimination on the sparse basis matrix,
/// choosing each pivot by the Markowitz merit (r_i - 1)(c_j - 1) among
/// entries passing the threshold test |a_ij| >= tau * max|row i|. The
/// result is stored as the row/column pivot orders p/q, the multiplier
/// sets L_k, and the upper-triangular rows U_k (original indices, so no
/// explicit permutation matrices are needed). The active rows are
/// updated in place: an eliminated or cancelled entry becomes a
/// tombstone, fill-in is appended, and each column's row list carries
/// the entry's position in its row, so a row update touches only the
/// pivot row's columns — never the whole (possibly long) target row.
/// Entry order within a row is the order a scatter-and-rebuild would
/// produce, so pivot choices and the factors do not depend on it.
///
/// Each simplex pivot appends one eta vector to a flat arena: with
/// w = B^-1 a_enter, the new basis is B' = B E where E is the identity
/// with column r (the leaving row) replaced by w, so B'^-1 = E^-1 B^-1
/// and
///
///   FTRAN  apply E^-1 after the LU solve:   t = v_r / w_r,
///          v_i -= w_i t (i != r), v_r = t
///   BTRAN  apply E^-T before the LU solve:  c_r -= (c.w - c_r) / w_r
///
/// applied chronologically (FTRAN) / reverse-chronologically (BTRAN).
/// update() declines (returns false) when the eta file is full or
/// |w_r| is too small relative to max|w| — the numerical-drift guard —
/// and the caller refactorizes from the new basis instead.
///
/// FTRAN is hypersparse (Gilbert-Peierls): it first finds the symbolic
/// reach of the right-hand side — the pivot steps of L it can touch,
/// then the steps of U (through a column-wise index of U) — and runs
/// the numeric passes over that reach only, in the order a dense solve
/// uses (ascending steps for L and the etas, descending for U, the same
/// row-wise U dot products). Every nonzero it produces is therefore bit
/// for bit the one the dense passes would produce, and the solve costs
/// O(reach) instead of O(m). BTRAN-unit mirrors it for e_r: the etas
/// that read a nonzero (through a flat, append-only position -> etas
/// index), then the reach through U^T (the U rows themselves) and L^T
/// (a row-wise index of L), with the numeric passes in the dense
/// BTRAN's order. All storage keeps its capacity across calls.
class LuBasisEngine final : public BasisEngine {
 public:
  LuBasisEngine(int m, const BasisEngineOptions& opts) : m_(m), opts_(opts) {
    const auto mz = static_cast<std::size_t>(m_);
    p_.resize(mz);
    q_.resize(mz);
    step_of_row_.resize(mz);
    diag_.resize(mz);
    ucol_start_.assign(mz + 1, 0);
    ucol_next_.resize(mz);
    rows_.resize(mz);
    rowlen_.resize(mz);
    row_tiny_.resize(mz);
    row_active_.resize(mz);
    colrows_.resize(mz);
    colcount_.resize(mz);
    buckets_.resize(mz + 1);
    step_of_col_.resize(mz);
    lrow_start_.assign(mz + 1, 0);
    eta_head_.assign(mz, -1);
    work_.assign(mz, 0.0);
    step_mark_.assign(mz, 0);
    pos_mark_.assign(mz, 0);
    reach_.reserve(mz);
    cols_nz_.reserve(mz);
    btran_z_.resize(mz);
    set_identity();
  }

  [[nodiscard]] BasisEngineKind kind() const override {
    return BasisEngineKind::kLu;
  }

  void set_identity() override {
    for (int k = 0; k < m_; ++k) {
      p_[k] = k;
      q_[k] = k;
      step_of_row_[k] = k;
      step_of_col_[k] = k;
      diag_[k] = 1.0;
    }
    l_start_.assign(static_cast<std::size_t>(m_) + 1, 0);
    u_start_.assign(static_cast<std::size_t>(m_) + 1, 0);
    l_idx_.clear();
    l_val_.clear();
    u_idx_.clear();
    u_val_.clear();
    std::fill(ucol_start_.begin(), ucol_start_.end(), 0);
    ucol_step_.clear();
    std::fill(lrow_start_.begin(), lrow_start_.end(), 0);
    lrow_step_.clear();
    clear_etas();
    stats_.factor_nnz = static_cast<std::size_t>(m_);
  }

  [[nodiscard]] bool factorize(const std::vector<SparseColumn>& cols,
                               const std::vector<int>& basic) override;

  void ftran(const SparseColumn& a, IndexedVector& out) const override {
    begin_solve();
    for (const auto& [row, coeff] : a) {
      work_[row] += coeff;
      reach_step(step_of_row_[row]);
    }
    solve(out);
    ++stats_.ftran_calls;
    stats_.ftran_nnz += out.pattern.size();
  }

  void ftran_dense(std::vector<double>& x) const override {
    begin_solve();
    for (int i = 0; i < m_; ++i) {
      if (x[i] == 0.0) continue;
      work_[i] = x[i];
      reach_step(step_of_row_[i]);
    }
    solve(dense_out_);
    x = dense_out_.values;
  }

  void btran(std::vector<double>& y) const override {
    dense_btran(y);
    ++stats_.btran_calls;
  }

  void btran_unit(int r, IndexedVector& out) const override;

  [[nodiscard]] bool update(int leave_row, const IndexedVector& w) override {
    if (eta_r_.size() >= opts_.max_eta) return false;  // file full
    double wmax = 0.0;
    for (int i : w.pattern) wmax = std::max(wmax, std::fabs(w.values[i]));
    const double wr = w.values[leave_row];
    // Drift guard: a pivot tiny relative to the direction it came from
    // would amplify error through every later eta application.
    if (std::fabs(wr) <= opts_.pivot_eps ||
        std::fabs(wr) < opts_.eta_stab * wmax) {
      return false;
    }
    const int e = static_cast<int>(eta_r_.size());
    eta_r_.push_back(leave_row);
    eta_wr_.push_back(wr);
    if (eta_mark_.size() < eta_r_.size()) eta_mark_.push_back(0);
    link_eta(leave_row, e);
    for (int i : w.pattern) {
      const double wi = w.values[i];
      if (i != leave_row && std::fabs(wi) > opts_.eta_drop) {
        eta_idx_.push_back(i);
        eta_val_.push_back(wi);
        link_eta(i, e);
      }
    }
    eta_start_.push_back(static_cast<int>(eta_idx_.size()));
    ++stats_.eta_updates;
    stats_.eta_len = eta_r_.size();
    stats_.eta_len_peak = std::max(stats_.eta_len_peak, stats_.eta_len);
    return true;
  }

 private:
  void clear_etas() {
    eta_r_.clear();
    eta_wr_.clear();
    eta_start_.assign(1, 0);
    eta_idx_.clear();
    eta_val_.clear();
    std::fill(eta_head_.begin(), eta_head_.end(), -1);
    link_eta_.clear();
    link_next_.clear();
    stats_.eta_len = 0;
  }

  /// Records that eta e reads basis position i (BTRAN-unit's index).
  void link_eta(int i, int e) {
    link_eta_.push_back(e);
    link_next_.push_back(eta_head_[i]);
    eta_head_[i] = static_cast<int>(link_eta_.size()) - 1;
  }

  /// Starts a solve: a fresh mark stamp and an empty reach.
  void begin_solve() const {
    next_stamp();
    reach_.clear();
  }

  void next_stamp() const {
    if (++stamp_ == 0) {  // wrapped: no stale mark may equal a new stamp
      std::fill(step_mark_.begin(), step_mark_.end(), 0);
      std::fill(pos_mark_.begin(), pos_mark_.end(), 0);
      std::fill(eta_mark_.begin(), eta_mark_.end(), 0);
      stamp_ = 1;
    }
  }

  void reach_step(int k) const {
    if (step_mark_[k] == stamp_) return;
    step_mark_[k] = stamp_;
    reach_.push_back(k);
  }

  /// The dense BTRAN pass, in place: y^T <- y^T B^-1 over every eta,
  /// U step and L step.
  void dense_btran(std::vector<double>& y) const {
    // Eta file in reverse: c^T <- c^T E^-1 touches only component r.
    for (std::size_t e = eta_r_.size(); e-- > 0;) {
      const int r = eta_r_[e];
      const double wr = eta_wr_[e];
      double s = y[r] * wr;
      for (int t = eta_start_[e]; t < eta_start_[e + 1]; ++t) {
        s += y[eta_idx_[t]] * eta_val_[t];
      }
      y[r] -= (s - y[r]) / wr;
    }
    // U^T forward pass: y itself is the residual in column space (step
    // k reads column q_k once, then only updates later steps' columns);
    // the solution z lands in row space, every entry written.
    std::vector<double>& z = btran_z_;
    for (int k = 0; k < m_; ++k) {
      const double zk = y[q_[k]] / diag_[k];
      z[p_[k]] = zk;
      if (zk == 0.0) continue;
      for (int t = u_start_[k]; t < u_start_[k + 1]; ++t) {
        y[u_idx_[t]] -= u_val_[t] * zk;
      }
    }
    // L^T pass: transposed row operations in reverse order.
    for (int k = m_ - 1; k >= 0; --k) {
      double acc = z[p_[k]];
      for (int t = l_start_[k]; t < l_start_[k + 1]; ++t) {
        acc -= l_val_[t] * z[l_idx_[t]];
      }
      z[p_[k]] = acc;
    }
    y.swap(z);
  }

  /// Sorts `list` — the distinct indices whose `marks` carry the
  /// current stamp — ascending. Past a sixteenth of m a scan of the
  /// marks is cheaper than a comparison sort; both give the same list.
  void sort_marked(std::vector<int>& list,
                   const std::vector<std::uint32_t>& marks) const {
    if (list.size() * 16 > static_cast<std::size_t>(m_)) {
      list.clear();
      for (int k = 0; k < m_; ++k) {
        if (marks[k] == stamp_) list.push_back(k);
      }
    } else {
      std::sort(list.begin(), list.end());
    }
  }

  /// btran_unit over the reach of e_r only.
  void hyper_btran_unit(int r, IndexedVector& out) const;

  /// B^-1 applied to the row-space right-hand side in work_, whose
  /// nonzero rows' pivot steps are in reach_; the result replaces `out`
  /// and work_ is left all-zero.
  void solve(IndexedVector& out) const;

  const int m_;
  const BasisEngineOptions opts_;

  // Factorization, pivot order k = 0..m-1 (original indices; the pivot
  // orders p_/q_ replace explicit permutation matrices).
  std::vector<int> p_;            ///< p_[k] = pivot row of step k
  std::vector<int> q_;            ///< q_[k] = pivot column of step k
  std::vector<int> step_of_row_;  ///< inverse of p_
  std::vector<int> step_of_col_;  ///< inverse of q_
  std::vector<double> diag_;      ///< pivot values
  /// L_k: the multipliers (row, mult) of step k are
  /// (l_idx_, l_val_)[l_start_[k] .. l_start_[k+1]); U_k, the pivot row
  /// of step k without its pivot, is (column, value) in (u_idx_,
  /// u_val_)[u_start_[k] .. u_start_[k+1]). Both are filled in step
  /// order, so the flat arrays are the per-step lists end to end.
  std::vector<int> l_start_, l_idx_, u_start_, u_idx_;
  std::vector<double> l_val_, u_val_;
  /// Column-wise index of U (CSR): the steps whose U row holds column j
  /// are ucol_step_[ucol_start_[j] .. ucol_start_[j+1]).
  std::vector<int> ucol_start_, ucol_step_, ucol_next_;
  /// Row-wise index of L (CSR): the steps whose multipliers include row
  /// i are lrow_step_[lrow_start_[i] .. lrow_start_[i+1]).
  std::vector<int> lrow_start_, lrow_step_;

  // Eta file as one arena: eta e replaced basis row eta_r_[e] with
  // pivot eta_wr_[e]; its off-pivot entries are
  // (eta_idx_, eta_val_)[eta_start_[e] .. eta_start_[e+1]).
  std::vector<int> eta_r_;
  std::vector<double> eta_wr_;
  std::vector<int> eta_start_;
  std::vector<int> eta_idx_;
  std::vector<double> eta_val_;
  /// Which etas read basis position i (its pivot position or an
  /// off-pivot entry): a list through the flat, append-only link
  /// arrays, newest eta first, starting at eta_head_[i] (-1 = none).
  std::vector<int> eta_head_, link_eta_, link_next_;

  // Factorization workspace (persists across refactorizations). Row
  // entries with column -1 are tombstones; colrows_[j] holds (row,
  // position in that row) for every row that ever held column j, at
  // most one per row (a position whose entry is no longer column j is
  // stale).
  std::vector<std::vector<std::pair<int, double>>> rows_;
  std::vector<int> rowlen_;                   ///< live entries per row
  std::vector<std::uint8_t> row_tiny_;        ///< holds |a| <= kFactorDrop
  std::vector<std::uint8_t> row_active_;
  std::vector<std::vector<std::pair<int, int>>> colrows_;
  std::vector<std::vector<int>> buckets_;  ///< lazy rows-by-count lists
  std::vector<int> colcount_;

  // Solve workspace: work_ is all-zero between calls.
  mutable std::vector<double> work_;
  mutable std::vector<std::uint32_t> step_mark_, pos_mark_, eta_mark_;
  mutable std::uint32_t stamp_ = 0;
  mutable std::vector<int> reach_;
  mutable std::vector<int> cols_nz_;  ///< BTRAN-unit: positions the etas hit
  mutable double unit_density_ = 0.0;  ///< recent BTRAN-unit nnz / m
  mutable IndexedVector dense_out_;
  mutable std::vector<double> btran_z_;
};

void LuBasisEngine::solve(IndexedVector& out) const {
  std::vector<double>& sol = out.values;
  if (sol.size() != static_cast<std::size_t>(m_)) {
    sol.assign(m_, 0.0);
  } else {
    for (int i : out.pattern) sol[i] = 0.0;
  }
  out.pattern.clear();

  // L reach: step k's multipliers touch rows pivoted at later steps.
  for (std::size_t h = 0; h < reach_.size(); ++h) {
    const int k = reach_[h];
    for (int t = l_start_[k]; t < l_start_[k + 1]; ++t) {
      reach_step(step_of_row_[l_idx_[t]]);
    }
  }
  sort_marked(reach_, step_mark_);
  // L pass: replay the elimination's row operations on the rhs.
  for (int k : reach_) {
    const double t = work_[p_[k]];
    if (t == 0.0) continue;
    for (int s = l_start_[k]; s < l_start_[k + 1]; ++s) {
      work_[l_idx_[s]] -= l_val_[s] * t;
    }
  }
  // U reach: solving step k fixes column q_k, which feeds every earlier
  // step whose U row holds that column.
  for (std::size_t h = 0; h < reach_.size(); ++h) {
    const int j = q_[reach_[h]];
    for (int s = ucol_start_[j]; s < ucol_start_[j + 1]; ++s) {
      reach_step(ucol_step_[s]);
    }
  }
  sort_marked(reach_, step_mark_);
  // U pass: back-substitution in descending pivot order; the solution
  // lives in column (= basis-position) space.
  for (auto it = reach_.rbegin(); it != reach_.rend(); ++it) {
    const int k = *it;
    double t = work_[p_[k]];
    work_[p_[k]] = 0.0;
    for (int s = u_start_[k]; s < u_start_[k + 1]; ++s) {
      t -= u_val_[s] * sol[u_idx_[s]];
    }
    const int j = q_[k];
    sol[j] = t / diag_[k];
    pos_mark_[j] = stamp_;
    out.pattern.push_back(j);
  }
  // Eta file, chronologically: v <- E^-1 v per absorbed pivot.
  for (std::size_t e = 0; e < eta_r_.size(); ++e) {
    const int r = eta_r_[e];
    const double vr = sol[r];
    if (vr == 0.0) continue;
    const double t = vr / eta_wr_[e];
    for (int s = eta_start_[e]; s < eta_start_[e + 1]; ++s) {
      const int i = eta_idx_[s];
      sol[i] -= eta_val_[s] * t;
      if (pos_mark_[i] != stamp_) {
        pos_mark_[i] = stamp_;
        out.pattern.push_back(i);
      }
    }
    sol[r] = t;
  }
  sort_marked(out.pattern, pos_mark_);
}

void LuBasisEngine::btran_unit(int r, IndexedVector& out) const {
  // A dense result makes the reach bookkeeping pure overhead. Phase-1
  // pivot rows average 37 of 1015 nonzeros on the Fig. 6 sweep, but
  // they come in dense runs: this switch takes the dense pass on 13% of
  // the calls of `bench_fig6_solver_cdf 16 300 400` and on 17% / 10% of
  // perfbench fig6_sweep / serve_drift, and forcing the reach there
  // cost fig6_sweep ~6% throughput. Past kHyperDensity, predicted from
  // recent calls, run the dense pass on e_r instead; both give the
  // same values.
  constexpr double kHyperDensity = 0.10;
  if (unit_density_ > kHyperDensity) {
    std::vector<double>& z = out.values;
    z.assign(m_, 0.0);
    z[r] = 1.0;
    dense_btran(z);
    out.pattern.clear();
    for (int i = 0; i < m_; ++i) {
      if (z[i] != 0.0) out.pattern.push_back(i);
    }
  } else {
    hyper_btran_unit(r, out);
  }
  unit_density_ = 0.9 * unit_density_ +
                  0.1 * static_cast<double>(out.pattern.size()) / m_;
  ++stats_.btran_unit_calls;
  stats_.btran_unit_nnz += out.pattern.size();
}

void LuBasisEngine::hyper_btran_unit(int r, IndexedVector& out) const {
  begin_solve();
  // Eta file in reverse, over the etas that read a nonzero position
  // only. A position turning nonzero marks every eta that reads it;
  // the ones newer than the current eta were already passed (the
  // position was zero then), so marking them is harmless.
  std::vector<double>& y = work_;  // basis-position space
  y[r] = 1.0;
  pos_mark_[r] = stamp_;
  cols_nz_.clear();
  cols_nz_.push_back(r);
  auto mark_readers = [&](int i) {
    for (int l = eta_head_[i]; l >= 0; l = link_next_[l]) {
      eta_mark_[link_eta_[l]] = stamp_;
    }
  };
  mark_readers(r);
  for (std::size_t e = eta_r_.size(); e-- > 0;) {
    if (eta_mark_[e] != stamp_) continue;
    const int er = eta_r_[e];
    const double wr = eta_wr_[e];
    double s = y[er] * wr;
    for (int t = eta_start_[e]; t < eta_start_[e + 1]; ++t) {
      s += y[eta_idx_[t]] * eta_val_[t];
    }
    y[er] -= (s - y[er]) / wr;
    if (pos_mark_[er] != stamp_) {
      pos_mark_[er] = stamp_;
      cols_nz_.push_back(er);
      mark_readers(er);
    }
  }
  // U^T reach: position j is solved at step step_of_col_[j], whose U
  // row feeds the later steps of its columns.
  for (int j : cols_nz_) reach_step(step_of_col_[j]);
  for (std::size_t h = 0; h < reach_.size(); ++h) {
    const int k = reach_[h];
    for (int t = u_start_[k]; t < u_start_[k + 1]; ++t) {
      reach_step(step_of_col_[u_idx_[t]]);
    }
  }
  sort_marked(reach_, step_mark_);
  std::vector<double>& z = out.values;  // row space
  if (z.size() != static_cast<std::size_t>(m_)) {
    z.assign(m_, 0.0);
  } else {
    for (int i : out.pattern) z[i] = 0.0;
  }
  // U^T pass, ascending steps. Reading y[q_k] also clears it: only
  // earlier steps write position q_k, so work_ ends all-zero.
  for (int k : reach_) {
    const double zk = y[q_[k]] / diag_[k];
    y[q_[k]] = 0.0;
    z[p_[k]] = zk;
    if (zk == 0.0) continue;
    for (int t = u_start_[k]; t < u_start_[k + 1]; ++t) {
      y[u_idx_[t]] -= u_val_[t] * zk;
    }
  }
  // L^T reach: a nonzero in row i feeds every earlier step whose
  // multipliers include row i.
  for (std::size_t h = 0; h < reach_.size(); ++h) {
    const int i = p_[reach_[h]];
    for (int t = lrow_start_[i]; t < lrow_start_[i + 1]; ++t) {
      reach_step(lrow_step_[t]);
    }
  }
  sort_marked(reach_, step_mark_);
  // L^T pass, descending steps.
  for (auto it = reach_.rbegin(); it != reach_.rend(); ++it) {
    const int k = *it;
    double acc = z[p_[k]];
    for (int t = l_start_[k]; t < l_start_[k + 1]; ++t) {
      acc -= l_val_[t] * z[l_idx_[t]];
    }
    z[p_[k]] = acc;
  }
  next_stamp();
  out.pattern.clear();
  for (int k : reach_) {
    pos_mark_[p_[k]] = stamp_;
    out.pattern.push_back(p_[k]);
  }
  sort_marked(out.pattern, pos_mark_);
}

bool LuBasisEngine::factorize(const std::vector<SparseColumn>& cols,
                              const std::vector<int>& basic) {
  // Working matrix, row-wise; column j of B is cols[basic[j]].
  for (int i = 0; i < m_; ++i) {
    rows_[i].clear();
    rowlen_[i] = 0;
    row_tiny_[i] = 0;
    row_active_[i] = 1;
    colrows_[i].clear();
    colcount_[i] = 0;
  }
  for (auto& bucket : buckets_) bucket.clear();
  l_idx_.clear();
  l_val_.clear();
  u_idx_.clear();
  u_val_.clear();
  for (int j = 0; j < m_; ++j) {
    for (const auto& [r, v] : cols[basic[j]]) {
      if (v == 0.0) continue;
      colrows_[j].emplace_back(r, static_cast<int>(rows_[r].size()));
      rows_[r].emplace_back(j, v);
      ++rowlen_[r];
      ++colcount_[j];
      if (std::fabs(v) <= kFactorDrop) row_tiny_[r] = 1;
    }
  }
  for (int i = 0; i < m_; ++i) buckets_[rowlen_[i]].push_back(i);

  // Rows examined per pivot before settling for the best merit seen.
  // Smallest-count rows are scanned first (Suhl-style), so the scan is
  // O(candidates * nnz) per pivot instead of a full matrix sweep.
  constexpr int kSearchRows = 8;

  for (int k = 0; k < m_; ++k) {
    // --- Markowitz pivot selection with threshold stability, over the
    // count buckets. Bucket entries are lazily validated: every row
    // update pushes the row into its new bucket, so an entry is live
    // only if the row is still active with a matching count.
    std::size_t best_merit = static_cast<std::size_t>(-1);
    double best_abs = 0.0;
    int best_i = -1, best_j = -1;
    int examined = 0;
    for (int c = 1; c <= m_ && best_merit > 0; ++c) {
      std::vector<int>& bucket = buckets_[c];
      for (std::size_t s = 0; s < bucket.size();) {
        const int i = bucket[s];
        if (!row_active_[i] || rowlen_[i] != c) {  // stale entry
          bucket[s] = bucket.back();
          bucket.pop_back();
          continue;
        }
        ++s;
        double rowmax = 0.0;
        for (const auto& [j, v] : rows_[i]) {
          if (j >= 0) rowmax = std::max(rowmax, std::fabs(v));
        }
        if (rowmax <= opts_.pivot_eps) return false;  // singular row
        const double thresh =
            std::max(opts_.markowitz_tau * rowmax, opts_.pivot_eps);
        for (const auto& [j, v] : rows_[i]) {
          if (j < 0) continue;
          const double a = std::fabs(v);
          if (a < thresh) continue;
          const std::size_t merit =
              static_cast<std::size_t>(c - 1) * (colcount_[j] - 1);
          if (merit < best_merit || (merit == best_merit && a > best_abs)) {
            best_merit = merit;
            best_abs = a;
            best_i = i;
            best_j = j;
          }
        }
        if (++examined >= kSearchRows && best_i >= 0) break;
      }
      if ((examined >= kSearchRows && best_i >= 0) || best_merit == 0) break;
    }
    if (best_i < 0) return false;  // every remaining row is empty/tiny

    // --- Record the pivot; move its row into U.
    const int pi = best_i, pj = best_j;
    double apiv = 0.0;
    const int u_begin = static_cast<int>(u_idx_.size());
    u_start_[k] = u_begin;
    for (const auto& [j, v] : rows_[pi]) {
      if (j < 0) continue;
      if (j == pj) {
        apiv = v;
      } else {
        u_idx_.push_back(j);
        u_val_.push_back(v);
      }
      --colcount_[j];
    }
    const int u_end = static_cast<int>(u_idx_.size());
    p_[k] = pi;
    q_[k] = pj;
    diag_[k] = apiv;
    row_active_[pi] = 0;
    rows_[pi].clear();

    // --- Eliminate column pj from the remaining active rows, in place:
    // row_i -= mult * (U row k). The pj entry becomes a tombstone; each
    // U-row column either updates row i's entry (found through its
    // column's position hint) or appends a fill-in, so the row keeps
    // its surviving entries in order with fill-in at the end.
    l_start_[k] = static_cast<int>(l_idx_.size());
    for (const auto& [i, pos] : colrows_[pj]) {
      if (!row_active_[i]) continue;
      std::vector<std::pair<int, double>>& row = rows_[i];
      if (row[pos].first != pj) continue;  // stale: cancelled earlier
      const double mult = row[pos].second / apiv;
      l_idx_.push_back(i);
      l_val_.push_back(mult);
      row[pos].first = -1;
      --rowlen_[i];
      for (int t = u_begin; t < u_end; ++t) {
        const int j = u_idx_[t];
        const double u = u_val_[t];
        std::vector<std::pair<int, int>>& hints = colrows_[j];
        std::size_t h = 0;
        while (h < hints.size() && hints[h].first != i) ++h;
        stats_.factor_row_entries += h;
        const bool held = h < hints.size() && row[hints[h].second].first == j;
        if (held) {
          std::pair<int, double>& e = row[hints[h].second];
          const double v = e.second - mult * u;
          if (std::fabs(v) > kFactorDrop) {
            e.second = v;
          } else {  // cancelled out
            e.first = -1;
            --rowlen_[i];
            --colcount_[j];
          }
        } else {
          const double v = -mult * u;
          if (std::fabs(v) > kFactorDrop) {  // fill-in
            const int at = static_cast<int>(row.size());
            row.emplace_back(j, v);
            ++rowlen_[i];
            ++colcount_[j];
            if (h < hints.size()) hints[h].second = at;
            else hints.emplace_back(i, at);
          }
        }
      }
      stats_.factor_row_entries +=
          static_cast<std::size_t>(1 + u_end - u_begin);
      if (row_tiny_[i]) {
        // A row update drops every surviving entry at or below the
        // cancellation threshold, including original ones it did not
        // touch; only rows loaded with such entries can hold any.
        for (auto& [j, v] : row) {
          if (j >= 0 && std::fabs(v) <= kFactorDrop) {
            --colcount_[j];
            --rowlen_[i];
            j = -1;
          }
        }
        stats_.factor_row_entries += row.size();
        row_tiny_[i] = 0;
      }
      buckets_[rowlen_[i]].push_back(i);
    }
    colrows_[pj].clear();
  }

  l_start_[m_] = static_cast<int>(l_idx_.size());
  u_start_[m_] = static_cast<int>(u_idx_.size());

  // Inverse pivot orders, the column-wise index of U (FTRAN's reach)
  // and the row-wise index of L (BTRAN-unit's reach).
  for (int k = 0; k < m_; ++k) {
    step_of_row_[p_[k]] = k;
    step_of_col_[q_[k]] = k;
  }
  std::fill(ucol_start_.begin(), ucol_start_.end(), 0);
  for (int j : u_idx_) ++ucol_start_[j + 1];
  for (int j = 0; j < m_; ++j) ucol_start_[j + 1] += ucol_start_[j];
  ucol_step_.resize(u_idx_.size());
  std::copy(ucol_start_.begin(), ucol_start_.end() - 1, ucol_next_.begin());
  for (int k = 0; k < m_; ++k) {
    for (int t = u_start_[k]; t < u_start_[k + 1]; ++t) {
      ucol_step_[ucol_next_[u_idx_[t]]++] = k;
    }
  }
  std::fill(lrow_start_.begin(), lrow_start_.end(), 0);
  for (int i : l_idx_) ++lrow_start_[i + 1];
  for (int i = 0; i < m_; ++i) lrow_start_[i + 1] += lrow_start_[i];
  lrow_step_.resize(l_idx_.size());
  std::copy(lrow_start_.begin(), lrow_start_.end() - 1, ucol_next_.begin());
  for (int k = 0; k < m_; ++k) {
    for (int t = l_start_[k]; t < l_start_[k + 1]; ++t) {
      lrow_step_[ucol_next_[l_idx_[t]]++] = k;
    }
  }
  stats_.factor_nnz =
      static_cast<std::size_t>(m_) + u_idx_.size() + l_idx_.size();
  clear_etas();
  ++stats_.refactorizations;
  return true;
}

}  // namespace

std::unique_ptr<BasisEngine> make_basis_engine(BasisEngineKind kind, int m,
                                               const BasisEngineOptions& opts) {
  switch (resolve_engine(kind, m)) {
    case BasisEngineKind::kLu:
      return std::make_unique<LuBasisEngine>(m, opts);
    default:
      return std::make_unique<DenseBasisEngine>(m, opts);
  }
}

}  // namespace wishbone::ilp
