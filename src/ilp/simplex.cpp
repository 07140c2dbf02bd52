#include "ilp/simplex.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace wishbone::ilp {

const char* basis_reject_name(BasisRejectReason reason) {
  switch (reason) {
    case BasisRejectReason::kNone: return "none";
    case BasisRejectReason::kShape: return "shape";
    case BasisRejectReason::kStructure: return "structure";
    case BasisRejectReason::kSingular: return "singular";
  }
  return "?";
}

SimplexState::SimplexState(const LinearProgram& lp,
                           const SimplexOptions& opts)
    : opts_(opts), n_struct_(lp.num_variables()),
      m_(lp.num_constraints()), structure_hash_(lp.structure_hash()),
      synced_revision_(lp.bounds_revision()) {
  const int n_total = n_struct_ + m_;
  lo_.resize(n_total);
  up_.resize(n_total);
  cost_.resize(n_total, 0.0);
  cols_.resize(n_total);
  b_.resize(m_, 0.0);
  reduced_costs_.assign(n_struct_, 0.0);
  y_scratch_.assign(m_, 0.0);
  d_.assign(n_total, 0.0);
  c1_.assign(m_, 0.0);
  alpha_.values.assign(n_total, 0.0);
  alpha_in_.assign(n_total, 0);

  for (int j = 0; j < n_struct_; ++j) {
    lo_[j] = lp.lower(j);
    up_[j] = lp.upper(j);
    cost_[j] = lp.objective_coeff(j);
  }
  for (int i = 0; i < m_; ++i) {
    const Constraint& c = lp.constraints()[i];
    const double sign = (c.rel == Relation::kGe) ? -1.0 : 1.0;
    b_[i] = sign * c.rhs;
    for (const auto& [v, coeff] : c.terms) {
      if (coeff == 0.0) continue;
      // Coalesce duplicate variable mentions within a row: the model
      // treats them additively (objective_value / max_violation), and
      // the basis engines require at most one entry per (row, column).
      // All pushes for row i happen in this pass, so a duplicate is
      // always the column's current back entry.
      auto& col = cols_[v];
      if (!col.empty() && col.back().first == i) {
        col.back().second += sign * coeff;
      } else {
        col.emplace_back(i, sign * coeff);
      }
    }
    const int slack = n_struct_ + i;
    cols_[slack].emplace_back(i, 1.0);
    lo_[slack] = 0.0;
    up_[slack] = (c.rel == Relation::kEq) ? 0.0 : kInf;
  }
  // Row-wise copy for the pivot rows; columns are visited in ascending
  // order, so each row lists its columns ascending.
  row_start_.assign(m_ + 1, 0);
  for (const auto& col : cols_) {
    for (const auto& [row, coeff] : col) ++row_start_[row + 1];
  }
  for (int i = 0; i < m_; ++i) row_start_[i + 1] += row_start_[i];
  row_col_.resize(row_start_[m_]);
  row_val_.resize(row_start_[m_]);
  {
    std::vector<int> next(row_start_.begin(), row_start_.end() - 1);
    for (int j = 0; j < n_total; ++j) {
      for (const auto& [row, coeff] : cols_[j]) {
        row_col_[next[row]] = j;
        row_val_[next[row]++] = coeff;
      }
    }
  }

  BasisEngineOptions bopts;
  bopts.pivot_eps = opts_.pivot_eps;
  bopts.max_eta =
      opts_.refactor_interval != 0
          ? opts_.refactor_interval
          : std::max<std::size_t>(
                64, std::min<std::size_t>(512,
                                          static_cast<std::size_t>(m_) / 4));
  engine_ = make_basis_engine(opts_.engine, m_, bopts);

  reset();
}

void SimplexState::reset() {
  // Cold start: all slacks basic; structural vars crash-started at the
  // finite bound their objective coefficient prefers (a variable with
  // negative cost wants to be high), which slashes phase-2 pivots on
  // partition instances where most indicators end up at 1. Any
  // feasibility damage is repaired by phase 1.
  const int n_total = n_struct_ + m_;
  basic_.resize(m_);
  x_.assign(n_total, 0.0);
  at_upper_.assign(n_total, false);
  in_basis_.assign(n_total, -1);
  for (int j = 0; j < n_struct_; ++j) {
    const bool has_lo = std::isfinite(lo_[j]);
    const bool has_up = std::isfinite(up_[j]);
    if (has_lo && has_up && cost_[j] < 0.0) {
      x_[j] = up_[j];
      at_upper_[j] = true;
    } else if (has_lo) {
      x_[j] = lo_[j];
    } else if (has_up) {
      x_[j] = up_[j];
      at_upper_[j] = true;
    } else {
      x_[j] = 0.0;  // free variable
    }
  }
  for (int i = 0; i < m_; ++i) {
    basic_[i] = n_struct_ + i;
    in_basis_[n_struct_ + i] = i;
  }
  engine_->set_identity();  // the all-slack basis factorizes trivially
  candidates_.clear();
  recompute_basic_values();
  basics_dirty_ = false;
  reduced_costs_valid_ = false;
  d_costs_ = Costs::kNone;
}

void SimplexState::snap_nonbasic(int j) {
  // A nonbasic variable must rest on one of its finite bounds (free
  // variables keep their value).
  const bool has_lo = std::isfinite(lo_[j]);
  const bool has_up = std::isfinite(up_[j]);
  double nx = x_[j];
  if (at_upper_[j] && has_up) {
    nx = up_[j];
  } else if (has_lo) {
    nx = lo_[j];
    at_upper_[j] = false;
  } else if (has_up) {
    nx = up_[j];
    at_upper_[j] = true;
  }
  if (nx != x_[j]) {
    x_[j] = nx;
    basics_dirty_ = true;
  }
}

void SimplexState::set_bounds(int v, double lo, double up) {
  WB_REQUIRE(v >= 0 && v < n_struct_,
             "set_bounds: structural variable index out of range");
  WB_REQUIRE(lo <= up, "set_bounds: lower > upper");
  if (lo_[v] == lo && up_[v] == up) return;
  lo_[v] = lo;
  up_[v] = up;
  bounds_diverged_ = true;  // state no longer mirrors the source model
  reduced_costs_valid_ = false;
  if (in_basis_[v] < 0) snap_nonbasic(v);
  // Basic variables keep their value; if the edit pushed one outside
  // its bounds, the next solve()'s phase 1 repairs it from this basis.
}

void SimplexState::sync_bounds(const LinearProgram& lp) {
  WB_REQUIRE(lp.num_variables() == n_struct_ &&
                 lp.num_constraints() == m_,
             "sync_bounds: model shape mismatch");
  // The revision short-circuit is only sound when this state still
  // mirrors the model it recorded the revision from: direct set_bounds
  // calls on the state (or a different same-shape model) diverge it.
  if (!bounds_diverged_ && lp.bounds_revision() == synced_revision_) return;
  for (int v = 0; v < n_struct_; ++v) set_bounds(v, lp.lower(v), lp.upper(v));
  synced_revision_ = lp.bounds_revision();
  bounds_diverged_ = false;
}

Basis SimplexState::extract_basis() const {
  Basis b;
  b.basic = basic_;
  b.at_upper.assign(at_upper_.begin(), at_upper_.end());
  b.num_rows = m_;
  b.num_structural = n_struct_;
  b.structure_hash = structure_hash_;
  return b;
}

BasisRejectReason Basis::compatibility_with(const LinearProgram& lp) const {
  if (static_cast<int>(basic.size()) != lp.num_constraints() ||
      static_cast<int>(at_upper.size()) !=
          lp.num_variables() + lp.num_constraints()) {
    return BasisRejectReason::kShape;
  }
  if (stamped() && structure_hash != lp.structure_hash()) {
    return BasisRejectReason::kStructure;
  }
  return BasisRejectReason::kNone;
}

bool Basis::compatible_with(const LinearProgram& lp) const {
  return compatibility_with(lp) == BasisRejectReason::kNone;
}

bool SimplexState::load_basis(const Basis& basis) {
  last_load_reject_ = BasisRejectReason::kNone;
  const int n_total = n_struct_ + m_;
  if (static_cast<int>(basis.basic.size()) != m_ ||
      static_cast<int>(basis.at_upper.size()) != n_total) {
    last_load_reject_ = BasisRejectReason::kShape;
    reset();
    return false;
  }
  // A stamped basis must come from a structurally identical model:
  // matching dimensions alone do not make row i's slack or column j's
  // variable mean the same thing. Loading a structure-mismatched basis
  // is never *unsound* (solve() re-repairs feasibility from any basis),
  // but it installs garbage that phase 1 then grinds away from — the
  // stale-warm-basis bug this check turns into an explicit cold start.
  if (basis.stamped() && basis.structure_hash != structure_hash_) {
    last_load_reject_ = BasisRejectReason::kStructure;
    reset();
    return false;
  }
  for (int v : basis.basic) {
    if (v < 0 || v >= n_total) {
      last_load_reject_ = BasisRejectReason::kShape;
      reset();
      return false;
    }
  }
  basic_ = basis.basic;
  in_basis_.assign(n_total, -1);
  for (int i = 0; i < m_; ++i) {
    if (in_basis_[basic_[i]] >= 0) {  // duplicate column
      last_load_reject_ = BasisRejectReason::kShape;
      reset();
      return false;
    }
    in_basis_[basic_[i]] = i;
  }
  for (int j = 0; j < n_total; ++j) at_upper_[j] = basis.at_upper[j] != 0;
  if (!engine_->factorize(cols_, basic_)) {
    last_load_reject_ = BasisRejectReason::kSingular;
    reset();
    return false;
  }
  for (int j = 0; j < n_total; ++j) {
    if (in_basis_[j] < 0) snap_nonbasic(j);
  }
  candidates_.clear();
  recompute_basic_values();
  basics_dirty_ = false;
  reduced_costs_valid_ = false;
  d_costs_ = Costs::kNone;
  return true;
}

double SimplexState::phase1_cost(int var) const {
  if (x_[var] > up_[var] + opts_.eps) return 1.0;
  if (x_[var] < lo_[var] - opts_.eps) return -1.0;
  return 0.0;
}

void SimplexState::load_phase1_costs() {
  infeasible_rows_ = 0;
  for (int i = 0; i < m_; ++i) {
    c1_[i] = phase1_cost(basic_[i]);
    if (c1_[i] != 0.0) ++infeasible_rows_;
  }
}

void SimplexState::recompute_basic_values() {
  // xB = B^-1 * (b - sum over nonbasic j of A_j x_j)
  std::vector<double>& rhs = rhs_scratch_;
  rhs = b_;
  const int n_total = n_struct_ + m_;
  for (int j = 0; j < n_total; ++j) {
    if (in_basis_[j] >= 0 || x_[j] == 0.0) continue;
    for (const auto& [row, coeff] : cols_[j]) rhs[row] -= coeff * x_[j];
  }
  engine_->ftran_dense(rhs);
  for (int i = 0; i < m_; ++i) x_[basic_[i]] = rhs[i];
}

void SimplexState::rebuild_reduced_costs(Costs costs) {
  // y^T = cB^T * B^-1 (a full BTRAN), then d = c - A^T y row by row:
  // each column subtracts its terms in ascending row order, as a
  // column-wise dot product would.
  const bool phase1 = costs == Costs::kPhase1;
  std::vector<double>& y = y_scratch_;
  for (int i = 0; i < m_; ++i) y[i] = phase1 ? c1_[i] : cost_[basic_[i]];
  engine_->btran(y);
  const int n_total = n_struct_ + m_;
  for (int j = 0; j < n_total; ++j) d_[j] = phase1 ? 0.0 : cost_[j];
  for (int i = 0; i < m_; ++i) {
    const double yi = y[i];
    if (yi == 0.0) continue;
    for (int t = row_start_[i]; t < row_start_[i + 1]; ++t) {
      d_[row_col_[t]] -= yi * row_val_[t];
    }
  }
  for (int i = 0; i < m_; ++i) d_[basic_[i]] = 0.0;
  d_costs_ = costs;
  d_checked_ = true;
  ++tel_.reduced_cost_rebuilds;
}

void SimplexState::pivot_row(int r) {
  engine_->btran_unit(r, rho_);
  for (int j : alpha_.pattern) {
    alpha_.values[j] = 0.0;
    alpha_in_[j] = 0;
  }
  alpha_.pattern.clear();
  // rho's pattern is ascending, so every alpha_j sums its terms in
  // ascending row order — the order of a column-wise dot product.
  for (int i : rho_.pattern) {
    const double ri = rho_.values[i];
    if (ri == 0.0) continue;
    for (int t = row_start_[i]; t < row_start_[i + 1]; ++t) {
      const int j = row_col_[t];
      if (!alpha_in_[j]) {
        alpha_in_[j] = 1;
        alpha_.pattern.push_back(j);
      }
      alpha_.values[j] += ri * row_val_[t];
    }
  }
}

void SimplexState::update_reduced_costs(int enter, int leave_row,
                                        double alpha_q) {
  const double theta = d_[enter] / alpha_q;
  for (int j : alpha_.pattern) {
    if (in_basis_[j] < 0) d_[j] -= theta * alpha_.values[j];
  }
  // The leaving column's alpha is exactly 1, so its reduced cost under
  // the costs d_ prices is -theta. A phase-1 cost belongs to a basic
  // only: as a nonbasic the leaving column carries none, and the
  // entering column takes row r with cost 0 until update_phase1_costs
  // re-derives it.
  double d_leave = -theta;
  if (d_costs_ == Costs::kPhase1 && c1_[leave_row] != 0.0) {
    d_leave -= c1_[leave_row];
    c1_[leave_row] = 0.0;
    --infeasible_rows_;
  }
  d_[basic_[leave_row]] = d_leave;
  d_[enter] = 0.0;
  d_checked_ = false;
}

void SimplexState::update_phase1_costs(const IndexedVector& w) {
  // Each fold costs a BTRAN-unit and a pivot row; past this many the
  // one full BTRAN of a rebuild is cheaper.
  constexpr std::size_t kMaxCostFolds = 4;
  cost_moves_.clear();
  for (int k : w.pattern) {
    const double c = phase1_cost(basic_[k]);
    if (c != c1_[k]) cost_moves_.emplace_back(k, c);
  }
  if (cost_moves_.size() > kMaxCostFolds) {
    d_costs_ = Costs::kNone;
    return;
  }
  // Raising row k's basic cost by delta moves y by delta * rho_k, so
  // every nonbasic d_j falls by delta * alpha_kj.
  for (const auto& [k, c] : cost_moves_) {
    const double delta = c - c1_[k];
    infeasible_rows_ += (c != 0.0) - (c1_[k] != 0.0);
    c1_[k] = c;
    pivot_row(k);
    for (int j : alpha_.pattern) {
      if (in_basis_[j] < 0) d_[j] -= delta * alpha_.values[j];
    }
    d_checked_ = false;
  }
}

double SimplexState::entering_sigma(int j, double d) const {
  const bool is_free = !std::isfinite(lo_[j]) && !std::isfinite(up_[j]);
  if (is_free) {
    if (d < -opts_.eps) return 1.0;
    if (d > opts_.eps) return -1.0;
    return 0.0;
  }
  if (at_upper_[j]) {
    return (d > opts_.eps) ? -1.0 : 0.0;  // decreasing reduces cost
  }
  return (d < -opts_.eps) ? 1.0 : 0.0;    // increasing reduces cost
}

const std::vector<double>& SimplexState::reduced_costs() {
  if (!reduced_costs_valid_) {
    // An optimal exit leaves d_ as the phase-2 reduced costs its
    // optimality check rebuilt; anything else needs a rebuild here.
    if (d_costs_ != Costs::kPhase2 || !d_checked_) {
      rebuild_reduced_costs(Costs::kPhase2);
    }
    for (int j = 0; j < n_struct_; ++j) {
      reduced_costs_[j] = in_basis_[j] >= 0 ? 0.0 : d_[j];
    }
    reduced_costs_valid_ = true;
  }
  return reduced_costs_;
}

LpSolution SimplexState::solve() {
  LpSolution sol;
  iters_ = 0;
  degenerate_run_ = 0;
  reduced_costs_valid_ = false;  // pivots will move the basis
  if (basics_dirty_) {
    recompute_basic_values();
    basics_dirty_ = false;
  }
  // Bound edits moved basic values, and with them the phase-1 costs:
  // the first phase to price rebuilds d_. A basic more than eps outside
  // a bound is what the phase-1 costs act on, so phase 1 runs while one
  // exists (not while the summed violations exceed eps: many tolerable
  // violations may sum past eps with nothing to price).
  d_costs_ = Costs::kNone;
  load_phase1_costs();
  if (infeasible_rows_ > 0) ++tel_.phase1_reentries;

  // Phase 1: drive basic-variable bound violations to zero, starting
  // from whatever basis this state currently holds (warm re-entry after
  // bound edits, an inherited basis, or the cold crash basis). While
  // d_ prices phase 1, iterate() keeps c1_ and the infeasible-row count
  // current; once d_ goes stale they are reloaded here before the
  // rebuild.
  while (infeasible_rows_ > 0) {
    const StepOutcome oc = iterate(/*phase1=*/true);
    if (oc == StepOutcome::kNoDirection) {
      sol.status = SolveStatus::kInfeasible;
      sol.iterations = iters_;
      return sol;
    }
    if (oc == StepOutcome::kIterLimit) {
      sol.status = SolveStatus::kIterationLimit;
      sol.iterations = iters_;
      return sol;
    }
    if (oc == StepOutcome::kUnbounded) {
      // Phase-1 objective is bounded below; an unblocked ray means
      // numerical trouble. Report as an iteration failure.
      sol.status = SolveStatus::kIterationLimit;
      sol.iterations = iters_;
      return sol;
    }
    if (d_costs_ != Costs::kPhase1) load_phase1_costs();
  }
  candidates_.clear();  // phase-1 scores are stale for phase 2
  // Phase 2: optimize the true objective.
  for (;;) {
    const StepOutcome oc = iterate(/*phase1=*/false);
    if (oc == StepOutcome::kNoDirection) break;  // optimal
    if (oc == StepOutcome::kUnbounded) {
      sol.status = SolveStatus::kUnbounded;
      sol.iterations = iters_;
      return sol;
    }
    if (oc == StepOutcome::kIterLimit) {
      sol.status = SolveStatus::kIterationLimit;
      sol.iterations = iters_;
      return sol;
    }
  }
  sol.status = SolveStatus::kOptimal;
  sol.iterations = iters_;
  sol.x.assign(x_.begin(), x_.begin() + n_struct_);
  sol.objective = 0.0;
  for (int j = 0; j < n_struct_; ++j) sol.objective += cost_[j] * x_[j];
  return sol;
}

int SimplexState::price(bool bland, double& enter_sigma) {
  // Pricing: find an entering variable. The candidate list from the
  // last full scan is tried first; a full scan runs only when the list
  // is dry (and doubles as the optimality proof when it finds nothing).
  // Bland's rule (first eligible by index) takes over after a run of
  // degenerate steps.
  const int n_total = n_struct_ + m_;
  int enter = -1;
  // Dantzig scores: -|d| (smaller is better), floored at -eps so that
  // only a reduced cost beyond the tolerance can enter.
  double best_score = -opts_.eps;

  if (bland) {
    for (int j = 0; j < n_total; ++j) {
      if (in_basis_[j] >= 0 || lo_[j] == up_[j]) continue;
      const double sigma = entering_sigma(j, d_[j]);
      if (sigma != 0.0) {
        enter_sigma = sigma;
        return j;
      }
    }
    return -1;
  }
  for (int j : candidates_) {
    if (in_basis_[j] >= 0 || lo_[j] == up_[j]) continue;
    const double sigma = entering_sigma(j, d_[j]);
    if (sigma == 0.0) continue;
    const double score = -std::fabs(d_[j]);
    if (score < best_score) {
      best_score = score;
      enter = j;
      enter_sigma = sigma;
    }
  }
  if (enter != -1) return enter;
  // Full pricing scan; rebuild the candidate list from the runners-up
  // so the next pivots price only this short list.
  std::vector<std::pair<double, int>>& eligible = eligible_scratch_;
  eligible.clear();  // (score, j)
  for (int j = 0; j < n_total; ++j) {
    if (in_basis_[j] >= 0 || lo_[j] == up_[j]) continue;
    const double sigma = entering_sigma(j, d_[j]);
    if (sigma == 0.0) continue;
    const double score = -std::fabs(d_[j]);
    if (score < best_score) {
      best_score = score;
      enter = j;
      enter_sigma = sigma;
    }
    if (opts_.candidate_list_size > 0) eligible.emplace_back(score, j);
  }
  candidates_.clear();
  if (enter != -1 && opts_.candidate_list_size > 0) {
    const std::size_t keep =
        std::min(opts_.candidate_list_size, eligible.size());
    std::partial_sort(eligible.begin(), eligible.begin() + keep,
                      eligible.end());
    for (std::size_t i = 0; i < keep; ++i) {
      if (eligible[i].second != enter) {
        candidates_.push_back(eligible[i].second);
      }
    }
  }
  return enter;
}

SimplexState::StepOutcome SimplexState::iterate(bool phase1) {
  if (iters_ >= opts_.max_iterations) return StepOutcome::kIterLimit;
  ++iters_;

  const Costs costs = phase1 ? Costs::kPhase1 : Costs::kPhase2;
  if (d_costs_ != costs) rebuild_reduced_costs(costs);
  const bool bland = degenerate_run_ >= 50;
  double enter_sigma = 0.0;
  int enter = price(bland, enter_sigma);
  if (enter == -1 && !d_checked_) {
    // Optimality check: the updates carry rounding, so "no column can
    // enter" is only reported from freshly rebuilt reduced costs (the
    // failed scan left the candidate list empty: this is a full scan).
    rebuild_reduced_costs(costs);
    enter = price(bland, enter_sigma);
  }
  if (enter == -1) return StepOutcome::kNoDirection;

  // Direction through the basis: w = B^-1 * A_enter (an FTRAN). Its
  // pattern lists the rows the direction can move, ascending, so the
  // loops below visit exactly the rows a 0..m-1 walk would not skip.
  IndexedVector& w = w_scratch_;
  engine_->ftran(cols_[enter], w);

  // Ratio test. The entering variable moves by t >= 0 in direction
  // enter_sigma; basic k changes at rate -enter_sigma * w_k.
  double t_max = kInf;
  int leave_row = -1;
  double leave_bound = 0.0;
  bool bound_flip = false;
  const double span = up_[enter] - lo_[enter];
  if (std::isfinite(span)) {
    t_max = span;
    bound_flip = true;
  }
  for (int k : w.pattern) {
    const double delta = enter_sigma * w.values[k];  // xB_k's rate of decrease
    if (std::fabs(delta) < opts_.pivot_eps) continue;
    const int v = basic_[k];
    const double xv = x_[v];
    double t = kInf;
    double bound = 0.0;
    if (phase1 && xv > up_[v] + opts_.eps) {
      // Infeasible above: only a downward move blocks, at the upper
      // bound (first slope change of the phase-1 cost).
      if (delta > 0) {
        bound = up_[v];
        t = (xv - bound) / delta;
      }
    } else if (phase1 && xv < lo_[v] - opts_.eps) {
      if (delta < 0) {
        bound = lo_[v];
        t = (xv - bound) / delta;
      }
    } else {
      if (delta > 0) {
        if (!std::isfinite(lo_[v])) continue;
        bound = lo_[v];
        t = (xv - bound) / delta;
      } else {
        if (!std::isfinite(up_[v])) continue;
        bound = up_[v];
        t = (xv - bound) / delta;
      }
    }
    t = std::max(t, 0.0);  // numerical: clamp tiny negatives
    // Strict improvement takes the block; on (near-)ties prefer the
    // smallest leaving variable index for determinism and as the
    // Bland anti-cycling tie-break.
    const bool tie = leave_row >= 0 && std::fabs(t - t_max) <= opts_.eps;
    if (t < t_max - opts_.pivot_eps ||
        (tie && v < basic_[leave_row])) {
      t_max = t;
      leave_row = k;
      leave_bound = bound;
      bound_flip = false;
    }
  }

  if (!std::isfinite(t_max)) return StepOutcome::kUnbounded;

  degenerate_run_ = (t_max <= opts_.eps) ? degenerate_run_ + 1 : 0;

  // Apply the step.
  x_[enter] += enter_sigma * t_max;
  for (int k : w.pattern) {
    x_[basic_[k]] -= enter_sigma * t_max * w.values[k];
  }
  if (bound_flip) {
    at_upper_[enter] = !at_upper_[enter];
    // Snap exactly onto the bound to stop drift.
    x_[enter] = at_upper_[enter] ? up_[enter] : lo_[enter];
    ++tel_.primal_pivots;
    if (phase1) update_phase1_costs(w);
    return StepOutcome::kPivoted;
  }

  WB_ASSERT(leave_row >= 0);
  WB_ASSERT_MSG(std::fabs(w.values[leave_row]) > opts_.pivot_eps,
                "degenerate pivot");
  pivot_row(leave_row);  // of the outgoing basis
  update_reduced_costs(enter, leave_row, w.values[leave_row]);
  const int leaving = basic_[leave_row];
  x_[leaving] = leave_bound;
  at_upper_[leaving] =
      std::isfinite(up_[leaving]) && leave_bound == up_[leaving];
  in_basis_[leaving] = -1;
  basic_[leave_row] = enter;
  in_basis_[enter] = leave_row;

  // Absorb the pivot into the basis engine (dense: elementary row
  // update; LU: append an eta vector). The engine declines when its
  // eta file is full or the pivot is too unstable to chain — then a
  // fresh factorization of the *new* basis replaces the whole file,
  // and the reduced costs are rebuilt against it.
  if (!engine_->update(leave_row, w)) {
    if (!engine_->factorize(cols_, basic_)) {
      // The ratio test admitted this pivot, so the new basis is
      // singular only through accumulated floating-point damage. A
      // failed factorization leaves the engine's factors half-built;
      // reset() restores a coherent cold state so a caller that
      // re-enters this SimplexState gets a valid (cold) solve instead
      // of silent garbage, and this solve reports the failure.
      reset();
      return StepOutcome::kIterLimit;
    }
    d_costs_ = Costs::kNone;
  } else if (phase1) {
    update_phase1_costs(w);
  }

  ++tel_.primal_pivots;
  // Periodic refresh to contain floating-point drift.
  if (iters_ % 512 == 0) {
    recompute_basic_values();
    d_costs_ = Costs::kNone;
  }
  return StepOutcome::kPivoted;
}

LpSolution SimplexSolver::solve(const LinearProgram& lp,
                                const SimplexOptions& opts) const {
  WB_REQUIRE(lp.num_variables() > 0, "LP has no variables");
  SimplexState state(lp, opts);
  return state.solve();
}

}  // namespace wishbone::ilp
