// Bounded-variable revised Simplex — primal and dual — over a
// pluggable basis engine (ilp/basis_lu.hpp): an explicit dense inverse
// for small bases, or a Markowitz sparse LU with eta-file updates for
// large ones. One pricing rule, Dantzig with a candidate list, serves
// both loops.
//
// This is the LP engine underneath branch and bound, standing in for
// lp_solve's Simplex (§4.2.1 footnote 3). Integrality markers on the
// model are ignored here — the solver optimizes the LP relaxation over
// the current variable bounds, which is exactly what branch and bound
// needs at each node.
//
// Method notes:
//  - constraints are normalized to <= / == rows; every row gets a slack
//    variable (free slack [0, inf) for <=, fixed slack [0, 0] for ==),
//    so the all-slack basis always exists;
//  - nonbasic variables sit at one of their finite bounds; a composite
//    phase 1 drives bound violations of the basic variables to zero by
//    minimizing total infeasibility with +/-1 costs, then phase 2
//    minimizes the true objective;
//  - primal pricing is Dantzig's (the entering column has the largest
//    |d_j| beyond eps); it walks a short candidate list of recently
//    attractive columns and falls back to a full scan only to rebuild
//    the list or prove optimality;
//  - the dual loop's leaving row is the largest bound violation;
//  - both loops price from one maintained reduced-cost vector d over
//    all n+m columns. After each basis change, d_j -= theta * alpha_j
//    along the pivot row alpha = e_r^T B^-1 A (theta = d_q / alpha_q),
//    built from a hypersparse BTRAN-unit and a row-wise copy of the
//    matrix over rho's nonzeros only. A phase-1 cost that a step
//    changes is folded in through its own row's rho. A full BTRAN
//    rebuilds d only at solve entry, on a phase switch, after a
//    refactorization or the periodic refresh, when a step changes too
//    many phase-1 costs at once, and once before a loop reports that
//    no column can enter — that last rebuild is the optimality check;
//  - in both loops Bland's rule (smallest index) takes over after a run
//    of degenerate pivots to guard against cycling.
//
// Warm starts: `SimplexState` keeps the factorized basis alive between
// solves. Variable bound changes never touch the constraint matrix, so
// after `set_bounds` the basis inverse stays valid and the next solve()
// re-enters from the inherited basis — typically a handful of pivots
// instead of a full cold start. Two re-entry modes exist: the default
// (ReentryKind::kPhase1) repairs primal feasibility with the composite
// phase-1 loop; ReentryKind::kDual notices that bound edits leave the
// basis *dual*-feasible (reduced costs do not depend on bounds) and
// runs the dual simplex instead, which restores primal feasibility
// while preserving optimality — usually far fewer pivots on the
// one-bound-changed child LPs of branch and bound. A basis can also be
// extracted and loaded across states for structurally identical models
// (the refactorization path), which branch and bound and the rate
// search use to chain closely related solves.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "ilp/basis_lu.hpp"
#include "ilp/model.hpp"

namespace wishbone::ilp {

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  /// Dual-simplex early exit: the objective — a valid lower bound while
  /// the basis stays dual feasible — crossed the caller's cutoff, so
  /// the caller will discard (prune) this solve's node no matter where
  /// the optimum lands. Only produced when solve() is given a finite
  /// cutoff under ReentryKind::kDual; x is not primal feasible.
  kCutoff,
};

/// How solve() restores primal feasibility after bound edits.
enum class ReentryKind {
  kPhase1,  ///< composite phase-1 repair (the legacy default path)
  kDual,    ///< dual simplex from the (still dual-feasible) basis;
            ///< falls back to phase 1 when dual feasibility fails
};

[[nodiscard]] const char* reentry_name(ReentryKind kind);

/// Why load_basis rejected (or would reject) an inherited basis.
enum class BasisRejectReason {
  kNone,       ///< not rejected
  kShape,      ///< dimension mismatch or malformed basic set
  kStructure,  ///< stamped structure hash differs from the target
  kSingular,   ///< refactorization of the loaded basis failed
};

[[nodiscard]] const char* basis_reject_name(BasisRejectReason reason);

struct LpSolution {
  SolveStatus status = SolveStatus::kIterationLimit;
  double objective = 0.0;
  std::vector<double> x;  ///< structural variable values (model order)
  std::size_t iterations = 0;
  std::size_t dual_iterations = 0;  ///< of `iterations`, dual-loop ones
  bool dual_reentry = false;  ///< this solve re-entered via dual simplex
};

/// Cumulative re-entry / pivot telemetry of one SimplexState (across
/// solves, like BasisEngineStats). A "re-entry" is a solve() that began
/// primal-infeasible — a warm start whose bound edits broke feasibility
/// or a cold crash basis needing repair.
struct SimplexTelemetry {
  std::size_t dual_reentries = 0;    ///< repaired by the dual simplex
  std::size_t phase1_reentries = 0;  ///< repaired by composite phase 1
  /// Dual-mode solves that had to fall back to phase 1: the basis was
  /// not dual-feasible at entry, or the dual loop hit numerical trouble.
  std::size_t phase1_fallbacks = 0;
  std::size_t primal_pivots = 0;     ///< phase-1/2 pivots + bound flips
  std::size_t dual_pivots = 0;       ///< dual-loop pivots
  /// Full rebuilds of the maintained reduced costs (one BTRAN each);
  /// every other iteration updates them from the pivot row.
  std::size_t reduced_cost_rebuilds = 0;
};

struct SimplexOptions {
  std::size_t max_iterations = 200'000;
  double eps = 1e-7;          ///< feasibility / reduced-cost tolerance
  double pivot_eps = 1e-9;    ///< minimum admissible pivot magnitude
  /// Partial (candidate-list) pricing: cap on the list of attractive
  /// columns kept between pivots. 0 disables the list, so every
  /// iteration prices all n+m columns (the pre-warm-start behavior).
  std::size_t candidate_list_size = 64;
  /// Basis factorization engine. kAuto resolves by row count (dense
  /// below kAutoDenseCutoff rows, Markowitz LU + eta file at or above);
  /// kDense / kLu force one engine, which the randomized differential
  /// harness uses to pit the two against each other.
  BasisEngineKind engine = BasisEngineKind::kAuto;
  /// LU engine: refactorize once the eta file holds this many pivots.
  /// 0 = auto (max(64, min(512, m/4)) — longer files amortize the
  /// factorization better on large sparse bases, where each eta is
  /// cheap to apply but a factorization costs a full elimination).
  std::size_t refactor_interval = 0;
  /// Warm re-entry mode after bound edits. kPhase1 (the default)
  /// repairs with composite phase 1; kDual re-enters via
  /// the dual simplex when the basis is dual-feasible (the usual case
  /// for branch-and-bound children) and falls back to phase 1 when not.
  ReentryKind reentry = ReentryKind::kPhase1;
};

/// A restorable snapshot of a simplex basis: the variable occupying
/// each basis row plus the bound every variable rests at when nonbasic.
/// Valid across SimplexState instances of structurally identical models
/// (same constraint rows and variable count), even when bounds or
/// coefficients differ — loading refactorizes against the new matrix.
///
/// Bases extracted by SimplexState::extract_basis carry a provenance
/// stamp: the source model's shape and structure hash (sparsity
/// pattern, see LinearProgram::structure_hash).
/// load_basis rejects a stamped basis whose structure does not match
/// the target state — threading a basis between formulations that
/// merely *happen* to share dimensions (a rate-search probe whose
/// preprocessing merged differently, a cache-adjacent server request
/// for a different graph) must fall back to a cold start instead of
/// installing a basis whose rows and columns mean something else.
/// Hand-built bases (structure_hash == 0) keep the legacy shape-only
/// validation.
struct Basis {
  std::vector<int> basic;              ///< size m (one variable per row)
  std::vector<std::uint8_t> at_upper;  ///< size n + m
  int num_rows = 0;                    ///< m of the source model
  int num_structural = 0;              ///< n of the source model
  std::uint64_t structure_hash = 0;    ///< 0 = unstamped (hand-built)

  [[nodiscard]] bool empty() const { return basic.empty(); }
  [[nodiscard]] bool stamped() const { return structure_hash != 0; }

  /// True when loading into a state built over `lp` can succeed: the
  /// shape matches and, for a stamped basis, the constraint structure
  /// does too. The cheap pre-flight check callers (branch and bound,
  /// the rate search, the partition server) run before paying for a
  /// SimplexState + refactorization.
  [[nodiscard]] bool compatible_with(const LinearProgram& lp) const;

  /// Same pre-flight check, but reporting *why* loading would fail
  /// (kShape / kStructure) instead of a bare bool — the serve cache
  /// breaks its warm_basis_rejected counter out by this reason.
  [[nodiscard]] BasisRejectReason compatibility_with(
      const LinearProgram& lp) const;
};

/// Persistent, re-enterable simplex working state over one model shape.
///
/// The working form (columns, slacks, costs) is built once from the
/// LinearProgram; after that, callers may tighten/relax variable bounds
/// and re-solve() repeatedly. Each solve starts from the current basis
/// (phase-1 repair if the bound edits made it infeasible) rather than
/// from all-slacks, which is what makes the branch-and-bound sweep of
/// Fig. 6 cheap: sibling node LPs differ by one bound.
class SimplexState {
 public:
  explicit SimplexState(const LinearProgram& lp,
                        const SimplexOptions& opts = {});

  /// Replaces the bounds of structural variable `v` in the working
  /// form. The factorized basis remains valid; a nonbasic variable is
  /// snapped onto the bound it rests on.
  void set_bounds(int v, double lo, double up);

  /// Re-reads all structural bounds from `lp` (which must be the model
  /// this state was built from, or one of identical shape). Cheap: the
  /// model's bound revision counter short-circuits the no-change case.
  void sync_bounds(const LinearProgram& lp);

  [[nodiscard]] double lower(int v) const { return lo_[v]; }
  [[nodiscard]] double upper(int v) const { return up_[v]; }
  [[nodiscard]] int num_structural() const { return n_struct_; }
  [[nodiscard]] int num_rows() const { return m_; }

  /// Optimizes from the current basis (warm). Under ReentryKind::kDual
  /// a dual-feasible basis is repaired by the dual simplex (phase-1
  /// fallback otherwise); then phase 1 repairs any remaining primal
  /// infeasibility and phase 2 minimizes the true objective.
  ///
  /// `cutoff`: while the dual loop runs, the objective is a valid,
  /// monotonically nondecreasing lower bound on this LP's optimum —
  /// once it reaches `cutoff` the solve stops with kCutoff instead of
  /// grinding to feasibility (branch-and-bound prunes such nodes
  /// regardless of the exact optimum; LP-infeasible nodes, whose bound
  /// diverges, are cut off long before the dual-unbounded proof
  /// completes). kInf (the default) never triggers, and the phase-1
  /// path ignores the cutoff entirely — its iterates carry no bound.
  [[nodiscard]] LpSolution solve(double cutoff = kInf);

  /// Discards the basis and returns to the cold-start crash basis (all
  /// slacks basic, structural variables at their preferred bound).
  void reset();

  /// Snapshot of the current basis for warm-starting a related solve.
  [[nodiscard]] Basis extract_basis() const;

  /// Installs an inherited basis and refactorizes the basis inverse.
  /// On shape mismatch or a singular basis the state falls back to the
  /// cold-start basis and returns false; last_load_reject() then says
  /// why.
  bool load_basis(const Basis& basis);

  /// Why the most recent load_basis call rejected its basis (kNone
  /// after a successful load or before any load).
  [[nodiscard]] BasisRejectReason last_load_reject() const {
    return last_load_reject_;
  }

  /// Reduced costs of the structural variables (model order) for the
  /// current basis (meaningful after a solve() that returned kOptimal);
  /// basic variables read 0. After an optimal exit these are the
  /// maintained reduced costs the optimality check just rebuilt, so no
  /// extra BTRAN runs; in any other state the first access rebuilds
  /// them. Used by branch and bound for reduced-cost variable fixing.
  [[nodiscard]] const std::vector<double>& reduced_costs();

  /// The basis engine actually in use (kAuto resolved at construction).
  [[nodiscard]] BasisEngineKind engine_kind() const {
    return engine_->kind();
  }
  /// Refactorization / eta-file telemetry of the basis engine.
  [[nodiscard]] const BasisEngineStats& basis_stats() const {
    return engine_->stats();
  }
  /// Cumulative re-entry / pivot telemetry (across solves).
  [[nodiscard]] const SimplexTelemetry& telemetry() const { return tel_; }

  /// Which objective the maintained reduced costs price.
  enum class Costs : std::uint8_t {
    kNone,    ///< stale: rebuilt before the next pricing
    kPhase1,  ///< composite phase 1 (+/-1 on basics beyond eps)
    kPhase2,  ///< the true objective
  };
  /// The reduced costs both loops price from, over all n+m working
  /// columns (structural, then one slack per row; basic columns read
  /// 0), and the objective they price. The differential tests stop a
  /// walk at an iteration limit and recompute them from the basis.
  [[nodiscard]] const std::vector<double>& maintained_reduced_costs() const {
    return d_;
  }
  [[nodiscard]] Costs maintained_costs() const { return d_costs_; }

 private:
  enum class StepOutcome {
    kPivoted,
    kNoDirection,
    kUnbounded,
    kIterLimit,
    kNumericalTrouble,  ///< dual loop: factorization drift, bail out
  };

  struct DualCand {
    double theta = 0.0;  ///< dual ratio d_j / abar_j
    int j = -1;          ///< nonbasic column
    double abar = 0.0;   ///< oriented pivot-row entry
  };

  [[nodiscard]] double phase1_cost(int var) const;
  /// Loads every row's phase-1 basic cost into c1_ and counts the rows
  /// whose cost is nonzero (infeasible_rows_).
  void load_phase1_costs();
  void recompute_basic_values();
  /// d_ = c - A^T B^-T c_B for `costs` (phase 1: c1_ on the basics,
  /// 0 elsewhere) — one full BTRAN; basic columns read 0.
  void rebuild_reduced_costs(Costs costs);
  /// alpha_ = e_r^T B^-1 A over all n+m columns: rho = B^-T e_r, then
  /// the row-wise matrix over rho's nonzeros.
  void pivot_row(int r);
  /// Basis change: with alpha_ the pivot row of `leave_row` (outgoing
  /// basis) and alpha_q the pivot element, d_j -= (d_q / alpha_q) *
  /// alpha_j; the leaving column gets its nonbasic reduced cost.
  void update_reduced_costs(int enter, int leave_row, double alpha_q);
  /// Phase 1, after a step moved the basics on w.pattern: re-derives
  /// their phase-1 costs and folds each change into d_ through its
  /// row's rho (or marks d_ stale when too many changed at once).
  void update_phase1_costs(const IndexedVector& w);
  /// Entering-direction sign for column j given reduced cost d, or 0 if
  /// the column cannot improve the current phase objective.
  [[nodiscard]] double entering_sigma(int j, double d) const;
  /// Dantzig pricing over d_ (candidate list first, full scan to
  /// rebuild it; Bland: first eligible index). Returns -1 if no column
  /// can enter.
  int price(bool bland, double& enter_sigma);
  StepOutcome iterate(bool phase1);
  /// One dual simplex pivot (leaving row: largest bound violation;
  /// entering column: the bound-flipping dual ratio test). Returns
  /// kNoDirection when primal-feasible, kUnbounded when the dual is
  /// unbounded (primal infeasible), kNumericalTrouble when the
  /// row/column pivot values disagree and the caller should fall back
  /// to phase-1 repair.
  StepOutcome dual_iterate();
  /// True when every nonbasic reduced cost has the sign its bound
  /// status requires — the dual-simplex entry condition.
  [[nodiscard]] bool dual_feasible();
  void snap_nonbasic(int j);

  const SimplexOptions opts_;
  const int n_struct_;
  const int m_;
  const std::uint64_t structure_hash_;  ///< of the model built from

  std::vector<double> lo_, up_, cost_, b_;
  std::vector<std::vector<std::pair<int, double>>> cols_;
  /// The same working matrix row-wise (CSR, slack entries included):
  /// row i's entries are (row_col_, row_val_)[row_start_[i] ..
  /// row_start_[i+1]), in ascending column order.
  std::vector<int> row_start_, row_col_;
  std::vector<double> row_val_;

  std::vector<int> basic_;
  std::vector<int> in_basis_;
  std::vector<bool> at_upper_;
  std::vector<double> x_;
  std::unique_ptr<BasisEngine> engine_;

  SimplexTelemetry tel_;

  std::vector<int> candidates_;          ///< partial-pricing list
  std::vector<double> reduced_costs_;    ///< structural view, per basis
  std::vector<double> y_scratch_;        ///< dual scratch (size m)
  IndexedVector w_scratch_;              ///< pivot direction (FTRAN image)
  std::vector<std::pair<double, int>> eligible_scratch_;  ///< pricing
  IndexedVector rho_;                    ///< B^-T e_r of the pivot row
  IndexedVector alpha_;                  ///< pivot row, size n+m
  std::vector<std::uint8_t> alpha_in_;   ///< column listed in alpha_
  std::vector<double> rhs_scratch_;      ///< basic-value / bound-flip rhs
  std::vector<DualCand> dual_cands_;     ///< dual ratio-test candidates
  std::vector<int> flip_scratch_;        ///< columns flipped this pivot
  std::vector<std::pair<int, double>> cost_moves_;  ///< (row, new c1)

  std::vector<double> d_;              ///< reduced costs, all n+m columns
  Costs d_costs_ = Costs::kNone;       ///< what d_ prices
  bool d_checked_ = false;             ///< d_ rebuilt since its last update
  std::vector<double> c1_;             ///< phase-1 cost of each row's basic
  int infeasible_rows_ = 0;            ///< rows with c1_ != 0

  bool basics_dirty_ = false;  ///< bound edits invalidated basic values
  bool reduced_costs_valid_ = false;
  std::uint64_t synced_revision_ = 0;  ///< model bound revision mirrored
  bool bounds_diverged_ = false;  ///< state bounds edited past the model
  BasisRejectReason last_load_reject_ = BasisRejectReason::kNone;
  std::size_t iters_ = 0;      ///< iterations of the current solve()
  int degenerate_run_ = 0;
};

/// Stateless facade: one-shot solve of the LP relaxation (builds a
/// fresh SimplexState internally). Kept for callers that do not reuse
/// solver state.
class SimplexSolver {
 public:
  /// Solves the LP relaxation of `lp` over its current variable bounds.
  [[nodiscard]] LpSolution solve(const LinearProgram& lp,
                                 const SimplexOptions& opts = {}) const;
};

}  // namespace wishbone::ilp
