// Branch and bound over the Simplex LP relaxation: the integer half of
// the lp_solve replacement (§4.2.1 footnote 3: "branch-and-bound to
// solve integer-constrained problems ... Simplex to solve linear
// programming problems").
//
// The solver records an incumbent timeline because Fig. 6 plots two
// different quantities: the time at which the optimal solution was
// *discovered* (first incumbent equal to the final optimum) and the
// time needed to *prove* optimality (search exhausted / gap closed).
//
// Incremental state: every worker owns one SimplexState shared by all
// node LPs it solves. A node stores only the chain of bound deltas back
// to the root (shared ancestry, so a node costs O(1) extra memory
// instead of two n-vectors), the worker replays the delta chain onto
// its state, and each LP re-solve warm-starts from the basis the
// previous node left behind — sibling LPs differ by a single bound, so
// phase-1 repair is a few pivots. Reduced-cost fixing pins 0/1
// indicators whose reduced cost already closes the incumbent gap,
// shrinking the tree.
//
// The search itself runs on the engine in ilp/parallel_bnb.{hpp,cpp}:
// a sharded node pool with work stealing, an atomic incumbent, and
// basis-snapshot handoff for stolen nodes. MipOptions::threads picks
// the worker count; the serial solve is the N = 1 specialization of
// the same pool machinery (inline on the calling thread, no spawn).
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "ilp/model.hpp"
#include "ilp/simplex.hpp"
#include "obs/trace.hpp"

namespace wishbone::ilp {

struct MipOptions {
  double int_tol = 1e-6;        ///< integrality tolerance on LP solutions
  double gap_abs = 1e-9;        ///< prune when bound >= incumbent - gap
  /// Relative optimality gap: nodes within gap_rel * |incumbent| of the
  /// incumbent are pruned (lp_solve-style MIP gap; keeps proof times
  /// sane on instances with many near-optimal cuts).
  double gap_rel = 1e-6;
  double time_limit_s = kInf;   ///< wall-clock budget
  std::size_t max_nodes = 1'000'000;
  bool depth_first = false;     ///< default: best-bound-first
  SimplexOptions lp;            ///< options for per-node LP solves
  /// Optional feasible starting point (e.g. from a rounding heuristic);
  /// installed as the incumbent at time zero if it checks out.
  std::optional<std::vector<double>> warm_start;
  /// Optional primal heuristic: called with the fractional LP solution
  /// of shallow nodes (depth <= rounding_depth); may return a candidate
  /// integral assignment, which is installed as the incumbent when it
  /// is feasible and improving. Lets callers plug domain rounding (the
  /// partitioner's threshold cut) without an extra LP solve.
  std::function<std::optional<std::vector<double>>(
      const std::vector<double>&)>
      rounding_hook;
  std::size_t rounding_depth = 1;
  /// Warm-started node LPs: reuse one SimplexState for every node,
  /// re-entering from the previous node's basis. false restores the
  /// seed behavior (every node LP cold-starts from the crash basis) —
  /// kept for A/B measurement and the warm-vs-cold property tests.
  bool warm_lp = true;
  /// Fix integer variables whose reduced cost proves no improving
  /// solution moves them off their bound (requires an incumbent).
  bool reduced_cost_fixing = true;
  /// Optional basis inherited from a structurally identical solve (e.g.
  /// the previous rate-search probe); loaded into the shared state
  /// before the root LP. Ignored on shape mismatch.
  std::optional<Basis> warm_basis;
  /// Number of branch-and-bound workers. 1 (default) runs the search
  /// inline on the calling thread — bit-reproducible run-to-run. N > 1
  /// spawns N workers, each with a private SimplexState over a sharded
  /// node pool with work stealing; 0 resolves to the hardware thread
  /// count. The determinism contract at any thread count: identical
  /// objectives and proof outcomes (node/iteration *counts* may differ
  /// with the interleaving). When threads > 1 the rounding_hook must be
  /// reentrant — it is invoked concurrently from several workers.
  std::size_t threads = 1;
  /// Request-scoped trace context (obs/trace.hpp). Unsampled (the
  /// default) costs nothing; sampled contexts make the search record
  /// bnb.search / bnb.node / basis.load spans parented under the
  /// caller's span. Timestamps only — never affects the search.
  obs::TraceContext trace;
};

struct IncumbentRecord {
  double time_s = 0.0;    ///< seconds since solve() began
  double objective = 0.0;
  std::size_t node = 0;   ///< B&B node index that produced it (0 = warm)
};

/// Per-worker counters of a (possibly parallel) branch-and-bound run.
/// Serial solves report exactly one entry with steals == 0.
struct WorkerTelemetry {
  std::size_t nodes_explored = 0;
  std::size_t lp_iterations = 0;
  /// Nodes this worker popped from another worker's pool shard.
  std::size_t steals = 0;
  /// Steals that reloaded the node's basis snapshot into the worker's
  /// SimplexState instead of phase-1-repairing from a stale basis.
  std::size_t snapshot_reloads = 0;
  /// Wall-clock seconds spent waiting for work (empty pools).
  double idle_s = 0.0;
  std::size_t vars_fixed_by_reduced_cost = 0;
};

struct MipResult {
  SolveStatus status = SolveStatus::kIterationLimit;
  double objective = 0.0;          ///< incumbent objective (if any)
  std::vector<double> x;           ///< incumbent assignment
  bool has_incumbent = false;
  double best_bound = -kInf;       ///< proven lower bound at termination
  std::size_t nodes_explored = 0;
  std::size_t lp_iterations = 0;

  // Fig. 6 instrumentation:
  double time_to_first_incumbent = -1.0;  ///< -1 if none found
  double time_to_best_incumbent = -1.0;   ///< when the optimum appeared
  double time_total = 0.0;                ///< includes the proof phase
  std::vector<IncumbentRecord> incumbents;

  /// Basis of the shared simplex state at termination; thread it into
  /// MipOptions::warm_basis of the next structurally identical solve.
  Basis final_basis;
  /// Variables pinned by reduced-cost fixing across the whole search.
  std::size_t vars_fixed_by_reduced_cost = 0;

  /// Basis-engine telemetry of the shared simplex state: which engine
  /// ran (kAuto resolved), how often the basis was refactorized, how
  /// many pivots the eta file absorbed, and its peak length. Dense
  /// engine: eta fields stay 0. The work counts follow each layer of
  /// the engine: sparse-column FTRANs and their summed result-pattern
  /// sizes, the entries factorize()'s row updates visit, full BTRANs,
  /// and BTRAN-units with their summed result-pattern sizes (see
  /// BasisEngineStats); plus the simplex's full reduced-cost rebuilds
  /// (SimplexTelemetry), each of which is one of the full BTRANs.
  BasisEngineKind basis_engine = BasisEngineKind::kDense;
  std::size_t basis_refactorizations = 0;
  std::size_t eta_updates = 0;
  std::size_t eta_len_peak = 0;
  std::size_t ftran_calls = 0;
  std::size_t ftran_nnz = 0;
  std::size_t factor_row_entries = 0;
  std::size_t btran_calls = 0;
  std::size_t btran_unit_calls = 0;
  std::size_t btran_unit_nnz = 0;
  std::size_t reduced_cost_rebuilds = 0;
  /// True when MipOptions::warm_basis was present, well-shaped, and
  /// factorized cleanly (false = the solve fell back to a cold basis).
  bool warm_basis_loaded = false;
  /// True when MipOptions::warm_basis was present but failed the
  /// pre-flight compatibility check (Basis::compatible_with: shape +
  /// structure hash) — the inherited basis came from a *structurally
  /// different* formulation and the solve cold-started instead of
  /// loading it. Distinct from !warm_basis_loaded, which also covers
  /// singular/degenerate factorization fallbacks of compatible bases.
  bool warm_basis_rejected = false;
  /// Why the inherited warm basis was not used: kShape / kStructure for
  /// pre-flight rejections (warm_basis_rejected == true), kSingular
  /// when the compatible basis failed to load, kNone
  /// when it loaded fine or none was supplied. The serve cache breaks
  /// its warm_basis_rejected counter out by this reason.
  BasisRejectReason warm_basis_reject_reason = BasisRejectReason::kNone;

  /// Re-entry / pivot telemetry summed over every worker's
  /// SimplexState (see SimplexTelemetry): how many node re-solves began
  /// primal-infeasible and needed phase-1 repair, and the pivots taken.
  std::size_t phase1_reentries = 0;
  std::size_t primal_pivots = 0;
  /// Always 0: the solver has no dual re-entry loop. Kept only because
  /// the benchmark's layer report (perfbench/src/layers.cpp) still reads
  /// it; the next change to the benchmark drops it.
  std::size_t dual_reentries = 0;
  /// Always 0, for the same reason as dual_reentries: phase 1 is the
  /// only re-entry path, so nothing can fall back to it.
  std::size_t phase1_fallbacks = 0;

  /// Parallel-search telemetry: the worker count the solve actually ran
  /// with (MipOptions::threads == 0 resolved), one entry per worker,
  /// and the cross-worker totals. Serial solves: threads_used == 1,
  /// steals == snapshot_reloads == 0.
  std::size_t threads_used = 1;
  std::vector<WorkerTelemetry> workers;
  std::size_t steals = 0;
  std::size_t snapshot_reloads = 0;
  double idle_s_total = 0.0;

  /// Absolute optimality gap at termination (0 when proved optimal).
  [[nodiscard]] double gap() const {
    return has_incumbent ? objective - best_bound : kInf;
  }
};

class BranchAndBound {
 public:
  /// Solves the MIP. The model is left untouched: node bounds live in
  /// the workers' own SimplexStates, never written back into `lp`.
  /// Thin facade over ParallelBranchAndBound (ilp/parallel_bnb.hpp) —
  /// opts.threads == 1 runs the identical machinery inline.
  [[nodiscard]] MipResult solve(const LinearProgram& lp,
                                const MipOptions& opts = {}) const;
};

}  // namespace wishbone::ilp
