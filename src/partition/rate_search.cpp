#include "partition/rate_search.hpp"

#include "util/assert.hpp"

namespace wishbone::partition {

RateSearchResult max_sustainable_rate(
    const std::function<PartitionProblem(double)>& problem_at,
    const RateSearchOptions& opts) {
  WB_REQUIRE(opts.min_rate > 0 && opts.max_rate > opts.min_rate,
             "rate search: bad bracket");
  RateSearchResult res;

  // Successive probes usually solve structurally identical ILPs (same
  // graph, rescaled coefficients), so each solve inherits the previous
  // probe's final simplex basis; loading costs one refactorization
  // under the configured basis engine. The solver pre-flights the
  // inherited basis (Basis::compatible_with: shape + structure hash)
  // and cold-starts when this rate's formulation differs — matching
  // dimensions alone are not enough, since preprocessing can merge
  // differently and resource rows can appear or vanish with the rate
  // (probes_with_rejected_basis counts those stale inherits).
  ilp::Basis carried_basis;
  auto attempt = [&](double rate) {
    ++res.partitions_solved;
    PartitionOptions po = opts.partition;
    if (!carried_basis.empty() && !po.mip.warm_basis) {
      po.mip.warm_basis = carried_basis;
    }
    PartitionResult r = solve_partition(problem_at(rate), po);
    if (!r.solver.final_basis.empty()) {
      carried_basis = r.solver.final_basis;
    }
    res.total_bnb_nodes += r.solver.nodes_explored;
    res.total_lp_iterations += r.solver.lp_iterations;
    res.total_basis_refactorizations += r.solver.basis_refactorizations;
    res.total_eta_updates += r.solver.eta_updates;
    res.total_steals += r.solver.steals;
    res.total_snapshot_reloads += r.solver.snapshot_reloads;
    res.total_idle_s += r.solver.idle_s_total;
    res.total_phase1_reentries += r.solver.phase1_reentries;
    if (r.solver.warm_basis_loaded) ++res.probes_with_inherited_basis;
    if (r.solver.warm_basis_rejected) ++res.probes_with_rejected_basis;
    return r;
  };

  // Fast path: everything fits at the top of the bracket.
  PartitionResult top = attempt(opts.max_rate);
  if (top.feasible) {
    res.any_feasible = true;
    res.max_rate = opts.max_rate;
    res.partition_at_max = std::move(top);
    return res;
  }
  PartitionResult bottom = attempt(opts.min_rate);
  if (!bottom.feasible) {
    return res;  // nothing fits even at the minimum rate
  }

  double lo = opts.min_rate;   // known feasible
  double hi = opts.max_rate;   // known infeasible
  res.any_feasible = true;
  res.max_rate = lo;
  res.partition_at_max = std::move(bottom);

  for (std::size_t i = 0;
       i < opts.max_iterations && (hi - lo) > opts.rel_tol * lo; ++i) {
    const double mid = 0.5 * (lo + hi);
    PartitionResult r = attempt(mid);
    if (r.feasible) {
      lo = mid;
      res.max_rate = mid;
      res.partition_at_max = std::move(r);
    } else {
      hi = mid;
    }
  }
  return res;
}

}  // namespace wishbone::partition
