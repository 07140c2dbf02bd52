#include "partition/partitioner.hpp"

#include <algorithm>
#include <limits>

#include "ilp/simplex.hpp"
#include "util/assert.hpp"

namespace wishbone::partition {

std::vector<Side> PartitionResult::operator_assignment(
    const PartitionProblem& solved_problem,
    std::size_t num_operators) const {
  WB_REQUIRE(feasible, "no assignment: partition was infeasible");
  return expand_assignment(solved_problem, sides, num_operators);
}

PartitionResult solve_partition(const PartitionProblem& p_in,
                                const PartitionOptions& opts) {
  PartitionResult res;

  // Hand-built problems may omit the ops mapping; seed it with vertex
  // ids so condensed results can be expanded back.
  PartitionProblem p = p_in;
  for (std::size_t v = 0; v < p.vertices.size(); ++v) {
    if (p.vertices[v].ops.empty()) p.vertices[v].ops = {v};
  }

  PartitionProblem work = opts.preprocess ? preprocess(p, &res.prep) : p;
  if (!opts.preprocess) {
    res.prep.vertices_before = res.prep.vertices_after = p.num_vertices();
    res.prep.edges_before = res.prep.edges_after = p.num_edges();
  }

  ilp::LinearProgram model = build_ilp(work, opts.formulation);

  ilp::MipOptions mip = opts.mip;
  if (opts.warm_start && opts.formulation == Formulation::kRestricted) {
    // Threshold-round shallow LP relaxations into feasible cuts inside
    // branch and bound (no extra LP solve needed: the root relaxation
    // is already computed there). The root basis that produced the
    // rounded incumbent stays live in the solver's shared SimplexState,
    // so every subsequent node LP warm-starts from it — the rounding
    // warm start and the basis warm start ride the same relaxation.
    mip.rounding_hook =
        [&work](const std::vector<double>& lp_x)
        -> std::optional<std::vector<double>> {
      return threshold_round(work, lp_x);
    };
    // Round every node's relaxation, not just shallow ones: a threshold
    // sweep costs O(V+E) per distinct f value — noise next to the node
    // LP — and the EEG instances' deep nodes yield cuts the root
    // relaxation never suggests. Better incumbents also feed the
    // solver's reduced-cost fixing, which needs a tight cutoff to fire.
    mip.rounding_depth = std::numeric_limits<std::size_t>::max();
  }
  // opts.warm_start only governs the rounding hook; the solver knobs
  // (warm_lp, reduced_cost_fixing, candidate list, warm_basis) stay whatever
  // the caller put in opts.mip — ablations wanting the full seed
  // solver set those fields explicitly.

  ilp::BranchAndBound bnb;
  res.solver = bnb.solve(model, mip);
  // Callers chaining related solves (rate search, repeated sweeps) pick
  // the final basis up from res.solver.final_basis and thread it into
  // the next solve's opts.mip.warm_basis; under the LU engine the load
  // costs one sparse refactorization instead of an O(m^3) Gauss-Jordan,
  // and res.solver.warm_basis_loaded reports whether the inherit took.
  if (!res.solver.has_incumbent) {
    res.feasible = false;
    return res;
  }

  const std::vector<Side> work_sides = decode_solution(work, res.solver.x);
  const AssignmentEval ev = evaluate_assignment(work, work_sides);
  WB_ASSERT_MSG(ev.respects_pins, "solver produced a pin-violating cut");
  res.feasible = true;
  res.cpu_used = ev.cpu;
  res.net_used = ev.net;
  res.ram_used = ev.ram;
  res.rom_used = ev.rom;
  res.objective = objective_of(work, ev);

  // Expand condensed vertices back to the caller's problem vertices.
  // `work.vertices[i].ops` holds the ops each condensed vertex covers;
  // for a problem built by make_problem those are original operator
  // ids, and for a hand-built problem they are the caller's vertex ids
  // (make_problem seeds ops = {v}).
  std::size_t max_op = 0;
  for (const ProblemVertex& v : p.vertices) {
    for (OperatorId op : v.ops) max_op = std::max(max_op, op + 1);
  }
  const std::vector<Side> per_op =
      expand_assignment(work, work_sides, max_op);
  // Map back to p's vertex order via each vertex's first op id.
  res.sides.resize(p.num_vertices());
  for (std::size_t v = 0; v < p.num_vertices(); ++v) {
    WB_ASSERT(!p.vertices[v].ops.empty());
    res.sides[v] = per_op[p.vertices[v].ops.front()];
  }
  res.node_partition_size = static_cast<std::size_t>(
      std::count(res.sides.begin(), res.sides.end(), Side::kNode));
  return res;
}

PartitionResult partition_graph(const graph::Graph& g,
                                const profile::ProfileData& pd,
                                const profile::PlatformModel& plat,
                                double events_per_sec, graph::Mode mode,
                                const PartitionOptions& opts) {
  const graph::PinAnalysis pins = graph::analyze_pins(g, mode);
  const PartitionProblem p =
      make_problem(g, pins, pd, plat, events_per_sec);
  PartitionResult res = solve_partition(p, opts);
  if (res.feasible) {
    res.sides = expand_assignment(p, res.sides, g.num_operators());
    res.node_partition_size = static_cast<std::size_t>(
        std::count(res.sides.begin(), res.sides.end(), Side::kNode));
  }
  return res;
}

}  // namespace wishbone::partition
