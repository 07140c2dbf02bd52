// Fig. 6 — CDF of the ILP solver runtime on the full 22-channel EEG
// application (1412 operators), invoked across a linear sweep of input
// rates from "everything fits easily" to "nothing fits". Two curves:
// time to *discover* the optimal solution and time to *prove* it
// optimal (search exhausted).
//
// The paper ran lp_solve 2100 times on a 3.2 GHz Xeon: discovery was
// under 90 s worst case (95% under 10 s); proving took up to ~12 min.
// Our solver and hardware differ, so absolute times shift; the shape —
// discovery much faster than proof, with a heavy tail — is the target.
// The sweep size is configurable (argv[1], default 120) so the bench
// finishes in minutes rather than hours.
//
// Usage: bench_fig6_solver_cdf [--engine={auto,dense,lu}] [--threads=K]
//                              [runs] [per_solve_limit_s] [max_nodes]
//                              [mode]
//   --engine   basis factorization engine for the node LPs: "dense"
//              (PR 1's explicit inverse), "lu" (Markowitz LU + eta
//              file), or "auto" (resolve by row count). Defaults:
//              auto for warm mode, dense for seed mode (fidelity to
//              the pre-LU solver).
//   --threads  branch-and-bound workers per solve, a non-negative
//              decimal integer (default 1; 0 = hardware concurrency;
//              anything else exits 1). The determinism contract holds
//              at any K — identical objectives and proof outcomes —
//              so the sweep's per-point objective record doubles as a
//              cross-thread-count consistency check. Per-point steal /
//              snapshot-reload / idle telemetry lands in the JSON.
//   max_nodes  per-solve B&B node budget, 0 = unlimited (default). A
//              finite budget makes solver A/B comparisons well-defined
//              on the censored middle of the sweep: both solvers then
//              do the same breadth of search and the LP-iteration and
//              wall-clock totals measure work, not throughput-at-cap.
//   mode       "warm" (default; persistent simplex state, reduced-cost
//              fixing) or "seed" (cold per-node LPs, no fixing — the
//              pre-warm-start solver, for baseline comparisons).
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "graph/pinning.hpp"
#include "partition/partitioner.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace wishbone;
  // Split the -- flags off the positional arguments.
  bool engine_given = false;
  ilp::BasisEngineKind engine = ilp::BasisEngineKind::kAuto;
  std::size_t threads = 1;
  std::vector<const char*> pos;
  for (int a = 1; a < argc; ++a) {
    if (std::strncmp(argv[a], "--threads=", 10) == 0) {
      // Digits only: atoll would read "abc" as 0 (hardware concurrency)
      // and "-1" as a huge count the library clamps to its worker cap.
      const char* v = argv[a] + 10;
      const std::size_t len = std::strlen(v);
      errno = 0;
      const unsigned long long k = std::strtoull(v, nullptr, 10);
      if (len == 0 || std::strspn(v, "0123456789") != len || errno != 0) {
        std::fprintf(stderr,
                     "bad threads '%s' (expected a non-negative integer)\n",
                     v);
        return 1;
      }
      threads = static_cast<std::size_t>(k);
    } else if (std::strncmp(argv[a], "--engine=", 9) == 0) {
      const char* v = argv[a] + 9;
      if (std::strcmp(v, "dense") == 0) {
        engine = ilp::BasisEngineKind::kDense;
      } else if (std::strcmp(v, "lu") == 0) {
        engine = ilp::BasisEngineKind::kLu;
      } else if (std::strcmp(v, "auto") == 0) {
        engine = ilp::BasisEngineKind::kAuto;
      } else {
        std::fprintf(stderr,
                     "unknown engine '%s' (expected auto, dense, lu)\n", v);
        return 1;
      }
      engine_given = true;
    } else if (std::strncmp(argv[a], "--", 2) == 0) {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[a]);
      return 1;
    } else {
      pos.push_back(argv[a]);
    }
  }
  const std::size_t runs =
      pos.size() > 0 ? static_cast<std::size_t>(std::atoi(pos[0])) : 16;
  // Per-solve wall-clock cap. The 22 nearly-identical EEG channels make
  // *proving* optimality combinatorially symmetric — the same effect
  // behind the paper's 12-minute lp_solve tails — so prove times are
  // right-censored at this limit and the censored fraction is reported.
  const double per_solve_limit_s =
      pos.size() > 1 ? std::atof(pos[1]) : 20.0;
  const std::size_t max_nodes =
      pos.size() > 2 ? static_cast<std::size_t>(std::atoll(pos[2])) : 0;
  if (pos.size() > 3 && std::strcmp(pos[3], "seed") != 0 &&
      std::strcmp(pos[3], "warm") != 0) {
    std::fprintf(stderr,
                 "unknown mode '%s' (expected 'warm' or 'seed')\n", pos[3]);
    return 1;
  }
  const bool seed_solver = pos.size() > 3 && std::strcmp(pos[3], "seed") == 0;
  // Seed fidelity: the pre-LU solver maintained a dense inverse.
  if (seed_solver && !engine_given) engine = ilp::BasisEngineKind::kDense;
  if (runs == 0) {
    std::fprintf(stderr, "runs must be >= 1\n");
    return 1;
  }

  bench::header("Figure 6",
                "solver runtime CDF, full EEG app (1412 operators)");
  bench::paper_note(
      "2100 lp_solve runs: optimal discovered <90 s worst case, 95% "
      "<10 s; proving optimality up to ~12 min — discovery << proof");

  auto pe = bench::profiled_eeg(apps::EegConfig{}, 3);
  std::printf("graph: %zu operators\n", pe.app.g.num_operators());
  const auto pins = graph::analyze_pins(pe.app.g, graph::Mode::kPermissive);
  const double base = pe.app.full_rate_events_per_sec();
  const auto plat = profile::tmote_sky();

  std::vector<double> discover, prove, objectives, proved, point_nodes,
      point_iters, point_wall, point_refacs, point_etas, point_steals,
      point_reloads, point_idle, point_ftran_calls, point_ftran_nnz, point_factor_entries,
      point_btran_calls, point_btran_unit_calls, point_btran_unit_nnz,
      point_rc_rebuilds;
  std::size_t feasible = 0;
  std::size_t censored = 0;
  std::size_t total_nodes = 0;
  std::size_t total_lp_iters = 0;
  std::size_t total_rc_fixed = 0;
  std::size_t total_refacs = 0;
  std::size_t total_etas = 0;
  std::size_t eta_len_peak = 0;
  std::size_t total_steals = 0;
  std::size_t total_reloads = 0;
  std::size_t total_phase1_reentries = 0;
  std::size_t total_primal_pivots = 0;
  std::size_t threads_used = threads;
  double total_idle_s = 0.0;
  const char* engine_ran = ilp::engine_name(engine);
  double total_wall_s = 0.0;
  for (std::size_t i = 0; i < runs; ++i) {
    // Linear rate sweep over everything-fits ... nothing-fits. Like the
    // paper's 2100-invocation experiment, the objective minimizes
    // network bandwidth subject to CPU capacity only (alpha=0, beta=1,
    // "allow the CPU to be fully utilized"); the other budgets are
    // lifted so every instance is a nontrivial CPU-bound knapsack.
    const double mult =
        0.05 + 30.0 * static_cast<double>(i) / static_cast<double>(runs);
    auto prob = partition::make_problem(pe.app.g, pins, pe.pd, plat,
                                        base * mult);
    prob.net_budget = 1e18;
    prob.ram_budget = partition::kNoResourceBudget;
    prob.rom_budget = partition::kNoResourceBudget;
    partition::PartitionOptions opts;
    opts.mip.time_limit_s = per_solve_limit_s;
    opts.mip.lp.engine = engine;
    opts.mip.threads = threads;
    if (max_nodes > 0) opts.mip.max_nodes = max_nodes;
    if (seed_solver) {
      // Pre-warm-start solver, identical partitioner heuristics: every
      // node LP cold-starts with full Dantzig pricing, and no reduced-
      // cost fixing shrinks the tree. Isolates the solver change in
      // A/B runs.
      opts.mip.warm_lp = false;
      opts.mip.reduced_cost_fixing = false;
      opts.mip.lp.candidate_list_size = 0;
    }
    const auto r = partition::solve_partition(prob, opts);
    total_nodes += r.solver.nodes_explored;
    total_lp_iters += r.solver.lp_iterations;
    total_rc_fixed += r.solver.vars_fixed_by_reduced_cost;
    total_refacs += r.solver.basis_refactorizations;
    total_etas += r.solver.eta_updates;
    eta_len_peak = std::max(eta_len_peak, r.solver.eta_len_peak);
    engine_ran = ilp::engine_name(r.solver.basis_engine);  // kAuto resolved
    point_wall.push_back(r.solver.time_total);
    point_refacs.push_back(
        static_cast<double>(r.solver.basis_refactorizations));
    point_etas.push_back(static_cast<double>(r.solver.eta_updates));
    point_ftran_calls.push_back(static_cast<double>(r.solver.ftran_calls));
    point_ftran_nnz.push_back(static_cast<double>(r.solver.ftran_nnz));
    point_factor_entries.push_back(
        static_cast<double>(r.solver.factor_row_entries));
    point_btran_calls.push_back(static_cast<double>(r.solver.btran_calls));
    point_btran_unit_calls.push_back(
        static_cast<double>(r.solver.btran_unit_calls));
    point_btran_unit_nnz.push_back(
        static_cast<double>(r.solver.btran_unit_nnz));
    point_rc_rebuilds.push_back(
        static_cast<double>(r.solver.reduced_cost_rebuilds));
    point_steals.push_back(static_cast<double>(r.solver.steals));
    point_reloads.push_back(static_cast<double>(r.solver.snapshot_reloads));
    point_idle.push_back(r.solver.idle_s_total);
    total_phase1_reentries += r.solver.phase1_reentries;
    total_primal_pivots += r.solver.primal_pivots;
    total_steals += r.solver.steals;
    total_reloads += r.solver.snapshot_reloads;
    total_idle_s += r.solver.idle_s_total;
    threads_used = r.solver.threads_used;  // threads=0 resolved
    total_wall_s += r.solver.time_total;
    // "Proved" = the instance was fully resolved: optimality shown or
    // infeasibility established. 0 marks a time/node-limit censoring.
    proved.push_back(r.solver.status == ilp::SolveStatus::kOptimal ||
                             r.solver.status == ilp::SolveStatus::kInfeasible
                         ? 1.0
                         : 0.0);
    point_nodes.push_back(static_cast<double>(r.solver.nodes_explored));
    point_iters.push_back(static_cast<double>(r.solver.lp_iterations));
    if (!r.solver.has_incumbent) {
      objectives.push_back(-1.0);
      continue;
    }
    objectives.push_back(r.solver.objective);
    ++feasible;
    // The rounding hook discovers an incumbent at the root; time_to_best
    // is the moment the final optimum appeared, time_total includes the
    // proof (or runs to the cap).
    discover.push_back(r.solver.time_to_best_incumbent);
    if (r.solver.status == ilp::SolveStatus::kOptimal) {
      prove.push_back(r.solver.time_total);
    } else {
      ++censored;
    }
  }

  std::printf("feasible solves: %zu of %zu; proofs censored at %.0f s: "
              "%zu\n\n",
              feasible, runs, per_solve_limit_s, censored);
  std::printf("%12s %16s %16s\n", "percentile", "discover (s)",
              "prove (s, uncensored)");
  for (double p : {5.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0}) {
    std::printf("%12.0f %16.4f %16.4f\n", p,
                util::percentile(discover, p),
                prove.empty() ? -1.0 : util::percentile(prove, p));
  }
  if (prove.size() * 2 >= feasible && !prove.empty()) {
    std::printf("\nshape check: median discover / median prove = %.3f "
                "(paper: << 1)\n",
                util::percentile(discover, 50.0) /
                    util::percentile(prove, 50.0));
  } else {
    std::printf("\nshape check: median discover %.3f s while most "
                "proofs exceed the cap — discovery << proof, as in the "
                "paper\n",
                discover.empty() ? -1.0
                                 : util::percentile(discover, 50.0));
  }
  std::printf("censored instances prove slower than %.0f s each — the "
              "paper's own proof tail ran to ~12 minutes\n",
              per_solve_limit_s);
  std::printf("\nsolver totals (%s, %s engine, %zu thread%s): %zu B&B "
              "nodes, %zu LP iterations, %zu reduced-cost fixings, "
              "%.2f s wall\n",
              seed_solver ? "seed" : "warm", engine_ran, threads_used,
              threads_used == 1 ? "" : "s", total_nodes, total_lp_iters,
              total_rc_fixed, total_wall_s);
  std::printf("basis engine: %zu refactorizations, %zu eta updates, "
              "eta-file peak %zu\n",
              total_refacs, total_etas, eta_len_peak);
  {
    const auto sum = [](const std::vector<double>& v) {
      double s = 0.0;
      for (double x : v) s += x;
      return s;
    };
    const auto per = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    const double calls = sum(point_ftran_calls);
    const double btrans = sum(point_btran_calls);
    const double units = sum(point_btran_unit_calls);
    std::printf("engine work: %.0f FTRANs, %.1f result nonzeros each; "
                "%.0f row entries per factorization; %.0f full BTRANs "
                "(%.4f per LP iteration), %.0f reduced-cost rebuilds; "
                "%.0f BTRAN-units, %.1f result nonzeros each\n",
                calls, per(sum(point_ftran_nnz), calls),
                per(sum(point_factor_entries),
                    static_cast<double>(total_refacs)),
                btrans, per(btrans, static_cast<double>(total_lp_iters)),
                sum(point_rc_rebuilds), units,
                per(sum(point_btran_unit_nnz), units));
  }
  std::printf("re-entry: %zu phase-1 re-entries; %zu primal pivots\n",
              total_phase1_reentries, total_primal_pivots);
  if (threads_used > 1) {
    std::printf("parallel search: %zu steals, %zu snapshot reloads, "
                "%.2f s summed worker idle\n",
                total_steals, total_reloads, total_idle_s);
  }

  // Machine-readable record so the solver's perf trajectory is tracked
  // across PRs (nodes / LP iterations / discover / prove / objectives).
  bench::Json j;
  j.set("bench", std::string("fig6_solver_cdf"));
  j.set("mode", std::string(seed_solver ? "seed" : "warm"));
  j.set("engine", std::string(engine_ran));
  j.set("threads", threads_used);
  j.set("runs", runs);
  j.set("per_solve_limit_s", per_solve_limit_s);
  j.set("max_nodes_per_solve", max_nodes);
  j.set("feasible", feasible);
  j.set("censored_proofs", censored);
  j.set("total_nodes", total_nodes);
  j.set("total_lp_iterations", total_lp_iters);
  j.set("total_rc_fixings", total_rc_fixed);
  j.set("total_basis_refactorizations", total_refacs);
  j.set("total_eta_updates", total_etas);
  j.set("eta_len_peak", eta_len_peak);
  j.set("total_phase1_reentries", total_phase1_reentries);
  j.set("total_primal_pivots", total_primal_pivots);
  j.set("total_steals", total_steals);
  j.set("total_snapshot_reloads", total_reloads);
  j.set("total_idle_s", total_idle_s);
  j.set("total_wall_s", total_wall_s);
  j.set("discover_p50_s",
        discover.empty() ? -1.0 : util::percentile(discover, 50.0));
  j.set("discover_p95_s",
        discover.empty() ? -1.0 : util::percentile(discover, 95.0));
  j.set("discover_max_s",
        discover.empty() ? -1.0 : util::percentile(discover, 100.0));
  j.set("prove_p50_s", prove.empty() ? -1.0 : util::percentile(prove, 50.0));
  j.set("prove_max_s", prove.empty() ? -1.0 : util::percentile(prove, 100.0));
  j.set_array("objectives", objectives);
  j.set_array("proved", proved);
  j.set_array("nodes_per_point", point_nodes);
  j.set_array("lp_iterations_per_point", point_iters);
  j.set_array("wall_s_per_point", point_wall);
  j.set_array("refactorizations_per_point", point_refacs);
  j.set_array("eta_updates_per_point", point_etas);
  j.set_array("steals_per_point", point_steals);
  j.set_array("snapshot_reloads_per_point", point_reloads);
  j.set_array("idle_s_per_point", point_idle);
  // Work per basis-engine layer, per point (deterministic counts, no
  // clocks): which layer moved can be read from here alone.
  // ftran_nnz / ftran_calls is the mean FTRAN result size (the work
  // FTRAN does follows it); factor_row_entries divided by
  // refactorizations_per_point (above) is the elimination's row-update
  // work per factorization; btran_calls divided by
  // lp_iterations_per_point is the full BTRANs per iteration (the
  // reduced-cost rebuilds are among them); btran_unit_nnz /
  // btran_unit_calls is the mean pivot-row rho size.
  {
    obs::JsonWriter b(/*pretty=*/true);
    b.begin_object();
    const std::pair<const char*, const std::vector<double>*> arrays[] = {
        {"ftran_calls_per_point", &point_ftran_calls},
        {"ftran_nnz_per_point", &point_ftran_nnz},
        {"factor_row_entries_per_point", &point_factor_entries},
        {"btran_calls_per_point", &point_btran_calls},
        {"btran_unit_calls_per_point", &point_btran_unit_calls},
        {"btran_unit_nnz_per_point", &point_btran_unit_nnz},
        {"reduced_cost_rebuilds_per_point", &point_rc_rebuilds}};
    for (const auto& [name, vs] : arrays) {
      b.key(name).begin_array();
      for (double v : *vs) b.value(v);
      b.end_array();
    }
    b.end_object();
    j.set_raw("breakdown", b.take());
  }
  j.write("BENCH_fig6.json");
  return 0;
}
