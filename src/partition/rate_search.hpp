// Data rate as a free variable (§4.3): when no partition fits at the
// requested rate, binary-search the largest input rate that still
// admits a feasible partition. Validity rests on the monotonicity
// argument of §4.3: CPU and network load scale (at least weakly)
// monotonically with the input rate, so feasibility is a downward-
// closed property of the rate.
#pragma once

#include <functional>

#include "partition/partitioner.hpp"

namespace wishbone::partition {

struct RateSearchOptions {
  double min_rate = 1e-3;     ///< lower bracket (events/s)
  double max_rate = 1e6;      ///< upper bracket (events/s)
  double rel_tol = 0.01;      ///< terminate when hi-lo <= rel_tol*lo
  std::size_t max_iterations = 60;
  PartitionOptions partition;
};

struct RateSearchResult {
  bool any_feasible = false;
  double max_rate = 0.0;            ///< highest rate proven feasible
  PartitionResult partition_at_max; ///< the cut found at that rate
  std::size_t partitions_solved = 0;

  // Solver totals across *all* probes (partition_at_max only carries
  // the winning probe's): how much LP work the whole search cost and
  // how the basis engine amortized it over the threaded bases.
  std::size_t total_bnb_nodes = 0;
  std::size_t total_lp_iterations = 0;
  std::size_t total_basis_refactorizations = 0;
  std::size_t total_eta_updates = 0;
  /// Probes whose inherited basis actually factorized and was used
  /// (shape mismatches and singular inherits fall back cold).
  std::size_t probes_with_inherited_basis = 0;
  /// Probes that *rejected* the inherited basis because the formulation
  /// changed shape or constraint structure between rates (preprocessing
  /// merged differently, a resource row appeared/vanished). Those
  /// probes cold-start — the stale-basis compatibility check in
  /// Basis::compatible_with / SimplexState::load_basis at work.
  std::size_t probes_with_rejected_basis = 0;
  // Parallel-search totals across all probes (opts.partition.mip.threads
  // picks the worker count per solve; see MipOptions::threads).
  std::size_t total_steals = 0;
  std::size_t total_snapshot_reloads = 0;
  double total_idle_s = 0.0;
  /// Node re-solves across all probes that began primal-infeasible and
  /// were repaired by composite phase 1 (see SimplexTelemetry).
  std::size_t total_phase1_reentries = 0;
};

/// `problem_at(rate)` must build the partition problem for a given
/// source event rate (typically by rescaling profile data).
[[nodiscard]] RateSearchResult max_sustainable_rate(
    const std::function<PartitionProblem(double)>& problem_at,
    const RateSearchOptions& opts = {});

}  // namespace wishbone::partition
