// The benchmark's workloads. Each builds its inputs from Options::seed,
// sets up several times (setup_s is the median), measures whole rounds
// of operations for at least Options::seconds, checks the outputs, and
// reports the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run).
#pragma once

#include "bench.hpp"
#include "ilp/branch_and_bound.hpp"

namespace perfbench {

Result run_fig6_sweep(const Options& o, Tracer& tr);
Result run_serve_drift(const Options& o, Tracer& tr);
Result run_stream(const Options& o, Tracer& tr, bool eeg);

/// Solved to optimality or shown infeasible within the solver's limits.
inline bool proved(const wishbone::ilp::MipResult& m) {
  return m.status == wishbone::ilp::SolveStatus::kOptimal ||
         m.status == wishbone::ilp::SolveStatus::kInfeasible;
}

}  // namespace perfbench
