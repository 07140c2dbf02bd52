// Output checks of the benchmark. Each one is computed separately from
// the program (the benchmark's own loops and naive double-precision
// references) or follows from a property of the method; none of them
// calls the library function whose output it judges.
//
// Every check returns an empty string when the output passes and a
// one-line reason otherwise. checks_test.cpp shows each rejecting a
// corrupted output.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "graph/frame.hpp"
#include "partition/problem.hpp"

namespace perfbench {

using wishbone::graph::Frame;
using wishbone::graph::OperatorId;
using wishbone::graph::Side;
using wishbone::partition::PartitionProblem;

/// Loads of a plan, recomputed from the problem's vertices and edges.
struct PlanLoads {
  double cpu = 0.0;
  double net = 0.0;  ///< bandwidth of every cut edge
  double ram = 0.0;
  double rom = 0.0;
  bool pins_ok = true;
  bool one_direction = true;  ///< no server -> node edge
  [[nodiscard]] double objective(const PartitionProblem& p) const {
    return p.alpha * cpu + p.beta * net;
  }
};

[[nodiscard]] PlanLoads plan_loads(const PartitionProblem& p,
                                   const std::vector<Side>& sides);

/// Pins, a single crossing direction and every budget of `p` (the
/// request's exact budgets; absolute slack 1e-9 as in the library's own
/// feasibility test).
[[nodiscard]] std::string check_plan(const PartitionProblem& p,
                                     const std::vector<Side>& sides);

/// check_plan plus the plan's reported objective and loads against the
/// recomputed ones (relative 1e-9).
[[nodiscard]] std::string check_reported_plan(const PartitionProblem& p,
                                              const std::vector<Side>& sides,
                                              double objective, double cpu,
                                              double net);

/// The benchmark's own baseline: every movable vertex on the server.
[[nodiscard]] std::vector<Side> all_movable_on_server(const PartitionProblem& p);

/// One solved rate point of a sweep.
struct SweepPoint {
  double rate = 0.0;  ///< input events per second
  bool feasible = false;
  bool proved = false;  ///< optimal or infeasible within the node budget
  double objective = 0.0;
};

/// The feasible set only shrinks as the rate rises and every load is
/// linear in the rate, so no plan may beat (in objective / rate) a
/// proved optimum at a lower or equal rate, and a proved-infeasible
/// rate admits no feasible plan above it.
[[nodiscard]] std::string check_sweep_monotone(
    const std::vector<SweepPoint>& points);

/// Bit-for-bit equality of two runs' sink outputs.
[[nodiscard]] std::string compare_sinks(
    const std::map<OperatorId, std::vector<Frame>>& a,
    const std::map<OperatorId, std::vector<Frame>>& b);

/// max_i |got_i - ref_i| / max(1, max_i |ref_i|) <= tol, sizes equal.
[[nodiscard]] std::string check_close(const char* what,
                                      const std::vector<float>& got,
                                      const std::vector<double>& ref,
                                      double tol);

// Naive double-precision references of the timed kernels, each from its
// textbook definition and a fresh (reset) state.
std::vector<double> ref_preemphasis(const std::vector<float>& x, double alpha);
std::vector<double> ref_hamming(const std::vector<float>& x);
std::vector<double> ref_power_spectrum(const std::vector<float>& x);
std::vector<double> ref_mel(const std::vector<float>& spectrum,
                            std::size_t filters, double sample_rate_hz);
std::vector<double> ref_log(const std::vector<float>& x);
std::vector<double> ref_dct(const std::vector<float>& x, std::size_t coeffs);
/// One polyphase wavelet stage from reset: even/odd branch FIRs
/// (coefficient 0 on the newest sample, zero history), summed pairwise.
std::vector<double> ref_polyphase(const std::vector<float>& frame,
                                  const std::vector<float>& even_taps,
                                  const std::vector<float>& odd_taps);
double ref_svm(const std::vector<float>& w, float bias,
               const std::vector<float>& x);

}  // namespace perfbench
