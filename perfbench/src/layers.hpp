// Workload set-up shared by several workloads, and the per-layer
// measurements of the traced run. A layer that a workload drives is
// measured on that workload's own inputs; a layer it does not drive is
// measured on a fixed probe (the speech app under its Gumstix cut) so
// that every traced run reports every layer.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "apps/eeg.hpp"
#include "apps/speech.hpp"
#include "bench.hpp"
#include "partition/partitioner.hpp"
#include "profile/platform.hpp"
#include "profile/profiler.hpp"

namespace perfbench {

using Traces = std::map<wishbone::graph::OperatorId,
                        std::vector<wishbone::graph::Frame>>;

/// One streaming app, profiled, partitioned at a platform and rate.
struct StreamApp {
  std::unique_ptr<wishbone::apps::EegApp> eeg;
  std::unique_ptr<wishbone::apps::SpeechApp> speech;
  Traces traces;  ///< `batch` events per source, made from the seed
  wishbone::profile::ProfileData pd;
  wishbone::partition::PartitionProblem problem;
  wishbone::partition::PartitionResult solved;
  double solve_wall_s = 0.0;
  std::vector<wishbone::graph::Side> cut;  ///< per operator

  [[nodiscard]] wishbone::graph::Graph& graph() {
    return eeg ? eeg->g : speech->g;
  }
};

/// 22-channel EEG on the Nokia N80 at its native rate, or the speech
/// front end on the Gumstix at 40 frames/s. Spans: apps.build,
/// apps.traces, profile.run, partition.make_problem,
/// partition.solve_partition.
StreamApp setup_stream_app(bool eeg, std::uint64_t seed, std::size_t batch,
                           Tracer& tr);

/// Adds the ilp.* metrics over a set of solver results.
void add_ilp_metrics(Result& r,
                     const std::vector<const wishbone::ilp::MipResult*>& rs);

/// Adds partition.preprocess_ms, partition.build_ilp_ms and
/// partition.vertices_after by calling preprocess and build_ilp again on
/// each problem (the second call is the one timed), plus
/// partition.make_problem_ms from the tracer's spans and
/// partition.overhead_ms from the given samples.
void add_partition_metrics(
    Result& r, Tracer& tr,
    const std::vector<const wishbone::partition::PartitionProblem*>& probs,
    const std::vector<double>& overhead_ms);

/// apps.build_ms and profile.run_ms from the set-up spans.
void add_setup_layer_metrics(Result& r, const Tracer& tr);

/// Checks every DSP kernel the two apps use against its naive
/// double-precision reference; with `timed`, also times each kernel
/// alone at its app's frame size and adds the dsp.* metrics.
void run_dsp_kernels(Result& r, bool timed);

/// runtime.* metrics of `app` under its cut: an all-on-node batch, the
/// marshal path on the cut's mean frame size, cut frames and messages
/// per event, and steady-state heap allocations per event.
void add_runtime_metrics(Result& r, StreamApp& app, std::size_t batch);

/// runtime.* metrics on the speech probe (for workloads without streams).
void add_runtime_probe_metrics(Result& r, std::uint64_t seed);

/// serve.* metrics on a fixed probe server (for workloads that do not
/// drive the server).
void add_serve_probe_metrics(Result& r);

/// obs.trace_overhead_pct from the ratio of traced to untraced
/// operation times measured in the same run.
void add_trace_overhead(Result& r, double traced_over_untraced);

}  // namespace perfbench
