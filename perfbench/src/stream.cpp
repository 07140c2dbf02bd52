// stream_eeg / stream_speech: an app run through
// runtime::PartitionedExecutor under the cut the partitioner picks, with
// sink collection off. One operation is one source event; latency is per
// fixed batch of events.
//
// A round is a fixed number of timed batches plus one repartitioning
// check (§2.1: a
// partitioned program computes exactly what the unpartitioned one
// does): a fixed input, independent of the seed, runs from reset state
// through copies of the graph under the cut and all on the node, and
// the sink outputs must agree bit for bit. The check counts as one
// operation of its round and as failed when the outputs differ.
#include <algorithm>
#include <memory>

#include "checks.hpp"
#include "layers.hpp"
#include "runtime/executor.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace wb = wishbone;

namespace {

// Batches small enough that the replayed input stays cache resident: the
// batch time then tracks the program rather than the host's memory
// traffic (about 1 ms for EEG, 0.2 ms for speech on the reference host).
constexpr std::size_t kEegBatch = 4;       ///< 2-second windows, 22 channels
constexpr std::size_t kSpeechBatch = 64;   ///< 25 ms frames
// A round is 128 batches: about 80 ms of EEG, 20 ms of speech. Batches
// per second and the median batch time are computed per round and the
// best round's value is reported, which discards the phases in which
// other tenants of a shared host slow this one down; a round is kept
// short because such phases leave only brief calm spells. The tail
// percentile is the highest with at least ten of a round's batches
// beyond it (p92.19). A whole calm round is rarer than a calm half of
// one, so over runs on a shared host the best round's tail spread by a
// third of its value. The tail is reported instead as the best round's
// median times the median, over rounds, of each round's tail-to-median
// ratio.
// A contended phase scales a round's tail and median alike, so the ratio
// keeps the shape of the program's own batch times. The contention is
// per CPU (a CPU whose core another tenant's thread keeps busy runs this
// code about twice as slowly) and can outlast a run, so successive rounds
// run on successive CPUs: a run pinned to one CPU found no calm round in
// 3 of 10 runs of stream_speech.
constexpr std::size_t kBatchesPerRound = 128;
// The window is a fixed amount of work sized from --seconds at the
// reference host's rate (README), so every run streams the same number
// of events: peak memory, which grows with the events streamed under a
// cut, and the operation counts then repeat run to run.
constexpr double kEegEventsPerSecond = 4500.0;
constexpr double kSpeechEventsPerSecond = 250000.0;
constexpr std::size_t kMinRounds = 20;
constexpr std::size_t kCheckEvents = 4;
constexpr int kSetupsBefore = 3;
constexpr std::size_t kRoundsPerSetup = 4;

/// The repartitioning check's two graph copies and fixed input.
struct RepartitionCheck {
  wb::graph::Graph cut_g;
  wb::graph::Graph all_g;
  Traces input;
  std::unique_ptr<wb::runtime::PartitionedExecutor> cut_ex;
  std::unique_ptr<wb::runtime::PartitionedExecutor> all_ex;

  explicit RepartitionCheck(StreamApp& app)
      : cut_g(app.graph().clone()), all_g(app.graph().clone()) {
    if (app.eeg) {
      const std::uint32_t seed = app.eeg->cfg.trace_seed;
      app.eeg->cfg.trace_seed = 7;
      input = wb::apps::eeg_traces(*app.eeg, kCheckEvents);
      app.eeg->cfg.trace_seed = seed;
    } else {
      input = wb::apps::speech_traces(*app.speech, kCheckEvents, 1);
    }
    cut_ex = std::make_unique<wb::runtime::PartitionedExecutor>(cut_g, app.cut);
    all_ex = std::make_unique<wb::runtime::PartitionedExecutor>(
        all_g, std::vector<wb::graph::Side>(all_g.num_operators(),
                                            wb::graph::Side::kNode));
  }

  /// Empty when the partitioned run's sink output matches.
  std::string run() {
    cut_g.reset_state();
    all_g.reset_state();
    const auto a = cut_ex->run(input, kCheckEvents);
    const auto b = all_ex->run(input, kCheckEvents);
    std::size_t frames = 0;
    for (const auto& [op, fs] : b) frames += fs.size();
    if (frames == 0) return "the all-on-node run produced no sink output";
    return compare_sinks(a, b);
  }
};

/// One set-up's state: the partitioned app, its streaming executor and
/// the repartitioning check (both hold references into the app's graph,
/// which lives on the heap, so the struct can move).
struct Stream {
  StreamApp app;
  std::unique_ptr<wb::runtime::PartitionedExecutor> ex;
  std::unique_ptr<RepartitionCheck> check;
};

}  // namespace

Result run_stream(const Options& o, Tracer& tr, bool eeg) {
  Result r;
  const std::size_t batch = eeg ? kEegBatch : kSpeechBatch;

  // Set-up repetitions are spread over the run (kSetupsBefore, then one
  // after every kRoundsPerSetup rounds) and over the CPUs, so that
  // setup_s, their median, samples the host as the timed rounds do.
  const std::vector<int> cpus = allowed_cpus();
  std::vector<double> setup_s;
  std::vector<double> overhead_ms;
  auto set_up = [&] {
    if (!cpus.empty()) pin_to_cpu(cpus[setup_s.size() % cpus.size()]);
    auto span = tr.span("setup");
    const Clock::time_point t0 = Clock::now();
    Stream s;
    s.app = setup_stream_app(eeg, o.seed, batch, tr);
    s.ex = std::make_unique<wb::runtime::PartitionedExecutor>(s.app.graph(),
                                                              s.app.cut);
    s.ex->set_collect_sink_output(false);
    s.ex->run(s.app.traces, batch);  // warms the pool, FIFOs, plan caches
    s.check = std::make_unique<RepartitionCheck>(s.app);
    setup_s.push_back(seconds_since(t0));
    overhead_ms.push_back(
        (s.app.solve_wall_s - s.app.solved.solver.time_total) * 1e3);
    return s;
  };
  for (int i = 1; i < kSetupsBefore; ++i) set_up();
  Stream st = set_up();
  StreamApp& app = st.app;
  wb::runtime::PartitionedExecutor* ex = st.ex.get();
  RepartitionCheck* check = st.check.get();
  std::size_t on_node = 0;
  for (auto s : app.cut) on_node += s == wb::graph::Side::kNode;
  std::printf("cut: %zu of %zu operators on the node, %zu events per batch\n",
              on_node, app.cut.size(), batch);

  const wb::runtime::ExecStats before = ex->stats();
  const std::size_t per_round = kBatchesPerRound;
  std::printf("rounds rotate over %zu cpus\n", cpus.size());
  const double tail_q = 1.0 - 10.0 / static_cast<double>(per_round);
  const std::size_t rounds = std::max<std::size_t>(
      kMinRounds,
      static_cast<std::size_t>(
          o.seconds * (eeg ? kEegEventsPerSecond : kSpeechEventsPerSecond) /
          static_cast<double>(per_round * batch)));
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  std::vector<double> round_ms;
  // Best over rounds of busy time and median; each round's tail/median.
  double best_busy_s = 1e300, best_p50 = 1e300;
  std::vector<double> tail_ratio;
  std::size_t batches = 0;
  std::string check_failure;
  for (std::size_t round = 0; round < rounds; ++round) {
    if (!cpus.empty()) pin_to_cpu(cpus[round % cpus.size()]);
    round_ms.clear();
    double busy_s = 0.0;  // the timed batches; the check is outside
    for (std::size_t b = 0; b < per_round; ++b) {
      const bool traced = o.trace && batches % 2 == 1;
      tr.set_active(traced);
      const Clock::time_point t0 = Clock::now();
      {
        auto span = tr.span("runtime.run_batch");
        ex->run(app.traces, batch);
      }
      const double s = seconds_since(t0);
      busy_s += s;
      round_ms.push_back(s * 1e3);
      if (o.trace) (traced ? traced_ms : untraced_ms).push_back(s * 1e3);
      ++batches;
    }
    best_busy_s = std::min(best_busy_s, busy_s);
    const double p50 = median(round_ms);
    best_p50 = std::min(best_p50, p50);
    tail_ratio.push_back(quantile(round_ms, tail_q) / p50);
    const std::string why = check->run();
    if (!why.empty()) {
      ++r.failed;
      if (check_failure.empty()) check_failure = why;
    }
    if (round % kRoundsPerSetup == kRoundsPerSetup - 1) set_up();
  }
  tr.set_active(true);
  const wb::runtime::ExecStats after = ex->stats();
  const double events = static_cast<double>(after.events - before.events);
  r.attempted = after.events - before.events + rounds;
  if (!check_failure.empty()) {
    std::printf("repartitioning check failed in %llu of %zu rounds: "
                "partitioned %s\n",
                static_cast<unsigned long long>(r.failed), rounds,
                check_failure.c_str());
  }
  run_dsp_kernels(r, o.trace);

  if (!o.trace) {
    r.add("setup_s", median(setup_s), "s");
    r.add("throughput",
          static_cast<double>(per_round * batch) / best_busy_s, "1/s");
    r.add("latency_p50_ms", best_p50, "ms");
    r.add("latency_tail_ms", best_p50 * median(tail_ratio), "ms");
    r.add("cut_bytes_per_event",
          static_cast<double>(after.cut_payload_bytes -
                              before.cut_payload_bytes) / events,
          "B");
    r.add("proved_solves", proved(app.solved.solver) ? 1.0 : 0.0, "count");
    std::printf("rounds: %zu of %zu batches; tail = best p50 x median "
                "p%.2f/p50 (10 batches beyond it in a round)\n",
                rounds, per_round, tail_q * 100);
    return r;
  }
  add_setup_layer_metrics(r, tr);
  add_partition_metrics(r, tr, {&app.problem}, overhead_ms);
  add_ilp_metrics(r, {&app.solved.solver});
  add_serve_probe_metrics(r);
  add_runtime_metrics(r, app, batch);
  add_trace_overhead(r, median(traced_ms) / median(untraced_ms));
  return r;
}

}  // namespace perfbench
