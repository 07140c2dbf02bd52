// fig6_sweep: the paper's Fig. 6 protocol as bench_fig6_solver_cdf runs
// it. The 22-channel EEG app (1412 operators) on the TMote Sky, a linear
// sweep of rate multipliers, CPU budget only (alpha = 0, beta = 1), one
// solve_partition call per rate point with a per-solve node budget and
// no time cap. The node budget fixes each solve's work, so counts repeat
// exactly at one thread. One operation is one make_problem +
// solve_partition; one round is the whole sweep.
//
// Every rate point is solved once per round, 50 times in a 10-second
// run, with identical work each time. Its latency is the fastest of
// those solves, which discards the phases in which other tenants of a
// shared host slow this code down; latency_p50_ms and latency_tail_ms
// are the median and upper quartile of that per-point latency across
// the sweep's 16 problems, and throughput is the sweep's solves per
// second at those per-point latencies. Such phases differ from CPU to
// CPU and can outlast a run, so each round moves each rate point's solve
// to the next CPU, and set-ups rotate over the CPUs too. The node budget
// keeps a solve short (50 to 100 ms on the reference host), so that some
// of a point's solves fall in calm spells: with 100 nodes a solve took up
// to a second and the best of five spread by 17% over runs.
#include <algorithm>
#include <random>

#include "checks.hpp"
#include "graph/pinning.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace wb = wishbone;

namespace {

constexpr std::size_t kPoints = 16;
constexpr std::size_t kMaxNodes = 30;
constexpr std::size_t kMinRounds = 5;
/// The run makes max(kMinRounds, --seconds x kRoundsPerSecond) rounds, a
/// fixed amount of work for a given --seconds. A sweep takes about 1.1 s
/// on the reference host (README), so a run takes about 5.5 x --seconds.
constexpr double kRoundsPerSecond = 5.0;
constexpr std::size_t kProfileWindows = 3;
constexpr int kSetupsPerRound = 3;
constexpr double kTailQ = 0.75;

double multiplier(std::size_t i) {
  return 0.05 + 30.0 * static_cast<double>(i) / static_cast<double>(kPoints);
}

struct Sweep {
  std::unique_ptr<wb::apps::EegApp> app;
  wb::profile::ProfileData pd;
  wb::graph::PinAnalysis pins;
};

Sweep setup_sweep(std::uint64_t seed, Tracer& tr) {
  Sweep s;
  wb::apps::EegConfig cfg;
  cfg.trace_seed = static_cast<std::uint32_t>(seed * 2654435761u + 7u);
  {
    auto span = tr.span("apps.build");
    s.app = std::make_unique<wb::apps::EegApp>(wb::apps::build_eeg_app(cfg));
  }
  Traces traces;
  {
    auto span = tr.span("apps.traces");
    traces = wb::apps::eeg_traces(*s.app, kProfileWindows);
  }
  {
    auto span = tr.span("profile.run");
    wb::profile::Profiler prof(s.app->g);
    s.pd = prof.run(traces, kProfileWindows);
    s.app->g.reset_state();
  }
  s.pins = wb::graph::analyze_pins(s.app->g, wb::graph::Mode::kPermissive);
  return s;
}

}  // namespace

Result run_fig6_sweep(const Options& o, Tracer& tr) {
  Result r;
  // Set-up repetitions are spread over the run (kSetupsPerRound before
  // the first round and after every round), so that setup_s, their
  // median, samples the host as the timed rounds do.
  const std::vector<int> cpus = allowed_cpus();
  std::vector<double> setup_s;
  auto set_up = [&] {
    if (!cpus.empty()) pin_to_cpu(cpus[setup_s.size() % cpus.size()]);
    auto span = tr.span("setup");
    const Clock::time_point t0 = Clock::now();
    Sweep s = setup_sweep(o.seed, tr);
    setup_s.push_back(seconds_since(t0));
    return s;
  };
  for (int i = 1; i < kSetupsPerRound; ++i) set_up();
  const Sweep sw = set_up();
  const auto plat = wb::profile::tmote_sky();
  const double base = sw.app->full_rate_events_per_sec();

  // The seed fixes the order in which the sweep visits its rate points.
  std::vector<std::size_t> order(kPoints);
  for (std::size_t i = 0; i < kPoints; ++i) order[i] = i;
  std::mt19937_64 rng(o.seed);
  std::shuffle(order.begin(), order.end(), rng);

  wb::partition::PartitionOptions opts;
  opts.mip.max_nodes = kMaxNodes;

  // First round's problems and results, indexed by rate point.
  std::vector<wb::partition::PartitionProblem> probs(kPoints);
  std::vector<wb::partition::PartitionResult> first(kPoints);
  std::vector<std::vector<double>> lat_traced(kPoints), lat_untraced(kPoints);
  std::vector<double> overhead_ms;
  const std::size_t rounds = std::max<std::size_t>(
      kMinRounds, static_cast<std::size_t>(o.seconds * kRoundsPerSecond));
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t pos = 0; pos < kPoints; ++pos) {
      const std::size_t i = order[pos];
      if (!cpus.empty()) pin_to_cpu(cpus[(round + pos) % cpus.size()]);
      const bool traced = o.trace && (round + pos) % 2 == 1;
      tr.set_active(traced);
      const Clock::time_point t0 = Clock::now();
      wb::partition::PartitionProblem prob;
      {
        auto span = tr.span("partition.make_problem");
        prob = wb::partition::make_problem(sw.app->g, sw.pins, sw.pd, plat,
                                           base * multiplier(i));
        prob.net_budget = 1e18;
        prob.ram_budget = wb::partition::kNoResourceBudget;
        prob.rom_budget = wb::partition::kNoResourceBudget;
      }
      const Clock::time_point ts = Clock::now();
      wb::partition::PartitionResult res;
      {
        auto span = tr.span("partition.solve_partition");
        res = wb::partition::solve_partition(prob, opts);
      }
      const double solve_s = seconds_since(ts);
      const double ms = seconds_since(t0) * 1e3;
      (traced ? lat_traced : lat_untraced)[i].push_back(ms);
      overhead_ms.push_back((solve_s - res.solver.time_total) * 1e3);
      ++r.attempted;

      if (round == 0) {
        probs[i] = std::move(prob);
        first[i] = std::move(res);
        continue;
      }
      const auto& f = first[i].solver;
      if (res.solver.status != f.status || res.objective != first[i].objective ||
          res.solver.nodes_explored != f.nodes_explored ||
          res.solver.lp_iterations != f.lp_iterations) {
        r.fail("rate point " + std::to_string(i) +
               " changed its result between identical rounds");
      }
    }
    for (int i = 0; i < kSetupsPerRound; ++i) set_up();
  }
  tr.set_active(true);

  // Output checks, once per rate point (later rounds repeat round one).
  std::vector<SweepPoint> points;
  double bytes_per_event = 0.0;
  std::size_t feasible = 0;
  std::size_t proved_count = 0;
  std::uint64_t failed_points = 0;
  for (std::size_t i = 0; i < kPoints; ++i) {
    const auto& p = probs[i];
    const auto& res = first[i];
    const double rate = base * multiplier(i);
    std::string why;
    if (res.feasible) {
      why = check_reported_plan(p, res.sides, res.objective, res.cpu_used,
                                res.net_used);
    }
    const std::vector<wb::graph::Side> fallback = all_movable_on_server(p);
    if (why.empty() && check_plan(p, fallback).empty()) {
      const double fb = plan_loads(p, fallback).objective(p);
      if (!res.feasible) {
        why = "no plan although moving every movable operator to the "
              "server is feasible";
      } else if (res.objective > fb * (1.0 + 1e-9) + 1e-9) {
        why = "plan worse than every movable operator on the server";
      }
    }
    if (!why.empty()) {
      std::printf("rate point %zu: %s\n", i, why.c_str());
      ++failed_points;
    }
    proved_count += proved(res.solver) ? 1 : 0;
    points.push_back({rate, res.feasible, proved(res.solver), res.objective});
    if (res.feasible) {
      bytes_per_event += plan_loads(p, res.sides).net / rate;
      ++feasible;
    }
  }
  r.failed = failed_points * rounds;
  const std::string mono = check_sweep_monotone(points);
  if (!mono.empty()) r.fail("sweep: " + mono);
  std::printf("sweep: %zu rounds of %zu solves, %zu proved, %zu feasible\n",
              rounds, kPoints, proved_count, feasible);

  if (!o.trace) {
    r.add("setup_s", median(setup_s), "s");
    std::vector<double> best;
    double best_sum_ms = 0.0;
    for (const auto& l : lat_untraced) {
      best.push_back(*std::min_element(l.begin(), l.end()));
      best_sum_ms += best.back();
    }
    r.add("throughput", static_cast<double>(kPoints) * 1e3 / best_sum_ms, "1/s");
    r.add("latency_p50_ms", median(best), "ms");
    r.add("latency_tail_ms", quantile(best, kTailQ), "ms");
    r.add("cut_bytes_per_event",
          bytes_per_event / static_cast<double>(std::max<std::size_t>(1, feasible)),
          "B");
    r.add("proved_solves", static_cast<double>(proved_count), "count");
    return r;
  }
  add_setup_layer_metrics(r, tr);
  std::vector<const wb::partition::PartitionProblem*> pp;
  std::vector<const wb::ilp::MipResult*> mr;
  std::vector<double> ratios;
  for (std::size_t i = 0; i < kPoints; ++i) {
    pp.push_back(&probs[i]);
    mr.push_back(&first[i].solver);
    if (!lat_traced[i].empty() && !lat_untraced[i].empty()) {
      ratios.push_back(median(lat_traced[i]) / median(lat_untraced[i]));
    }
  }
  add_partition_metrics(r, tr, pp, overhead_ms);
  add_ilp_metrics(r, mr);
  add_serve_probe_metrics(r);
  add_runtime_probe_metrics(r, o.seed);
  run_dsp_kernels(r, true);
  add_trace_overhead(r, median(ratios));
  return r;
}

}  // namespace perfbench
