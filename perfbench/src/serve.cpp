// serve_drift: one serve::PartitionServer in front of a simulated fleet.
//
// Devices run the speech app or the EEG app at one to four channels on
// the TMote Sky, Nokia N80 or Gumstix; each app is profiled once. Every
// device's profile random-walks in whole quantization cells: its CPU
// loads scale by 1.05^kc and its stream bandwidths by 1.05^kb, with kc
// and kb in [-3, 3]. Requests therefore mix cache hits, stale warm
// re-solves and misses, and the LRU is sized below the fleet's working
// set so that solves keep coming at a steady rate. One thread drives a
// closed loop with a fixed number of outstanding requests.
//
// Whole-cell steps give every request in a cell the same problem, so a
// hit answers exactly the question that was asked. Drift inside a cell
// is what makes a hit return a plan solved for another profile, which
// nothing re-checks against the request's own budgets; which hits then
// break a budget depends on the seed and on the order in which solves
// land. That fault is exercised instead by a fixed probe pair at the
// head of every round: request A, then request B with the same key and
// 1% more CPU, whose answer (A's plan) exceeds B's CPU budget every
// time. B counts as one failed operation per round.
#include <algorithm>
#include <cmath>
#include <random>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "checks.hpp"
#include "graph/pinning.hpp"
#include "layers.hpp"
#include "serve/graph_hash.hpp"
#include "serve/server.hpp"
#include "util/alloc_count.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace wb = wishbone;
namespace sv = wishbone::serve;

namespace {

constexpr int kSetupReps = 3;  ///< setup_s is their median
constexpr std::size_t kDevices = 240;
constexpr int kWalk = 3;                 ///< kc, kb in [-kWalk, kWalk]
constexpr double kCell = 1.05;           ///< ServeOptions::profile_resolution
constexpr std::size_t kRound = 510;      ///< fleet requests per round
constexpr std::size_t kPerRound = kRound + 2;
constexpr std::size_t kOutstanding = 8;
constexpr std::size_t kCacheCapacity = 512;
constexpr double kTailQ = 0.999;
constexpr std::uint32_t kProbe = 0xffffffffu;  ///< class id of the probe

struct FleetClass {
  std::size_t app = 0;  ///< index into Fleet::apps
  std::string platform;
  wb::partition::PartitionProblem base;
  double rate = 0.0;    ///< input events per second
};

struct FleetApp {
  wb::graph::Graph g;
  wb::profile::ProfileData pd;
  double rate = 0.0;
  std::uint64_t hash = 0;
};

struct Device {
  std::uint32_t cls = 0;
  int kc = 0;
  int kb = 0;
};

/// A request's identity: the class and cell it was made from (the probe
/// uses kc = 0 for A and 1 for B).
struct Cell {
  std::uint32_t cls = 0;
  int kc = 0;
  int kb = 0;
  friend bool operator==(const Cell&, const Cell&) = default;
};

struct CellHash {
  std::size_t operator()(const Cell& c) const {
    return (static_cast<std::size_t>(c.cls) * 131 +
            static_cast<std::size_t>(c.kc + 16)) * 131 +
           static_cast<std::size_t>(c.kb + 16);
  }
};

/// The probe's problem: a pinned source, two movable filters and a
/// pinned sink whose loads sit at the centres of their quantization
/// cells (exact powers of 1.05), with a CPU budget 0.4% above what the
/// all-on-node plan needs. `cpu_scale` 1.01 stays inside every cell.
wb::partition::PartitionProblem probe_problem(double cpu_scale) {
  wb::partition::PartitionProblem p;
  const struct {
    const char* name;
    wb::graph::Requirement req;
    int cpu_exp;
  } vs[] = {{"probe.src", wb::graph::Requirement::kNode, -40},
            {"probe.filter1", wb::graph::Requirement::kMovable, -20},
            {"probe.filter2", wb::graph::Requirement::kMovable, -15},
            {"probe.sink", wb::graph::Requirement::kServer, -30}};
  for (const auto& v : vs) {
    wb::partition::ProblemVertex pv;
    pv.name = v.name;
    pv.req = v.req;
    pv.cpu = std::pow(kCell, v.cpu_exp) * cpu_scale;
    p.vertices.push_back(pv);
  }
  p.edges = {{0, 1, std::pow(kCell, 60)},
             {1, 2, std::pow(kCell, 50)},
             {2, 3, std::pow(kCell, 30)}};
  p.cpu_budget = (std::pow(kCell, -40) + std::pow(kCell, -20) +
                  std::pow(kCell, -15)) * 1.004;
  p.net_budget = 1e9;
  return p;
}

struct Fleet {
  std::vector<FleetApp> apps;
  std::vector<FleetClass> classes;
  std::vector<Device> devices;
  double scale[2 * kWalk + 1] = {};

  [[nodiscard]] wb::partition::PartitionProblem problem(const Cell& c) const {
    if (c.cls == kProbe) return probe_problem(c.kc == 0 ? 1.0 : 1.01);
    wb::partition::PartitionProblem p = classes[c.cls].base;
    const double cs = scale[c.kc + kWalk];
    const double bs = scale[c.kb + kWalk];
    for (auto& v : p.vertices) v.cpu *= cs;
    for (auto& e : p.edges) e.bandwidth *= bs;
    return p;
  }
  [[nodiscard]] sv::SolveRequest request(const Cell& c) const {
    if (c.cls == kProbe) return {problem(c), "probe", 0, 0.0};
    const FleetClass& k = classes[c.cls];
    return {problem(c), k.platform, apps[k.app].hash, 0.0};
  }
  [[nodiscard]] double rate(const Cell& c) const {
    return c.cls == kProbe ? 1.0 : classes[c.cls].rate;
  }
};

Fleet build_fleet(std::uint64_t seed, Tracer& tr) {
  Fleet f;
  for (int k = -kWalk; k <= kWalk; ++k) f.scale[k + kWalk] = std::pow(kCell, k);
  for (std::size_t a = 0; a < 5; ++a) {
    FleetApp fa;
    Traces traces;
    std::size_t events = 0;
    {
      auto span = tr.span("apps.build");
      if (a == 0) {
        wb::apps::SpeechApp s = wb::apps::build_speech_app();
        events = 120;
        traces = wb::apps::speech_traces(s, events);
        fa.g = std::move(s.g);
        fa.rate = wb::apps::SpeechApp::kFullRateEventsPerSec;
      } else {
        wb::apps::EegConfig cfg;
        cfg.channels = a;
        wb::apps::EegApp e = wb::apps::build_eeg_app(cfg);
        events = 3;
        traces = wb::apps::eeg_traces(e, events);
        fa.rate = e.full_rate_events_per_sec();
        fa.g = std::move(e.g);
      }
    }
    {
      auto span = tr.span("profile.run");
      wb::profile::Profiler prof(fa.g);
      fa.pd = prof.run(traces, events);
    }
    fa.hash = sv::canonical_graph_hash(fa.g);
    f.apps.push_back(std::move(fa));
  }
  const wb::profile::PlatformModel plats[] = {wb::profile::tmote_sky(),
                                              wb::profile::nokia_n80(),
                                              wb::profile::gumstix()};
  for (std::size_t a = 0; a < f.apps.size(); ++a) {
    const auto pins =
        wb::graph::analyze_pins(f.apps[a].g, wb::graph::Mode::kPermissive);
    for (const auto& plat : plats) {
      FleetClass c;
      c.app = a;
      c.platform = plat.name;
      c.rate = f.apps[a].rate;
      auto span = tr.span("partition.make_problem");
      c.base = wb::partition::make_problem(f.apps[a].g, pins, f.apps[a].pd,
                                           plat, c.rate);
      f.classes.push_back(std::move(c));
    }
  }
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> k(-kWalk, kWalk);
  for (std::size_t d = 0; d < kDevices; ++d) {
    f.devices.push_back({static_cast<std::uint32_t>(d % f.classes.size()),
                         k(rng), k(rng)});
  }
  return f;
}

/// Every cell of every class must have its own cache key, and the probe
/// pair must share one: the workload's answers are only checkable if
/// the server's keys match its cells exactly.
std::string check_keys(const Fleet& f, const sv::PartitionServer& srv) {
  std::unordered_set<sv::CacheKey, sv::CacheKeyHash> seen;
  std::size_t cells = 0;
  for (std::uint32_t c = 0; c < f.classes.size(); ++c) {
    for (int kc = -kWalk; kc <= kWalk; ++kc) {
      for (int kb = -kWalk; kb <= kWalk; ++kb) {
        seen.insert(srv.key_for(f.request({c, kc, kb})));
        ++cells;
      }
    }
  }
  if (seen.size() != cells) return "two fleet cells share a cache key";
  if (!(srv.key_for(f.request({kProbe, 0, 0})) ==
        srv.key_for(f.request({kProbe, 1, 0})))) {
    return "the probe pair does not share a cache key";
  }
  return {};
}

struct Pending {
  std::future<sv::SolveResponse> fut;
  Clock::time_point t0;
  Cell cell;
  bool traced = false;
};

/// Answers grouped by (cell, result object), so each distinct answer is
/// checked once and counted as often as it was given.
struct AnswerKey {
  Cell cell;
  const void* result = nullptr;
  friend bool operator==(const AnswerKey&, const AnswerKey&) = default;
};
struct AnswerKeyHash {
  std::size_t operator()(const AnswerKey& k) const {
    return CellHash{}(k.cell) ^ std::hash<const void*>{}(k.result);
  }
};
struct AnswerGroup {
  std::shared_ptr<const wb::partition::PartitionResult> result;
  std::uint64_t count = 0;
  bool solved = false;  ///< some answer in the group was ResponseSource::kSolved
};

}  // namespace

Result run_serve_drift(const Options& o, Tracer& tr) {
  Result r;
  const std::size_t nproc =
      std::max<std::size_t>(2, std::thread::hardware_concurrency());
  sv::ServeOptions so;
  so.workers = std::min<std::size_t>(2, nproc - 1);  // + the driving thread
  so.cache_capacity = kCacheCapacity;

  std::vector<double> setup_s;
  Fleet fleet;
  std::unique_ptr<sv::PartitionServer> srv;
  std::size_t proved_setup = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    srv.reset();
    auto span = tr.span("setup");
    const Clock::time_point t0 = Clock::now();
    fleet = build_fleet(o.seed, tr);
    srv = std::make_unique<sv::PartitionServer>(so);
    const std::string why = check_keys(fleet, *srv);
    if (!why.empty()) throw std::runtime_error(why);
    // Warm the server: every class at its base profile, then every
    // device's starting cell.
    std::vector<std::future<sv::SolveResponse>> warm;
    for (std::uint32_t c = 0; c < fleet.classes.size(); ++c) {
      warm.push_back(srv->submit(fleet.request({c, 0, 0})));
    }
    proved_setup = 0;
    for (auto& w : warm) proved_setup += proved(w.get().result->solver) ? 1 : 0;
    warm.clear();
    for (const Device& d : fleet.devices) {
      warm.push_back(srv->submit(fleet.request({d.cls, d.kc, d.kb})));
    }
    for (auto& w : warm) w.wait();
    setup_s.push_back(seconds_since(t0));
  }

  std::printf("driving thread pinned to cpu %d\n", pin_to_calmest_cpu());

  std::mt19937_64 rng(o.seed ^ 0x5eed5eedULL);
  auto next_cell = [&](std::size_t in_round) -> Cell {
    if (in_round < 2) return {kProbe, static_cast<int>(in_round), 0};
    Device& d = fleet.devices[rng() % fleet.devices.size()];
    const std::uint64_t step = rng() % 16;  // a quarter move one cell
    if (step < 4) {
      int& k = step < 2 ? d.kc : d.kb;
      const int dir = step % 2 == 0 ? 1 : -1;
      k = std::abs(k + dir) > kWalk ? k - dir : k + dir;
    }
    return {d.cls, d.kc, d.kb};
  };

  std::vector<Pending> pending;
  std::vector<double> lat_ms;
  std::vector<double> traced_ms;
  std::vector<double> hit_us;
  std::vector<double> solve_ms;
  std::vector<double> wait_ms;
  std::unordered_map<AnswerKey, AnswerGroup, AnswerKeyHash> answers;
  std::uint64_t hits = 0, coalesced = 0, solved = 0, other = 0;
  std::vector<double> overhead_ms;  // solve_s - MipResult::time_total
  std::vector<Cell> recent;  // last fleet cells answered, for allocs_per_hit
  std::size_t recent_next = 0;

  auto complete = [&](Pending& p, double ms) {
    const sv::SolveResponse resp = p.fut.get();
    (p.traced ? traced_ms : lat_ms).push_back(ms);
    switch (resp.source) {
      case sv::ResponseSource::kCacheHit:
        ++hits;
        if (p.traced) hit_us.push_back(ms * 1e3);
        break;
      case sv::ResponseSource::kCoalesced: ++coalesced; break;
      case sv::ResponseSource::kSolved:
        ++solved;
        solve_ms.push_back(resp.solve_s * 1e3);
        wait_ms.push_back(ms - resp.solve_s * 1e3);
        overhead_ms.push_back(
            (resp.solve_s - resp.result->solver.time_total) * 1e3);
        break;
      default: ++other; break;
    }
    AnswerGroup& g = answers[{p.cell, resp.result.get()}];
    if (!g.result) g.result = resp.result;
    ++g.count;
    g.solved = g.solved || resp.source == sv::ResponseSource::kSolved;
    if (p.cell.cls != kProbe) {
      if (recent.size() < 256) {
        recent.push_back(p.cell);
      } else {
        recent[recent_next++ % recent.size()] = p.cell;
      }
    }
  };

  const sv::ServerStats st0 = srv->stats();
  std::size_t in_round = kPerRound;  // forces a round start
  std::size_t rounds = 0;
  std::uint64_t seq = 0;
  bool issuing = true;
  const Clock::time_point w0 = Clock::now();
  while (issuing || !pending.empty()) {
    while (issuing && pending.size() < kOutstanding) {
      if (in_round == kPerRound) {
        if (rounds > 0 && seconds_since(w0) >= o.seconds) {
          issuing = false;
          break;
        }
        ++rounds;
        in_round = 0;
      }
      Pending p;
      p.cell = next_cell(in_round++);
      p.traced = o.trace && seq++ % 2 == 1;
      tr.set_active(p.traced);
      sv::SolveRequest req = fleet.request(p.cell);
      if (p.traced) {
        auto span = tr.span("serve.key_for");
        const sv::CacheKey k = srv->key_for(req);
        if (k.profile.empty()) r.fail("empty cache key");
      }
      p.t0 = Clock::now();
      {
        auto span = tr.span("serve.submit");
        p.fut = srv->submit(std::move(req));
      }
      if (p.fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        complete(p, seconds_since(p.t0) * 1e3);
      } else {
        pending.push_back(std::move(p));
      }
    }
    for (std::size_t i = 0; i < pending.size();) {
      if (pending[i].fut.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      complete(pending[i], seconds_since(pending[i].t0) * 1e3);
      pending[i] = std::move(pending.back());
      pending.pop_back();
    }
  }
  const double window_s = seconds_since(w0);
  tr.set_active(true);
  const sv::ServerStats st1 = srv->stats();
  r.attempted = rounds * kPerRound;

  // Checks: every answer's plan against its own request's exact
  // budgets, and every solved answer against a direct solve.
  double bytes = 0.0;
  double bytes_n = 0.0;
  std::uint64_t violating = 0;
  std::unordered_map<Cell, double, CellHash> direct;  // objective, -1 = none
  std::vector<const wb::ilp::MipResult*> solver_results;
  std::vector<const wb::partition::PartitionProblem*> solved_probs;
  std::vector<wb::partition::PartitionProblem> kept;
  kept.reserve(64);
  for (const auto& [key, g] : answers) {
    const wb::partition::PartitionProblem p = fleet.problem(key.cell);
    std::string why;
    if (g.result->feasible) {
      why = check_plan(p, g.result->sides);
      if (why.empty() && key.cell.cls != kProbe) {
        bytes += plan_loads(p, g.result->sides).net / fleet.rate(key.cell) *
                 static_cast<double>(g.count);
        bytes_n += static_cast<double>(g.count);
      }
    }
    if (why.empty() && g.solved) {
      auto it = direct.find(key.cell);
      if (it == direct.end()) {
        const auto d = wb::partition::solve_partition(p, so.partition);
        it = direct.emplace(key.cell, d.feasible ? d.objective : -1.0).first;
      }
      const double mine = g.result->feasible ? g.result->objective : -1.0;
      if (std::fabs(mine - it->second) >
          1e-6 * std::max({1.0, std::fabs(mine), std::fabs(it->second)})) {
        why = "solved objective differs from a direct solve";
      }
      solver_results.push_back(&g.result->solver);
      if (kept.size() < kept.capacity()) {
        kept.push_back(p);
        solved_probs.push_back(&kept.back());
      }
    }
    if (!why.empty()) {
      violating += g.count;
      if (violating == g.count || key.cell.cls != kProbe) std::printf("%s answer (class %u, cell %d,%d) x%llu: %s\n",
                  key.cell.cls == kProbe ? "probe" : "fleet", key.cell.cls,
                  key.cell.kc, key.cell.kb,
                  static_cast<unsigned long long>(g.count), why.c_str());
    }
  }
  r.failed = violating + other;
  if (violating != rounds) {
    std::printf("expected exactly one violating answer per round (%zu), "
                "saw %llu\n", rounds, static_cast<unsigned long long>(violating));
  }
  const std::uint64_t answered = hits + coalesced + solved + other;
  std::printf("serve: %zu rounds, %llu answers: %llu hits, %llu solved, "
              "%llu coalesced, %llu other; %zu workers, %zu outstanding\n",
              rounds, static_cast<unsigned long long>(answered),
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(solved),
              static_cast<unsigned long long>(coalesced),
              static_cast<unsigned long long>(other), so.workers, kOutstanding);

  if (!o.trace) {
    r.add("setup_s", median(setup_s), "s");
    r.add("throughput", static_cast<double>(answered) / window_s, "1/s");
    r.add("latency_p50_ms", median(lat_ms), "ms");
    r.add("latency_tail_ms", quantile(lat_ms, kTailQ), "ms");
    r.add("cut_bytes_per_event", bytes / std::max(1.0, bytes_n), "B");
    r.add("proved_solves", static_cast<double>(proved_setup), "count");
    std::printf("tail = p%.1f with %.0f answers beyond it\n", kTailQ * 100,
                (1.0 - kTailQ) * static_cast<double>(lat_ms.size()));
    return r;
  }

  // Allocations per hit, on the idle server: re-ask recently answered
  // cells and count the heap traffic of submits that hit.
  std::uint64_t hit_allocs = 0;
  std::uint64_t counted = 0;
  for (int rep = 0; rep < 8; ++rep) {
    for (const Cell& c : recent) {
      sv::SolveRequest req = fleet.request(c);
      const std::uint64_t a0 = wb::util::allocation_count();
      auto fut = srv->submit(std::move(req));
      const sv::SolveResponse resp = fut.get();
      const std::uint64_t a1 = wb::util::allocation_count();
      if (resp.source == sv::ResponseSource::kCacheHit) {
        hit_allocs += a1 - a0;
        ++counted;
      }
    }
  }
  add_setup_layer_metrics(r, tr);
  add_partition_metrics(r, tr, solved_probs, overhead_ms);
  add_ilp_metrics(r, solver_results);
  r.add("serve.key_us", median(tr.self_ms("serve.key_for")) * 1e3, "us");
  r.add("serve.hit_us", median(hit_us), "us");
  r.add("serve.allocs_per_hit",
        counted > 0 ? static_cast<double>(hit_allocs) / counted : 0.0, "count");
  r.add("serve.hit_ratio", static_cast<double>(hits) / answered, "ratio");
  r.add("serve.solve_ms", median(solve_ms), "ms");
  r.add("serve.wait_ms", median(wait_ms), "ms");
  const double stale = static_cast<double>(st1.stale_resolves - st0.stale_resolves);
  r.add("serve.warm_ratio",
        stale > 0 ? static_cast<double>(st1.warm_basis_used -
                                        st0.warm_basis_used) / stale
                  : 0.0,
        "ratio");
  r.add("serve.coalesced", static_cast<double>(coalesced), "count");
  add_runtime_probe_metrics(r, o.seed);
  run_dsp_kernels(r, true);
  add_trace_overhead(r, median(traced_ms) / median(lat_ms));
  return r;
}

}  // namespace perfbench
