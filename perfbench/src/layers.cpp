#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "checks.hpp"
#include "dsp/dct.hpp"
#include "dsp/fft.hpp"
#include "dsp/mel.hpp"
#include "dsp/svm.hpp"
#include "dsp/wavelet.hpp"
#include "dsp/window.hpp"
#include "graph/pinning.hpp"
#include "partition/formulation.hpp"
#include "partition/preprocess.hpp"
#include "runtime/executor.hpp"
#include "runtime/marshal.hpp"
#include "serve/graph_hash.hpp"
#include "serve/server.hpp"
#include "util/alloc_count.hpp"

namespace perfbench {

namespace wb = wishbone;
using wb::graph::Side;

namespace {

volatile float g_sink = 0.0f;  // keeps timed kernel results observable

std::vector<float> test_signal(std::size_t n, double phase) {
  std::vector<float> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    x[i] = static_cast<float>(900.0 * std::sin(0.031 * t + phase) +
                              250.0 * std::sin(0.47 * t) +
                              40.0 * std::cos(1.9 * t + 2.0 * phase));
  }
  return x;
}

double batch_ms(wb::runtime::PartitionedExecutor& ex, const Traces& traces,
                std::size_t batch) {
  const Clock::time_point t0 = Clock::now();
  ex.run(traces, batch);
  return seconds_since(t0) * 1e3;
}

}  // namespace

StreamApp setup_stream_app(bool eeg, std::uint64_t seed, std::size_t batch,
                           Tracer& tr) {
  StreamApp a;
  const auto seed32 = static_cast<std::uint32_t>(seed * 2654435761u + 7u);
  {
    auto s = tr.span("apps.build");
    if (eeg) {
      wb::apps::EegConfig cfg;  // 22 channels, 1412 operators
      cfg.trace_seed = seed32;
      a.eeg = std::make_unique<wb::apps::EegApp>(wb::apps::build_eeg_app(cfg));
    } else {
      a.speech =
          std::make_unique<wb::apps::SpeechApp>(wb::apps::build_speech_app());
    }
  }
  {
    auto s = tr.span("apps.traces");
    a.traces = eeg ? wb::apps::eeg_traces(*a.eeg, batch)
                   : wb::apps::speech_traces(*a.speech, batch, seed32);
  }
  {
    auto s = tr.span("profile.run");
    wb::profile::Profiler prof(a.graph());
    a.pd = prof.run(a.traces, eeg ? std::min<std::size_t>(batch, 3)
                                  : std::min<std::size_t>(batch, 120));
    a.graph().reset_state();
  }
  const auto plat = eeg ? wb::profile::nokia_n80() : wb::profile::gumstix();
  const double rate = eeg ? a.eeg->full_rate_events_per_sec()
                          : wb::apps::SpeechApp::kFullRateEventsPerSec;
  const auto pins =
      wb::graph::analyze_pins(a.graph(), wb::graph::Mode::kPermissive);
  {
    auto s = tr.span("partition.make_problem");
    a.problem = wb::partition::make_problem(a.graph(), pins, a.pd, plat, rate);
  }
  {
    auto s = tr.span("partition.solve_partition");
    const Clock::time_point t0 = Clock::now();
    a.solved = wb::partition::solve_partition(a.problem);
    a.solve_wall_s = seconds_since(t0);
  }
  if (!a.solved.feasible) {
    throw std::runtime_error("stream cut: partitioner found no feasible plan");
  }
  a.cut = wb::partition::expand_assignment(a.problem, a.solved.sides,
                                           a.graph().num_operators());
  return a;
}

void add_ilp_metrics(Result& r,
                     const std::vector<const wb::ilp::MipResult*>& rs) {
  std::vector<double> solve_ms;
  std::vector<double> best_ms;
  double nodes = 0, iters = 0, refac = 0, dual = 0, fallbacks = 0, secs = 0;
  for (const auto* m : rs) {
    solve_ms.push_back(m->time_total * 1e3);
    if (m->time_to_best_incumbent >= 0.0) {
      best_ms.push_back(m->time_to_best_incumbent * 1e3);
    }
    nodes += static_cast<double>(m->nodes_explored);
    iters += static_cast<double>(m->lp_iterations);
    refac += static_cast<double>(m->basis_refactorizations);
    dual += static_cast<double>(m->dual_reentries);
    fallbacks += static_cast<double>(m->phase1_fallbacks);
    secs += m->time_total;
  }
  const double n = std::max<double>(1.0, static_cast<double>(rs.size()));
  r.add("ilp.solve_ms", median(solve_ms), "ms");
  r.add("ilp.nodes", nodes / n, "count");
  r.add("ilp.lp_iterations", iters / n, "count");
  r.add("ilp.us_per_iteration", iters > 0 ? secs / iters * 1e6 : 0.0, "us");
  r.add("ilp.refactorizations", refac / n, "count");
  r.add("ilp.dual_reentries", dual / n, "count");
  r.add("ilp.phase1_fallbacks", fallbacks / n, "count");
  r.add("ilp.time_to_best_ms", median(best_ms), "ms");
}

void add_partition_metrics(
    Result& r, Tracer& tr,
    const std::vector<const wb::partition::PartitionProblem*>& probs,
    const std::vector<double>& overhead_ms) {
  std::vector<double> after;
  for (const auto* p : probs) {
    wb::partition::PreprocessStats st;
    wb::partition::PartitionProblem pre;
    {
      auto s = tr.span("partition.preprocess");
      pre = wb::partition::preprocess(*p, &st);
    }
    {
      auto s = tr.span("partition.build_ilp");
      const auto lp = wb::partition::build_ilp(
          pre, wb::partition::Formulation::kRestricted);
      g_sink = g_sink + static_cast<float>(lp.num_variables());
    }
    after.push_back(static_cast<double>(st.vertices_after));
  }
  r.add("partition.make_problem_ms", median(tr.self_ms("partition.make_problem")),
        "ms");
  r.add("partition.preprocess_ms", median(tr.self_ms("partition.preprocess")),
        "ms");
  r.add("partition.vertices_after", median(after), "count");
  r.add("partition.build_ilp_ms", median(tr.self_ms("partition.build_ilp")),
        "ms");
  r.add("partition.overhead_ms", median(overhead_ms), "ms");
}

void add_setup_layer_metrics(Result& r, const Tracer& tr) {
  r.add("apps.build_ms", median(tr.self_ms("apps.build")), "ms");
  r.add("profile.run_ms", median(tr.self_ms("profile.run")), "ms");
}

void run_dsp_kernels(Result& r, bool timed) {
  namespace dsp = wb::dsp;
  auto report = [&](const char* name, double ns, const char* unit) {
    if (timed) r.add(name, ns, unit);
  };
  auto check = [&](const std::string& why) {
    if (!why.empty()) r.fail("kernel " + why);
  };
  auto ns_per_call = [&](auto&& body) {
    return timed ? time_per_call(body) * 1e9 : 0.0;
  };

  // Speech front end: 200-sample frames, 256-point FFT, 32 mel filters,
  // 13 cepstra (src/apps/speech.cpp).
  const std::vector<float> frame = test_signal(200, 0.3);
  {
    std::vector<float> out(200);
    float prev = 0.0f;
    dsp::preemphasis_into(dsp::SignalView(frame), 0.97f, prev,
                          dsp::MutSignalView(out));
    check(check_close("preemphasis", out, ref_preemphasis(frame, 0.97), 1e-6));
    report("dsp.preemphasis_ns_per_frame", ns_per_call([&] {
             dsp::preemphasis_into(dsp::SignalView(frame), 0.97f, prev,
                                   dsp::MutSignalView(out));
             g_sink = g_sink + out[7];
           }),
           "ns/frame");
  }
  {
    const std::vector<float> w = dsp::hamming_window(200);
    std::vector<float> out(200);
    dsp::apply_window_into(dsp::SignalView(frame), dsp::SignalView(w),
                           dsp::MutSignalView(out));
    check(check_close("hamming window", out, ref_hamming(frame), 1e-6));
    report("dsp.window_ns_per_frame", ns_per_call([&] {
             dsp::apply_window_into(dsp::SignalView(frame), dsp::SignalView(w),
                                    dsp::MutSignalView(out));
             g_sink = g_sink + out[7];
           }),
           "ns/frame");
  }
  const std::vector<float> padded = [&] {
    std::vector<float> p(256, 0.0f);
    std::copy(frame.begin(), frame.end(), p.begin());
    return p;
  }();
  std::vector<float> spectrum(129);
  {
    dsp::SpectrumScratch scratch;
    dsp::power_spectrum_into(dsp::SignalView(padded),
                             dsp::MutSignalView(spectrum), scratch);
    check(check_close("power spectrum", spectrum, ref_power_spectrum(padded),
                      1e-5));
    std::vector<float> out(129);
    report("dsp.power_spectrum_ns_per_frame", ns_per_call([&] {
             dsp::power_spectrum_into(dsp::SignalView(padded),
                                      dsp::MutSignalView(out), scratch);
             g_sink = g_sink + out[7];
           }),
           "ns/frame");
  }
  std::vector<float> energies(32);
  {
    const dsp::MelFilterbank bank(32, 129, 8000.0);
    bank.apply_into(dsp::SignalView(spectrum), dsp::MutSignalView(energies));
    check(check_close("mel filterbank", energies,
                      ref_mel(spectrum, 32, 8000.0), 1e-5));
    std::vector<float> out(32);
    report("dsp.mel_ns_per_frame", ns_per_call([&] {
             bank.apply_into(dsp::SignalView(spectrum), dsp::MutSignalView(out));
             g_sink = g_sink + out[7];
           }),
           "ns/frame");
  }
  std::vector<float> logs(32);
  {
    std::vector<float> in = energies;
    in[31] = 0.0f;  // exercises the floor
    dsp::log_compress_into(dsp::SignalView(in), dsp::MutSignalView(logs));
    check(check_close("log", logs, ref_log(in), 1e-6));
    std::vector<float> out(32);
    report("dsp.log_ns_per_frame", ns_per_call([&] {
             dsp::log_compress_into(dsp::SignalView(in), dsp::MutSignalView(out));
             g_sink = g_sink + out[7];
           }),
           "ns/frame");
  }
  {
    std::vector<float> out(13);
    dsp::dct_ii_into(dsp::SignalView(logs), dsp::MutSignalView(out));
    check(check_close("dct", out, ref_dct(logs, 13), 1e-5));
    report("dsp.dct_ns_per_frame", ns_per_call([&] {
             dsp::dct_ii_into(dsp::SignalView(logs), dsp::MutSignalView(out));
             g_sink = g_sink + out[7];
           }),
           "ns/frame");
  }

  // EEG: one polyphase wavelet stage on a 512-sample window, and the
  // 66-feature linear SVM (src/apps/eeg.cpp).
  {
    const std::vector<float> window = test_signal(512, 1.1);
    const dsp::PolyphaseCoeffs c = dsp::lowpass_polyphase();
    const std::vector<float> even(c.even.begin(), c.even.end());
    const std::vector<float> odd(c.odd.begin(), c.odd.end());
    dsp::PolyphaseStage stage(c);
    std::vector<float> out(257);
    out.resize(stage.process_into(dsp::SignalView(window),
                                  dsp::MutSignalView(out)));
    check(check_close("polyphase wavelet", out,
                      ref_polyphase(window, even, odd), 1e-5));
    out.resize(257);
    report("dsp.wavelet_ns_per_sample", ns_per_call([&] {
             const std::size_t n = stage.process_into(
                 dsp::SignalView(window), dsp::MutSignalView(out));
             g_sink = g_sink + out[n - 1];
           }) / 512.0,
           "ns/sample");
  }
  {
    const std::vector<float> w(66, 1.0f);
    const float bias = -800.0f * 66.0f;
    std::vector<float> x = test_signal(66, 0.7);
    for (float& v : x) v = std::fabs(v);
    const dsp::LinearSvm svm(w, bias);
    const float d = svm.decision(dsp::SignalView(x));
    double scale = std::fabs(bias);
    for (float v : x) scale += std::fabs(v);
    check(check_close("svm", {d / static_cast<float>(scale)},
                      {ref_svm(w, bias, x) / scale}, 1e-6));
    report("dsp.svm_ns_per_window", ns_per_call([&] {
             g_sink = g_sink + svm.decision(dsp::SignalView(x));
           }),
           "ns/window");
  }
}

void add_runtime_metrics(Result& r, StreamApp& app, std::size_t batch) {
  namespace rt = wb::runtime;
  wb::graph::Graph& g = app.graph();
  {
    rt::PartitionedExecutor all(g, std::vector<Side>(g.num_operators(),
                                                     Side::kNode));
    all.set_collect_sink_output(false);
    all.run(app.traces, batch);
    std::vector<double> ms;
    for (int i = 0; i < 7; ++i) ms.push_back(batch_ms(all, app.traces, batch));
    r.add("runtime.all_node_ms", median(ms), "ms");
  }
  rt::PartitionedExecutor ex(g, app.cut);
  ex.set_collect_sink_output(false);
  ex.run(app.traces, batch);
  // Allocation differential: (full batch) - (half batch) cancels the
  // per-run() fixed cost and leaves the per-event heap traffic.
  const std::size_t half = batch / 2;
  const std::uint64_t a0 = wb::util::allocation_count();
  ex.run(app.traces, half);
  const std::uint64_t a1 = wb::util::allocation_count();
  const rt::ExecStats s0 = ex.stats();
  ex.run(app.traces, batch);
  const std::uint64_t a2 = wb::util::allocation_count();
  const rt::ExecStats s1 = ex.stats();
  const double events = static_cast<double>(s1.events - s0.events);
  const double d_short = static_cast<double>(a1 - a0);
  const double d_long = static_cast<double>(a2 - a1);
  r.add("runtime.allocs_per_event",
        std::max(0.0, (d_long - d_short) / static_cast<double>(batch - half)),
        "count");
  const double frames = static_cast<double>(s1.cut_frames - s0.cut_frames);
  r.add("runtime.cut_frames_per_event", frames / events, "count");
  r.add("runtime.cut_messages_per_event",
        static_cast<double>(s1.cut_messages - s0.cut_messages) / events,
        "count");

  // The cut edge path alone, on a float frame of the cut's mean size.
  const double wire = frames > 0
                          ? static_cast<double>(s1.cut_payload_bytes -
                                                s0.cut_payload_bytes) / frames
                          : 64.0;
  const std::size_t n =
      std::max<std::size_t>(1, static_cast<std::size_t>((wire - 5.0) / 4.0));
  const wb::graph::Frame f(test_signal(n, 0.2), wb::graph::Encoding::kFloat32);
  const wb::graph::Frame back =
      rt::unmarshal(rt::reassemble(rt::packetize(rt::marshal(f), 28)));
  if (back.samples() != f.samples()) r.fail("marshal round trip changed a frame");
  const double wire_bytes = static_cast<double>(rt::marshal(f).size());
  r.add("runtime.marshal_ns_per_byte",
        time_per_call([&] {
          const auto w = rt::marshal(f);
          const auto out = rt::unmarshal(rt::reassemble(rt::packetize(w, 28)));
          g_sink = g_sink + out[0];
        }) * 1e9 / wire_bytes,
        "ns/B");
}

void add_runtime_probe_metrics(Result& r, std::uint64_t seed) {
  constexpr std::size_t kBatch = 256;
  Tracer quiet(false);
  StreamApp speech = setup_stream_app(false, seed, kBatch, quiet);
  add_runtime_metrics(r, speech, kBatch);
}

void add_serve_probe_metrics(Result& r) {
  namespace sv = wb::serve;
  Tracer quiet(false);
  StreamApp speech = setup_stream_app(false, 1, 128, quiet);
  sv::ServeOptions so;
  so.workers = 0;  // drained on this thread with run_one()
  sv::PartitionServer srv(so);
  const std::uint64_t gh = sv::canonical_graph_hash(speech.graph());
  auto request = [&](double cpu_scale) {
    sv::SolveRequest q{speech.problem, "gumstix", gh, 0.0};
    for (auto& v : q.problem.vertices) v.cpu *= cpu_scale;
    return q;
  };
  std::vector<double> solve_ms;
  std::vector<double> wait_ms;
  auto solve = [&](double cpu_scale, int copies) {
    std::vector<std::future<sv::SolveResponse>> fs;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < copies; ++i) fs.push_back(srv.submit(request(cpu_scale)));
    while (srv.run_one()) {
    }
    for (auto& f : fs) {
      const sv::SolveResponse resp = f.get();
      if (resp.source != sv::ResponseSource::kSolved) continue;
      solve_ms.push_back(resp.solve_s * 1e3);
      wait_ms.push_back((seconds_since(t0) - resp.solve_s) * 1e3);
    }
  };
  solve(1.0, 1);   // cold miss
  solve(1.3, 1);   // drifted cell: stale, warm re-solve
  solve(1.69, 4);  // one solve, three coalesced followers

  constexpr int kHits = 2000;
  std::vector<double> hit_us;
  std::uint64_t allocs = 0;
  for (int i = 0; i < kHits; ++i) {
    sv::SolveRequest q = request(1.0);
    const std::uint64_t a0 = wb::util::allocation_count();
    const Clock::time_point t0 = Clock::now();
    auto f = srv.submit(std::move(q));
    const sv::SolveResponse resp = f.get();
    hit_us.push_back(seconds_since(t0) * 1e6);
    allocs += wb::util::allocation_count() - a0;
    if (resp.source != sv::ResponseSource::kCacheHit) r.fail("probe hit missed");
  }
  const sv::SolveRequest q = request(1.0);
  const double key_s = time_per_call([&] {
    const sv::CacheKey k = srv.key_for(q);
    g_sink = g_sink + static_cast<float>(k.profile.size());
  });
  const sv::ServerStats st = srv.stats();
  r.add("serve.key_us", key_s * 1e6, "us");
  r.add("serve.hit_us", median(hit_us), "us");
  r.add("serve.allocs_per_hit", static_cast<double>(allocs) / kHits, "count");
  r.add("serve.hit_ratio",
        static_cast<double>(st.cache_hits) / static_cast<double>(st.requests),
        "ratio");
  r.add("serve.solve_ms", median(solve_ms), "ms");
  r.add("serve.wait_ms", median(wait_ms), "ms");
  r.add("serve.warm_ratio",
        st.stale_resolves > 0 ? static_cast<double>(st.warm_basis_used) /
                                    static_cast<double>(st.stale_resolves)
                              : 0.0,
        "ratio");
  r.add("serve.coalesced", static_cast<double>(st.coalesced), "count");
}

void add_trace_overhead(Result& r, double traced_over_untraced) {
  r.add("obs.trace_overhead_pct", (traced_over_untraced - 1.0) * 100.0, "%");
}

}  // namespace perfbench
