// The Wishbone benchmark program: runs one named workload in this process
// and prints, as its last line, one JSON object with the keys correct,
// attempted, failed and metrics.
//
// Usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-out <file>]
//   workloads: fig6_sweep, serve_drift, stream_eeg, stream_speech
//   --trace 0  untraced run; prints the end-to-end metrics
//   --trace 1  traced run; records spans around every call into a layer
//              and prints the per-layer metrics
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "dsp/simd.hpp"
#include "obs/json.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{fig6_sweep,serve_drift,stream_eeg,stream_speech} --seed N "
               "--seconds S --trace {0,1} [--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int a = 1; a < argc; ++a) {
    const char* k = argv[a];
    if (a + 1 >= argc) return usage("missing value after an option");
    const char* v = argv[++a];
    if (std::strcmp(k, "--workload") == 0) {
      o.workload = v;
    } else if (std::strcmp(k, "--seed") == 0) {
      o.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (std::strcmp(k, "--seconds") == 0) {
      o.seconds = std::atof(v);
      have_seconds = o.seconds > 0;
    } else if (std::strcmp(k, "--trace") == 0) {
      o.trace = std::strcmp(v, "1") == 0;
      have_trace = o.trace || std::strcmp(v, "0") == 0;
    } else if (std::strcmp(k, "--trace-out") == 0) {
      o.trace_out = v;
    } else {
      return usage("unknown option");
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds > 0 and --trace 0|1 are required");
  }

  // Host stamp: runs from different hosts are never compared by accident.
  {
    wishbone::obs::JsonWriter w;
    w.begin_object();
    w.key("cpu").value(cpu_model());
    w.key("nproc").value(static_cast<std::uint64_t>(
        std::thread::hardware_concurrency()));
    w.key("isa").value(std::string(wishbone::dsp::simd::isa_name()));
    w.key("build").value(std::string(PERFBENCH_BUILD_TYPE));
    w.key("workload").value(o.workload);
    w.key("seed").value(o.seed);
    w.key("trace").value(o.trace);
    w.end_object();
    std::printf("host: %s\n", w.take().c_str());
  }

  // serve_drift pins its driving thread itself, after its server's
  // worker threads exist; the other workloads move their thread from CPU
  // to CPU as they go.
  Tracer tr(o.trace);
  Result r;
  try {
    if (o.workload == "fig6_sweep") {
      r = run_fig6_sweep(o, tr);
    } else if (o.workload == "serve_drift") {
      r = run_serve_drift(o, tr);
    } else if (o.workload == "stream_eeg") {
      r = run_stream(o, tr, true);
    } else if (o.workload == "stream_speech") {
      r = run_stream(o, tr, false);
    } else {
      return usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(),
                 e.what());
    return 1;
  }
  if (!o.trace) r.add("peak_rss_mb", peak_rss_mib(), "MiB");
  if (o.trace && !o.trace_out.empty()) {
    if (!tr.write(o.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", o.trace_out.c_str());
      return 1;
    }
    std::printf("spans: written to %s (%zu dropped over capacity)\n",
                o.trace_out.c_str(), tr.dropped());
  }
  std::printf("operations: attempted %llu failed %llu\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));

  wishbone::obs::JsonWriter w;
  w.begin_object();
  w.key("correct").value(r.correct);
  w.key("attempted").value(r.attempted);
  w.key("failed").value(r.failed);
  w.key("metrics").begin_object();
  for (const Metric& m : r.metrics) {
    w.key(m.name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.take().c_str());
  return 0;
}
