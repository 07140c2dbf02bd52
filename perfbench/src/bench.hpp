// Shared plumbing of the Wishbone benchmark: run options, the result
// record every workload fills, timing helpers and the span tracer.
//
// The tracer lives in the benchmark, not in the program: each span
// brackets a call into one layer's public functions, so per-layer self
// times come from outside the library and the library stays unchanged.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `correct` covers every operation that did not
/// fail; `failed` counts operations whose output a check rejected.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed check; the run then reports correct=false.
  void fail(const std::string& why);
};

/// Value at quantile q in [0,1] (linear interpolation between order
/// statistics). Copies and sorts; returns 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set of this process, MiB.
double peak_rss_mib();

/// Pins the calling thread to the CPU (of those it may use) on which a
/// short fixed cache- and FP-bound loop runs fastest, and returns that
/// CPU, or -1 when affinity cannot be set. On a shared host some CPUs
/// share their core with another tenant's busy thread and run this
/// code up to 1.6x slower for minutes at a time; measuring on the
/// calmest CPU keeps repeated runs comparable. Threads created later
/// inherit the pin, so call it after starting any worker threads.
int pin_to_calmest_cpu();

/// The CPUs the calling thread may run on, or none when its affinity
/// cannot be read.
std::vector<int> allowed_cpus();

/// Pins the calling thread to `cpu`; false when affinity cannot be set.
bool pin_to_cpu(int cpu);

/// Repeats `body` until it has run for about `min_s` seconds, then times
/// `trials` batches of that size and returns the median seconds per call.
template <typename F>
double time_per_call(F&& body, double min_s = 0.01, int trials = 5) {
  std::size_t reps = 1;
  for (;;) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) body();
    if (seconds_since(t0) >= min_s || reps >= (std::size_t{1} << 26)) break;
    reps *= 2;
  }
  std::vector<double> per;
  for (int t = 0; t < trials; ++t) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) body();
    per.push_back(seconds_since(t0) / static_cast<double>(reps));
  }
  return median(per);
}

/// In-memory span recorder for the driving thread. Spans nest through
/// RAII scopes; each record keeps its name, start, end and parent. A
/// disabled tracer (or one switched off with set_active) records
/// nothing and costs one branch per scope.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), active_(enabled) {
    if (enabled_) recs_.reserve(kCapacity);
  }

  class Span {
   public:
    Span(Tracer* t, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* t_;
    std::int32_t idx_ = -1;
    std::int32_t saved_ = -1;
  };

  [[nodiscard]] Span span(const char* name) {
    return Span(active_ ? this : nullptr, name);
  }

  /// Turns recording on or off for the following scopes (a traced run
  /// alternates traced and untraced operations to price the tracing).
  void set_active(bool on) { active_ = enabled_ && on; }

  /// Per-span self time in ms (duration minus time covered by child
  /// spans) of every recorded span named `name`.
  [[nodiscard]] std::vector<double> self_ms(const char* name) const;
  [[nodiscard]] std::size_t dropped() const { return dropped_; }

  /// Writes every span as one tab-separated line: index, parent, name,
  /// start ns, end ns (relative to the first span).
  bool write(const std::string& path) const;

 private:
  static constexpr std::size_t kCapacity = std::size_t{1} << 19;
  struct Rec {
    const char* name;
    std::int32_t parent;
    std::int64_t t0;
    std::int64_t t1;
  };
  static std::int64_t now_ns();

  bool enabled_;
  bool active_;
  std::vector<Rec> recs_;
  std::int32_t current_ = -1;
  std::size_t dropped_ = 0;
};

}  // namespace perfbench
