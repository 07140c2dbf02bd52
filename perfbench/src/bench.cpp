#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "bench.hpp"

namespace perfbench {

void Result::fail(const std::string& why) {
  correct = false;
  std::printf("CHECK FAILED: %s\n", why.c_str());
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

int pin_to_calmest_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  std::vector<float> buf(std::size_t{1} << 16, 1.0f);  // 256 KiB
  auto probe = [&buf] {
    float acc = 0.0f;
    std::uint32_t idx = 12345;
    for (int i = 0; i < 400000; ++i) {
      idx = idx * 1664525u + 1013904223u;
      float& v = buf[(idx >> 8) & (buf.size() - 1)];
      v = v * 0.999f + acc * 1e-6f;
      acc += v;
    }
    return acc;
  };
  volatile float sink = 0.0f;
  int best_cpu = -1;
  double best = 1e300;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) continue;
    std::vector<double> t;
    for (int s = 0; s < 7; ++s) {
      const Clock::time_point t0 = Clock::now();
      sink = sink + probe();
      t.push_back(seconds_since(t0));
    }
    const double m = median(t);
    if (m < best) {
      best = m;
      best_cpu = c;
    }
  }
  cpu_set_t pin;
  CPU_ZERO(&pin);
  if (best_cpu >= 0) CPU_SET(best_cpu, &pin);
  if (best_cpu < 0 || sched_setaffinity(0, sizeof pin, &pin) != 0) {
    sched_setaffinity(0, sizeof allowed, &allowed);
    return -1;
  }
  return best_cpu;
}

std::vector<int> allowed_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  return cpus;
}

bool pin_to_cpu(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0;
}

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

Tracer::Span::Span(Tracer* t, const char* name) : t_(t) {
  if (t_ == nullptr) return;
  if (t_->recs_.size() >= kCapacity) {
    ++t_->dropped_;
    t_ = nullptr;
    return;
  }
  idx_ = static_cast<std::int32_t>(t_->recs_.size());
  saved_ = t_->current_;
  t_->recs_.push_back({name, saved_, now_ns(), 0});
  t_->current_ = idx_;
}

Tracer::Span::~Span() {
  if (t_ == nullptr) return;
  t_->recs_[static_cast<std::size_t>(idx_)].t1 = now_ns();
  t_->current_ = saved_;
}

std::vector<double> Tracer::self_ms(const char* name) const {
  std::vector<std::int64_t> child(recs_.size(), 0);
  for (const Rec& r : recs_) {
    if (r.parent >= 0) child[static_cast<std::size_t>(r.parent)] += r.t1 - r.t0;
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    if (std::strcmp(recs_[i].name, name) != 0) continue;
    out.push_back(static_cast<double>(recs_[i].t1 - recs_[i].t0 - child[i]) *
                  1e-6);
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t base = recs_.empty() ? 0 : recs_.front().t0;
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    const Rec& r = recs_[i];
    std::fprintf(f, "%zu\t%d\t%s\t%lld\t%lld\n", i, r.parent, r.name,
                 static_cast<long long>(r.t0 - base),
                 static_cast<long long>(r.t1 - base));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
