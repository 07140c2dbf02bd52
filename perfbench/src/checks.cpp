#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numbers>

namespace perfbench {

using wishbone::graph::Requirement;

namespace {

std::string fmt(const char* f, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof buf, f, a, b);
  return buf;
}

bool rel_equal(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max({1.0, std::fabs(a), std::fabs(b)});
}

}  // namespace

PlanLoads plan_loads(const PartitionProblem& p,
                     const std::vector<Side>& sides) {
  PlanLoads l;
  for (std::size_t v = 0; v < p.vertices.size(); ++v) {
    const auto& vx = p.vertices[v];
    const bool node = sides[v] == Side::kNode;
    if ((vx.req == Requirement::kNode && !node) ||
        (vx.req == Requirement::kServer && node)) {
      l.pins_ok = false;
    }
    if (node) {
      l.cpu += vx.cpu;
      l.ram += vx.ram_bytes;
      l.rom += vx.rom_bytes;
    }
  }
  for (const auto& e : p.edges) {
    if (sides[e.from] == sides[e.to]) continue;
    l.net += e.bandwidth;
    if (sides[e.from] == Side::kServer) l.one_direction = false;
  }
  return l;
}

std::string check_plan(const PartitionProblem& p,
                       const std::vector<Side>& sides) {
  if (sides.size() != p.vertices.size()) return "plan size != vertex count";
  const PlanLoads l = plan_loads(p, sides);
  if (!l.pins_ok) return "plan moves a pinned vertex";
  if (!l.one_direction) return "plan has a server->node edge";
  if (l.cpu > p.cpu_budget + 1e-9) {
    return fmt("node CPU %.9g over budget %.9g", l.cpu, p.cpu_budget);
  }
  if (l.net > p.net_budget + 1e-9) {
    return fmt("cut bandwidth %.9g over budget %.9g", l.net, p.net_budget);
  }
  if (l.ram > p.ram_budget * (1.0 + 1e-12) + 1e-9) {
    return fmt("node RAM %.9g over budget %.9g", l.ram, p.ram_budget);
  }
  if (l.rom > p.rom_budget * (1.0 + 1e-12) + 1e-9) {
    return fmt("node ROM %.9g over budget %.9g", l.rom, p.rom_budget);
  }
  return {};
}

std::string check_reported_plan(const PartitionProblem& p,
                                const std::vector<Side>& sides,
                                double objective, double cpu, double net) {
  std::string why = check_plan(p, sides);
  if (!why.empty()) return why;
  const PlanLoads l = plan_loads(p, sides);
  if (!rel_equal(l.objective(p), objective, 1e-9)) {
    return fmt("recomputed objective %.12g != reported %.12g",
               l.objective(p), objective);
  }
  if (!rel_equal(l.cpu, cpu, 1e-9)) {
    return fmt("recomputed CPU %.12g != reported %.12g", l.cpu, cpu);
  }
  if (!rel_equal(l.net, net, 1e-9)) {
    return fmt("recomputed cut bandwidth %.12g != reported %.12g", l.net, net);
  }
  return {};
}

std::vector<Side> all_movable_on_server(const PartitionProblem& p) {
  std::vector<Side> s(p.vertices.size(), Side::kServer);
  for (std::size_t v = 0; v < p.vertices.size(); ++v) {
    if (p.vertices[v].req == Requirement::kNode) s[v] = Side::kNode;
  }
  return s;
}

std::string check_sweep_monotone(const std::vector<SweepPoint>& points) {
  for (const SweepPoint& a : points) {
    if (!a.proved) continue;
    for (const SweepPoint& b : points) {
      if (b.rate < a.rate) continue;
      if (!a.feasible && b.feasible) {
        return fmt("feasible plan at rate %.6g above proved-infeasible "
                   "rate %.6g", b.rate, a.rate);
      }
      if (a.feasible && b.feasible &&
          b.objective / b.rate < a.objective / a.rate *
                                     (1.0 - 1e-9) - 1e-12) {
        return fmt("plan at rate %.6g beats (objective/rate) the proved "
                   "optimum at rate %.6g", b.rate, a.rate);
      }
    }
  }
  return {};
}

std::string compare_sinks(const std::map<OperatorId, std::vector<Frame>>& a,
                          const std::map<OperatorId, std::vector<Frame>>& b) {
  if (a.size() != b.size()) return "sink sets differ";
  for (const auto& [op, fa] : a) {
    const auto it = b.find(op);
    if (it == b.end()) return "sink sets differ";
    const auto& fb = it->second;
    if (fa.size() != fb.size()) {
      return fmt("sink frame counts differ (%.0f vs %.0f)",
                 static_cast<double>(fa.size()),
                 static_cast<double>(fb.size()));
    }
    for (std::size_t i = 0; i < fa.size(); ++i) {
      if (fa[i].encoding() != fb[i].encoding() ||
          fa[i].size() != fb[i].size() ||
          (fa[i].size() != 0 &&
           std::memcmp(fa[i].samples().data(), fb[i].samples().data(),
                       fa[i].size() * sizeof(float)) != 0)) {
        return fmt("sink frame %.0f of operator %.0f differs",
                   static_cast<double>(i), static_cast<double>(op));
      }
    }
  }
  return {};
}

std::string check_close(const char* what, const std::vector<float>& got,
                        const std::vector<double>& ref, double tol) {
  if (got.size() != ref.size()) return std::string(what) + ": size differs";
  double scale = 1.0;
  for (double r : ref) scale = std::max(scale, std::fabs(r));
  double err = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double e = std::fabs(static_cast<double>(got[i]) - ref[i]);
    err = std::isnan(e) ? INFINITY : std::max(err, e);
  }
  if (err / scale > tol) {
    return std::string(what) +
           fmt(": error %.3g of scale %.3g over tolerance", err, scale);
  }
  return {};
}

std::vector<double> ref_preemphasis(const std::vector<float>& x,
                                    double alpha) {
  std::vector<double> y(x.size());
  double prev = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] = x[i] - alpha * prev;
    prev = x[i];
  }
  return y;
}

std::vector<double> ref_hamming(const std::vector<float>& x) {
  const double n = static_cast<double>(x.size());
  std::vector<double> y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] = x[i] * (0.54 - 0.46 * std::cos(2.0 * std::numbers::pi *
                                          static_cast<double>(i) / (n - 1.0)));
  }
  return y;
}

std::vector<double> ref_power_spectrum(const std::vector<float>& x) {
  const std::size_t n = x.size();
  std::vector<double> p(n / 2 + 1);
  for (std::size_t k = 0; k <= n / 2; ++k) {
    double re = 0.0;
    double im = 0.0;
    for (std::size_t t = 0; t < n; ++t) {
      const double ang = -2.0 * std::numbers::pi * static_cast<double>(k * t) /
                         static_cast<double>(n);
      re += x[t] * std::cos(ang);
      im += x[t] * std::sin(ang);
    }
    p[k] = re * re + im * im;
  }
  return p;
}

std::vector<double> ref_mel(const std::vector<float>& spectrum,
                            std::size_t filters, double sample_rate_hz) {
  // Triangles evenly spaced on the mel scale over [0, Nyquist], peak 1
  // at each centre; a filter narrower than one bin takes its nearest bin.
  auto to_mel = [](double hz) { return 2595.0 * std::log10(1.0 + hz / 700.0); };
  auto to_hz = [](double m) { return 700.0 * (std::pow(10.0, m / 2595.0) - 1.0); };
  const std::size_t bins = spectrum.size();
  const double nyq = sample_rate_hz / 2.0;
  const double top = to_mel(nyq);
  const double per_bin = nyq / static_cast<double>(bins - 1);
  std::vector<double> out(filters, 0.0);
  for (std::size_t f = 0; f < filters; ++f) {
    const double lo = to_hz(top * static_cast<double>(f) /
                            static_cast<double>(filters + 1));
    const double mid = to_hz(top * static_cast<double>(f + 1) /
                             static_cast<double>(filters + 1));
    const double hi = to_hz(top * static_cast<double>(f + 2) /
                            static_cast<double>(filters + 1));
    bool any = false;
    for (std::size_t b = 0; b < bins; ++b) {
      const double hz = static_cast<double>(b) * per_bin;
      if (hz <= lo || hz >= hi) continue;
      const double w = hz <= mid ? (hz - lo) / (mid - lo) : (hi - hz) / (hi - mid);
      if (w > 0.0) {
        out[f] += w * spectrum[b];
        any = true;
      }
    }
    if (!any) {
      const std::size_t b = std::min(bins - 1, static_cast<std::size_t>(mid / per_bin));
      out[f] = spectrum[b];
    }
  }
  return out;
}

std::vector<double> ref_log(const std::vector<float>& x) {
  std::vector<double> y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] = std::log(std::max(static_cast<double>(x[i]), 1e-10));
  }
  return y;
}

std::vector<double> ref_dct(const std::vector<float>& x, std::size_t coeffs) {
  const double n = static_cast<double>(x.size());
  std::vector<double> c(coeffs);
  for (std::size_t k = 0; k < coeffs; ++k) {
    double s = 0.0;
    for (std::size_t t = 0; t < x.size(); ++t) {
      s += x[t] * std::cos(std::numbers::pi * static_cast<double>(k) *
                           (2.0 * static_cast<double>(t) + 1.0) / (2.0 * n));
    }
    c[k] = s * std::sqrt((k == 0 ? 1.0 : 2.0) / n);
  }
  return c;
}

std::vector<double> ref_polyphase(const std::vector<float>& frame,
                                  const std::vector<float>& even_taps,
                                  const std::vector<float>& odd_taps) {
  auto fir = [](const std::vector<double>& x, const std::vector<float>& c) {
    std::vector<double> y(x.size(), 0.0);
    for (std::size_t i = 0; i < x.size(); ++i) {
      for (std::size_t j = 0; j < c.size() && j <= i; ++j) y[i] += c[j] * x[i - j];
    }
    return y;
  };
  std::vector<double> even;
  std::vector<double> odd;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    (i % 2 == 0 ? even : odd).push_back(frame[i]);
  }
  const std::vector<double> ye = fir(even, even_taps);
  const std::vector<double> yo = fir(odd, odd_taps);
  std::vector<double> out(odd.size());
  for (std::size_t i = 0; i < odd.size(); ++i) out[i] = ye[i] + yo[i];
  return out;
}

double ref_svm(const std::vector<float>& w, float bias,
               const std::vector<float>& x) {
  double s = bias;
  for (std::size_t i = 0; i < w.size(); ++i) s += static_cast<double>(w[i]) * x[i];
  return s;
}

}  // namespace perfbench
