// Differential test suite for the SIMD shim: every primitive is run
// through the vectorized dispatch AND the forced-scalar reference over
// a sweep of sizes (including 1, non-lane-multiples, and 4096) and
// pointer offsets (unaligned views), and the results must agree within
// a reassociation-proportional error bound. On a machine without a
// vector ISA (or with WISHBONE_SIMD=OFF) both paths are scalar and the
// comparisons degenerate to exact equality — the suite still validates
// the kernels against double-precision references.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstddef>
#include <cstring>
#include <random>
#include <vector>

#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "dsp/mel.hpp"
#include "dsp/simd.hpp"
#include "dsp/window.hpp"
#include "graph/frame.hpp"

using namespace wishbone;

namespace {

/// Restores the dispatch state even if an assertion fails mid-test.
struct ScalarGuard {
  explicit ScalarGuard(bool on) { dsp::simd::force_scalar(on); }
  ~ScalarGuard() { dsp::simd::force_scalar(false); }
};

std::vector<float> random_signal(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> x(n);
  for (float& v : x) v = dist(rng);
  return x;
}

/// Sizes covering scalar-only, partial-vector, lane-multiple and large
/// cases for both 4-lane (SSE/NEON) and 8-lane (AVX2) paths.
const std::size_t kSizes[] = {1,  2,  3,   4,   5,    7,    8,   9,
                              15, 16, 17,  31,  33,   64,   100, 127,
                              128, 255, 256, 1000, 4095, 4096};

/// Error bound for an n-term float reduction: proportional to the sum
/// of absolute terms (reassociation can change rounding at every add).
double reduction_tol(double abs_sum, std::size_t n) {
  return 1e-6 * abs_sum * (1.0 + std::log2(static_cast<double>(n) + 1.0)) +
         1e-12;
}

}  // namespace

TEST(Simd, DispatchReportsAnIsa) {
  const std::string isa = dsp::simd::isa_name();
  EXPECT_TRUE(isa == "avx2" || isa == "sse2" || isa == "neon" ||
              isa == "scalar")
      << isa;
  EXPECT_FALSE(dsp::simd::forced_scalar());
}

TEST(Simd, ForceScalartogglesVectorized) {
  const bool was_vectorized = dsp::simd::vectorized();
  {
    ScalarGuard guard(true);
    EXPECT_TRUE(dsp::simd::forced_scalar());
    EXPECT_FALSE(dsp::simd::vectorized());
  }
  EXPECT_FALSE(dsp::simd::forced_scalar());
  EXPECT_EQ(dsp::simd::vectorized(), was_vectorized);
}

TEST(SimdDifferential, DotMatchesScalarAndDouble) {
  for (std::size_t n : kSizes) {
    for (std::size_t off : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
      const auto a = random_signal(n + off, 1000 + static_cast<int>(n));
      const auto b = random_signal(n + off, 2000 + static_cast<int>(n));
      const float* pa = a.data() + off;
      const float* pb = b.data() + off;

      const float simd_val = dsp::simd::dot(pa, pb, n);
      float scalar_val = 0.0f;
      {
        ScalarGuard guard(true);
        scalar_val = dsp::simd::dot(pa, pb, n);
      }
      double dref = 0.0;
      double abs_sum = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        dref += static_cast<double>(pa[i]) * pb[i];
        abs_sum += std::fabs(static_cast<double>(pa[i]) * pb[i]);
      }
      const double tol = reduction_tol(abs_sum, n);
      EXPECT_NEAR(simd_val, scalar_val, tol) << "n=" << n << " off=" << off;
      EXPECT_NEAR(simd_val, dref, tol) << "n=" << n << " off=" << off;
    }
  }
}

TEST(SimdDifferential, ElementwiseOpsMatchExactly) {
  // scale/mul/add/axpy do one rounding per element in every path, so
  // vector and scalar results must be bit-identical.
  for (std::size_t n : kSizes) {
    for (std::size_t off : {std::size_t{0}, std::size_t{1}}) {
      const auto a = random_signal(n + off, 3000 + static_cast<int>(n));
      const auto b = random_signal(n + off, 4000 + static_cast<int>(n));
      const float* pa = a.data() + off;
      const float* pb = b.data() + off;
      std::vector<float> simd_out(n), scalar_out(n);

      dsp::simd::scale(pa, 0.37f, simd_out.data(), n);
      {
        ScalarGuard guard(true);
        dsp::simd::scale(pa, 0.37f, scalar_out.data(), n);
      }
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(simd_out[i], scalar_out[i]) << "scale n=" << n;
      }

      dsp::simd::mul(pa, pb, simd_out.data(), n);
      {
        ScalarGuard guard(true);
        dsp::simd::mul(pa, pb, scalar_out.data(), n);
      }
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(simd_out[i], scalar_out[i]) << "mul n=" << n;
      }

      dsp::simd::add(pa, pb, simd_out.data(), n);
      {
        ScalarGuard guard(true);
        dsp::simd::add(pa, pb, scalar_out.data(), n);
      }
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(simd_out[i], scalar_out[i]) << "add n=" << n;
      }
    }
  }
}

TEST(SimdDifferential, RoundInt16MatchesTheScalarRule) {
  // Every path must return graph::round_int16 bit for bit: a partitioned
  // program's int16 streams depend on it. Values span the int16 range
  // and beyond, with exact ties and signed zeros mixed in.
  std::mt19937 rng(11);
  std::uniform_real_distribution<float> u(-40000.0f, 40000.0f);
  for (std::size_t n : kSizes) {
    std::vector<float> x(n);
    for (std::size_t i = 0; i < n; ++i) {
      switch (i % 4) {
        case 0: x[i] = u(rng); break;
        case 1: x[i] = std::floor(u(rng)) + 0.5f; break;
        case 2: x[i] = (i % 8 == 2) ? -0.0f : -0.25f; break;
        default: x[i] = u(rng) * 1e4f; break;
      }
    }
    std::vector<float> got = x;
    dsp::simd::round_int16(got.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const float want = graph::round_int16(x[i]);
      ASSERT_EQ(std::memcmp(&got[i], &want, sizeof want), 0)
          << "n=" << n << " x=" << x[i] << " got " << got[i];
    }
  }
}

TEST(SimdDifferential, AxpyMatchesWithinFmaTolerance) {
  // The AVX2 path uses fused multiply-add (one rounding instead of
  // two), so results may differ from scalar by half an ULP per element.
  for (std::size_t n : kSizes) {
    const auto x = random_signal(n, 5000 + static_cast<int>(n));
    const auto y0 = random_signal(n, 6000 + static_cast<int>(n));
    std::vector<float> simd_out(y0), scalar_out(y0);
    dsp::simd::axpy(0.8f, x.data(), simd_out.data(), n);
    {
      ScalarGuard guard(true);
      dsp::simd::axpy(0.8f, x.data(), scalar_out.data(), n);
    }
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(simd_out[i], scalar_out[i], 2e-7) << "axpy n=" << n;
    }
  }
}

TEST(SimdDifferential, ReductionsMatch) {
  for (std::size_t n : kSizes) {
    for (std::size_t off : {std::size_t{0}, std::size_t{2}}) {
      const auto x = random_signal(n + off, 7000 + static_cast<int>(n));
      const float* px = x.data() + off;

      const float simd_abs = dsp::simd::sum_abs(px, n);
      const float simd_sq = dsp::simd::sum_sq(px, n);
      float scalar_abs = 0.0f, scalar_sq = 0.0f;
      {
        ScalarGuard guard(true);
        scalar_abs = dsp::simd::sum_abs(px, n);
        scalar_sq = dsp::simd::sum_sq(px, n);
      }
      double dabs = 0.0, dsq = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        dabs += std::fabs(static_cast<double>(px[i]));
        dsq += static_cast<double>(px[i]) * px[i];
      }
      EXPECT_NEAR(simd_abs, scalar_abs, reduction_tol(dabs, n)) << n;
      EXPECT_NEAR(simd_abs, dabs, reduction_tol(dabs, n)) << n;
      EXPECT_NEAR(simd_sq, scalar_sq, reduction_tol(dsq, n)) << n;
      EXPECT_NEAR(simd_sq, dsq, reduction_tol(dsq, n)) << n;
    }
  }
}

TEST(SimdDifferential, FirConvMatchesScalarAcrossTapCounts) {
  for (std::size_t taps : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                           std::size_t{7}, std::size_t{16}}) {
    for (std::size_t n : kSizes) {
      const auto ext = random_signal(n + taps - 1 + 1,
                                     static_cast<int>(100 * taps + n));
      const auto c = random_signal(taps, static_cast<int>(999 + taps));
      // Offset by 1 to exercise an unaligned ext pointer.
      const float* pext = ext.data() + 1;
      std::vector<float> simd_out(n), scalar_out(n);
      dsp::simd::fir_conv(pext, c.data(), taps, simd_out.data(), n);
      {
        ScalarGuard guard(true);
        dsp::simd::fir_conv(pext, c.data(), taps, scalar_out.data(), n);
      }
      double abs_bound = 0.0;
      for (std::size_t j = 0; j < taps; ++j) abs_bound += std::fabs(c[j]);
      const double tol = reduction_tol(abs_bound, taps);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_NEAR(simd_out[i], scalar_out[i], tol)
            << "taps=" << taps << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(SimdDifferential, ComplexButterflyMatchesScalar) {
  for (std::size_t count :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4},
        std::size_t{5}, std::size_t{8}, std::size_t{13}, std::size_t{64},
        std::size_t{128}}) {
    const auto lo0 = random_signal(2 * count, 11 + static_cast<int>(count));
    const auto hi0 = random_signal(2 * count, 22 + static_cast<int>(count));
    const auto tw = random_signal(2 * count, 33 + static_cast<int>(count));

    std::vector<float> lo_simd(lo0), hi_simd(hi0);
    dsp::simd::complex_butterfly(lo_simd.data(), hi_simd.data(), tw.data(),
                                 count);
    std::vector<float> lo_ref(lo0), hi_ref(hi0);
    {
      ScalarGuard guard(true);
      dsp::simd::complex_butterfly(lo_ref.data(), hi_ref.data(), tw.data(),
                                   count);
    }
    for (std::size_t i = 0; i < 2 * count; ++i) {
      // Complex multiply = 2-term reduction; allow a couple of ULPs.
      ASSERT_NEAR(lo_simd[i], lo_ref[i], 4e-6) << "count=" << count;
      ASSERT_NEAR(hi_simd[i], hi_ref[i], 4e-6) << "count=" << count;
    }
  }
}

TEST(SimdDifferential, FftPassMatchesPerBlockButterflies) {
  // fft_pass(f, tw, n, half) must equal complex_butterfly applied block
  // by block — including the specialized half == 1 level, whose real
  // twiddle is (1, -0) exactly as the plan tables store it.
  for (std::size_t n : {std::size_t{2}, std::size_t{4}, std::size_t{8},
                        std::size_t{16}, std::size_t{64}, std::size_t{256}}) {
    for (std::size_t half = 1; half < n; half *= 2) {
      auto tw = random_signal(2 * half, 44 + static_cast<int>(n + half));
      if (half == 1) {
        tw[0] = 1.0f;  // the degenerate first-level twiddle
        tw[1] = -0.0f;
      }
      const auto f0 = random_signal(2 * n, 55 + static_cast<int>(n + half));

      std::vector<float> f_pass(f0);
      dsp::simd::fft_pass(f_pass.data(), tw.data(), n, half);

      std::vector<float> f_ref(f0);
      {
        ScalarGuard guard(true);
        for (std::size_t i = 0; i < n; i += 2 * half) {
          dsp::simd::complex_butterfly(f_ref.data() + 2 * i,
                                       f_ref.data() + 2 * (i + half),
                                       tw.data(), half);
        }
      }
      for (std::size_t i = 0; i < 2 * n; ++i) {
        ASSERT_NEAR(f_pass[i], f_ref[i], 4e-6)
            << "n=" << n << " half=" << half << " i=" << i;
      }
    }
  }
}

TEST(SimdDifferential, BandedDotMatchesPerRowDots) {
  // Filterbank-shaped batched dots: irregular short rows at irregular
  // offsets, vector path vs forced-scalar path.
  const std::size_t rows = 17;
  std::vector<std::size_t> off(rows + 1, 0);
  std::vector<std::size_t> first(rows);
  std::size_t total = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t len = 1 + (r * 5) % 13;  // 1..13, irregular
    off[r] = total;
    first[r] = (r * 7) % 50;
    total += len;
  }
  off[rows] = total;
  const auto w = random_signal(total, 808);
  const auto x = random_signal(64, 909);

  std::vector<float> out_simd(rows), out_scalar(rows);
  dsp::simd::banded_dot(w.data(), off.data(), first.data(), rows, x.data(),
                        out_simd.data());
  {
    ScalarGuard guard(true);
    dsp::simd::banded_dot(w.data(), off.data(), first.data(), rows, x.data(),
                          out_scalar.data());
  }
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t len = off[r + 1] - off[r];
    double abs_sum = 0.0;
    for (std::size_t i = 0; i < len; ++i) {
      abs_sum += std::fabs(static_cast<double>(w[off[r] + i]) *
                           x[first[r] + i]);
    }
    ASSERT_NEAR(out_simd[r], out_scalar[r], reduction_tol(abs_sum, len))
        << "row=" << r << " len=" << len;
  }
}

TEST(SimdDifferential, MatvecMatchesPerRowDots) {
  for (std::size_t cols : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                           std::size_t{13}, std::size_t{32}, std::size_t{100}}) {
    for (std::size_t nrows : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{13}}) {
      const auto rows = random_signal(nrows * cols,
                                      111 + static_cast<int>(cols + nrows));
      const auto x = random_signal(cols, 222 + static_cast<int>(cols));
      std::vector<float> out_simd(nrows), out_scalar(nrows);
      dsp::simd::matvec(rows.data(), x.data(), cols, nrows, out_simd.data());
      {
        ScalarGuard guard(true);
        dsp::simd::matvec(rows.data(), x.data(), cols, nrows,
                          out_scalar.data());
      }
      for (std::size_t r = 0; r < nrows; ++r) {
        double abs_sum = 0.0;
        for (std::size_t i = 0; i < cols; ++i) {
          abs_sum += std::fabs(static_cast<double>(rows[r * cols + i]) *
                               x[i]);
        }
        ASSERT_NEAR(out_simd[r], out_scalar[r], reduction_tol(abs_sum, cols))
            << "cols=" << cols << " nrows=" << nrows << " r=" << r;
      }
    }
  }
}

TEST(SimdDifferential, FirFilterEndToEndScalarVsSimd) {
  // Whole-kernel differential: the same streaming filter state driven
  // through the vectorized and forced-scalar batch paths.
  const auto coeffs = random_signal(8, 4242);
  const auto input = random_signal(1024, 2424);
  dsp::FirFilter fir_simd{std::vector<float>(coeffs)};
  dsp::FirFilter fir_scalar{std::vector<float>(coeffs)};

  for (std::size_t frame = 0; frame < 4; ++frame) {
    const dsp::SignalView in(input.data() + 256 * frame, 256);
    std::vector<float> out_simd(256), out_scalar(256);
    fir_simd.process_into(in, dsp::MutSignalView(out_simd));
    {
      ScalarGuard guard(true);
      fir_scalar.process_into(in, dsp::MutSignalView(out_scalar));
    }
    double abs_bound = 0.0;
    for (float cf : coeffs) abs_bound += std::fabs(cf);
    for (std::size_t i = 0; i < 256; ++i) {
      ASSERT_NEAR(out_simd[i], out_scalar[i],
                  reduction_tol(abs_bound, coeffs.size()))
          << "frame=" << frame << " i=" << i;
    }
  }
}

TEST(SimdDifferential, FftEndToEndScalarVsSimd) {
  for (std::size_t n : {std::size_t{8}, std::size_t{64}, std::size_t{256},
                        std::size_t{1024}}) {
    const auto x = random_signal(n, 77 + static_cast<int>(n));
    std::vector<float> mag_simd(n / 2 + 1), mag_scalar(n / 2 + 1);
    dsp::SpectrumScratch scratch;
    dsp::magnitude_spectrum_into(dsp::SignalView(x),
                                 dsp::MutSignalView(mag_simd), scratch);
    {
      ScalarGuard guard(true);
      dsp::magnitude_spectrum_into(dsp::SignalView(x),
                                   dsp::MutSignalView(mag_scalar), scratch);
    }
    for (std::size_t k = 0; k < mag_simd.size(); ++k) {
      // log2(n) butterfly levels each add a rounding; scale the bound.
      ASSERT_NEAR(mag_simd[k], mag_scalar[k],
                  1e-5 * std::log2(static_cast<double>(n)) *
                      (1.0 + std::fabs(mag_scalar[k])))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(SimdDifferential, MelApplyUnalignedSubviewMatches) {
  const dsp::MelFilterbank bank(32, 129, 8000.0);
  // Build the spectrum at an odd offset inside a larger buffer so the
  // kernel sees an unaligned view.
  const auto raw = random_signal(132, 555);
  std::vector<float> padded(raw);
  const dsp::SignalView spec(padded.data() + 3, 129);

  std::vector<float> out_simd(32), out_scalar(32);
  // |spectrum| values are in [-1,1]; mel triangles sum ~bins per filter.
  bank.apply_into(spec, dsp::MutSignalView(out_simd));
  {
    ScalarGuard guard(true);
    bank.apply_into(spec, dsp::MutSignalView(out_scalar));
  }
  for (std::size_t f = 0; f < 32; ++f) {
    ASSERT_NEAR(out_simd[f], out_scalar[f], 1e-4) << "filter=" << f;
  }
}
