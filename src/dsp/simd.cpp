// SIMD primitive implementations + runtime dispatch (see simd.hpp).
//
// x86: the SSE2 variants compile at the x86-64 baseline; the AVX2+FMA
// variants carry __attribute__((target(...))) so no global -march flag
// is needed (and the rest of the library — notably the bit-reproducible
// solver — keeps its default codegen). The dispatcher probes cpuid once.
// AArch64: NEON is part of the baseline, selected at compile time.
#include "dsp/simd.hpp"

#include <atomic>
#include <cmath>

#include "graph/frame.hpp"

#if !defined(WISHBONE_SIMD_DISABLED)
#if defined(__x86_64__) || defined(__i386__)
#define WISHBONE_SIMD_X86 1
#include <immintrin.h>
#elif defined(__ARM_NEON) || defined(__aarch64__)
#define WISHBONE_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif

namespace wishbone::dsp::simd {

namespace {

// ------------------------------------------------------------- scalar
// Reference implementations. Plain loops, accumulation strictly left
// to right: this ordering is the contract the differential suite
// compares the vector paths against.

float dot_scalar(const float* a, const float* b, std::size_t n) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

void scale_scalar(const float* x, float s, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = s * x[i];
}

void mul_scalar(const float* a, const float* b, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = a[i] * b[i];
}

void add_scalar(const float* a, const float* b, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = a[i] + b[i];
}

void axpy_scalar(float a, const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void round_int16_scalar(float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = graph::round_int16(y[i]);
}

float sum_abs_scalar(const float* x, std::size_t n) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < n; ++i) acc += std::fabs(x[i]);
  return acc;
}

float sum_sq_scalar(const float* x, std::size_t n) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < n; ++i) acc += x[i] * x[i];
  return acc;
}

void fir_conv_scalar(const float* ext, const float* c, std::size_t taps,
                     float* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    float acc = 0.0f;
    for (std::size_t j = 0; j < taps; ++j) acc += c[j] * ext[i + j];
    out[i] = acc;
  }
}

void complex_butterfly_scalar(float* lo, float* hi, const float* tw,
                              std::size_t count) {
  for (std::size_t k = 0; k < count; ++k) {
    const float ur = lo[2 * k], ui = lo[2 * k + 1];
    const float vr = hi[2 * k], vi = hi[2 * k + 1];
    const float wr = tw[2 * k], wi = tw[2 * k + 1];
    const float pr = vr * wr - vi * wi;
    const float pi = vr * wi + vi * wr;
    lo[2 * k] = ur + pr;
    lo[2 * k + 1] = ui + pi;
    hi[2 * k] = ur - pr;
    hi[2 * k + 1] = ui - pi;
  }
}

void fft_pass_scalar(float* f, const float* tw, std::size_t n,
                     std::size_t half) {
  const std::size_t len = 2 * half;
  for (std::size_t i = 0; i < n; i += len) {
    complex_butterfly_scalar(f + 2 * i, f + 2 * (i + half), tw, half);
  }
}

void banded_dot_scalar(const float* w, const std::size_t* off,
                       const std::size_t* first, std::size_t rows,
                       const float* x, float* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = dot_scalar(w + off[r], x + first[r], off[r + 1] - off[r]);
  }
}

void matvec_scalar(const float* rows, const float* x, std::size_t cols,
                   std::size_t nrows, float* out) {
  for (std::size_t r = 0; r < nrows; ++r) {
    out[r] = dot_scalar(rows + r * cols, x, cols);
  }
}

struct Kernels {
  float (*dot)(const float*, const float*, std::size_t);
  void (*scale)(const float*, float, float*, std::size_t);
  void (*mul)(const float*, const float*, float*, std::size_t);
  void (*add)(const float*, const float*, float*, std::size_t);
  void (*axpy)(float, const float*, float*, std::size_t);
  void (*round_int16)(float*, std::size_t);
  float (*sum_abs)(const float*, std::size_t);
  float (*sum_sq)(const float*, std::size_t);
  void (*fir_conv)(const float*, const float*, std::size_t, float*,
                   std::size_t);
  void (*complex_butterfly)(float*, float*, const float*, std::size_t);
  void (*fft_pass)(float*, const float*, std::size_t, std::size_t);
  void (*banded_dot)(const float*, const std::size_t*, const std::size_t*,
                     std::size_t, const float*, float*);
  void (*matvec)(const float*, const float*, std::size_t, std::size_t,
                 float*);
  const char* name;
};

constexpr Kernels kScalar = {
    dot_scalar,     scale_scalar,  mul_scalar,
    add_scalar,     axpy_scalar,   round_int16_scalar, sum_abs_scalar,
    sum_sq_scalar,  fir_conv_scalar, complex_butterfly_scalar,
    fft_pass_scalar, banded_dot_scalar, matvec_scalar,
    "scalar"};

// --------------------------------------------------------------- SSE2
#if defined(WISHBONE_SIMD_X86)

inline float hsum128(__m128 v) {
  __m128 sh = _mm_add_ps(v, _mm_movehl_ps(v, v));       // (0+2, 1+3, _, _)
  sh = _mm_add_ss(sh, _mm_shuffle_ps(sh, sh, 0x55));    // 0+2+1+3
  return _mm_cvtss_f32(sh);
}

float dot_sse2(const float* a, const float* b, std::size_t n) {
  __m128 acc = _mm_setzero_ps();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm_add_ps(acc,
                     _mm_mul_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i)));
  }
  float r = hsum128(acc);
  for (; i < n; ++i) r += a[i] * b[i];
  return r;
}

void scale_sse2(const float* x, float s, float* y, std::size_t n) {
  const __m128 vs = _mm_set1_ps(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(y + i, _mm_mul_ps(vs, _mm_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] = s * x[i];
}

void mul_sse2(const float* a, const float* b, float* y, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(y + i,
                  _mm_mul_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i)));
  }
  for (; i < n; ++i) y[i] = a[i] * b[i];
}

void add_sse2(const float* a, const float* b, float* y, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(y + i,
                  _mm_add_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i)));
  }
  for (; i < n; ++i) y[i] = a[i] + b[i];
}

void axpy_sse2(float a, const float* x, float* y, std::size_t n) {
  const __m128 va = _mm_set1_ps(a);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(y + i, _mm_add_ps(_mm_loadu_ps(y + i),
                                    _mm_mul_ps(va, _mm_loadu_ps(x + i))));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

// max_ps(lo, r) is lo > r ? lo : r and min_ps(hi, v) is hi < v ? hi : v,
// the scalar rule's selects operand for operand (a NaN passes through
// both, as in the scalar rule).
void round_int16_sse2(float* y, std::size_t n) {
  const __m128 bias = _mm_set1_ps(graph::kInt16RoundBias);
  const __m128 lo = _mm_set1_ps(-32768.0f);
  const __m128 hi = _mm_set1_ps(32767.0f);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 r = _mm_sub_ps(_mm_add_ps(_mm_loadu_ps(y + i), bias), bias);
    _mm_storeu_ps(y + i, _mm_min_ps(hi, _mm_max_ps(lo, r)));
  }
  round_int16_scalar(y + i, n - i);
}

float sum_abs_sse2(const float* x, std::size_t n) {
  const __m128 mask =
      _mm_castsi128_ps(_mm_set1_epi32(0x7fffffff));  // clear sign bit
  __m128 acc = _mm_setzero_ps();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm_add_ps(acc, _mm_and_ps(mask, _mm_loadu_ps(x + i)));
  }
  float r = hsum128(acc);
  for (; i < n; ++i) r += std::fabs(x[i]);
  return r;
}

float sum_sq_sse2(const float* x, std::size_t n) {
  __m128 acc = _mm_setzero_ps();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 v = _mm_loadu_ps(x + i);
    acc = _mm_add_ps(acc, _mm_mul_ps(v, v));
  }
  float r = hsum128(acc);
  for (; i < n; ++i) r += x[i] * x[i];
  return r;
}

void fir_conv_sse2(const float* ext, const float* c, std::size_t taps,
                   float* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m128 acc = _mm_setzero_ps();
    for (std::size_t j = 0; j < taps; ++j) {
      acc = _mm_add_ps(
          acc, _mm_mul_ps(_mm_set1_ps(c[j]), _mm_loadu_ps(ext + i + j)));
    }
    _mm_storeu_ps(out + i, acc);
  }
  if (i < n) fir_conv_scalar(ext + i, c, taps, out + i, n - i);
}

void complex_butterfly_sse2(float* lo, float* hi, const float* tw,
                            std::size_t count) {
  // Sign mask negating the even (real-position) lanes: emulates the
  // SSE3 addsub at the SSE2 baseline.
  const __m128 neg_even = _mm_castsi128_ps(_mm_set_epi32(
      0, static_cast<int>(0x80000000), 0, static_cast<int>(0x80000000)));
  std::size_t k = 0;
  for (; k + 2 <= count; k += 2) {  // 2 complex = 4 floats per iteration
    const __m128 v = _mm_loadu_ps(hi + 2 * k);
    const __m128 w = _mm_loadu_ps(tw + 2 * k);
    const __m128 wr = _mm_shuffle_ps(w, w, 0xA0);     // (wr, wr) per pair
    const __m128 wi = _mm_shuffle_ps(w, w, 0xF5);     // (wi, wi) per pair
    const __m128 vswap = _mm_shuffle_ps(v, v, 0xB1);  // (vi, vr) per pair
    // prod = (vr*wr - vi*wi, vi*wr + vr*wi)
    const __m128 prod = _mm_add_ps(
        _mm_mul_ps(wr, v), _mm_xor_ps(_mm_mul_ps(wi, vswap), neg_even));
    const __m128 u = _mm_loadu_ps(lo + 2 * k);
    _mm_storeu_ps(lo + 2 * k, _mm_add_ps(u, prod));
    _mm_storeu_ps(hi + 2 * k, _mm_sub_ps(u, prod));
  }
  if (k < count) {
    complex_butterfly_scalar(lo + 2 * k, hi + 2 * k, tw + 2 * k, count - k);
  }
}

void fft_pass_sse2(float* f, const float* tw, std::size_t n,
                   std::size_t half) {
  if (half == 1) {
    // Twiddle is (1, -/+0): the butterfly degenerates to (u+v, u-v).
    // Vectorize across adjacent blocks: [ur,ui,vr,vi] per 4 floats.
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
      const __m128 a = _mm_loadu_ps(f + 2 * i);
      const __m128 b = _mm_shuffle_ps(a, a, 0x4E);  // swap complex halves
      const __m128 sum = _mm_add_ps(a, b);          // (u+v, v+u)
      const __m128 diff = _mm_sub_ps(b, a);         // (v-u, u-v)
      _mm_storeu_ps(f + 2 * i,
                    _mm_shuffle_ps(sum, diff, 0xE4));  // (u+v, u-v)
    }
    for (; i < n; i += 2) {
      complex_butterfly_scalar(f + 2 * i, f + 2 * (i + 1), tw, 1);
    }
    return;
  }
  const std::size_t len = 2 * half;
  for (std::size_t i = 0; i < n; i += len) {
    complex_butterfly_sse2(f + 2 * i, f + 2 * (i + half), tw, half);
  }
}

void banded_dot_sse2(const float* w, const std::size_t* off,
                     const std::size_t* first, std::size_t rows,
                     const float* x, float* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = dot_sse2(w + off[r], x + first[r], off[r + 1] - off[r]);
  }
}

void matvec_sse2(const float* rows, const float* x, std::size_t cols,
                 std::size_t nrows, float* out) {
  for (std::size_t r = 0; r < nrows; ++r) {
    out[r] = dot_sse2(rows + r * cols, x, cols);
  }
}

constexpr Kernels kSse2 = {
    dot_sse2,     scale_sse2,  mul_sse2,
    add_sse2,     axpy_sse2,   round_int16_sse2, sum_abs_sse2,
    sum_sq_sse2,  fir_conv_sse2, complex_butterfly_sse2,
    fft_pass_sse2, banded_dot_sse2, matvec_sse2,
    "sse2"};

// ----------------------------------------------------------- AVX2+FMA
#define WB_AVX2 __attribute__((target("avx2,fma")))

WB_AVX2 inline float hsum256(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  return hsum128(_mm_add_ps(lo, hi));
}

WB_AVX2 float dot_avx2(const float* a, const float* b, std::size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
  }
  float r = hsum256(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) r += a[i] * b[i];
  return r;
}

WB_AVX2 void scale_avx2(const float* x, float s, float* y, std::size_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_mul_ps(vs, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] = s * x[i];
}

WB_AVX2 void mul_avx2(const float* a, const float* b, float* y,
                      std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) y[i] = a[i] * b[i];
}

WB_AVX2 void add_avx2(const float* a, const float* b, float* y,
                      std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) y[i] = a[i] + b[i];
}

WB_AVX2 void axpy_avx2(float a, const float* x, float* y, std::size_t n) {
  const __m256 va = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i),
                                            _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

WB_AVX2 void round_int16_avx2(float* y, std::size_t n) {
  const __m256 bias = _mm256_set1_ps(graph::kInt16RoundBias);
  const __m256 lo = _mm256_set1_ps(-32768.0f);
  const __m256 hi = _mm256_set1_ps(32767.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 r =
        _mm256_sub_ps(_mm256_add_ps(_mm256_loadu_ps(y + i), bias), bias);
    _mm256_storeu_ps(y + i, _mm256_min_ps(hi, _mm256_max_ps(lo, r)));
  }
  round_int16_scalar(y + i, n - i);
}

WB_AVX2 float sum_abs_avx2(const float* x, std::size_t n) {
  const __m256 mask =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm256_add_ps(acc, _mm256_and_ps(mask, _mm256_loadu_ps(x + i)));
  }
  float r = hsum256(acc);
  for (; i < n; ++i) r += std::fabs(x[i]);
  return r;
}

WB_AVX2 float sum_sq_avx2(const float* x, std::size_t n) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    acc = _mm256_fmadd_ps(v, v, acc);
  }
  float r = hsum256(acc);
  for (; i < n; ++i) r += x[i] * x[i];
  return r;
}

WB_AVX2 void fir_conv_avx2(const float* ext, const float* c,
                           std::size_t taps, float* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 acc = _mm256_setzero_ps();
    for (std::size_t j = 0; j < taps; ++j) {
      acc = _mm256_fmadd_ps(_mm256_set1_ps(c[j]),
                            _mm256_loadu_ps(ext + i + j), acc);
    }
    _mm256_storeu_ps(out + i, acc);
  }
  if (i < n) fir_conv_sse2(ext + i, c, taps, out + i, n - i);
}

WB_AVX2 void complex_butterfly_avx2(float* lo, float* hi, const float* tw,
                                    std::size_t count) {
  std::size_t k = 0;
  for (; k + 4 <= count; k += 4) {  // 4 complex = 8 floats per iteration
    const __m256 v = _mm256_loadu_ps(hi + 2 * k);
    const __m256 w = _mm256_loadu_ps(tw + 2 * k);
    const __m256 t1 = _mm256_mul_ps(_mm256_moveldup_ps(w), v);
    const __m256 vswap = _mm256_permute_ps(v, 0xB1);
    const __m256 t2 = _mm256_mul_ps(_mm256_movehdup_ps(w), vswap);
    const __m256 prod = _mm256_addsub_ps(t1, t2);
    const __m256 u = _mm256_loadu_ps(lo + 2 * k);
    _mm256_storeu_ps(lo + 2 * k, _mm256_add_ps(u, prod));
    _mm256_storeu_ps(hi + 2 * k, _mm256_sub_ps(u, prod));
  }
  if (k < count) {
    complex_butterfly_sse2(lo + 2 * k, hi + 2 * k, tw + 2 * k, count - k);
  }
}

WB_AVX2 void fft_pass_avx2(float* f, const float* tw, std::size_t n,
                           std::size_t half) {
  if (half == 1) {
    // Twiddle is (1, -/+0): butterfly degenerates to (u+v, u-v).
    // Two blocks (8 floats) per iteration, swapped via 64-bit shuffles.
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m256 a = _mm256_loadu_ps(f + 2 * i);
      const __m256 b = _mm256_permute_ps(a, 0x4E);  // swap complex pairs
      const __m256 sum = _mm256_add_ps(a, b);       // (u+v, v+u) pairs
      const __m256 diff = _mm256_sub_ps(b, a);      // (v-u, u-v) pairs
      // Keep sum at complex positions 0,2 and diff at 1,3.
      _mm256_storeu_ps(f + 2 * i, _mm256_blend_ps(sum, diff, 0xCC));
    }
    for (; i < n; i += 2) {
      complex_butterfly_scalar(f + 2 * i, f + 2 * (i + 1), tw, 1);
    }
    return;
  }
  const std::size_t len = 2 * half;
  if (half >= 4) {
    for (std::size_t i = 0; i < n; i += len) {
      complex_butterfly_avx2(f + 2 * i, f + 2 * (i + half), tw, half);
    }
  } else {  // half == 2: one SSE2 vector iteration per block
    for (std::size_t i = 0; i < n; i += len) {
      complex_butterfly_sse2(f + 2 * i, f + 2 * (i + half), tw, half);
    }
  }
}

WB_AVX2 void banded_dot_avx2(const float* w, const std::size_t* off,
                             const std::size_t* first, std::size_t rows,
                             const float* x, float* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t len = off[r + 1] - off[r];
    const float* a = w + off[r];
    const float* b = x + first[r];
    // Mel triangles are short (a handful of bins); one 8-lane FMA plus
    // a scalar tail beats the general two-accumulator dot here.
    if (len >= 8) {
      __m256 acc = _mm256_setzero_ps();
      std::size_t i = 0;
      for (; i + 8 <= len; i += 8) {
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                              acc);
      }
      float v = hsum256(acc);
      for (; i < len; ++i) v += a[i] * b[i];
      out[r] = v;
    } else if (len >= 4) {
      __m128 acc = _mm_mul_ps(_mm_loadu_ps(a), _mm_loadu_ps(b));
      float v = hsum128(acc);
      for (std::size_t i = 4; i < len; ++i) v += a[i] * b[i];
      out[r] = v;
    } else {
      float v = 0.0f;
      for (std::size_t i = 0; i < len; ++i) v += a[i] * b[i];
      out[r] = v;
    }
  }
}

WB_AVX2 void matvec_avx2(const float* rows, const float* x, std::size_t cols,
                         std::size_t nrows, float* out) {
  std::size_t r = 0;
  for (; r + 2 <= nrows; r += 2) {  // share the x loads across two rows
    const float* r0 = rows + r * cols;
    const float* r1 = r0 + cols;
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 8 <= cols; i += 8) {
      const __m256 xv = _mm256_loadu_ps(x + i);
      acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(r0 + i), xv, acc0);
      acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(r1 + i), xv, acc1);
    }
    float v0 = hsum256(acc0);
    float v1 = hsum256(acc1);
    for (; i < cols; ++i) {
      v0 += r0[i] * x[i];
      v1 += r1[i] * x[i];
    }
    out[r] = v0;
    out[r + 1] = v1;
  }
  if (r < nrows) out[r] = dot_avx2(rows + r * cols, x, cols);
}

constexpr Kernels kAvx2 = {
    dot_avx2,     scale_avx2,  mul_avx2,
    add_avx2,     axpy_avx2,   round_int16_avx2, sum_abs_avx2,
    sum_sq_avx2,  fir_conv_avx2, complex_butterfly_avx2,
    fft_pass_avx2, banded_dot_avx2, matvec_avx2,
    "avx2"};

#endif  // WISHBONE_SIMD_X86

// --------------------------------------------------------------- NEON
#if defined(WISHBONE_SIMD_NEON)

inline float hsum_neon(float32x4_t v) {
#if defined(__aarch64__)
  return vaddvq_f32(v);
#else
  float32x2_t s = vadd_f32(vget_low_f32(v), vget_high_f32(v));
  s = vpadd_f32(s, s);
  return vget_lane_f32(s, 0);
#endif
}

float dot_neon(const float* a, const float* b, std::size_t n) {
  float32x4_t acc = vdupq_n_f32(0.0f);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = vmlaq_f32(acc, vld1q_f32(a + i), vld1q_f32(b + i));
  }
  float r = hsum_neon(acc);
  for (; i < n; ++i) r += a[i] * b[i];
  return r;
}

void scale_neon(const float* x, float s, float* y, std::size_t n) {
  const float32x4_t vs = vdupq_n_f32(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i, vmulq_f32(vs, vld1q_f32(x + i)));
  }
  for (; i < n; ++i) y[i] = s * x[i];
}

void mul_neon(const float* a, const float* b, float* y, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i, vmulq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  for (; i < n; ++i) y[i] = a[i] * b[i];
}

void add_neon(const float* a, const float* b, float* y, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i, vaddq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  for (; i < n; ++i) y[i] = a[i] + b[i];
}

void axpy_neon(float a, const float* x, float* y, std::size_t n) {
  const float32x4_t va = vdupq_n_f32(a);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i, vmlaq_f32(vld1q_f32(y + i), va, vld1q_f32(x + i)));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

float sum_abs_neon(const float* x, std::size_t n) {
  float32x4_t acc = vdupq_n_f32(0.0f);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = vaddq_f32(acc, vabsq_f32(vld1q_f32(x + i)));
  }
  float r = hsum_neon(acc);
  for (; i < n; ++i) r += std::fabs(x[i]);
  return r;
}

float sum_sq_neon(const float* x, std::size_t n) {
  float32x4_t acc = vdupq_n_f32(0.0f);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t v = vld1q_f32(x + i);
    acc = vmlaq_f32(acc, v, v);
  }
  float r = hsum_neon(acc);
  for (; i < n; ++i) r += x[i] * x[i];
  return r;
}

void fir_conv_neon(const float* ext, const float* c, std::size_t taps,
                   float* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    float32x4_t acc = vdupq_n_f32(0.0f);
    for (std::size_t j = 0; j < taps; ++j) {
      acc = vmlaq_n_f32(acc, vld1q_f32(ext + i + j), c[j]);
    }
    vst1q_f32(out + i, acc);
  }
  if (i < n) fir_conv_scalar(ext + i, c, taps, out + i, n - i);
}

void fft_pass_neon(float* f, const float* tw, std::size_t n,
                   std::size_t half) {
  const std::size_t len = 2 * half;
  for (std::size_t i = 0; i < n; i += len) {
    complex_butterfly_scalar(f + 2 * i, f + 2 * (i + half), tw, half);
  }
}

void banded_dot_neon(const float* w, const std::size_t* off,
                     const std::size_t* first, std::size_t rows,
                     const float* x, float* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = dot_neon(w + off[r], x + first[r], off[r + 1] - off[r]);
  }
}

void matvec_neon(const float* rows, const float* x, std::size_t cols,
                 std::size_t nrows, float* out) {
  for (std::size_t r = 0; r < nrows; ++r) {
    out[r] = dot_neon(rows + r * cols, x, cols);
  }
}

constexpr Kernels kNeon = {
    dot_neon,     scale_neon,  mul_neon,
    add_neon,     axpy_neon,   round_int16_scalar, sum_abs_neon,
    sum_sq_neon,  fir_conv_neon, complex_butterfly_scalar,
    fft_pass_neon, banded_dot_neon, matvec_neon,
    "neon"};

#endif  // WISHBONE_SIMD_NEON

const Kernels* pick_best() {
#if defined(WISHBONE_SIMD_X86)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return &kAvx2;
  }
#if defined(__x86_64__)
  return &kSse2;  // SSE2 is part of the x86-64 baseline
#else
  if (__builtin_cpu_supports("sse2")) return &kSse2;
  return &kScalar;
#endif
#elif defined(WISHBONE_SIMD_NEON)
  return &kNeon;
#else
  return &kScalar;
#endif
}

const Kernels& best() {
  static const Kernels* k = pick_best();
  return *k;
}

std::atomic<bool> g_force_scalar{false};

inline const Kernels& active() {
  return g_force_scalar.load(std::memory_order_relaxed) ? kScalar : best();
}

}  // namespace

const char* isa_name() { return best().name; }
bool vectorized() { return &active() != &kScalar; }
void force_scalar(bool on) {
  g_force_scalar.store(on, std::memory_order_relaxed);
}
bool forced_scalar() {
  return g_force_scalar.load(std::memory_order_relaxed);
}

float dot(const float* a, const float* b, std::size_t n) {
  return active().dot(a, b, n);
}
void scale(const float* x, float s, float* y, std::size_t n) {
  active().scale(x, s, y, n);
}
void mul(const float* a, const float* b, float* y, std::size_t n) {
  active().mul(a, b, y, n);
}
void add(const float* a, const float* b, float* y, std::size_t n) {
  active().add(a, b, y, n);
}
void axpy(float a, const float* x, float* y, std::size_t n) {
  active().axpy(a, x, y, n);
}
void round_int16(float* y, std::size_t n) { active().round_int16(y, n); }
float sum_abs(const float* x, std::size_t n) { return active().sum_abs(x, n); }
float sum_sq(const float* x, std::size_t n) { return active().sum_sq(x, n); }
void fir_conv(const float* ext, const float* c, std::size_t taps, float* out,
              std::size_t n) {
  active().fir_conv(ext, c, taps, out, n);
}
void complex_butterfly(float* lo, float* hi, const float* tw,
                       std::size_t count) {
  active().complex_butterfly(lo, hi, tw, count);
}
void fft_pass(float* f, const float* tw, std::size_t n, std::size_t half) {
  active().fft_pass(f, tw, n, half);
}
void banded_dot(const float* w, const std::size_t* off,
                const std::size_t* first, std::size_t rows, const float* x,
                float* out) {
  active().banded_dot(w, off, first, rows, x, out);
}
void matvec(const float* rows, const float* x, std::size_t cols,
            std::size_t nrows, float* out) {
  active().matvec(rows, x, cols, nrows, out);
}

}  // namespace wishbone::dsp::simd
