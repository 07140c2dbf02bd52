// Portable SIMD shim for the DSP hot loops (DSPBB-style vectorization).
//
// The kernels in src/dsp/ funnel their inner loops through the small set
// of primitives declared here: dot products (FIR taps, mel filters, DCT
// rows, SVM), elementwise map/reduce (windowing, gain, energy), a
// vectorize-across-outputs FIR convolution, and interleaved complex
// butterflies (FFT). Each primitive has a scalar reference
// implementation plus SSE2 / AVX2+FMA (x86, runtime-dispatched via
// cpuid) and NEON (AArch64, compile-time) variants living in simd.cpp.
//
// Dispatch contract:
//  - The scalar path is the semantic reference. Vector paths may
//    reassociate reductions, so results can differ by a few ULPs; the
//    differential suite (tests/test_dsp_simd.cpp) bounds the drift.
//  - force_scalar(true) routes every call through the scalar reference
//    at runtime — this is how benches A/B the same binary and how the
//    differential tests obtain their reference values.
//  - Building with -DWISHBONE_SIMD=OFF (macro WISHBONE_SIMD_DISABLED)
//    compiles the vector variants out entirely; every call is scalar.
//  - No alignment requirement: all vector loads/stores are unaligned,
//    so views may start at any float boundary.
//  - None of these functions allocate.
#pragma once

#include <cstddef>

namespace wishbone::dsp::simd {

/// Widest vector width (floats) any compiled-in path uses. Useful for
/// sizing test sweeps; kernels never require padding to this width.
inline constexpr std::size_t kMaxLanes = 8;

/// Name of the instruction set the dispatcher selected at load time:
/// "avx2", "sse2", "neon" or "scalar". Unaffected by force_scalar().
[[nodiscard]] const char* isa_name();

/// True if the *active* path is vectorized (a vector ISA was selected
/// and force_scalar(false)).
[[nodiscard]] bool vectorized();

/// Runtime kill switch: route everything through the scalar reference.
void force_scalar(bool on);
[[nodiscard]] bool forced_scalar();

/// sum_i a[i] * b[i]
[[nodiscard]] float dot(const float* a, const float* b, std::size_t n);

/// y[i] = s * x[i] (x may alias y)
void scale(const float* x, float s, float* y, std::size_t n);

/// y[i] = a[i] * b[i] (a or b may alias y)
void mul(const float* a, const float* b, float* y, std::size_t n);

/// y[i] = a[i] + b[i] (a or b may alias y)
void add(const float* a, const float* b, float* y, std::size_t n);

/// y[i] += a * x[i]
void axpy(float a, const float* x, float* y, std::size_t n);

/// y[i] = graph::round_int16(y[i]) (round half to even, saturate to
/// the int16 range). Exact in every path, so all return the scalar
/// rule's values bit for bit.
void round_int16(float* y, std::size_t n);

/// sum_i |x[i]|
[[nodiscard]] float sum_abs(const float* x, std::size_t n);

/// sum_i x[i]^2
[[nodiscard]] float sum_sq(const float* x, std::size_t n);

/// Dense FIR convolution, vectorized across *outputs* so that even
/// 2- and 4-tap filters fill full vector lanes:
///   out[i] = sum_j c[j] * ext[i + j]   for i in [0, n)
/// `ext` must hold n + taps - 1 readable samples ([history | frame]
/// with taps given newest-last, i.e. reversed relative to FirFilter's
/// coefficient order). out must not alias ext.
void fir_conv(const float* ext, const float* c, std::size_t taps,
              float* out, std::size_t n);

/// `count` radix-2 butterflies over interleaved complex floats with
/// precomputed twiddles:
///   (lo[k], hi[k]) <- (lo[k] + tw[k]*hi[k], lo[k] - tw[k]*hi[k])
/// lo / hi / tw each hold 2*count floats as re,im pairs.
void complex_butterfly(float* lo, float* hi, const float* tw,
                       std::size_t count);

/// One whole radix-2 FFT level over n interleaved complex samples in f:
/// complex_butterfly applied to every block of length 2*half, sharing
/// the level's `half` twiddles. A single dispatched call per level —
/// the early levels have tiny per-block counts (half = 1, 2, ...), so
/// per-block dispatch would cost more than the butterflies themselves.
/// The half == 1 level (twiddle = 1) is additionally vectorized across
/// blocks on x86.
void fft_pass(float* f, const float* tw, std::size_t n, std::size_t half);

/// Batched variable-length dot products against one signal (the mel
/// filterbank shape): for each row r in [0, rows),
///   out[r] = dot(w + off[r], x + first[r], off[r+1] - off[r])
/// One dispatched call for the whole bank; rows are typically far
/// shorter than a vector-dispatch call is worth individually.
void banded_dot(const float* w, const std::size_t* off,
                const std::size_t* first, std::size_t rows, const float* x,
                float* out);

/// Small dense matrix-vector product (the DCT-II / projection shape):
///   out[r] = dot(rows + r*cols, x, cols)   for r in [0, nrows)
/// Vector paths unroll across rows so the x loads are shared.
void matvec(const float* rows, const float* x, std::size_t cols,
            std::size_t nrows, float* out);

}  // namespace wishbone::dsp::simd
