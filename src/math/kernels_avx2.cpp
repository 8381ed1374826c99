// kernels_avx2.cpp — AVX2 kernel backend, selected at
// runtime by the dispatcher in kernels.cpp (see the dispatch model in
// kernels.hpp).  This TU compiles WITHOUT global ISA flags: each function
// carries a target attribute, so the binary stays runnable on pre-AVX2
// hosts — the dispatcher only routes here after cpuid says the host can
// execute these instructions.
//
// Lane discipline (shared with the portable unrolled8 backend): in the
// fast reductions term i feeds accumulator i mod 8 within each 8-wide
// block, partials combine as ((s0+s4)+(s1+s5)) + ((s2+s6)+(s3+s7)),
// scalar tail last; in the pairwise block each lane is one (destination,
// source) pair summed in coordinate order.  Each function performs the
// exact same correctly-rounded multiply and add the portable backend
// performs — target("avx2") only, never "fma" — so the two agree
// bit-for-bit.

#include "math/kernels_isa.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace dpbyz::kernels::detail {

bool cpu_has_avx2() { return __builtin_cpu_supports("avx2"); }

namespace {

__attribute__((target("avx2"))) inline double combine(__m256d acc0, __m256d acc1) {
  // acc0 lanes = (s0, s1, s2, s3), acc1 lanes = (s4, s5, s6, s7).
  const __m256d acc = _mm256_add_pd(acc0, acc1);  // (s0+s4, ..., s3+s7)
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

}  // namespace

__attribute__((target("avx2"))) double avx2_dist_sq(const double* a, const double* b,
                                                    size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d d0 = _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    const __m256d d1 =
        _mm256_sub_pd(_mm256_loadu_pd(a + i + 4), _mm256_loadu_pd(b + i + 4));
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(d0, d0));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(d1, d1));
  }
  double out = combine(acc0, acc1);
  for (; i < n; ++i) {
    const double diff = a[i] - b[i];
    out += diff * diff;
  }
  return out;
}

__attribute__((target("avx2"))) double avx2_dot(const double* a, const double* b,
                                                size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_add_pd(acc0,
                         _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
    acc1 = _mm256_add_pd(
        acc1, _mm256_mul_pd(_mm256_loadu_pd(a + i + 4), _mm256_loadu_pd(b + i + 4)));
  }
  double out = combine(acc0, acc1);
  for (; i < n; ++i) out += a[i] * b[i];
  return out;
}

__attribute__((target("avx2"))) double avx2_norm_sq(const double* a, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d v0 = _mm256_loadu_pd(a + i);
    const __m256d v1 = _mm256_loadu_pd(a + i + 4);
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(v0, v0));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(v1, v1));
  }
  double out = combine(acc0, acc1);
  for (; i < n; ++i) out += a[i] * a[i];
  return out;
}

__attribute__((target("avx2"))) void avx2_axpy(double* a, double s, const double* b,
                                               size_t n) {
  const __m256d vs = _mm256_set1_pd(s);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_pd(a + i, _mm256_add_pd(_mm256_loadu_pd(a + i),
                                          _mm256_mul_pd(vs, _mm256_loadu_pd(b + i))));
    _mm256_storeu_pd(
        a + i + 4, _mm256_add_pd(_mm256_loadu_pd(a + i + 4),
                                 _mm256_mul_pd(vs, _mm256_loadu_pd(b + i + 4))));
  }
  for (; i < n; ++i) a[i] += s * b[i];
}

__attribute__((target("avx2"))) void avx2_scale(double* a, double s, size_t n) {
  const __m256d vs = _mm256_set1_pd(s);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_pd(a + i, _mm256_mul_pd(vs, _mm256_loadu_pd(a + i)));
    _mm256_storeu_pd(a + i + 4, _mm256_mul_pd(vs, _mm256_loadu_pd(a + i + 4)));
  }
  for (; i < n; ++i) a[i] *= s;
}

namespace {

// One coordinate step of the pairwise block: c holds coordinate k of the
// four destination rows (lane l = row a[l]); each source row's value is
// broadcast against it, and lane l of acc[s] gains (a[l][k] - b[s][k])²
// through a separate subtract, multiply and add.
template <size_t S>
__attribute__((target("avx2"), always_inline)) inline void block_step(
    __m256d* acc, const double* const* b, __m256d c, size_t k) {
  for (size_t s = 0; s < S; ++s) {
    const __m256d e = _mm256_sub_pd(c, _mm256_broadcast_sd(b[s] + k));
    acc[s] = _mm256_add_pd(acc[s], _mm256_mul_pd(e, e));
  }
}

// Lanes across pairs: every lane walks k = 0..n-1 in order with one
// accumulator, so lane l of acc[s] is bit-identical to the scalar loop
// over (a[l], b[s]).  Four coordinates of the four destination rows are
// loaded and transposed in registers, so each is read once per block.
template <size_t S>
__attribute__((target("avx2"))) void dist_sq_block(const double* const* a,
                                                   const double* const* b, size_t n,
                                                   double* out) {
  __m256d acc[S];
  for (size_t s = 0; s < S; ++s) acc[s] = _mm256_setzero_pd();
  const double* a0 = a[0];
  const double* a1 = a[1];
  const double* a2 = a[2];
  const double* a3 = a[3];
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256d r0 = _mm256_loadu_pd(a0 + k), r1 = _mm256_loadu_pd(a1 + k);
    const __m256d r2 = _mm256_loadu_pd(a2 + k), r3 = _mm256_loadu_pd(a3 + k);
    const __m256d lo01 = _mm256_unpacklo_pd(r0, r1);  // a0[k], a1[k], a0[k+2], a1[k+2]
    const __m256d hi01 = _mm256_unpackhi_pd(r0, r1);  // a0[k+1], a1[k+1], ...
    const __m256d lo23 = _mm256_unpacklo_pd(r2, r3);
    const __m256d hi23 = _mm256_unpackhi_pd(r2, r3);
    block_step<S>(acc, b, _mm256_permute2f128_pd(lo01, lo23, 0x20), k);
    block_step<S>(acc, b, _mm256_permute2f128_pd(hi01, hi23, 0x20), k + 1);
    block_step<S>(acc, b, _mm256_permute2f128_pd(lo01, lo23, 0x31), k + 2);
    block_step<S>(acc, b, _mm256_permute2f128_pd(hi01, hi23, 0x31), k + 3);
  }
  for (; k < n; ++k) block_step<S>(acc, b, _mm256_set_pd(a3[k], a2[k], a1[k], a0[k]), k);
  for (size_t s = 0; s < S; ++s) _mm256_storeu_pd(out + 4 * s, acc[s]);
}

}  // namespace

void avx2_dist_sq_block(const double* const* a, const double* const* b, size_t m,
                        size_t n, double* out) {
  switch (m) {
    case 1:
      return dist_sq_block<1>(a, b, n, out);
    case 2:
      return dist_sq_block<2>(a, b, n, out);
    case 3:
      return dist_sq_block<3>(a, b, n, out);
    default:
      return dist_sq_block<4>(a, b, n, out);
  }
}

}  // namespace dpbyz::kernels::detail

#else  // non-x86: probes report false, so these bodies are unreachable.

namespace dpbyz::kernels::detail {

bool cpu_has_avx2() { return false; }

double avx2_dist_sq(const double*, const double*, size_t) { return 0.0; }
double avx2_dot(const double*, const double*, size_t) { return 0.0; }
double avx2_norm_sq(const double*, size_t) { return 0.0; }
void avx2_axpy(double*, double, const double*, size_t) {}
void avx2_scale(double*, double, size_t) {}
void avx2_dist_sq_block(const double* const*, const double* const*, size_t, size_t,
                        double*) {}

}  // namespace dpbyz::kernels::detail

#endif
